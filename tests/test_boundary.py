"""Each public function computes with the plain int its boundary check returns.

So a modulus, residue or count that is an integer only through `__index__`
gives the result of the plain int, and a non-integer modulus is refused with
BadModulus before anything else runs.
"""

import pytest

from diaghooks import (
    Abacus,
    Partition,
    beta_of,
    classify_p_hook,
    core_and_quotient,
    delta_concentrated_center,
    delta_concentrated_pair,
    delta_general,
    diagonal_bisequence,
    enumerate_partitions,
    from_core_and_quotient,
    from_delta_lengths,
    hooks_of,
    is_gamma_packed,
    is_p_core,
    p_core,
    p_quotient,
    render_ascii,
    residue_class,
    to_abacus,
)
from diaghooks.errors import BadModulus


class Index:
    """An integer only through `__index__`: no arithmetic, ordering or equality with ints."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


LA = Partition((6, 4, 3, 2, 2, 1))
SC = from_delta_lengths((15, 9, 5, 1))  # arms 7, 4, 2, 0: residues 2, 4, 2, 0 mod 5
CORE, QUOTIENT = core_and_quotient(SC, 5)
D = diagonal_bisequence(SC)
HOOK_LA = Partition((3, 1, 1))  # self-conjugate, with an empty 5-core
HOOK = next(h for h in hooks_of(to_abacus(HOOK_LA, 5).beads) if h.length == 5)
PAIR = Partition((2, 1))

MODULUS_SITES = {
    "to_abacus": lambda p: to_abacus(LA, p),
    "Abacus": lambda p: Abacus(p, beta_of(LA, 10)),
    "p_core": lambda p: p_core(LA, p),
    "p_quotient": lambda p: p_quotient(LA, p),
    "core_and_quotient": lambda p: core_and_quotient(LA, p),
    "render_ascii": lambda p: render_ascii(LA, p),
    "is_p_core": lambda p: is_p_core(LA, p),
    "from_core_and_quotient": lambda p: from_core_and_quotient(CORE, QUOTIENT, p),
    "classify_p_hook": lambda p: classify_p_hook(HOOK_LA, p, HOOK),
    "delta_general": lambda p: delta_general(CORE, QUOTIENT, p),
    "delta_concentrated_pair": lambda p: delta_concentrated_pair(PAIR, 1, p),
    "delta_concentrated_center": lambda p: delta_concentrated_center(PAIR, p),
    "residue_class": lambda p: residue_class(D, p, 2),
    "is_gamma_packed": lambda p: is_gamma_packed(D, p, 2),
}

CASES = {
    **{f"modulus-{name}": (call, 5) for name, call in MODULUS_SITES.items()},
    "residue-residue_class": (lambda g: residue_class(D, 5, g), 2),
    "residue-is_gamma_packed": (lambda g: is_gamma_packed(D, 5, g), 2),
    "residue-delta_concentrated_pair": (lambda g: delta_concentrated_pair(PAIR, g, 5), 1),
    "count-enumerate_partitions": (lambda n: list(enumerate_partitions(n)), 7),
    "count-enumerate_partitions-symmetric": (lambda n: list(enumerate_partitions(n, symmetric_only=True)), 16),
}


@pytest.mark.parametrize("call, value", CASES.values(), ids=CASES)
def test_index_only_input_gives_the_plain_int_result(call, value):
    expected = call(value)
    assert expected  # each case has something to get wrong
    assert call(Index(value)) == expected


@pytest.mark.parametrize("call", MODULUS_SITES.values(), ids=MODULUS_SITES)
def test_non_integer_modulus_is_the_first_error(call):
    with pytest.raises(BadModulus, match="p must be an integer >= 2, got 2.5"):
        call(2.5)
