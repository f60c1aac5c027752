"""Each public function computes with the plain int its boundary check returns.

So a modulus, residue or count that is an integer only through `__index__`
gives the result of the plain int, and a non-integer modulus is refused with
BadModulus before anything else runs. A shift amount, the legs it shifts and
the ends of a hook follow the same integer rule.
"""

import re

import pytest

from conftest import Index
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
    is_concentrated,
    is_gamma_packed,
    is_p_core,
    is_symmetric_quotient,
    p_core,
    p_quotient,
    render_ascii,
    residue_class,
    to_abacus,
)
from diaghooks.beta import BetaHook, BetaSet, remove_hook, young_hook
from diaghooks.bisequence import Bisequence, QuotientEntry
from diaghooks.errors import (
    BadModulus,
    BadResidue,
    InternalInconsistency,
    InvalidBetaSet,
    InvalidDeltaSet,
    NonPositivePart,
    NotAPHook,
    NotStrictlyDecreasing,
    WrongQuotientLength,
)
from diaghooks.formula import d0_shift, shift_sets
from diaghooks.partitions import DeltaSet, from_frobenius
from diaghooks.verify import run_verify


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
    "is_symmetric_quotient": lambda p: is_symmetric_quotient(QUOTIENT, p),
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


@pytest.mark.parametrize("p", [1, True])
def test_symmetric_quotient_refuses_a_modulus_its_length_could_match(p):
    with pytest.raises(BadModulus, match=f"got {p!r}"):
        is_symmetric_quotient((Partition((1,)),), p)


ENTRY = QuotientEntry((1,), (0,))
HOOK_BEADS = BetaSet((2,))
HOOK_END_SHOWN = "is not a hook of this bead set"
LEGS_SHOWN = "legs must be non-negative integers"

INTEGER_RULE_CASES = {
    # each value is a refusal (error, message) or the plain-int call whose result the call must give
    "shift_sets-float": (lambda: shift_sets((0,), 2.5), (InternalInconsistency, "got 2.5")),
    "shift_sets-str": (lambda: shift_sets((0,), "2"), (InternalInconsistency, "got '2'")),
    "shift_sets-bool": (lambda: shift_sets((0,), True), (InternalInconsistency, "got True")),
    "shift_sets-index": (lambda: shift_sets((0,), Index(2)), lambda: shift_sets((0,), 2)),
    "shift_sets-leg-float": (lambda: shift_sets((2.5,), 2), (NotStrictlyDecreasing, LEGS_SHOWN)),
    "shift_sets-leg-bool": (lambda: shift_sets((True,), 2), (NotStrictlyDecreasing, LEGS_SHOWN)),
    "shift_sets-leg-str": (lambda: shift_sets(("a",), 2), (NotStrictlyDecreasing, LEGS_SHOWN)),
    "shift_sets-leg-negative": (lambda: shift_sets((-1,), 2), (NotStrictlyDecreasing, LEGS_SHOWN)),
    "shift_sets-leg-repeated": (
        lambda: shift_sets((0, 0), 2),
        (NotStrictlyDecreasing, "legs must strictly decrease, found 0 then 0"),
    ),
    "shift_sets-leg-index": (lambda: shift_sets((Index(3), Index(0)), 2), lambda: shift_sets((3, 0), 2)),
    "d0_shift-float": (lambda: d0_shift(ENTRY, 2.5), (InternalInconsistency, "got 2.5")),
    "d0_shift-index": (lambda: d0_shift(ENTRY, Index(2)), lambda: d0_shift(ENTRY, 2)),
    "young_hook-float": (
        lambda: young_hook(BetaSet((1,)), BetaHook(0.5, 1)),
        (NotAPHook, f"(0.5,1] {HOOK_END_SHOWN}"),
    ),
    "young_hook-bool": (lambda: young_hook(HOOK_BEADS, BetaHook(True, 2)), (NotAPHook, f"(True,2] {HOOK_END_SHOWN}")),
    "young_hook-index": (
        lambda: young_hook(HOOK_BEADS, BetaHook(Index(1), Index(2))),
        lambda: young_hook(HOOK_BEADS, BetaHook(1, 2)),
    ),
    "remove_hook-float": (
        lambda: remove_hook(BetaSet((1,)), BetaHook(0.5, 1)),
        (NotAPHook, f"(0.5,1] {HOOK_END_SHOWN}"),
    ),
    "remove_hook-index": (
        lambda: remove_hook(HOOK_BEADS, BetaHook(Index(1), Index(2))),
        lambda: remove_hook(HOOK_BEADS, BetaHook(1, 2)),
    ),
    "classify_p_hook-float": (
        lambda: classify_p_hook(HOOK_LA, 5, BetaHook(float(HOOK.y), HOOK.x)),
        (NotAPHook, f"({float(HOOK.y)!r},{HOOK.x}] is not a length-5 hook"),
    ),
    "classify_p_hook-index": (
        lambda: classify_p_hook(HOOK_LA, 5, BetaHook(Index(HOOK.y), Index(HOOK.x))),
        lambda: classify_p_hook(HOOK_LA, 5, HOOK),
    ),
}


@pytest.mark.parametrize("call, expected", INTEGER_RULE_CASES.values(), ids=INTEGER_RULE_CASES)
def test_shift_amount_and_hook_ends_follow_the_integer_rule(call, expected):
    if isinstance(expected, tuple):
        error, shown = expected
        with pytest.raises(error, match=re.escape(shown)):
            call()
    else:
        assert call() == expected()


NOT_ITERABLE_CASES = {
    # a non-iterable where a sequence goes is one refused item: its rule's own error, which names it
    "Partition": (lambda: Partition(5), NonPositivePart, "part #1 is 5 (not iterable)"),
    "DeltaSet": (lambda: DeltaSet(None), InvalidDeltaSet, "None (not iterable) is not a positive odd integer"),
    "from_delta_lengths": (lambda: from_delta_lengths(2.5), InvalidDeltaSet, "2.5 (not iterable)"),
    "from_frobenius": (lambda: from_frobenius(1, 1), NotStrictlyDecreasing, LEGS_SHOWN),  # not the partition (2,1)
    "Bisequence": (lambda: Bisequence(5, 5), NotStrictlyDecreasing, LEGS_SHOWN),
    "QuotientEntry": (lambda: QuotientEntry(5, ()), NotStrictlyDecreasing, LEGS_SHOWN),
    "shift_sets": (lambda: shift_sets(5, 2), NotStrictlyDecreasing, LEGS_SHOWN),
    "run_verify": (lambda: run_verify(5, 3), BadModulus, "got 3 (not iterable)"),
    "delta_general": (lambda: delta_general(Partition(), 5, 3), WrongQuotientLength, "got 1"),
    "from_core_and_quotient": (lambda: from_core_and_quotient(Partition(), 5, 3), WrongQuotientLength, "got 1"),
    "BetaSet": (lambda: BetaSet(5), InvalidBetaSet, "bead position 5 (not iterable) is not a non-negative integer"),
    "Abacus": (lambda: Abacus(2, None), InvalidBetaSet, "None (not iterable)"),
    "is_symmetric_quotient": (lambda: is_symmetric_quotient(5, 3), WrongQuotientLength, "got 1"),
    "is_concentrated": (lambda: is_concentrated(diagonal_bisequence(HOOK_LA), 3, 5), BadResidue, "5 (not iterable)"),
}


@pytest.mark.parametrize("call, error, shown", NOT_ITERABLE_CASES.values(), ids=NOT_ITERABLE_CASES)
def test_a_non_iterable_sequence_raises_its_rules_error(call, error, shown):
    with pytest.raises(error, match=re.escape(shown)):
        call()
