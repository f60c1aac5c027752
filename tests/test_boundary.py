"""Each public function computes with the plain int its boundary check returns.

So a modulus, residue or count that is an integer only through `__index__`
gives the result of the plain int, and a non-integer modulus is refused with
BadModulus before anything else runs. A shift amount, the legs it shifts and
the ends of a hook follow the same integer rule. Every integer that sets a
size has one bound, `errors.MAX_P`, and a fuzz test calls every public name
with malformed arguments. A check or reading decided by counts it already has
answers at once even when a part is 10**30.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diaghooks
from conftest import Index
from diaghooks import (
    Abacus,
    HookSide,
    Partition,
    beta_of,
    classify_p_hook,
    core_and_quotient,
    core_counts,
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
    is_symmetric_p_core,
    is_symmetric_quotient,
    p_core,
    p_quotient,
    quotient_of,
    render_ascii,
    residue_class,
    to_abacus,
)
from diaghooks.beta import BetaHook, BetaSet, remove_hook, young_hook
from diaghooks.bisequence import Bisequence, QuotientBisequence, QuotientEntry
from diaghooks.errors import (
    MAX_P,
    BadModulus,
    BadResidue,
    DiagHookError,
    InternalInconsistency,
    InvalidBetaSet,
    InvalidDeltaSet,
    NonPositivePart,
    NotAPHook,
    NotStrictlyDecreasing,
    NotSymmetricQuotient,
    TooFewBeads,
    WrongQuotientLength,
)
from diaghooks.formula import d0_shift, shift_sets
from diaghooks.partitions import DeltaSet, Hook, from_frobenius
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


HUGE = 10**30
P_ABOVE = f"p={HUGE} is above {MAX_P}"

SIZE_CASES = {
    # each size-setting integer at 10**30: its rule's error, with a message that names the bound, before any layout
    "p-p_core": (lambda: p_core(LA, HUGE), BadModulus, P_ABOVE),
    "p-p_quotient": (lambda: p_quotient(LA, HUGE), BadModulus, P_ABOVE),
    "p-core_and_quotient": (lambda: core_and_quotient(LA, HUGE), BadModulus, P_ABOVE),
    "p-render_ascii": (lambda: render_ascii(LA, HUGE), BadModulus, P_ABOVE),
    "p-is_p_core": (lambda: is_p_core(LA, HUGE), BadModulus, P_ABOVE),
    "p-Abacus": (lambda: Abacus(HUGE, ()), BadModulus, P_ABOVE),
    "p-is_symmetric_p_core": (lambda: is_symmetric_p_core(D, HUGE), BadModulus, P_ABOVE),
    "p-quotient_of": (lambda: quotient_of(D, HUGE), BadModulus, P_ABOVE),
    "p-is_gamma_packed": (lambda: is_gamma_packed(D, HUGE, 2), BadModulus, P_ABOVE),
    "p-core_counts": (lambda: core_counts(CORE, HUGE), BadModulus, P_ABOVE),
    "p-run_verify": (lambda: run_verify(3, (3, HUGE)), BadModulus, P_ABOVE),
    "beads-beta_of": (lambda: beta_of(LA, HUGE), TooFewBeads, f"bead count in 6..{6 + MAX_P} for {LA}"),
    "beads-to_abacus": (lambda: to_abacus(LA, 3, HUGE), TooFewBeads, f"bead count in 6..{6 + MAX_P} for {LA}"),
    "steps-BetaSet.shifted": (lambda: BetaSet(()).shifted(HUGE), InvalidBetaSet, f"shift {HUGE} is above {MAX_P}"),
    "d0-d0_shift": (lambda: d0_shift(QuotientEntry(), HUGE), InternalInconsistency, f"d0={HUGE} is above {MAX_P}"),
    "d0-shift_sets": (lambda: shift_sets((), HUGE), InternalInconsistency, f"d0={HUGE} is above {MAX_P}"),
    "n_max-run_verify": (lambda: run_verify(HUGE, (3,)), NonPositivePart, f"n_max must be an integer in 0..{MAX_P}"),
    "n-enumerate_partitions-symmetric": (
        lambda: next(enumerate_partitions(HUGE, symmetric_only=True)),
        NonPositivePart,
        f"cannot partition {HUGE} self-conjugately above {MAX_P}",
    ),
}

AT_THE_BOUND = {
    # the bound itself is a size the library takes; each of these calls is cheap there
    "p-residue_class": lambda: residue_class(D, MAX_P, 2),
    "p-is_p_core": lambda: is_p_core(LA, MAX_P),
    "p-delta_concentrated_pair": lambda: delta_concentrated_pair(PAIR, 1, MAX_P),
    "beads-beta_of": lambda: beta_of(LA, len(LA) + MAX_P),
    "steps-BetaSet.shifted": lambda: BetaSet(()).shifted(MAX_P),
    "n-enumerate_partitions-symmetric": lambda: next(enumerate_partitions(MAX_P, symmetric_only=True)),
}

LONG_MIRROR = [Partition(()), Partition((HUGE,))]  # the conjugate of (10**30,) has 10**30 rows, not none
ANSWERED_AT_ONCE = {
    # a part of 10**30 where a check or reading is decided by a length, a first part or a count on sorted beads:
    # its answer (a value, or the error class it raises) at once, where a walk as long as the part never ends
    "guard-delta_general": (lambda: delta_general(Partition(), LONG_MIRROR, 2), NotSymmetricQuotient),
    "guard-is_symmetric_quotient": (lambda: is_symmetric_quotient(LONG_MIRROR, 2), False),
    "Partition.is_symmetric": (lambda: Partition((HUGE,)).is_symmetric, False),
    "young_hook": (lambda: young_hook(BetaSet((HUGE,)), BetaHook(HUGE - 1, HUGE)), Hook(row=1, col=HUGE, arm=0, leg=0)),
}

SIZE_CHILD = """
import json, resource, signal, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))  # a size that escapes its rule fails here, not the host
def out_of_time(signum, frame):
    raise TimeoutError("no answer in 5 s")
signal.signal(signal.SIGALRM, out_of_time)  # a walk that allocates nothing fails its own case, not the whole child
import test_boundary as t
def outcome(call, shown=lambda result: None):
    start = time.perf_counter()
    signal.alarm(5)
    try:
        got = shown(call())
    except Exception as exc:
        got = [type(exc).__name__, str(exc)]
    finally:
        signal.alarm(0)
    return got, time.perf_counter() - start
above = {name: outcome(call) for name, (call, _, _) in t.SIZE_CASES.items()}
bound = {"bound-" + name: outcome(call) for name, call in t.AT_THE_BOUND.items()}
print(json.dumps({**above, **bound, **{name: outcome(call, repr) for name, (call, _) in t.ANSWERED_AT_ONCE.items()}}))
"""


@pytest.fixture(scope="module")
def size_outcomes() -> dict:
    """Each size case's [error name, message] (None when accepted; the result's repr for an answered-at-once case)
    and seconds, run in a child process whose address space alone is capped at 1 GB, so a size that escapes its rule
    cannot take the host's memory, and whose calls each have 5 s, so a walk that allocates nothing fails only its own
    case (with TimeoutError)."""
    here = Path(__file__).resolve().parent
    paths = [str(here), str(Path(diaghooks.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", SIZE_CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", SIZE_CASES)
def test_a_size_above_the_bound_raises_its_rules_error_at_once(name, size_outcomes):
    _, error, shown = SIZE_CASES[name]
    got, seconds = size_outcomes[name]
    assert issubclass(error, DiagHookError) and got is not None and got[0] == error.__name__, got
    assert shown in got[1] and seconds < 1


@pytest.mark.parametrize("name", AT_THE_BOUND)
def test_a_size_at_the_bound_is_accepted(name, size_outcomes):
    assert size_outcomes["bound-" + name][0] is None


@pytest.mark.parametrize("name", ANSWERED_AT_ONCE)
def test_a_part_of_10_30_is_answered_from_counts_at_once(name, size_outcomes):
    _, expected = ANSWERED_AT_ONCE[name]
    got, seconds = size_outcomes[name]
    if isinstance(expected, type):
        assert isinstance(got, list) and got[0] == expected.__name__, got
    else:
        assert got == repr(expected), got
    assert seconds < 1


FUZZ_NAMES = tuple(name for name in diaghooks.__all__ if name != "DiagHookError")  # an error takes any arguments
FUZZ_POOL = (5, None, 2.5, True, "ab", (), (-1,), ("a",), object(), b"\x01", HUGE)  # drawn into every slot
Q5 = quotient_of(D, 5)
FUZZ_VALID = {
    # per parameter name, values that make a call of each function succeed; a defaulted parameter not named
    # here keeps its default, and so do the ones after it (HookSide's functional-API arguments, VerifyReport's counters)
    "la": (SC, LA, HOOK_LA),
    "core": (CORE,),
    "component": (PAIR,),
    "quotient": (QUOTIENT,),
    "p": (5, 3, 2),
    "g": (1, 2),
    "d": (D,),
    "residues": ((2, 4),),
    "x": (HOOK_BEADS, to_abacus(HOOK_LA, 5).beads),
    "hook": (HOOK,),
    "entry": (ENTRY,),
    "q": (Q5,),
    "entries": (Q5.entries,),
    "d0": (2,),
    "legs": ((3, 0),),
    "arms": ((2, 1),),
    "lengths": ((15, 9, 5, 1),),
    "parts": ((3, 1),),
    "beads": ((0, 2, 3), HOOK_BEADS),
    "n": (6,),
    "symmetric_only": (False,),
    "n_max": (4,),
    "moduli": ((3, 5),),
    "k": (8,),
    "bead_count": (10,),
    "i": (1,),
    "j": (2,),
    "value": ("right",),
    "values": ("right",),  # HookSide's one argument from Python 3.12 on
}
LIBRARY_OBJECTS = {
    # README's contract: a slot documented as one of these objects may raise TypeError or AttributeError on another
    "la": Partition,
    "core": Partition,
    "component": Partition,
    "x": BetaSet,
    "hook": BetaHook,
    "d": Bisequence,
    "entry": QuotientEntry,
    "q": QuotientBisequence,
}
LIBRARY_OBJECT_ITEMS = {"quotient": Partition, "entries": QuotientEntry}  # a sequence of such objects


def _off_contract(args: list[tuple[str, object]]) -> bool:
    """True when some slot documented as a library object holds another object."""
    for name, value in args:
        if name in LIBRARY_OBJECTS and not isinstance(value, LIBRARY_OBJECTS[name]):
            return True
        if name in LIBRARY_OBJECT_ITEMS:
            try:
                items = tuple(value)
            except TypeError:
                return True
            if not all(isinstance(item, LIBRARY_OBJECT_ITEMS[name]) for item in items):
                return True
    return False


@st.composite
def public_calls(draw):
    """A public name and (parameter name, value) pairs for its leading positional parameters: each one that has
    no default or that FUZZ_VALID names, from the pool or, half the time where one is known, a valid value."""
    name = draw(st.sampled_from(FUZZ_NAMES))
    args = []
    for param in inspect.signature(getattr(diaghooks, name)).parameters.values():
        positional = param.kind in (param.POSITIONAL_OR_KEYWORD, param.VAR_POSITIONAL)  # HookSide is (*values) on 3.12+
        if not positional or param.default is not param.empty and param.name not in FUZZ_VALID:
            break
        valid = FUZZ_VALID.get(param.name, FUZZ_POOL)
        args.append((param.name, draw(st.sampled_from(FUZZ_POOL) | st.sampled_from(valid))))
    return name, args


@settings(max_examples=400, deadline=None)
@given(public_calls())
def test_a_public_call_gives_a_result_or_a_typed_error(call):
    name, args = call
    try:
        result = getattr(diaghooks, name)(*(value for _, value in args))
        if inspect.isgenerator(result):  # a stream: its first item, as listing enumerate_partitions(10**30) never ends
            next(result, None)
    except DiagHookError:
        pass
    except (TypeError, AttributeError):
        assert _off_contract(args), (name, args)
    except ValueError:
        assert getattr(diaghooks, name) is HookSide, (name, args)
