"""How strong the sweep's checks are: each mutant breaks one reading on purpose, and the checks that must catch it.

Each row of `MUTANTS` patches a name where it is looked up (`verify` imports `_rebuild`, `is_p_core`,
`is_symmetric_p_core`, `core_and_quotient` and `enumerate_partitions` by name, `abacus._require_core` looks
`is_p_core` up in `abacus`, the rebuild and the abacus readers look up `_charges`, `_core_of` and `_quotient_of` in
`abacus`, and `delta_general` looks up `is_symmetric_quotient`, `_core_d0`, `_shift`, `_pair_lengths` and `_delta`
in `formula`) and records the failures per check that `run_verify(20, (2, 3, 4, 5, 7))`, 280 cells unless `CELLS`
says otherwise, reports under it. A mutant the sweep cannot see, because every partition it checks is
self-conjugate, is recorded with no sweep failures and the tier-1 tests that catch it, and `REPLAYS` holds a replay
of what those tests check.
"""

from bisect import bisect_left
from operator import neg, sub

import pytest

from conftest import partitions_up_to, swapped_components, unpushed_core
from diaghooks import abacus, bisequence, formula, verify
from diaghooks.beta import _beads, _decoded
from diaghooks.errors import NotSymmetricQuotient
from diaghooks.partitions import _EMPTY, Partition, _charges, _frobenius, _self_conjugate_arms, enumerate_partitions

# the readings that mutants wrap or call
core_d0, quotient_of, delta, shift = formula._core_d0, abacus._quotient_of, formula._delta, formula._shift


def leg_on_its_own_runner(legs, arms, p):
    """`_charges` with a leg's space counted on runner leg mod p in place of p-1-(leg mod p)."""
    charges = [0] * p
    for a in arms:
        charges[a % p] += 1
    for b in legs:
        charges[b % p] -= 1
    return charges


def arms_and_legs_swapped(legs, arms, p):
    """`_charges` reading the core's arms as its legs and its legs as its arms: the conjugate's charges."""
    return _charges(arms, legs, p)


def core_test_above_p(la, p):
    """`is_p_core` testing the beads b > p in place of b >= p: a bead at p above the space 0 goes unseen."""
    beads = _beads(la.parts, len(la.parts))
    return set(beads).issuperset(map(sub, beads, (p,) * bisect_left(beads, -p, key=neg)))


def criterion_row_at_charge(d, p):
    """`is_symmetric_p_core` with `<=` in place of `<`: an arm on the row of its runner's charge passes."""
    n = _charges((), d.arms, p)
    return all(a // p <= n[a % p] - n[-1 - a % p] for a in d.arms)


def criterion_without_mirror(d, p):
    """`is_symmetric_p_core` reading an arm's runner count in place of its charge: the mirror class goes unseen."""
    n = _charges((), d.arms, p)
    return all(a // p < n[a % p] for a in d.arms)


def criterion_without_rows(d, p):
    """`is_symmetric_p_core` testing only a positive charge: a class that misses a row passes."""
    n = _charges((), d.arms, p)
    return all(0 < n[a % p] - n[-1 - a % p] for a in d.arms)


def d0_full_charges(core, p):
    """`_core_d0` reading the core's full charges, arms less mirrored legs, in place of its arms' counts."""
    arms = _self_conjugate_arms(core)
    abacus._require_core(core, p)
    return tuple(_charges(arms, arms, p))


def d0_mirrored(core, p):
    """`_core_d0` giving runner g the count of runner p-1-g."""
    return core_d0(core, p)[::-1]


def shift_gap_off_by_one(legs, arms, d0):
    """`_shift` turning a gap s into the arm d0-s in place of d0-s-1."""
    present = set(legs)
    gaps = [d0 - s for s in range(d0) if s not in present]
    return tuple([t - d0 for t in legs if t >= d0]), tuple([a + d0 for a in arms] + gaps)


def shift_drops_leg_at_d0(legs, arms, d0):
    """`_shift` keeping the legs t > d0 in place of t >= d0: a leg equal to d0 is lost."""
    present = set(legs)
    gaps = [d0 - 1 - s for s in range(d0) if s not in present]
    return tuple([t - d0 for t in legs if t > d0]), tuple([a + d0 for a in arms] + gaps)


def runners_reversed(rows):
    """`_quotient_of` reading the runners last to first: component g is the conjugate of the one it should be."""
    return quotient_of(rows)[::-1]


def centre_legs_too(legs, arms, g, p, d0):
    """`_pair_lengths` writing the legs of the centre runner of odd p too: each of its lengths twice."""
    if d0:
        legs, arms = shift(legs, arms, d0)
    step, c = 2 * p, 2 * g + 1
    return [step * m + c for m in arms] + [step * m + step - c for m in legs]


def delta_drops_smallest(lengths):
    """`_delta` dropping its smallest length when there are more than 3."""
    lengths = sorted(lengths, reverse=True)
    return delta(lengths[:-1] if len(lengths) > 3 else lengths)


def drops_first_of_10(n, symmetric_only=False):
    """`enumerate_partitions` skipping the first partition of 10."""
    stream = enumerate_partitions(n, symmetric_only=symmetric_only)
    if n == 10:
        next(stream)
    return stream


def rebuild_empty_runner_at_row_0(core, quotient, p):
    """`_rebuild` reading an empty core runner's top bead at row 0, max(top, g), in place of g - p."""
    k = abacus._canonical_bead_count(core, p)
    charges = _charges(*_frobenius(core), p)
    moved = [(max(g + k - p + charges[g] * p, g), c.parts) for g, c in enumerate(quotient) if c.parts]
    j = max([len(parts) - top // p - 1 for top, parts in moved] + [0])
    old, new = [], []
    for top, parts in moved:
        bead = top + j * p
        for part in parts:
            old.append(bead)
            new.append(bead + part * p)
            bead -= p
    beads = set(_beads(core.parts, k + j * p))
    beads.difference_update(old)
    beads.update(new)
    return _decoded(sorted(beads))


def any_quotient(quotient, p=None):
    """`is_symmetric_quotient` accepting every quotient."""
    return True


def criterion(replacement):
    """Patches putting `replacement` in for the residue criterion, where `verify` and `bisequence` look it up."""
    return (bisequence, "is_symmetric_p_core", replacement), (verify, "is_symmetric_p_core", replacement)


MUTANTS = {
    # name: ((module, attribute, replacement), ...), the sweep's failures by check, the tier-1 tests that catch it
    "charges: a leg's space on runner leg mod p": (
        ((abacus, "_charges", leg_on_its_own_runner),),
        {"roundtrip": 97},
        (),
    ),
    "is_p_core: cuts the beads at b > p": (
        ((abacus, "is_p_core", core_test_above_p), (verify, "is_p_core", core_test_above_p)),
        {"core-criterion": 14},
        (),
    ),
    "charges: arms and legs swapped": (
        ((abacus, "_charges", arms_and_legs_swapped),),
        {},  # a self-conjugate partition's core is symmetric, so its legs are its arms
        (
            "test_abacus.py::TestRebuild::test_roundtrip",
            "test_abacus.py::TestOnePassAbacus::test_rebuild_adds_rows_for_long_components",
            "test_abacus.py::TestRowLists::test_rebuild_agrees_with_runner_bead_sets",
        ),
    ),
    "criterion: <= in place of <": (criterion(criterion_row_at_charge), {"core-criterion": 112}, ()),
    "criterion: ignores the mirror's count": (criterion(criterion_without_mirror), {"core-criterion": 81}, ()),
    "criterion: ignores rows": (criterion(criterion_without_rows), {"core-criterion": 58}, ()),
    "_core_d0: reads the full charges": (
        ((formula, "_core_d0", d0_full_charges),),
        {"delta": 110, "InvalidDeltaSet": 52},
        (),
    ),
    "_core_d0: read mirrored": (((formula, "_core_d0", d0_mirrored),), {"delta": 218}, ()),
    "_shift: gap d0-s": (((formula, "_shift", shift_gap_off_by_one),), {"delta": 159, "InvalidDeltaSet": 19}, ()),
    "_shift: drops a leg equal to d0": (((formula, "_shift", shift_drops_leg_at_d0),), {"delta": 18}, ()),
    "_quotient_of: reverses the runners": (
        ((abacus, "_quotient_of", runners_reversed),),
        {"roundtrip": 74, "delta": 74},
        (),
    ),
    "_pair_lengths: the centre runner writes its legs too": (
        ((formula, "_pair_lengths", centre_legs_too),),
        {"InvalidDeltaSet": 71},
        (),
    ),
    "_delta: drops its smallest length past 3": (((formula, "_delta", delta_drops_smallest),), {"delta": 20}, ()),
    "enumeration: drops the first partition of 10": (
        ((verify, "enumerate_partitions", drops_first_of_10),),
        {"coverage": 1},
        (),
    ),
    "_rebuild: an empty core runner's top at row 0": (
        ((verify, "_rebuild", rebuild_empty_runner_at_row_0),),
        {"roundtrip": 97},
        (),
    ),
    "formula guard: accepts any quotient": (
        ((formula, "is_symmetric_quotient", any_quotient),),
        {},  # the sweep's pairs are read off self-conjugate partitions, so each quotient is symmetric
        (
            "test_formula.py::TestEmptyCore::test_rejects_asymmetric_quotient",
            "test_formula.py::TestDeltaGeneral::test_errors",
            "test_cli.py::TestDeltaCommand::test_bad_quotient_exit_5",
            "test_verify.py::test_a_refused_pair_is_its_cells_one_failure",
        ),
    ),
    "core_and_quotient: components 0 and 1 swapped": (
        ((verify, "core_and_quotient", swapped_components(abacus.core_and_quotient)),),
        {"NotSymmetricQuotient": 121, "roundtrip": 36, "delta": 36},
        (),
    ),
    "_core_of: pushes no bead up": (((abacus, "_core_of", unpushed_core),), {"NotACore": 216}, ()),
}


def rebuild_misses_a_partition() -> bool:
    """The tier-1 roundtrip on partitions that are not self-conjugate."""
    return any(abacus.from_core_and_quotient(*abacus.core_and_quotient(la, p), p) != la
               for la in partitions_up_to(8) for p in (2, 3, 5))


def guard_passes_an_asymmetric_quotient() -> bool:
    """`delta_general` on the quotient ((1), (), ()) at p = 3, whose component 0 is not component 2's conjugate."""
    try:
        formula.delta_general(_EMPTY, (Partition((1,)), _EMPTY, _EMPTY), 3)
    except NotSymmetricQuotient:
        return False
    return True


CELLS = {"enumeration: drops the first partition of 10": 275}  # the sweep's cells where a mutant is not at 280
REPLAYS = {  # a row the sweep cannot see: a check the tier-1 tests it names make, true while the mutant is in
    "charges: arms and legs swapped": rebuild_misses_a_partition,
    "formula guard: accepts any quotient": guard_passes_an_asymmetric_quotient,
}


@pytest.mark.parametrize("name", MUTANTS, ids=MUTANTS)
def test_mutant_is_caught_by_its_checks(monkeypatch, name):
    patches, caught, elsewhere = MUTANTS[name]
    replay = REPLAYS.get(name, lambda: False)
    assert verify.run_verify(20, (2, 3, 4, 5, 7)).ok and not replay()
    for owner, attr, replacement in patches:
        monkeypatch.setattr(owner, attr, replacement)
    report = verify.run_verify(20, (2, 3, 4, 5, 7))
    assert report.cells == CELLS.get(name, 280)
    assert dict(report.failures_by_check) == caught
    assert replay() == bool(elsewhere)  # a row that names tier-1 tests replays what they check
