"""How strong the sweep's checks are: each mutant breaks one reading on purpose, and the checks that must catch it.

Each row of `MUTANTS` patches a name where it is looked up (`verify` imports `_rebuild`, `is_p_core` and
`is_symmetric_p_core` by name, `abacus._require_core` looks `is_p_core` up in `abacus`, the rebuild and the
abacus readers look up `_charges` and `_quotient_of` in `abacus`, and `delta_general` looks up `_core_d0` and
`_shift` in `formula`) and records the failures per check that
`run_verify(20, (2, 3, 4, 5, 7))`, 280 cells, reports under it. A mutant the sweep cannot see, because every
partition it checks is self-conjugate, is recorded with no sweep failures and the tier-1 tests that catch it.
"""

from bisect import bisect_left
from operator import neg, sub

import pytest

from conftest import partitions_up_to
from diaghooks import abacus, bisequence, formula, verify
from diaghooks.beta import _beads
from diaghooks.partitions import _charges, _self_conjugate_arms

core_d0, quotient_of = formula._core_d0, abacus._quotient_of  # the readings two mutants wrap


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
}


@pytest.mark.parametrize("patches, caught, elsewhere", MUTANTS.values(), ids=MUTANTS)
def test_mutant_is_caught_by_its_checks(monkeypatch, patches, caught, elsewhere):
    assert verify.run_verify(20, (2, 3, 4, 5, 7)).ok
    for owner, name, replacement in patches:
        monkeypatch.setattr(owner, name, replacement)
    report = verify.run_verify(20, (2, 3, 4, 5, 7))
    assert report.cells == 280
    assert dict(report.failures_by_check) == caught
    if elsewhere:  # the tier-1 roundtrip on partitions that are not self-conjugate, as the tests named catch it
        assert any(abacus.from_core_and_quotient(*abacus.core_and_quotient(la, p), p) != la
                   for la in partitions_up_to(8) for p in (2, 3, 5))
