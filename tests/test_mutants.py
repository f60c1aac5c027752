"""How strong the sweep's checks are: each mutant breaks one reading on purpose, and the checks that must catch it.

Each row of `MUTANTS` patches a name where it is looked up (`verify` imports `_rebuild` and `is_p_core` by name,
and `abacus._require_core` looks `is_p_core` up in `abacus`) and records the failures per check that
`run_verify(20, (2, 3, 4, 5, 7))`, 280 cells, reports under it. A mutant the sweep cannot see, because every
partition it checks is self-conjugate, is recorded with no sweep failures and the tier-1 tests that catch it.
"""

from bisect import bisect_left
from operator import neg, sub

import pytest

from conftest import partitions_up_to
from diaghooks import abacus, verify
from diaghooks.beta import _beads
from diaghooks.partitions import _frobenius


def leg_on_its_own_runner(la, p):
    """`_charges` with a leg's space counted on runner leg mod p in place of p-1-(leg mod p)."""
    charges = [0] * p
    for leg, arm in zip(*_frobenius(la)):
        charges[arm % p] += 1
        charges[leg % p] -= 1
    return charges


def arms_and_legs_swapped(la, p):
    """`_charges` reading the core's arms as its legs and its legs as its arms: the conjugate's charges."""
    charges = [0] * p
    for arm, leg in zip(*_frobenius(la)):
        charges[arm % p] += 1
        charges[-1 - leg % p] -= 1
    return charges


def core_test_above_p(la, p):
    """`is_p_core` testing the beads b > p in place of b >= p: a bead at p above the space 0 goes unseen."""
    beads = _beads(la.parts, len(la.parts))
    return set(beads).issuperset(map(sub, beads, (p,) * bisect_left(beads, -p, key=neg)))


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
