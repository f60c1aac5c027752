from collections import Counter
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bead_sets, partitions, partitions_up_to, symmetric_up_to
from diaghooks.abacus import Abacus
from diaghooks.beta import (
    Axis,
    BetaHook,
    BetaSet,
    axis_of,
    beta_of,
    bisequence_of,
    hooks_of,
    is_symmetric_beta,
    partition_of,
    plus_minus,
    remove_hook,
    young_hook,
)
from diaghooks.bisequence import diagonal_bisequence
from diaghooks.errors import InvalidBetaSet, NotAPHook, TooFewBeads
from diaghooks.partitions import Partition, all_hooks


def _brute_axis_candidates(x: BetaSet) -> list[int]:
    """Every odd 2*theta in the scan window whose balance holds, by direct counting.

    The window starts at theta = -1/2: left of that every position is a bead
    of the extended string, so smaller theta is never a balance point.
    """
    out = []
    lo = -1
    hi = 2 * (x.max_bead + len(x.beads) + 2)
    for two_theta in range(lo, hi + 1, 2):
        beads_right = sum(1 for b in x.beads if 2 * b > two_theta)
        spaces_left = sum(1 for y in range(max(0, (two_theta + 1) // 2)) if y not in x)
        if beads_right == spaces_left:
            out.append(two_theta)
    return out


class TestBetaSet:
    def test_sorts_input(self):
        assert BetaSet((5, 1, 3)).beads == (1, 3, 5)

    def test_rejects_negative(self):
        with pytest.raises(InvalidBetaSet):
            BetaSet((-1, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidBetaSet):
            BetaSet((2, 2))

    def test_minimal_strips_leading_run(self):
        assert BetaSet((0, 1, 2, 4, 6)).minimal() == BetaSet((1, 3))
        assert BetaSet((1, 3)).minimal() == BetaSet((1, 3))
        assert BetaSet((0, 1, 2)).minimal() == BetaSet(())

    def test_shift_then_minimal(self):
        x = BetaSet((1, 3, 5))
        assert x.shifted(3).minimal() == x.minimal()


class TestEncoding:
    def test_beta_of_examples(self):
        assert beta_of(Partition((3, 2, 1)), 3).beads == (1, 3, 5)
        assert beta_of(Partition(()), 4).beads == (0, 1, 2, 3)
        assert beta_of(Partition((4, 1, 1, 1)), 6).beads == (0, 1, 3, 4, 5, 9)

    def test_too_few_beads(self):
        with pytest.raises(TooFewBeads):
            beta_of(Partition((3, 2, 1)), 2)

    def test_partition_of_examples(self):
        assert partition_of(BetaSet((1, 3, 5))) == Partition((3, 2, 1))
        assert partition_of(BetaSet((0, 1, 2, 3))) == Partition(())
        assert partition_of(BetaSet((4,))) == Partition((4,))

    @given(bead_sets())
    def test_roundtrip_from_beads(self, x):
        assert beta_of(partition_of(x), len(x)) == x

    @given(partitions(), st.integers(0, 6))
    def test_roundtrip_from_partition(self, la, extra):
        k = len(la.parts) + extra
        assert partition_of(beta_of(la, k)) == la


class TestHookBijection:
    def test_staircase_hook_lengths(self):
        lengths = sorted(h.length for h in hooks_of(BetaSet((1, 3, 5))))
        assert lengths == [1, 1, 1, 3, 3, 5]

    def test_no_hooks_for_empty_partition(self):
        assert hooks_of(BetaSet((0, 1, 2))) == []

    def test_single_row(self):
        hooks = hooks_of(BetaSet((4,)))
        assert [(h.y, h.x) for h in hooks] == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert sorted(h.length for h in hooks) == [1, 2, 3, 4]

    def test_matches_young_diagram(self):
        for la in partitions_up_to(12):
            expected = Counter((h.row, h.col, h.arm, h.leg) for h in all_hooks(la))
            for extra in (0, 2):
                x = beta_of(la, len(la.parts) + extra)
                got = Counter()
                for bh in hooks_of(x):
                    yh = young_hook(x, bh)
                    assert yh.length == bh.length
                    got[(yh.row, yh.col, yh.arm, yh.leg)] += 1
                assert got == expected

    def test_young_hook_rejects_non_hook(self):
        with pytest.raises(NotAPHook):
            young_hook(BetaSet((1, 3, 5)), BetaHook(3, 5))

    def test_remove_hook_rejects_non_hook(self):
        with pytest.raises(NotAPHook, match=re.escape("(3,5] is not a hook of this bead set")):
            remove_hook(BetaSet((1, 3, 5)), BetaHook(3, 5))


class TestAxis:
    def test_examples(self):
        assert axis_of(BetaSet((1, 3, 5))).two_theta == 5
        assert axis_of(BetaSet((0, 1, 2))).two_theta == 5
        # balance for a single bead at 4: one bead right of 1/2, one space (0) left
        assert axis_of(BetaSet((4,))).two_theta == 1

    def test_empty(self):
        assert axis_of(BetaSet(())).two_theta == -1

    @given(bead_sets())
    def test_balance_and_uniqueness(self, x):
        ax = axis_of(x)
        candidates = _brute_axis_candidates(x)
        assert candidates == [ax.two_theta]

    @given(bead_sets(), st.integers(1, 4))
    def test_shift_moves_axis_by_two(self, x, steps):
        assert axis_of(x.shifted(steps)).two_theta == axis_of(x).two_theta + 2 * steps

    def test_invariant_under_hook_removal(self):
        for la in partitions_up_to(12):
            x = beta_of(la, len(la.parts) + 1)
            ax = axis_of(x)
            for bh in hooks_of(x):
                assert axis_of(remove_hook(x, bh)) == ax

    def test_remove_hook_drops_weight(self):
        for la in partitions_up_to(10):
            x = beta_of(la, len(la.parts))
            for bh in hooks_of(x):
                smaller = partition_of(remove_hook(x, bh))
                assert smaller.weight == la.weight - bh.length


class TestPlusMinus:
    def test_examples(self):
        assert plus_minus(BetaSet((1, 3, 5))) == ((5, 3), (0, 2))
        assert plus_minus(BetaSet((0, 1, 2))) == ((), ())
        assert plus_minus(BetaSet((0, 1, 3, 4, 5, 9))) == ((9,), (2,))

    @given(bead_sets())
    def test_paired_gaps_are_diagonal_lengths(self, x):
        plus, minus = plus_minus(x)
        assert len(plus) == len(minus)
        d = diagonal_bisequence(partition_of(x))
        assert [b - y for b, y in zip(plus, minus)] == [leg + arm + 1 for leg, arm in d.pairs]


class TestBisequenceOf:
    def test_examples(self):
        assert bisequence_of(BetaSet((1, 3, 5))).pairs == ((2, 2), (0, 0))
        assert bisequence_of(BetaSet((0, 1, 2))).size == 0
        assert bisequence_of(BetaSet((0, 1, 3, 4, 5, 9))).pairs == ((3, 3),)

    def test_matches_diagonal_reading(self):
        for la in partitions_up_to(14):
            x = beta_of(la, len(la.parts) + 1)
            assert bisequence_of(x) == diagonal_bisequence(la)

    @given(bead_sets(), st.integers(0, 4))
    def test_shift_invariant(self, x, steps):
        assert bisequence_of(x.shifted(steps)) == bisequence_of(x)


class TestSymmetryFromBeads:
    def test_examples(self):
        assert is_symmetric_beta(BetaSet((1, 3, 5)))
        assert not is_symmetric_beta(beta_of(Partition((6, 6, 2)), 6))
        assert is_symmetric_beta(BetaSet((0, 1, 2)))

    @given(bead_sets(), st.integers(0, 3))
    def test_agrees_with_partition_symmetry(self, x, steps):
        shifted = x.shifted(steps)
        assert is_symmetric_beta(shifted) == partition_of(x).is_symmetric

    def test_symmetric_sweep(self):
        for la in symmetric_up_to(20):
            assert is_symmetric_beta(beta_of(la, len(la.parts) + 2))

    def test_every_partition_at_three_bead_counts(self):
        # k beads put the axis at k - 1/2; the readers must not depend on k beyond the number of parts
        for la in partitions_up_to(12):
            for k in range(len(la.parts), len(la.parts) + 3):
                x = beta_of(la, k)
                assert is_symmetric_beta(x) == la.is_symmetric, (la, k)
                assert axis_of(x).two_theta == 2 * k - 1, (la, k)
                assert bisequence_of(x) == diagonal_bisequence(la), (la, k)


class TestIntegerRule:
    @pytest.mark.parametrize("beads, shown", [((0.5, 2), "0.5"), ((True, 2), "True"), ((3, "1"), "'1'")])
    def test_bead_positions_must_be_integers(self, beads, shown):
        with pytest.raises(InvalidBetaSet) as info:
            BetaSet(beads)
        assert f"position {shown} " in str(info.value)

    @pytest.mark.parametrize("k", [2.5, "4", True, None])
    def test_bead_count_must_be_an_integer(self, k):
        with pytest.raises(TooFewBeads) as info:
            beta_of(Partition((1,)), k)
        assert str(info.value).endswith(f"got {k!r}")

    def test_index_only_values_are_read_as_ints(self):
        class Three:
            __index__ = lambda self: 3

        assert BetaSet((Three(), 1)).beads == (1, 3)
        assert beta_of(Partition((1,)), Three()).beads == (0, 1, 3)

    @pytest.mark.parametrize("steps", [True, 2.5, "2", -1])
    def test_shift_must_be_a_non_negative_integer(self, steps):
        with pytest.raises(InvalidBetaSet) as info:
            BetaSet((1,)).shifted(steps)
        assert str(info.value) == f"shift must be an integer >= 0, got {steps!r}"

    @pytest.mark.parametrize("beads", [5, None, 2.5])
    def test_bead_set_that_is_not_iterable_is_refused(self, beads):
        with pytest.raises(InvalidBetaSet) as info:
            BetaSet(beads)
        assert str(info.value) == f"bead position {beads!r} (not iterable) is not a non-negative integer"
        with pytest.raises(InvalidBetaSet) as info:
            Abacus(2, beads)
        assert str(info.value) == f"bead position {beads!r} (not iterable) is not a non-negative integer"

    def test_index_only_shift_is_read_as_int(self):
        class Two:
            __index__ = lambda self: 2

        assert BetaSet((1,)).shifted(Two()) == BetaSet((1,)).shifted(2) == BetaSet((0, 1, 3))
