import enum
import itertools

import pytest
from hypothesis import given, settings

from conftest import partitions, partitions_up_to, symmetric_up_to
from diaghooks import partitions as partitions_module
from diaghooks.bisequence import Bisequence, diagonal_bisequence
from diaghooks.errors import (
    CellOutOfDiagram,
    InvalidDeltaSet,
    LengthMismatch,
    NonMonotonic,
    NonPositivePart,
    NotStrictlyDecreasing,
    NotSymmetric,
)
from diaghooks.partitions import (
    DeltaSet,
    Partition,
    all_hooks,
    delta_of,
    diagonal_hooks,
    enumerate_partitions,
    from_delta_lengths,
    from_frobenius,
    hook_at,
)


def _partition_count(n: int) -> int:
    # bounded-part DP, independent of the generator's successor logic
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _distinct_odd_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(n, part - 1, -1):
            ways[total] += ways[total - part]
    return ways[n]


class TestConstruction:
    def test_empty(self):
        la = Partition(())
        assert la.weight == 0 and len(la) == 0 and not la
        assert str(la) == "()"

    def test_example_shape(self):
        la = Partition((6, 6, 2))
        assert la.weight == 14
        assert la.parts == (6, 6, 2)

    def test_accepts_any_iterable(self):
        assert Partition([3, 2, 1]) == Partition((3, 2, 1))

    def test_rejects_increasing(self):
        with pytest.raises(NonMonotonic):
            Partition((2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositivePart):
            Partition((3, 0))
        with pytest.raises(NonPositivePart):
            Partition((-1,))

    def test_rejects_non_integers(self):
        with pytest.raises(NonPositivePart):
            Partition((2.5,))
        with pytest.raises(NonPositivePart):
            Partition((True,))
        with pytest.raises(NonPositivePart):
            Partition((3, 2.0))

    def test_accepts_other_integer_types(self):
        class Size(enum.IntEnum):
            TWO = 2

        assert Partition((Size.TWO, 1)).weight == 3

    def test_index_only_parts_become_ints(self):
        class Two:
            __index__ = lambda self: 2

        class Three:
            __index__ = lambda self: 3

        for parts, want in (((Two(),), (2,)), ((3, Two()), (3, 2))):
            got = Partition(parts).parts
            assert got == want and all(type(x) is int for x in got)
        lengths = DeltaSet((Three(), 1)).lengths
        assert lengths == (3, 1) and type(lengths[0]) is int
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((Two(),))

    def test_plain_int_tuple_is_kept(self):
        parts, lengths = (3, 2, 1), (5, 1)
        assert Partition(parts).parts is parts
        assert DeltaSet(lengths).lengths is lengths

    def test_neither_index_nor_ordering_refused(self):
        with pytest.raises(NonPositivePart):
            Partition((object(),))
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((object(),))


class TestConjugate:
    def test_examples(self):
        assert Partition((6, 6, 2)).conjugate() == Partition((3, 3, 2, 2, 2, 2))
        assert Partition((3, 2, 1)).conjugate() == Partition((3, 2, 1))
        assert Partition(()).conjugate() == Partition(())

    def test_involution_exhaustive(self):
        for la in partitions_up_to(14):
            assert la.conjugate().conjugate() == la

    @given(partitions())
    def test_involution_random(self, la):
        conj = la.conjugate()
        assert conj.weight == la.weight
        assert conj.conjugate() == la
        assert conj.durfee == la.durfee

    def test_is_symmetric_matches_definition(self):
        for la in partitions_up_to(14):
            assert la.is_symmetric == (la == la.conjugate())


class TestHooks:
    def test_corner_hook(self):
        h = hook_at(Partition((3, 2, 1)), 1, 1)
        assert (h.arm, h.leg, h.length) == (2, 2, 5)

    def test_unit_hook(self):
        h = hook_at(Partition((3, 2, 1)), 2, 2)
        assert (h.arm, h.leg, h.length) == (0, 0, 1)

    def test_cell_out_of_diagram(self):
        with pytest.raises(CellOutOfDiagram):
            hook_at(Partition((1,)), 1, 2)
        with pytest.raises(CellOutOfDiagram):
            hook_at(Partition((1,)), 2, 1)

    def test_arm_leg_identities(self):
        for la in partitions_up_to(10):
            conj = la.conjugate()
            for h in all_hooks(la):
                assert h.length == h.arm + h.leg + 1
                assert h.arm == la.parts[h.row - 1] - h.col
                assert h.leg == conj.parts[h.col - 1] - h.row


class TestDiagonalHooks:
    def test_staircase(self):
        hooks = diagonal_hooks(Partition((3, 2, 1)))
        assert [(h.leg, h.arm, h.length) for h in hooks] == [(2, 2, 5), (0, 0, 1)]

    def test_single_cell(self):
        hooks = diagonal_hooks(Partition((1,)))
        assert [(h.leg, h.arm, h.length) for h in hooks] == [(0, 0, 1)]

    def test_single_diagonal_cell(self):
        hooks = diagonal_hooks(Partition((4, 1, 1, 1)))
        assert [(h.leg, h.arm, h.length) for h in hooks] == [(3, 3, 7)]

    def test_sequences_strictly_decreasing(self):
        for la in partitions_up_to(16):
            hooks = diagonal_hooks(la)
            arms = [h.arm for h in hooks]
            legs = [h.leg for h in hooks]
            assert arms == sorted(arms, reverse=True) and len(set(arms)) == len(arms)
            assert legs == sorted(legs, reverse=True) and len(set(legs)) == len(legs)

    def test_symmetric_diagonals_tile(self):
        for la in symmetric_up_to(24):
            assert delta_of(la).total == la.weight

    def test_delta_of_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            delta_of(Partition((6, 6, 2)))


class TestDeltaSet:
    def test_rejects_even(self):
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((4,))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((3, 1, -1))

    def test_rejects_non_decreasing(self):
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((5, 5))

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((3.0, 1))
        with pytest.raises(InvalidDeltaSet):
            DeltaSet((True,))


class TestFromFrobenius:
    def test_staircase(self):
        assert from_frobenius((2, 0), (2, 0)) == Partition((3, 2, 1))

    def test_hook_shape(self):
        assert from_frobenius((3,), (3,)) == Partition((4, 1, 1, 1))

    def test_empty(self):
        assert from_frobenius((), ()) == Partition(())

    def test_asymmetric(self):
        # legs/arms of (6,6,2)
        assert from_frobenius((2, 1), (5, 4)) == Partition((6, 6, 2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            from_frobenius((2, 0), (2,))

    def test_not_strictly_decreasing(self):
        with pytest.raises(NotStrictlyDecreasing):
            from_frobenius((2, 2), (3, 1))

    def test_roundtrip_all_partitions(self):
        for la in partitions_up_to(16):
            hooks = diagonal_hooks(la)
            rebuilt = from_frobenius(tuple(h.leg for h in hooks), tuple(h.arm for h in hooks))
            assert rebuilt == la

    def test_from_delta_lengths(self):
        assert from_delta_lengths((3, 1)) == Partition((2, 2))
        assert from_delta_lengths(()) == Partition(())
        for la in symmetric_up_to(24):
            assert from_delta_lengths(delta_of(la).lengths) == la


class TestEnumeration:
    def test_order_for_four(self):
        got = [la.parts for la in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_zero(self):
        assert list(enumerate_partitions(0)) == [Partition(())]
        assert list(enumerate_partitions(0, symmetric_only=True)) == [Partition(())]

    def test_negative(self):
        with pytest.raises(NonPositivePart):
            list(enumerate_partitions(-1))

    @pytest.mark.parametrize("n", [6.5, "6", True])
    @pytest.mark.parametrize("symmetric_only", [False, True])
    def test_non_integer(self, n, symmetric_only):
        with pytest.raises(NonPositivePart):
            list(enumerate_partitions(n, symmetric_only))

    def test_counts_against_dp(self):
        for n in range(23):
            assert sum(1 for _ in enumerate_partitions(n)) == _partition_count(n)

    def test_no_duplicates(self):
        for n in range(15):
            seen = list(enumerate_partitions(n))
            assert len(set(seen)) == len(seen)
            assert all(la.weight == n for la in seen)

    def test_symmetric_counts_match_distinct_odd_parts(self):
        # classical bijection, used as an independent oracle for the filter
        for n in range(26):
            got = sum(1 for _ in enumerate_partitions(n, symmetric_only=True))
            assert got == _distinct_odd_count(n)

    def test_symmetric_filter_matches_conjugation(self):
        for n in range(17):
            via_flag = set(enumerate_partitions(n, symmetric_only=True))
            via_conj = {la for la in enumerate_partitions(n) if la == la.conjugate()}
            assert via_flag == via_conj

    def test_symmetric_stream_equals_filter_in_order(self):
        for n in range(31):
            direct = list(enumerate_partitions(n, symmetric_only=True))
            assert direct == [la for la in enumerate_partitions(n) if la.is_symmetric]

    def test_reverse_lexicographic_order_up_to_twenty(self):
        for n in range(21):
            got = [la.parts for la in enumerate_partitions(n)]
            assert len(set(got)) == len(got)
            assert got == sorted(got, reverse=True)

    def test_reverse_lexicographic_order_at_thirty(self):
        # p(30) = 5,604; a strict decrease also rules out repeats
        got = [la.parts for la in enumerate_partitions(30)]
        assert len(got) == 5604
        assert all(a > b for a, b in zip(got, got[1:]))

    def test_first_partitions_of_a_large_weight_come_at_once(self):
        # the recursion nests one generator per part, so the first yields at large n stay shallow
        got = list(itertools.islice(enumerate_partitions(5000), 3))
        assert [la.parts for la in got] == [(5000,), (4999, 1), (4998, 2)]

    def test_symmetric_counts_and_weights_up_to_sixty(self):
        for n in range(61):
            got = list(enumerate_partitions(n, symmetric_only=True))
            assert len(got) == _distinct_odd_count(n)
            assert all(la.is_symmetric and la.weight == n for la in got)

    def test_symmetric_stream_order_up_to_eighty(self):
        # past the filter's reach at n = 30: the generated stream itself strictly decreases and misses nothing
        for n in range(81):
            got = [la.parts for la in enumerate_partitions(n, symmetric_only=True)]
            assert all(a > b for a, b in zip(got, got[1:])), n
            assert len(got) == _distinct_odd_count(n)

    def test_symmetric_stream_builds_one_partition_per_item(self, monkeypatch):
        built = []
        original = Partition.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Partition, "__post_init__", counting)
        got = list(enumerate_partitions(40, symmetric_only=True))
        assert len(got) == _distinct_odd_count(40)
        assert len(built) == len(got)

    def test_symmetric_stream_rechecks_no_generated_lengths(self, monkeypatch):
        # the generator's lengths go straight to the rows: no DeltaSet and no Frobenius check, only the Partition's own
        checked, deltas = [], []
        real, original = partitions_module._checked_frobenius, DeltaSet.__post_init__
        monkeypatch.setattr(partitions_module, "_checked_frobenius", lambda *pair: checked.append(1) or real(*pair))
        monkeypatch.setattr(DeltaSet, "__post_init__", lambda self: deltas.append(self) or original(self))
        assert len(list(enumerate_partitions(40, symmetric_only=True))) == _distinct_odd_count(40)
        assert (checked, deltas) == ([], [])
        assert from_frobenius((2, 0), (1, 0)) == Partition((2, 2, 1)) and checked == [1]


class TestDiagonalBisequence:
    @staticmethod
    def _from_hooks(la):
        hooks = diagonal_hooks(la)
        return tuple(h.leg for h in hooks), tuple(h.arm for h in hooks)

    def test_matches_diagonal_hooks_exhaustive(self):
        for la in partitions_up_to(16):
            d = diagonal_bisequence(la)
            assert (d.legs, d.arms) == self._from_hooks(la)

    @given(partitions())
    def test_matches_diagonal_hooks_random(self, la):
        d = diagonal_bisequence(la)
        assert (d.legs, d.arms) == self._from_hooks(la)


class TestColumnKernel:
    @pytest.mark.parametrize("legs, arms", [((2000, 5, 0), (2000, 5, 0)), ((2000, 5, 0), (3, 2, 1)), ((0,), (700,))])
    def test_long_column_matches_the_row_definition(self, legs, arms):
        # Row r > t counts the Durfee columns i whose length legs[i-1] + i reaches r.
        t = len(legs)
        below = [sum(1 for i in range(1, t + 1) if legs[i - 1] + i >= r) for r in range(t + 1, legs[0] + 2)]
        la = from_frobenius(legs, arms)
        assert la.parts == tuple(a + i for i, a in enumerate(arms, 1)) + tuple(below)
        assert diagonal_bisequence(la) == Bisequence(legs, arms)

    def test_long_column_builds_one_partition(self, count_calls):
        built = count_calls(Partition, "__post_init__")
        la = from_delta_lengths((4001, 11, 1))
        assert len(built) == 1 and len(la) == 2001

    @pytest.mark.parametrize("legs, arms", [((1.5,), (0,)), ((1,), (0.5,)), (("2", 0), (1, 0))])
    def test_frobenius_values_must_be_integers(self, legs, arms):
        with pytest.raises(NotStrictlyDecreasing, match="must be non-negative integers"):
            from_frobenius(legs, arms)


class TestHookIndices:
    @pytest.mark.parametrize("i, j, shown", [(1.0, 1, "(1.0,1)"), (1, "1", "(1,'1')"), (True, 1, "(True,1)")])
    def test_cell_indices_must_be_integers(self, i, j, shown):
        with pytest.raises(CellOutOfDiagram) as info:
            hook_at(Partition((2, 1)), i, j)
        assert f"cell {shown} " in str(info.value)

    def test_index_only_indices_are_read_as_ints(self):
        class One:
            __index__ = lambda self: 1

        assert hook_at(Partition((2, 1)), One(), One()) == hook_at(Partition((2, 1)), 1, 1)
