import pytest

from conftest import Index, partitions_up_to, symmetric_up_to
from diaghooks import abacus, bisequence, formula
from diaghooks.abacus import is_p_core, p_core, p_quotient
from diaghooks.bisequence import (
    Bisequence,
    QuotientBisequence,
    QuotientEntry,
    diagonal_bisequence,
    is_concentrated,
    is_gamma_packed,
    is_symmetric_p_core,
    quotient_of,
    residue_class,
    unquotient,
)
from diaghooks.errors import (
    BadModulus,
    BadResidue,
    InconsistentQuotient,
    LengthMismatch,
    NotStrictlyDecreasing,
    NotSymmetricBisequence,
)
from diaghooks.partitions import Partition, _rows, from_delta_lengths

P = Partition

# the running 5-core example: delta = (69,59,49,39,29,27,19,17,9,7)
CORE_DELTA = (69, 59, 49, 39, 29, 27, 19, 17, 9, 7)


class TestBisequence:
    def test_validation(self):
        with pytest.raises(LengthMismatch):
            Bisequence((2, 0), (2,))
        with pytest.raises(NotStrictlyDecreasing):
            Bisequence((2, 2), (3, 1))
        with pytest.raises(NotStrictlyDecreasing):
            Bisequence((2, -1), (3, 1))

    def test_diagonal_reading(self):
        assert diagonal_bisequence(P((3, 2, 1))) == Bisequence((2, 0), (2, 0))
        assert diagonal_bisequence(P((6, 6, 2))) == Bisequence((2, 1), (5, 4))
        assert diagonal_bisequence(P(())) == Bisequence((), ())

    def test_dual_relation(self):
        for la in partitions_up_to(14):
            assert diagonal_bisequence(la.conjugate()) == diagonal_bisequence(la).dual()

    def test_symmetry_detection(self):
        for la in partitions_up_to(14):
            assert diagonal_bisequence(la).is_symmetric == la.is_symmetric

    def test_delta_requires_symmetry(self):
        with pytest.raises(NotSymmetricBisequence):
            diagonal_bisequence(P((6, 6, 2))).delta()

    def test_delta_values(self):
        assert diagonal_bisequence(P((3, 2, 1))).delta().lengths == (5, 1)

    @pytest.mark.parametrize("d", [Bisequence(), Bisequence((2, 0), (2, 0)), Bisequence((2, 1), (5, 4)),
                                   diagonal_bisequence(from_delta_lengths(CORE_DELTA))])
    def test_len_is_the_size(self, d):
        assert len(d) == d.size


class TestQuotientOf:
    def test_staircase(self):
        q = quotient_of(Bisequence((2, 0), (2, 0)), 3)
        assert q[0] == QuotientEntry((0,), (0,))
        assert q[1].is_empty
        assert q[2] == QuotientEntry((0,), (0,))

    def test_weight_190_example(self):
        d = Bisequence((25, 20, 14, 11, 9, 7, 3, 2), (25, 20, 14, 11, 9, 7, 3, 2))
        q = quotient_of(d, 5)
        assert (q[0].legs, q[0].arms) == ((2, 1), (5, 4))
        assert (q[1].legs, q[1].arms) == ((0,), (2,))
        assert (q[2].legs, q[2].arms) == ((1, 0), (1, 0))
        assert (q[3].legs, q[3].arms) == ((2,), (0,))
        assert (q[4].legs, q[4].arms) == ((5, 4), (2, 1))

    def test_empty(self):
        q = quotient_of(Bisequence((), ()), 3)
        assert all(e.is_empty for e in q)

    @pytest.mark.parametrize("g", [-1, 3, 2.5, True, "1"])
    def test_index_must_be_a_residue(self, g):
        q = quotient_of(Bisequence((2, 0), (2, 0)), 3)
        with pytest.raises(BadResidue) as info:
            q[g]
        assert str(info.value) == f"residue {g!r} not in 0..2"

    def test_index_only_residue_is_read_as_int(self):
        class One:
            __index__ = lambda self: 1

        d = Bisequence((25, 20, 14, 11, 9, 7, 3, 2), (25, 20, 14, 11, 9, 7, 3, 2))
        q = quotient_of(d, 5)
        assert q[One()] == q[1] == QuotientEntry((0,), (2,))

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            quotient_of(Bisequence((), ()), 1)

    def test_roundtrip(self):
        for la in partitions_up_to(16):
            d = diagonal_bisequence(la)
            for p in (2, 3, 5, 7):
                assert unquotient(quotient_of(d, p)) == d

    def test_unquotient_rejects_unbalanced(self):
        q = QuotientBisequence((QuotientEntry((0,), ()), QuotientEntry((), ()), QuotientEntry((), ())))
        with pytest.raises(InconsistentQuotient):
            unquotient(q)

    def test_entries_balanced_iff_empty_core(self):
        for la in symmetric_up_to(22):
            for p in (3, 5):
                q = quotient_of(diagonal_bisequence(la), p)
                if not p_core(la, p):
                    assert all(e.is_balanced for e in q)

    def test_unbalance_counts_core_diagonals(self):
        # with a non-empty core, entry g holds d0[g] more arms than legs
        # (and the mirror entry d0[g] more legs than arms)
        for la in symmetric_up_to(22):
            for p in (3, 5):
                core = p_core(la, p)
                if not core:
                    continue
                d0 = [0] * p
                for b in diagonal_bisequence(core).arms:
                    d0[b % p] += 1
                q = quotient_of(diagonal_bisequence(la), p)
                for g in range(p):
                    assert len(q[g].arms) - len(q[g].legs) == d0[g] - d0[p - 1 - g]


class TestResidueClass:
    def test_running_example(self):
        d = diagonal_bisequence(from_delta_lengths(CORE_DELTA))
        assert residue_class(d, 5, 4)[1] == (34, 29, 24, 19, 14, 9, 4)
        assert residue_class(d, 5, 3)[1] == (13, 8, 3)
        assert residue_class(d, 5, 0) == ((), ())

    def test_classes_partition_everything(self):
        for la in partitions_up_to(14):
            d = diagonal_bisequence(la)
            for p in (3, 5):
                legs = []
                arms = []
                for g in range(p):
                    cl, ca = residue_class(d, p, g)
                    legs.extend(cl)
                    arms.extend(ca)
                assert sorted(legs, reverse=True) == list(d.legs)
                assert sorted(arms, reverse=True) == list(d.arms)

    def test_bad_residue(self):
        with pytest.raises(BadResidue):
            residue_class(Bisequence((), ()), 3, 3)

    @pytest.mark.parametrize("g", [1.0, "1", True, -1])
    def test_non_integer_residue(self, g):
        d = diagonal_bisequence(P((3, 2, 1)))
        with pytest.raises(BadResidue):
            residue_class(d, 3, g)
        with pytest.raises(BadResidue):
            is_gamma_packed(d, 3, g)


class TestConcentrated:
    def test_examples(self):
        d = diagonal_bisequence(P((3, 2, 1)))
        assert is_concentrated(d, 3, {0, 2})
        assert not is_concentrated(d, 3, {1})
        assert not is_concentrated(Bisequence((), ()), 3, {0})
        assert is_concentrated(Bisequence((), ()), 3, set())

    @pytest.mark.parametrize("residues", [{0, 2, 7}, [True, 0, 2], ["0", 2], {2.0, 0}], ids=["7", "True", "'0'", "2.0"])
    def test_residues_follow_the_residue_rule(self, residues):
        # (3,1,1) populates exactly residues 0 and 2 at p = 3: an out-of-range, bool or non-integer residue is
        # refused, not read as a residue that is not populated
        with pytest.raises(BadResidue):
            is_concentrated(diagonal_bisequence(P((3, 1, 1))), 3, residues)

    def test_index_only_residue_is_read_as_int(self):
        d = diagonal_bisequence(P((3, 1, 1)))
        assert is_concentrated(d, 3, {Index(2), 0})


class TestPacked:
    def test_running_example(self):
        d = diagonal_bisequence(from_delta_lengths(CORE_DELTA))
        assert is_gamma_packed(d, 5, 4)
        assert is_gamma_packed(d, 5, 3)

    def test_gap_detection(self):
        assert is_gamma_packed(Bisequence((7, 2), (7, 2)), 5, 2)
        assert not is_gamma_packed(Bisequence((7,), (7,)), 5, 2)

    def test_empty_class_is_vacuously_packed(self):
        assert is_gamma_packed(Bisequence((), ()), 5, 2)

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetricBisequence):
            is_gamma_packed(Bisequence((2, 1), (5, 4)), 5, 0)


class TestCoreCriterion:
    def test_examples(self):
        assert is_symmetric_p_core(diagonal_bisequence(from_delta_lengths(CORE_DELTA)), 5)
        assert is_symmetric_p_core(Bisequence((0,), (0,)), 5)
        assert not is_symmetric_p_core(diagonal_bisequence(P((3, 2, 1))), 3)

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetricBisequence):
            is_symmetric_p_core(Bisequence((2, 1), (5, 4)), 5)

    def test_biconditional_small(self):
        for la in symmetric_up_to(25):
            d = diagonal_bisequence(la)
            for p in (2, 3, 5):
                assert is_symmetric_p_core(d, p) == is_p_core(la, p)

    def test_populated_classes_of_cores_are_packed_with_empty_mirror(self):
        for la in symmetric_up_to(25):
            for p in (2, 3, 5):
                if not is_p_core(la, p):
                    continue
                d = diagonal_bisequence(la)
                for g in range(p):
                    if residue_class(d, p, g)[1]:
                        assert is_gamma_packed(d, p, g)
                        assert not residue_class(d, p, p - 1 - g)[1]

    def test_concentrated_entries_match_component_bisequences(self):
        # for empty-core symmetric partitions, entry g is the diagonal data of component g
        for la in symmetric_up_to(22):
            for p in (3, 5):
                if p_core(la, p):
                    continue
                q = quotient_of(diagonal_bisequence(la), p)
                for g, comp in enumerate(p_quotient(la, p)):
                    expected = diagonal_bisequence(comp)
                    assert q[g].legs == expected.legs
                    assert q[g].arms == expected.arms


class TestIntegerRule:
    @pytest.mark.parametrize("legs, arms", [((1.5,), (0.5,)), ((3, "a", 1), (2, 1, 0)), ((2, 1), (1, True))])
    def test_bisequence_values_must_be_integers(self, legs, arms):
        with pytest.raises(NotStrictlyDecreasing, match="must be non-negative integers"):
            Bisequence(legs, arms)

    @pytest.mark.parametrize("legs, arms", [(("a",), ()), ((), (2, 0.5)), ((True,), ()), ((1, None), (0,))])
    def test_quotient_entry_values_must_be_integers(self, legs, arms):
        with pytest.raises(NotStrictlyDecreasing, match="must be non-negative integers"):
            QuotientEntry(legs, arms)

    def test_index_only_values_are_read_as_ints(self):
        class Two:
            __index__ = lambda self: 2

        assert Bisequence((Two(), 0), (1, 0)) == Bisequence((2, 0), (1, 0))
        assert QuotientEntry((0, Two()), (Two(),)) == QuotientEntry((2, 0), (2,))

    def test_index_only_modulus_is_read_as_int(self):
        class Five:
            __index__ = lambda self: 5

        d = diagonal_bisequence(from_delta_lengths(CORE_DELTA))
        assert quotient_of(d, Five()) == quotient_of(d, 5)
        assert is_symmetric_p_core(d, Five()) and is_gamma_packed(d, Five(), 4)


class TestOneBucketingRule:
    def test_every_residue_split_goes_through_rows(self, count_calls):
        assert abacus._rows is bisequence._rows
        core = from_delta_lengths(CORE_DELTA)
        d = diagonal_bisequence(core)
        for owner, call, expected in (
            (bisequence, lambda: quotient_of(d, 5), 2),
            (bisequence, lambda: is_symmetric_p_core(d, 5), 1),
            (bisequence, lambda: is_gamma_packed(d, 5, 4), 1),
        ):
            calls = count_calls(owner, "_rows")
            call()
            assert len(calls) == expected
        # d0 counts the core's arms by residue with no row lists; the counts are the lengths of _rows' lists
        arms = tuple((length - 1) // 2 for length in CORE_DELTA)
        assert formula.core_counts(core, 5).d0 == tuple(map(len, _rows(arms, 5)))

    @pytest.mark.parametrize("p", [97, 997])
    def test_core_criterion_at_large_p(self, p):
        centre = (p - 1) // 2
        cases = {
            (3, 3 + p, 3 + 2 * p): True,  # one packed class, mirror p-4 empty
            (3, 3 + p, 10): True,  # two packed classes
            (p - 1, 3 + p, 3): True,  # residues p-1 and 3 packed, mirrors 0 and p-4 empty
            (3 + p,): False,  # class 3 misses its row 0
            (p - 4, 3): False,  # classes 3 and p-4 mirror each other
            (centre,): False,  # the centre runner is its own mirror
        }
        for arms, expected in cases.items():
            la = from_delta_lengths(sorted((2 * b + 1 for b in arms), reverse=True))
            d = diagonal_bisequence(la)
            assert is_symmetric_p_core(d, p) == is_p_core(la, p) == expected, arms

    def test_quotient_builds_entries_for_populated_residues_only(self, count_calls):
        d = diagonal_bisequence(P((9, 7, 5, 4, 3, 3, 2, 1)))
        built = count_calls(QuotientEntry, "__post_init__")
        q = quotient_of(d, 997)
        assert len(built) <= len(q.populated) == 8
        assert unquotient(q) == d
        assert all(q[g] == QuotientEntry() for g in range(997) if g not in q.populated)

    @pytest.mark.parametrize("p", [97, 997])
    def test_quotient_round_trip_at_large_p(self, p):
        for la in symmetric_up_to(30):
            d = diagonal_bisequence(la)
            assert unquotient(quotient_of(d, p)) == d
