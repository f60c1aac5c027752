import pytest

from conftest import partitions_up_to, symmetric_up_to
from diaghooks.abacus import from_core_and_quotient, p_core, p_quotient, to_abacus
from diaghooks.beta import axis_of
from diaghooks.bisequence import Bisequence, QuotientEntry, diagonal_bisequence
from diaghooks.errors import (
    BadModulus,
    BadResidue,
    CenterResidue,
    EvenModulus,
    InternalInconsistency,
    NotACore,
    NotSymmetric,
    NotSymmetricQuotient,
    WrongQuotientLength,
)
from diaghooks import abacus, bisequence, formula, partitions
from diaghooks.formula import (
    core_counts,
    d0_shift,
    delta_concentrated_center,
    delta_concentrated_pair,
    delta_empty_core,
    delta_general,
    shift_sets,
)
from diaghooks.partitions import Partition, delta_of, from_delta_lengths

P = Partition

CORE_DELTA = (69, 59, 49, 39, 29, 27, 19, 17, 9, 7)
QUOTIENT_190 = (P((6, 6, 2)), P((3,)), P((2, 2)), P((1, 1, 1)), P((3, 3, 2, 2, 2, 2)))


def _pair_quotient(component, g, p):
    quotient = [P(())] * p
    quotient[g] = component
    quotient[p - 1 - g] = component.conjugate()
    return tuple(quotient)


class TestConcentratedPair:
    def test_weight_140_example(self):
        assert delta_concentrated_pair(P((6, 6, 2)), 0, 5).lengths == (51, 41, 29, 19)

    def test_single_box_component(self):
        assert delta_concentrated_pair(P((1,)), 0, 3).lengths == (5, 1)

    def test_empty_component(self):
        assert delta_concentrated_pair(P(()), 1, 5).lengths == ()

    def test_residue_errors(self):
        with pytest.raises(CenterResidue):
            delta_concentrated_pair(P((1,)), 2, 5)
        with pytest.raises(BadResidue):
            delta_concentrated_pair(P((1,)), 5, 5)
        with pytest.raises(BadModulus):
            delta_concentrated_pair(P((1,)), 0, 1)

    def test_mirror_residue_gives_same_lengths(self):
        for comp in partitions_up_to(6):
            for p in (3, 5):
                for g in range(p // 2):
                    a = delta_concentrated_pair(comp, g, p)
                    b = delta_concentrated_pair(comp.conjugate(), p - 1 - g, p)
                    assert a == b

    def test_matches_diagram_reading(self):
        for comp in partitions_up_to(7):
            for p in (3, 5):
                for g in range(p // 2):
                    quotient = _pair_quotient(comp, g, p)
                    la = from_core_and_quotient(P(()), quotient, p)
                    assert delta_concentrated_pair(comp, g, p) == delta_of(la)


class TestConcentratedCenter:
    def test_examples(self):
        assert delta_concentrated_center(P((2, 2)), 5).lengths == (15, 5)
        assert delta_concentrated_center(P((1,)), 3).lengths == (3,)
        assert delta_concentrated_center(P(()), 7).lengths == ()

    def test_errors(self):
        with pytest.raises(EvenModulus):
            delta_concentrated_center(P((1,)), 4)
        with pytest.raises(NotSymmetric):
            delta_concentrated_center(P((2,)), 5)

    def test_walks_the_component_once(self, count_calls):
        # the arms the symmetry check returns are the centre's legs and arms both
        walks = [count_calls(owner, "_frobenius") for owner in (partitions, bisequence, formula)]
        assert delta_concentrated_center(from_delta_lengths(CORE_DELTA), 5).lengths == tuple(5 * d for d in CORE_DELTA)
        assert sum(map(len, walks)) == 1

    def test_matches_diagram_reading(self):
        for comp in symmetric_up_to(8):
            for p in (3, 5):
                quotient = [P(())] * p
                quotient[(p - 1) // 2] = comp
                la = from_core_and_quotient(P(()), tuple(quotient), p)
                assert delta_concentrated_center(comp, p) == delta_of(la)


class TestEmptyCore:
    def test_weight_190_example(self):
        got = delta_empty_core(QUOTIENT_190, 5)
        assert got.lengths == (51, 41, 29, 23, 19, 15, 7, 5)
        assert got.total == 190

    def test_staircase(self):
        assert delta_empty_core((P((1,)), P(()), P((1,))), 3).lengths == (5, 1)

    def test_all_empty(self):
        assert delta_empty_core((P(()),) * 5, 5).lengths == ()

    def test_rejects_asymmetric_quotient(self):
        # mirror component must be the exact conjugate; one box short is rejected
        wrong = (P((6, 6, 2)), P((3,)), P((2, 2)), P((1, 1, 1)), P((3, 3, 2, 2, 2)))
        with pytest.raises(NotSymmetricQuotient):
            delta_empty_core(wrong, 5)

    def test_rejects_wrong_length(self):
        with pytest.raises(WrongQuotientLength):
            delta_empty_core((P(()),) * 4, 5)

    def test_pair_contributions_disjoint(self):
        for la in symmetric_up_to(24):
            for p in (3, 5):
                if p_core(la, p):
                    continue
                quotient = p_quotient(la, p)
                seen: set[int] = set()
                for g in range(p // 2):
                    part = set(delta_concentrated_pair(quotient[g], g, p).lengths)
                    assert not (seen & part)
                    seen |= part
                centre = set(delta_concentrated_center(quotient[(p - 1) // 2], p).lengths)
                assert not (seen & centre)

    def test_matches_diagram_reading(self):
        for la in symmetric_up_to(26):
            for p in (2, 3, 5):
                if p_core(la, p):
                    continue
                assert delta_empty_core(p_quotient(la, p), p) == delta_of(la)


class TestCoreCounts:
    def test_single_box_core(self):
        cc = core_counts(P((1,)), 3)
        assert cc.d0 == (1, 0, 0)
        assert cc.shifted == (0,) and cc.mirrored == (2,) and cc.untouched == (1,)

    def test_running_core(self):
        cc = core_counts(from_delta_lengths(CORE_DELTA), 5)
        assert cc.d0 == (0, 0, 0, 3, 7)
        assert cc.shifted == (3, 4)
        assert cc.mirrored == (0, 1)
        assert cc.untouched == (2,)

    def test_empty_core(self):
        cc = core_counts(P(()), 4)
        assert cc.d0 == (0, 0, 0, 0)
        assert cc.shifted == () and cc.untouched == (0, 1, 2, 3)

    def test_errors(self):
        with pytest.raises(NotSymmetric):
            core_counts(P((2,)), 3)
        with pytest.raises(NotACore):
            core_counts(P((3, 2, 1)), 3)


class TestShift:
    def test_balanced_single_value(self):
        assert d0_shift(QuotientEntry((0,), (0,)), 1) == QuotientEntry((), (1,))

    def test_running_example(self):
        got = d0_shift(QuotientEntry((5, 4), (2, 1)), 7)
        assert got.arms == (9, 8, 6, 5, 4, 3, 0)
        assert got.legs == ()

    def test_empty_entry(self):
        assert d0_shift(QuotientEntry((), ()), 1) == QuotientEntry((), (0,))

    def test_leg_absorption(self):
        # legs below the shift amount disappear; gaps become arms
        got = d0_shift(QuotientEntry((1,), (0,)), 1)
        assert got == QuotientEntry((0,), (1, 0))

    def test_shift_sets_invariant(self):
        for legs in ((), (0,), (3, 1, 0), (5, 4), (7, 2)):
            for d0 in (1, 2, 3, 7):
                s_set, t_set = shift_sets(legs, d0)
                below = sum(1 for t in legs if t < d0)
                assert len(s_set) + below == d0
                assert not (set(s_set) & set(t_set))

    def test_balanced_entries_gain_exactly_d0_arms(self):
        for legs, arms in (((0,), (0,)), ((3, 1), (2, 0)), ((), ())):
            entry = QuotientEntry(legs, arms)
            for d0 in (1, 2, 5):
                moved = d0_shift(entry, d0)
                assert len(moved.arms) - len(moved.legs) == d0

    def test_rejects_non_positive_shift(self):
        with pytest.raises(InternalInconsistency):
            shift_sets((0,), 0)


class TestDeltaGeneral:
    def test_single_box_core(self):
        got = delta_general(P((1,)), (P((1,)), P(()), P((1,))), 3)
        assert got.lengths == (7,)

    def test_absorbing_core(self):
        got = delta_general(P((1,)), (P((2,)), P(()), P((1, 1))), 3)
        assert got.lengths == (13,)

    def test_weight_514_example(self):
        core = from_delta_lengths(CORE_DELTA)
        got = delta_general(core, QUOTIENT_190, 5)
        assert got.lengths == (99, 89, 69, 59, 49, 39, 37, 27, 17, 15, 9, 5)
        assert got.total == 514
        eta = from_core_and_quotient(core, QUOTIENT_190, 5)
        assert eta.weight == 514
        assert delta_of(eta) == got

    def test_empty_core_reduces(self):
        assert delta_general(P(()), QUOTIENT_190, 5) == delta_empty_core(QUOTIENT_190, 5)

    def test_errors(self):
        with pytest.raises(NotACore):
            delta_general(P((3, 2, 1)), (P(()),) * 3, 3)
        with pytest.raises(NotSymmetric):
            delta_general(P((2,)), (P(()),) * 3, 3)
        with pytest.raises(NotSymmetricQuotient):
            delta_general(P(()), (P((1,)), P(()), P(())), 3)
        with pytest.raises(WrongQuotientLength):
            delta_general(P(()), (P(()),) * 2, 3)
        with pytest.raises(BadModulus):
            delta_general(P(()), (), 0)

    def test_matches_diagram_reading(self):
        for la in symmetric_up_to(26):
            oracle = delta_of(la)
            for p in (2, 3, 5, 7):
                got = delta_general(p_core(la, p), p_quotient(la, p), p)
                assert got == oracle

    def test_conservation(self):
        for la in symmetric_up_to(24):
            for p in (3, 5):
                core = p_core(la, p)
                quotient = p_quotient(la, p)
                got = delta_general(core, quotient, p)
                assert got.total == core.weight + p * sum(c.weight for c in quotient)


class TestCoreShiftOnAxes:
    def test_runner_axes_shift_by_core_counts(self):
        # runner g of the full partition sits d0[g] rows lower than in the
        # core-free companion with the same quotient
        for la in symmetric_up_to(24):
            for p in (3, 5):
                core = p_core(la, p)
                if not core:
                    continue
                quotient = p_quotient(la, p)
                bare = from_core_and_quotient(P(()), quotient, p)
                k = max(
                    len(to_abacus(la, p).beads),
                    len(to_abacus(bare, p).beads),
                )
                ab = to_abacus(la, p, bead_count=k)
                ab_bare = to_abacus(bare, p, bead_count=k)
                cc = core_counts(core, p)
                for g in cc.shifted:
                    assert (
                        axis_of(ab.runner(g)).two_theta
                        == axis_of(ab_bare.runner(g)).two_theta + 2 * cc.d0[g]
                    )
                for g in cc.untouched:
                    assert axis_of(ab.runner(g)).two_theta == axis_of(ab_bare.runner(g)).two_theta


class TestOneRunnerPairLoop:
    def test_matches_diagram_reading_at_even_and_composite_moduli(self):
        for la in symmetric_up_to(24):
            oracle = delta_of(la)
            for p in (4, 6, 8, 9):
                assert delta_general(p_core(la, p), p_quotient(la, p), p) == oracle

    @pytest.mark.parametrize("core", [P(()), from_delta_lengths(CORE_DELTA)], ids=["empty", "weight-514"])
    def test_validates_quotient_and_core_once(self, monkeypatch, core):
        owners = {"is_symmetric_quotient": formula, "is_p_core": abacus}  # where the guard looks each check up
        calls = dict.fromkeys(owners, 0)

        def counting(name):
            inner = getattr(owners[name], name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name, counting(name))
        delta_general(core, QUOTIENT_190, 5)
        assert calls == {"is_symmetric_quotient": 1, "is_p_core": 1}


class TestTrustedKernels:
    @pytest.mark.parametrize("core", [P(()), from_delta_lengths(CORE_DELTA)], ids=["empty", "weight-514"])
    def test_delta_general_builds_no_bisequence_or_quotient_entry(self, monkeypatch, core):
        expected = delta_of(from_core_and_quotient(core, QUOTIENT_190, 5))
        built = []
        for cls in (Bisequence, QuotientEntry):
            inner = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, inner=inner: built.append(self) or inner(self))
        assert delta_general(core, QUOTIENT_190, 5) == expected
        assert built == []

    def test_shift_kernel_follows_the_d0_shift_definition(self):
        # The definition in d0_shift's docstring, sorted here; the kernel returns it in order without sorting.
        for la in partitions_up_to(9):
            d = diagonal_bisequence(la)
            for d0 in range(1, 5):
                gaps = [s for s in range(d0) if s not in d.legs]
                arms = tuple(sorted([a + d0 for a in d.arms] + [d0 - s - 1 for s in gaps], reverse=True))
                legs = tuple(t - d0 for t in d.legs if t >= d0)
                assert formula._shift(d.legs, d.arms, d0) == (legs, arms)
                assert d0_shift(QuotientEntry(d.legs, d.arms), d0) == QuotientEntry(legs, arms)


class TestEmptyRunners:
    @pytest.mark.parametrize("p", [97, 997])
    def test_core_runners_with_empty_components(self, p):
        # arms 3, 3 + p and p - 11: d0 = 2 on runner 3 and 1 on runner p - 11, whose components stay empty
        core = from_delta_lengths(sorted((2 * b + 1 for b in (3, 3 + p, p - 11)), reverse=True))
        cc = core_counts(core, p)
        assert cc.shifted == (3, p - 11) and cc.mirrored == (10, p - 4) and len(cc.untouched) == p - 4
        centre = [P(())] * p
        centre[(p - 1) // 2] = P((2, 1))
        for quotient in ((P(()),) * p, _pair_quotient(P((3, 1)), 20, p), tuple(centre)):
            assert quotient[3] == quotient[p - 11] == P(())
            assert delta_general(core, quotient, p) == delta_of(from_core_and_quotient(core, quotient, p))
        assert delta_general(core, (P(()),) * p, p) == delta_of(core)
