import math
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import Index, partitions, partitions_up_to, symmetric_up_to
from diaghooks import abacus
from diaghooks.abacus import (
    Abacus,
    HookSide,
    classify_p_hook,
    core_and_quotient,
    from_core_and_quotient,
    is_p_core,
    is_symmetric_quotient,
    p_core,
    p_quotient,
    render_ascii,
    to_abacus,
)
from diaghooks.beta import BetaHook, BetaSet, axis_of, beta_of, partition_of, young_hook
from diaghooks.beta import _beads
from diaghooks.errors import (
    BadModulus,
    BadResidue,
    InvalidBetaSet,
    NonEmptyCore,
    NotACore,
    NotAPHook,
    NotSymmetric,
    TooFewBeads,
    WrongQuotientLength,
)
from diaghooks.formula import _core_d0
from diaghooks.partitions import Partition, _rows, all_hooks, from_delta_lengths

P = Partition


def _p_hooks(la, p):
    x = to_abacus(la, p).beads
    return [BetaHook(b - p, b) for b in x.beads if b >= p and (b - p) not in x]


class TestLayout:
    def test_staircase(self):
        ab = to_abacus(P((3, 2, 1)), 3)
        assert ab.beads.beads == (1, 3, 5)
        assert [r.beads for r in ab.runners] == [(1,), (0,), (1,)]

    def test_empty_partition_gets_one_full_row(self):
        assert to_abacus(P(()), 5).beads.beads == (0, 1, 2, 3, 4)

    def test_spike(self):
        assert to_abacus(P((4, 1, 1, 1)), 3).beads.beads == (0, 1, 3, 4, 5, 9)

    def test_canonical_layout_is_whole_rows_of_at_most_len_plus_p_beads(self):
        # the fewest whole rows of p beads that hold one bead per part, and at least one row
        for la in partitions_up_to(12):
            for p in (*range(2, 10), 97):
                assert len(to_abacus(la, p).beads) == p * max(1, math.ceil(len(la) / p)) <= len(la) + p, (la, p)

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            to_abacus(P((1,)), 1)
        with pytest.raises(BadModulus):
            to_abacus(P((1,)), 3, bead_count=4)

    @pytest.mark.parametrize("p", [2.5, 3.0, "3", True, None])
    def test_non_integer_modulus(self, p):
        with pytest.raises(BadModulus):
            p_core(P((3,)), p)
        with pytest.raises(BadModulus):
            from_core_and_quotient(P(()), [P(())] * 3, p)

    @pytest.mark.parametrize("g", [-1, 2, 2.5, True])
    def test_runner_index_must_be_a_residue(self, g):
        with pytest.raises(BadResidue):
            to_abacus(P((3, 1)), 2).runner(g)

    def test_index_only_runner_is_read_as_an_int(self):
        ab = to_abacus(P((3, 1)), 2)
        assert ab.runner(Index(1)) == ab.runners[1] == BetaSet((0,))

    @pytest.mark.parametrize("beads", [(1, 1), (-1, 0), (0, 2.5)])
    def test_beads_must_be_a_bead_set(self, beads):
        with pytest.raises(InvalidBetaSet):
            Abacus(2, beads)

    def test_given_beads_become_a_bead_set(self):
        x = BetaSet((0, 3))
        assert Abacus(2, [3, 0]).beads == x
        assert Abacus(2, x).beads is x


class TestCore:
    def test_examples(self):
        assert p_core(P((3, 2, 1)), 3) == P(())
        assert p_core(P((4, 1, 1, 1)), 3) == P((1,))

    def test_core_is_fixed_point(self):
        for la in partitions_up_to(12):
            for p in (2, 3, 5):
                core = p_core(la, p)
                assert p_core(core, p) == core
                assert is_p_core(core, p)

    def test_direct_check_matches_push_up(self):
        for la in partitions_up_to(12):
            for p in (2, 3, 5):
                assert is_p_core(la, p) == (p_core(la, p) == la)

    def test_direct_check_matches_young_scan(self):
        for la in partitions_up_to(12):
            for p in (2, 3, 5):
                has_p_hook = any(h.length == p for h in all_hooks(la))
                assert is_p_core(la, p) == (not has_p_hook)


class TestQuotient:
    def test_examples(self):
        assert p_quotient(P((3, 2, 1)), 3) == (P((1,)), P(()), P((1,)))
        assert p_quotient(P((4, 1, 1, 1)), 3) == (P((1,)), P(()), P((1,)))
        assert p_quotient(P(()), 5) == (P(()),) * 5

    def test_weight_identity(self):
        for la in partitions_up_to(14):
            for p in (2, 3, 5):
                core = p_core(la, p)
                quotient = p_quotient(la, p)
                assert la.weight == core.weight + p * sum(c.weight for c in quotient)

    def test_duality(self):
        for la in partitions_up_to(12):
            dual = la.conjugate()
            for p in (2, 3, 5):
                assert p_core(dual, p) == p_core(la, p).conjugate()
                quotient = p_quotient(la, p)
                dual_quotient = p_quotient(dual, p)
                for g in range(p):
                    assert dual_quotient[g] == quotient[p - 1 - g].conjugate()


class TestRebuild:
    def test_examples(self):
        assert from_core_and_quotient(P(()), (P((1,)), P(()), P((1,))), 3) == P((3, 2, 1))
        assert from_core_and_quotient(P((1,)), (P((1,)), P(()), P((1,))), 3) == P((4, 1, 1, 1))
        core = P((2,))  # a 3-core
        assert from_core_and_quotient(core, (P(()),) * 3, 3) == core

    def test_roundtrip(self):
        for la in partitions_up_to(14):
            for p in (2, 3, 5, 7):
                assert from_core_and_quotient(p_core(la, p), p_quotient(la, p), p) == la

    def test_rejects_non_core(self):
        with pytest.raises(NotACore):
            from_core_and_quotient(P((3, 2, 1)), (P(()),) * 3, 3)

    def test_rejects_wrong_length(self):
        with pytest.raises(WrongQuotientLength):
            from_core_and_quotient(P(()), (P(()),) * 2, 3)


class TestCharges:
    """The charge c_g = #{arms = g} - #{legs = p-1-g} mod p of a p-core (Garvan, Kim and Stanton 1990)."""

    CORES = [(core, p) for p in range(2, 12) for core in partitions_up_to(22) if is_p_core(core, p)]

    def test_every_core_of_n_up_to_22(self):
        assert len(self.CORES) == 8230
        for core, p in self.CORES:
            c = abacus._charges(core, p)
            assert sum(c) == 0, (core, p)
            assert 2 * core.weight == p * sum(x * x for x in c) + 2 * sum(g * x for g, x in enumerate(c)), (core, p)
            symmetric = all(c[p - 1 - g] == -c[g] for g in range(p))
            assert symmetric == core.is_symmetric, (core, p)
            if symmetric:
                assert _core_d0(core, p) == tuple(max(x, 0) for x in c), (core, p)

    def test_runner_counts_match_the_dense_bucketing(self):
        # with k beads, p | k, runner g holds k/p + c_g: the canonical layout bucketed by runner is the reference
        for core, p in self.CORES:
            k = abacus._canonical_bead_count(core, p)
            rows = _rows(reversed(_beads(core.parts, k)), p)
            assert [k // p + x for x in abacus._charges(core, p)] == list(map(len, rows)), (core, p)


class TestSymmetricQuotient:
    def test_examples(self):
        assert is_symmetric_quotient((P((1,)), P(()), P((1,))))
        assert is_symmetric_quotient(
            (P((6, 6, 2)), P(()), P(()), P(()), P((3, 3, 2, 2, 2, 2)))
        )
        assert not is_symmetric_quotient((P((1,)), P(()), P(())))

    def test_explicit_length(self):
        with pytest.raises(WrongQuotientLength):
            is_symmetric_quotient((P(()),) * 3, p=5)

    def test_characterises_symmetry(self):
        for la in partitions_up_to(12):
            for p in (3, 5):
                both = p_core(la, p).is_symmetric and is_symmetric_quotient(p_quotient(la, p))
                assert both == la.is_symmetric


class TestAxisLaws:
    def test_runner_axes_equal_for_empty_core(self):
        # with an empty core and k = m*p beads, every runner axis sits at m - 1/2
        for la in symmetric_up_to(24):
            for p in (3, 5):
                if p_core(la, p):
                    continue
                ab = to_abacus(la, p)
                m = len(ab.beads) // p
                for g in range(p):
                    assert axis_of(ab.runner(g)).two_theta == 2 * m - 1

    def test_runner_axis_relation(self):
        # p*(theta_runner + 1/2) == theta + 1/2, in 2*theta arithmetic
        for la in symmetric_up_to(24):
            for p in (3, 5):
                if p_core(la, p):
                    continue
                ab = to_abacus(la, p)
                total = axis_of(ab.beads).two_theta
                for g in range(p):
                    assert p * (axis_of(ab.runner(g)).two_theta + 1) == total + 1

    def test_per_runner_balance_for_empty_core(self):
        for la in symmetric_up_to(20):
            for p in (3, 5):
                if p_core(la, p):
                    continue
                ab = to_abacus(la, p)
                ax = axis_of(ab.beads)
                for g in range(p):
                    beads_right = sum(1 for b in ab.beads if b % p == g and ax.is_right(b))
                    spaces_left = sum(
                        1 for pos in range(g, ax.last_left + 1, p) if pos not in ab.beads
                    )
                    assert beads_right == spaces_left


class TestClassify:
    def test_straddling_examples(self):
        got = classify_p_hook(P((3, 2, 1)), 3, BetaHook(0, 3))
        assert (got.side, got.runner, got.row) == (HookSide.STRADDLING, 0, 1)
        got = classify_p_hook(P((3, 2, 1)), 3, BetaHook(2, 5))
        assert (got.side, got.runner, got.row) == (HookSide.STRADDLING, 2, 1)

    def test_one_sided_examples(self):
        la = from_core_and_quotient(P(()), (P((2,)), P(()), P((1, 1))), 3)
        assert la == P((4, 4, 2, 2))
        kinds = {classify_p_hook(la, 3, h).side for h in _p_hooks(la, 3)}
        assert kinds == {HookSide.RIGHT_OF_AXIS, HookSide.LEFT_OF_AXIS}

    def test_errors(self):
        with pytest.raises(NotSymmetric):
            classify_p_hook(P((6, 6, 2)), 3, BetaHook(0, 3))
        with pytest.raises(NonEmptyCore):
            classify_p_hook(P((4, 1, 1, 1)), 3, BetaHook(0, 3))
        with pytest.raises(NotAPHook):
            classify_p_hook(P((3, 2, 1)), 3, BetaHook(0, 5))

    def test_side_matches_quotient_cell(self):
        # straddling <-> diagonal, right <-> arm, left <-> leg of the runner component
        for la in symmetric_up_to(18):
            for p in (3, 5):
                if p_core(la, p):
                    continue
                ab = to_abacus(la, p)
                for h in _p_hooks(la, p):
                    got = classify_p_hook(la, p, h)
                    runner = ab.runner(got.runner)
                    cell = young_hook(runner, BetaHook(got.row - 1, got.row))
                    assert cell.length == 1
                    if got.side is HookSide.STRADDLING:
                        assert cell.row == cell.col
                    elif got.side is HookSide.RIGHT_OF_AXIS:
                        assert cell.col > cell.row
                    else:
                        assert cell.row > cell.col


class TestRender:
    def test_staircase(self):
        assert render_ascii(P((3, 2, 1)), 3) == "· ● ·\n─────\n● · ●"

    def test_empty(self):
        assert render_ascii(P(()), 3) == "● ● ●\n─────"

    def test_spike(self):
        assert render_ascii(P((4, 1, 1, 1)), 3) == "● ● ·\n● ● ●\n─────\n· · ·\n● · ·"


class TestOnePassAbacus:
    @given(partitions(), st.integers(2, 13))
    def test_runners_match_the_per_runner_scan(self, la, p):
        ab = to_abacus(la, p)
        for g in range(p):
            assert ab.runner(g) == BetaSet(tuple(b // p for b in ab.beads if b % p == g))
        assert core_and_quotient(la, p) == (p_core(la, p), p_quotient(la, p))

    def test_halves_match_the_reader_on_every_sweep_cell(self):
        # the cells of `verify --n-max 30 --primes 2,3,4,5,6,7,8,9`, even and composite moduli included
        cells = [(la, p) for la in symmetric_up_to(30) for p in range(2, 10)]
        assert len(cells) == 1448
        for la, p in cells:
            assert (p_core(la, p), p_quotient(la, p)) == core_and_quotient(la, p), (la, p)

    def test_one_layout_and_one_bucketing(self, count_calls):
        layouts = count_calls(abacus, "_beads")
        buckets = count_calls(abacus, "_rows")
        core, quotient = P((1,)), (P((1,)), P(()), P((1,)))
        for reader, expected in [(core_and_quotient, (core, quotient)), (p_core, core), (p_quotient, quotient)]:
            assert reader(P((4, 1, 1, 1)), 3) == expected
            assert (len(layouts), len(buckets)) == (1, 1), reader
            del layouts[:], buckets[:]
        ab = to_abacus(P((4, 1, 1, 1)), 3)
        assert ab.runners is ab.runners

    def test_each_half_decodes_only_itself(self, count_calls):
        # a caller wanting one half pays for that half's decode alone; core_and_quotient decodes both once
        cores = count_calls(abacus, "_core_of")
        quotients = count_calls(abacus, "_quotient_of")
        la = P((4, 1, 1, 1))
        for reader, decodes in [(p_core, (1, 0)), (p_quotient, (0, 1)), (core_and_quotient, (1, 1))]:
            reader(la, 3)
            assert (len(cores), len(quotients)) == decodes, reader
            del cores[:], quotients[:]

    @pytest.mark.parametrize("core, quotient", [
        (P(()), (P((1, 1, 1)), P((3,)))),
        (P((1,)), (P((2, 2, 1)), P(()), P((1, 1, 1, 1)), P((3,)))),
        (P((2,)), (P((1, 1, 1, 1)), P(()), P((2,)))),
        (P((3, 1, 1)), (P(()), P((1,) * 5), P(()), P(()), P((2, 2)), P(()))),
    ])
    def test_rebuild_adds_rows_for_long_components(self, core, quotient):
        p = len(quotient)
        runners = to_abacus(core, p).runners
        assert any(len(q.parts) > len(r) for q, r in zip(quotient, runners))
        la = from_core_and_quotient(core, quotient, p)
        assert core_and_quotient(la, p) == (core, quotient)
        assert la.weight == core.weight + p * sum(q.weight for q in quotient)

    def test_core_is_linear_in_p(self):
        # one bead scan per abacus, not one per runner: p = 10**4 stays quick
        p = 10**4
        assert p_core(P((1,)), p) == P((1,))
        assert core_and_quotient(P((1,)), p) == (P((1,)), (P(()),) * p)


class TestSymmetricQuotientHalf:
    @pytest.mark.parametrize("p", [7, 8])
    def test_conjugates_each_mirror_pair_once(self, p, monkeypatch):
        half = [P((3, 1)), P(()), P((2, 2, 1)), P((1,))][: p // 2]
        centre = [P((2, 1))] if p % 2 else []
        quotient = tuple(half + centre + [c.conjugate() for c in reversed(half)])
        calls = []
        real = P.conjugate

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(P, "conjugate", counting)
        assert is_symmetric_quotient(quotient, p)
        assert len(calls) <= (p + 1) // 2


class TestBeadKernel:
    @pytest.mark.parametrize("core, quotient", [
        (P(()), (P(()),) * 997),
        (P((3, 1, 1)), (P(()), P((1,) * 5), P(()), P(()), P((2, 2)), P(()))),
    ], ids=["p997-empty", "p6-long-component"])
    def test_rebuild_builds_one_bead_set(self, count_calls, core, quotient):
        p = len(quotient)
        built = count_calls(BetaSet, "__post_init__")
        la = from_core_and_quotient(core, quotient, p)
        assert len(built) <= 1
        assert core_and_quotient(la, p) == (core, quotient)

    def test_direct_core_test_builds_no_bead_set(self, count_calls):
        cases = [(la, p) for la in partitions_up_to(10) for p in (2, 3, 5)]
        by_hooks = [all(h.length != p for h in all_hooks(la)) for la, p in cases]
        built = count_calls(BetaSet, "__post_init__")
        assert [is_p_core(la, p) for la, p in cases] == by_hooks
        assert built == []

    @pytest.mark.parametrize("p", [7, 8])
    def test_symmetric_quotient_test_builds_no_partition(self, count_calls, p):
        half = [P((3, 1)), P(()), P((2, 2, 1)), P((1,))][: p // 2]
        centre = [P((2, 1))] if p % 2 else []
        symmetric = tuple(half + centre + [c.conjugate() for c in reversed(half)])
        skewed = symmetric[:-1] + (P((2,)),)
        built = count_calls(P, "__post_init__")
        assert is_symmetric_quotient(symmetric, p)
        assert not is_symmetric_quotient(skewed, p)
        assert built == []

    @pytest.mark.parametrize("bead_count", [2.5, "4", True])
    def test_bead_count_must_be_an_integer(self, bead_count):
        with pytest.raises(TooFewBeads) as info:
            to_abacus(P((1,)), 2, bead_count)
        assert str(info.value).endswith(f"got {bead_count!r}")


def _smoke_997():
    """The partition test_cli.py's TestEmptyRunnerLines rebuilds at p = 997: three non-empty components."""
    quotient = [P(())] * 997
    quotient[3], quotient[993], quotient[498] = P((3, 1)), P((2, 1, 1)), P((2, 1))
    return from_core_and_quotient(from_delta_lengths([2015, 1001, 21]), quotient, 997)


def _by_runner_bead_sets(la, p):
    """core_and_quotient read through `Abacus.runners` and `partition_of`."""
    runners = to_abacus(la, p).runners
    pushed = BetaSet(tuple(g + m * p for g, r in enumerate(runners) for m in range(len(r))))
    return partition_of(pushed), tuple(partition_of(r) for r in runners)


def _rebuild_by_runner_bead_sets(core, quotient, p):
    """from_core_and_quotient on a core layout with enough beads on every runner, through bead sets.

    The layout's bottom k - len(core) positions are all beads, which puts at least (k - len(core)) // p on each runner.
    """
    k = p * (-(-len(core.parts) // p) + max(len(q.parts) for q in quotient) + 1)
    runners = to_abacus(core, p, k).runners
    beads = [g + m * p for g, r in enumerate(runners) for m in beta_of(quotient[g], len(r))]
    return partition_of(BetaSet(tuple(beads)))


class TestRowLists:
    @given(partitions(), st.integers(2, 13))
    @example(P((1,)), 97)
    @example(P((6, 6, 2)), 97)
    @example(P((1,)), 997)
    @example(P((6, 6, 2)), 997)
    @example(_smoke_997(), 997)
    def test_readers_agree_with_runner_bead_sets(self, la, p):
        core, quotient = _by_runner_bead_sets(la, p)
        assert core_and_quotient(la, p) == (core, quotient)
        assert p_core(la, p) == core
        assert p_quotient(la, p) == quotient
        assert from_core_and_quotient(core, quotient, p) == la
        assert _rebuild_by_runner_bead_sets(core, quotient, p) == la

    @given(partitions(max_part=6, max_rows=5), st.integers(2, 13), st.data())
    def test_rebuild_agrees_with_runner_bead_sets(self, core_seed, p, data):
        core = p_core(core_seed, p)
        quotient = tuple(data.draw(partitions(max_part=4, max_rows=4)) for _ in range(p))
        la = from_core_and_quotient(core, quotient, p)
        assert la == _rebuild_by_runner_bead_sets(core, quotient, p)
        assert core_and_quotient(la, p) == (core, quotient)

    @pytest.mark.parametrize("la, p", [(P((4, 1, 1, 1)), 3), (P((5, 3, 3, 2, 1)), 4), (P((1,)), 997),
                                       (P((6, 6, 2)), 997)])
    @pytest.mark.parametrize("reader", [core_and_quotient, p_core, p_quotient])
    def test_readers_build_one_bead_set(self, count_calls, reader, la, p):
        # no bead set at all: the reader lays out bead positions and buckets them by runner
        built = count_calls(BetaSet, "__post_init__")
        runner = count_calls(abacus.Abacus, "runner")
        reader(la, p)
        assert built == []
        assert runner == []

    @pytest.mark.parametrize("core, quotient", [
        (P(()), (P(()),) * 997),
        (P((1,)), (P((2, 2, 1)), P(()), P((1, 1, 1, 1)), P((3,)))),
        (P((3, 1, 1)), (P(()), P((1,) * 5), P(()), P(()), P((2, 2)), P(()))),
    ], ids=["p997-empty", "p4", "p6-long-component"])
    def test_rebuild_builds_no_bead_set(self, count_calls, core, quotient):
        built = count_calls(BetaSet, "__post_init__")
        runner = count_calls(abacus.Abacus, "runner")
        from_core_and_quotient(core, quotient, len(quotient))
        assert built == []
        assert runner == []

    @pytest.mark.parametrize("core, quotient", [
        (P(()), (P(()),) * 997),
        (from_delta_lengths([2015, 1001, 21]), tuple(P((2, 1)) if g in (3, 498, 993) else P(()) for g in range(997))),
        (P((3, 1, 1)), (P(()), P((1,) * 5), P(()), P(()), P((2, 2)), P(()))),
    ], ids=["p997-empty", "p997-three-runners", "p6-long-component"])
    def test_rebuild_moves_beads_without_bucketing_the_core(self, count_calls, core, quotient):
        p = len(quotient)
        assert abacus._rows is _rows
        rows = count_calls(abacus, "_rows")
        built = count_calls(BetaSet, "__post_init__")
        la = abacus._rebuild(core, quotient, p)
        assert rows == []
        assert built == []
        assert core_and_quotient(la, p) == (core, quotient)

    @pytest.mark.parametrize("p", [97, 997])
    def test_long_component_beside_empty_runners(self, p):
        # (3,1,1) leaves runner p-3 empty and two beads on runner 2; the length-6 component
        # pushes every runner 5 rows down, and each empty component must fill those rows too
        core = P((3, 1, 1))
        quotient = [P(())] * p
        quotient[5], quotient[p - 3] = P((1,) * 6), P((2, 2))
        quotient = tuple(quotient)
        la = from_core_and_quotient(core, quotient, p)
        assert la == _rebuild_by_runner_bead_sets(core, quotient, p)
        assert la.weight == core.weight + p * 10
        assert core_and_quotient(la, p) == (core, quotient)

    def test_core_of_one_long_runner_is_quick(self):
        # every bead on runner 0 at rows 0..p-1: a p-core, and a row-by-row walk over p runners is p^2 steps,
        # about a second at this p against a few ms for one sort of the p pushed beads
        p = 4000
        la = P(tuple((p - i) * (p - 1) for i in range(1, p)))
        start = time.perf_counter()
        assert p_core(la, p) == la
        assert time.perf_counter() - start < 0.2
