"""The bijection from the pair side: every (symmetric p-core, symmetric p-quotient) pair, generated directly."""

import operator
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaghooks import verify
from diaghooks.abacus import core_and_quotient, from_core_and_quotient
from diaghooks.bisequence import diagonal_bisequence
from diaghooks.formula import delta_general
from diaghooks.partitions import Partition, delta_of, enumerate_partitions, from_frobenius


def _symmetric_core_arms(p: int, budget: int) -> list[tuple[int, tuple[int, ...]]]:
    """(weight, diagonal arms) of every symmetric p-core of weight <= budget.

    On each runner pair {r, p-1-r} the core has d >= 0 arms g, g+p, ..., g+(d-1)p on one residue g of the pair,
    which weigh d(2g+1) + p*d(d-1); the centre runner of an odd p holds none.
    """
    cores = [(0, ())]
    for r in range(p // 2):
        grown = []
        for w, arms in cores:
            grown.append((w, arms))
            for g in (r, p - 1 - r):
                d = 1
                while w + (extra := d * (2 * g + 1) + p * d * (d - 1)) <= budget:
                    grown.append((w + extra, arms + tuple(range(g, g + d * p, p))))
                    d += 1
        cores = grown
    return cores


def _free_components(pairs: int, m: int, p: int):
    # components on the first `pairs` runners, then the centre's when p is odd: m cells once the mirrors are added
    if pairs == 0:
        if p % 2:
            yield from ((c,) for c in enumerate_partitions(m, symmetric_only=True))
        elif m == 0:
            yield ()
        return
    for s in range(m // 2 + 1):
        for q in enumerate_partitions(s):
            for rest in _free_components(pairs - 1, m - 2 * s, p):
                yield (q,) + rest


def _symmetric_quotients(p: int, m: int):
    """Every symmetric p-quotient of m cells: one free component per runner pair, its conjugate on the mirror
    runner, and a self-conjugate centre component when p is odd."""
    for comps in _free_components(p // 2, m, p):
        yield comps + tuple(q.conjugate() for q in reversed(comps[: p // 2]))


def _symmetric_pairs(p: int, n: int):
    """Every (symmetric p-core, symmetric p-quotient) pair of weight n."""
    for w, arms in _symmetric_core_arms(p, n):
        if (n - w) % p == 0:
            a = sorted(arms, reverse=True)
            core = from_frobenius(a, a)
            for quotient in _symmetric_quotients(p, (n - w) // p):
                yield core, quotient


@pytest.mark.parametrize("p", range(2, 8))
def test_every_symmetric_pair_rebuilds_each_self_conjugate_partition_once(p):
    for n in range(41):
        pairs = list(_symmetric_pairs(p, n))
        rebuilt = [from_core_and_quotient(core, quotient, p) for core, quotient in pairs]
        expected = list(enumerate_partitions(n, symmetric_only=True))
        assert sorted(rebuilt, key=lambda la: la.parts, reverse=True) == expected
        for (core, quotient), la in zip(pairs, rebuilt):
            assert core_and_quotient(la, p) == (core, quotient)
            assert delta_general(core, quotient, p) == delta_of(la)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 11])
def test_core_and_quotient_factors_count_the_self_conjugate_partitions(p):
    # the core factor times P(q^2p) per runner pair, times the self-conjugate series in q^p for an odd p's centre,
    # is the series of partitions into distinct odd parts
    top = 400
    series = [0] * (top + 1)
    for w, _ in _symmetric_core_arms(p, top):
        series[w] += 1
    for _ in range(p // 2):
        for part in range(2 * p, top + 1, 2 * p):
            for total in range(part, top + 1):
                series[total] += series[total - part]
    if p % 2:
        for part in range(p, top + 1, 2 * p):  # p times an odd part, each at most once
            for total in range(top, part - 1, -1):
                series[total] += series[total - part]
    distinct_odd = [1] + [0] * top
    for part in range(1, top + 1, 2):
        for total in range(top, part - 1, -1):
            distinct_odd[total] += distinct_odd[total - part]
    assert series == distinct_odd


def _composition(draw, m: int, most: int) -> tuple[int, ...]:
    """The parts, largest first, of a random composition of m >= 0 into at most `most` parts: a partition of m."""
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=most - 1))) if m > 1 else []
    return tuple(sorted(map(operator.sub, cuts + [m], [0] + cuts), reverse=True)) if m else ()


def _component(draw, m: int) -> Partition:
    """A partition of about m cells: the c x c square, c = isqrt(m), less up to 3 of its diagonal arms and of its
    legs; or, a third of the time, a thin one of min(m, 400) cells in at most 6 rows."""
    c = isqrt(m)
    if c == 0 or draw(st.integers(0, 2)) == 2:
        return Partition(_composition(draw, min(m, 400), 6))
    gone = [draw(st.sets(st.integers(0, c - 1), max_size=3)) for _ in range(2)]
    arms, legs = ([v for v in range(c - 1, -1, -1) if v not in g] for g in gone)
    d = min(len(arms), len(legs))
    return from_frobenius(legs[:d], arms[:d])


@st.composite
def large_symmetric_pairs(draw):
    """(core, quotient, p): a random symmetric p-core and symmetric p-quotient of total weight about a drawn target.

    The core has d >= 1 arms g, g+p, ... on one residue g of up to 3 runner pairs, each within a third of the
    target; the quotient has a self-conjugate centre for odd p, and up to 3 free components, their conjugates on
    the mirror runners, sharing what is left of the target.
    """
    p = draw(st.sampled_from([*range(2, 17), 97, 101, 499, 997]))
    target = draw(st.one_of(st.integers(36_000, 44_000), st.integers(0, 110_000)))  # half near weight 40,000
    arms = []
    for r in draw(st.sets(st.integers(0, p // 2 - 1), max_size=3)):
        g = draw(st.sampled_from((r, p - 1 - r)))
        # the largest d with d(2g+1) + p*d(d-1) <= target / 3, but at least 1
        top = max(1, (isqrt((2 * g + 1 - p) ** 2 + 4 * p * (target // 3)) - (2 * g + 1 - p)) // (2 * p))
        arms += range(g, g + draw(st.integers(1, top)) * p, p)
    arms.sort(reverse=True)
    core = from_frobenius(arms, arms)
    cells = max(0, target - core.weight) // p  # the quotient's cells, mirrors and centre included
    quotient = [Partition(())] * p
    if p % 2:
        centre = sorted(draw(st.sets(st.integers(0, cells // 8), max_size=4)), reverse=True)  # weight <= cells + 4
        quotient[p // 2] = from_frobenius(centre, centre)
        cells = max(0, cells - quotient[p // 2].weight)
    free = draw(st.sets(st.integers(0, p // 2 - 1), min_size=1, max_size=3))
    for r, m in zip(sorted(free), _composition(draw, cells // 2, len(free)) + (0,) * len(free)):
        quotient[r] = _component(draw, m)
        quotient[p - 1 - r] = quotient[r].conjugate()
    return core, tuple(quotient), p


@settings(max_examples=200, deadline=None)
@given(large_symmetric_pairs())
def test_random_large_weight_pairs_rebuild_and_pass_every_check(pair):
    core, quotient, p = pair
    la = from_core_and_quotient(core, quotient, p)
    oracle = delta_of(la)
    assert core_and_quotient(la, p) == (core, quotient)
    assert delta_general(core, quotient, p) == oracle
    assert verify._cell_problems(la, p, oracle, diagonal_bisequence(la)) == []
