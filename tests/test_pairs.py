"""The bijection from the pair side: every (symmetric p-core, symmetric p-quotient) pair, generated directly."""

import pytest

from diaghooks.abacus import core_and_quotient, from_core_and_quotient
from diaghooks.formula import delta_general
from diaghooks.partitions import delta_of, enumerate_partitions, from_frobenius


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
