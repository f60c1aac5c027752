"""Shared sweep caches, hypothesis strategies, an `__index__`-only integer, a call-counting fixture and two
broken readers of the (core, quotient) pair."""

from functools import lru_cache

import pytest
from hypothesis import strategies as st

from diaghooks.beta import BetaSet, _decoded
from diaghooks.partitions import Partition, enumerate_partitions


@lru_cache(maxsize=None)
def partitions_up_to(n_max: int) -> tuple[Partition, ...]:
    return tuple(la for n in range(n_max + 1) for la in enumerate_partitions(n))


@lru_cache(maxsize=None)
def symmetric_up_to(n_max: int) -> tuple[Partition, ...]:
    return tuple(la for n in range(n_max + 1) for la in enumerate_partitions(n, symmetric_only=True))


class Index:
    """An integer only through `__index__`: no arithmetic, ordering or equality with ints."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


@st.composite
def partitions(draw, max_part: int = 10, max_rows: int = 8) -> Partition:
    rows = draw(st.integers(0, max_rows))
    parts = []
    ceiling = max_part
    for _ in range(rows):
        nxt = draw(st.integers(1, ceiling))
        parts.append(nxt)
        ceiling = nxt
    return Partition(tuple(parts))


@st.composite
def bead_sets(draw, max_pos: int = 24, max_beads: int = 9) -> BetaSet:
    beads = draw(st.sets(st.integers(0, max_pos), max_size=max_beads))
    return BetaSet(tuple(beads))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name, a function or method such as `__post_init__`, for the test.

    Returns the list each call appends its positional arguments to; a method's first one is the instance.
    """

    def wrap(owner, name):
        calls = []
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap


def swapped_components(core_and_quotient):
    """A `core_and_quotient` stand-in that swaps quotient components 0 and 1: asymmetric wherever they differ."""

    def swapped(la, p):
        core, quotient = core_and_quotient(la, p)
        return core, (quotient[1], quotient[0], *quotient[2:])

    return swapped


def unpushed_core(rows, p):
    """An `abacus._core_of` stand-in that pushes no bead up: the layout's own partition, a p-core only if it is one."""
    return _decoded(sorted(g + p * r for g, row in enumerate(rows) for r in row))
