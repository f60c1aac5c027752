"""Integer partitions, Young-diagram hooks, and the brute-force diagonal reading.

Conventions used throughout the package: rows and columns are 1-based, parts
are weakly decreasing positive integers, and the empty partition is a
first-class value. Parts and weights are Python ints of any size; the
formula is checked against the diagram at weights up to 40,000.
"""

import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    MAX_P,
    CellOutOfDiagram,
    InvalidDeltaSet,
    LengthMismatch,
    NonMonotonic,
    NonPositivePart,
    NotStrictlyDecreasing,
    NotSymmetric,
    _as_int,
    _ints,
    _items,
)


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers, possibly empty.

    Construction validates the input instead of sorting it: silently fixing
    the order would hide bugs in callers.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        given = _items(self.parts)
        parts = _ints(given)
        # one sort test decides, and the last part of a descending tuple is its least; the rest only finds what is shown
        if list(parts) != sorted(parts, reverse=True) or parts and parts[-1] < 1:
            if parts and min(parts) < 1:  # a part below 1 is named before a rise
                k = next(k for k, part in enumerate(parts) if part < 1)
                raise NonPositivePart(f"part #{k + 1} is {given[k]!r}, must be an integer >= 1")
            a, b = next((a, b) for a, b in zip(parts, parts[1:]) if b > a)
            raise NonMonotonic(f"parts must be weakly decreasing, found {a} before {b}")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def durfee(self) -> int:
        """Side of the largest square of cells inside the diagram."""
        for i, part in enumerate(self.parts):
            if part <= i:  # row i + 1 is shorter than i + 1
                return i
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Partition of the column lengths; an involution."""
        return Partition(_columns(self.parts))

    @property
    def is_symmetric(self) -> bool:
        """True when the partition equals its conjugate; a length other than the first part decides at once."""
        return len(self.parts) == (self.parts or (0,))[0] and self.parts == _columns(self.parts)


_EMPTY = Partition(())  # shared by the parser and the readers for each empty component; frozen, so safe to share


def _columns(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the diagram with these weakly decreasing rows, in one walk up the rows."""
    cols = []
    j = len(parts) - 1
    for c in range(1, (parts[0] if parts else 0) + 1):
        while parts[j] < c:
            j -= 1
        cols.append(j + 1)
    return tuple(cols)


def _frobenius(la: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Legs la'_i - i and arms la_i - i of la's diagonal hooks, largest first, one bisection of the rows per leg."""
    parts = la.parts
    up, n = parts[::-1], len(parts)  # ascending: the rows shorter than i are its first bisect_left(up, i)
    legs, arms = [], []
    for i, part in enumerate(parts, start=1):
        if part < i:  # past the Durfee square
            break
        legs.append(n - bisect_left(up, i) - i)
        arms.append(part - i)
    return tuple(legs), tuple(arms)


def _rows(beads: Iterable[int], p: int) -> list[list[int]]:
    """Beads, legs or arms by residue: g + m*p is row m of runner g, in the values' order, in one O(k + p) pass."""
    rows: list[list[int]] = [[] for _ in range(p)]
    for pos in beads:
        rows[pos % p].append(pos // p)
    return rows


def _charges(legs: Iterable[int], arms: Iterable[int], p: int) -> list[int]:
    """+1 on runner a mod p per arm a and -1 on runner p-1-(b mod p) per leg b. Of a partition's legs and arms these
    are its charges c_g (Garvan, Kim and Stanton 1990): its layout of k beads, p | k, has k/p + c_g on runner g."""
    charges = [0] * p
    for a in arms:
        charges[a % p] += 1
    for b in legs:  # bead k + a is on runner a mod p, space k-1-b on p-1-(b mod p)
        charges[-1 - b % p] -= 1
    return charges


def _self_conjugate_arms(la: Partition) -> tuple[int, ...]:
    """la's diagonal arms, from one Frobenius reading; raises NotSymmetric unless la is self-conjugate."""
    legs, arms = _frobenius(la)
    if legs != arms:
        raise NotSymmetric(f"{la} is not self-conjugate")
    return arms


@dataclass(frozen=True)
class Hook:
    """A hook with corner (row, col): the corner cell, its arm, and its leg."""

    row: int
    col: int
    arm: int
    leg: int

    @property
    def length(self) -> int:
        return self.arm + self.leg + 1


@dataclass(frozen=True)
class DeltaSet:
    """Diagonal hook lengths of a self-conjugate partition.

    Always strictly decreasing positive odd integers; their sum equals the
    weight of the partition they describe.
    """

    lengths: tuple[int, ...] = ()

    def __post_init__(self):
        given = _items(self.lengths)
        lengths = _ints(given)
        for k, d in enumerate(lengths):  # faster than min and a parity pass on the few lengths a partition has
            if d < 1 or d % 2 == 0:
                raise InvalidDeltaSet(f"{given[k]!r} is not a positive odd integer")
        object.__setattr__(self, "lengths", lengths)
        if not all(map(operator.gt, lengths, lengths[1:])):
            a, b = next((a, b) for a, b in zip(lengths, lengths[1:]) if b >= a)
            raise InvalidDeltaSet(f"lengths must strictly decrease, found {a} then {b}")

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lengths)

    @property
    def total(self) -> int:
        return sum(self.lengths)


def hook_at(la: Partition, i: int, j: int) -> Hook:
    """The hook of [la] with corner cell (i, j), 1-based."""
    row, col = _ints((i, j))
    if row < 1 or col < 1 or row > len(la.parts) or col > la.parts[row - 1]:
        raise CellOutOfDiagram(f"cell ({i!r},{j!r}) is not in the diagram of {la}")
    return Hook(row=row, col=col, arm=la.parts[row - 1] - col, leg=sum(1 for p in la.parts[row:] if p >= col))


def all_hooks(la: Partition) -> list[Hook]:
    """Every hook of the diagram, row by row."""
    return [hook_at(la, i, j) for i in range(1, len(la.parts) + 1) for j in range(1, la.parts[i - 1] + 1)]


def diagonal_hooks(la: Partition) -> list[Hook]:
    """Hooks cornered on the main diagonal, largest first.

    This is the brute-force reading straight off the Young diagram; the rest
    of the package is repeatedly checked against it. Works for arbitrary
    partitions, not only self-conjugate ones.
    """
    return [hook_at(la, i, i) for i in range(1, la.durfee + 1)]


def delta_of(la: Partition) -> DeltaSet:
    """Diagonal hook lengths of a self-conjugate partition, largest first."""
    _self_conjugate_arms(la)
    return DeltaSet(tuple(h.length for h in diagonal_hooks(la)))


def _check_descending(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as ints; raises unless >= 0 (tested first, as a refused value reads -1) and strictly decreasing."""
    seq = _ints(values)
    if seq and min(seq) < 0:
        raise NotStrictlyDecreasing(f"{what} must be non-negative integers")
    if not all(map(operator.gt, seq, seq[1:])):  # the builtin pass decides; the loop only finds the pair to name
        a, b = next((a, b) for a, b in zip(seq, seq[1:]) if b >= a)
        raise NotStrictlyDecreasing(f"{what} must strictly decrease, found {a} then {b}")
    return seq


def _checked_frobenius(legs: Iterable[int], arms: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """legs and arms as int tuples; raises unless equally long, strictly decreasing and non-negative."""
    legs, arms = _items(legs), _items(arms)
    if len(legs) != len(arms):
        raise LengthMismatch(f"{len(legs)} legs vs {len(arms)} arms")
    return _check_descending(legs, "legs"), _check_descending(arms, "arms")


def from_frobenius(legs: Iterable[int], arms: Iterable[int]) -> Partition:
    """The unique partition whose diagonal hooks have these legs and arms.

    Inverse of diagonal_hooks: legs[i] and arms[i] are the leg and arm of the
    hook cornered at cell (i+1, i+1).
    """
    return _from_frobenius(*_checked_frobenius(legs, arms))


def _from_frobenius(legs: tuple[int, ...], arms: tuple[int, ...]) -> Partition:
    """from_frobenius on int tuples already equally long, strictly decreasing and >= 0; one checked Partition."""
    rows = tuple(a + i for i, a in enumerate(arms, 1))
    # Only the t Durfee columns, of lengths legs[i-1] + i, reach below row t: those rows are their conjugate.
    return Partition(rows + _columns(tuple(b + i for i, b in enumerate(legs, 1)))[len(legs):])


def from_delta_lengths(lengths: Iterable[int]) -> Partition:
    """Self-conjugate partition with the given diagonal hook lengths."""
    half = tuple((d - 1) // 2 for d in DeltaSet(lengths).lengths)  # distinct odd lengths halve to distinct arms
    return _from_frobenius(half, half)


def _distinct_arms(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    # Strictly decreasing arms a <= largest whose hooks 2a + 1 sum to n, descending lexicographically: the
    # order enumerate_partitions gives the self-conjugate partitions with these arms. Row i <= t is a_i + i,
    # so rows agree before the first index k where two arm sequences differ; at k the larger a_k gives the
    # larger row, and a sequence that has already ended has row k <= k - 1, below the other's row k >= k.
    if n == 0:
        yield ()
        return
    for a in range(min(largest, (n - 1) // 2), -1, -1):  # from the largest a with 2a + 1 <= n
        if (a + 1) * (a + 1) < n:  # the hooks 1 + 3 + ... + (2a + 1) = (a + 1)**2 fall short of n
            return
        for rest in _distinct_arms(n - 2 * a - 1, a - 1):
            yield (a,) + rest


def _descending_parts(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    # Partitions of n into parts <= largest, descending lexicographically: the first part runs down from the largest.
    if n == 0:
        yield ()
        return
    for d in range(min(largest, n), 0, -1):
        for rest in _descending_parts(n - d, d):
            yield (d,) + rest


def enumerate_partitions(n: int, symmetric_only: bool = False) -> Iterator[Partition]:
    """All partitions of n, in reverse lexicographic order, each exactly once.

    With symmetric_only only the self-conjugate partitions are yielded (same
    order), generated directly from their Frobenius arms: the strictly
    decreasing a >= 0 whose diagonal hook lengths 2a + 1 sum to n.
    """
    size = _as_int(n)
    if size < 0 or symmetric_only and size > MAX_P:  # the self-conjugate stream's first item has about n/2 rows
        raise NonPositivePart(f"cannot partition {n!r}" + (f" self-conjugately above {MAX_P}" if size > 0 else ""))
    if symmetric_only:  # the generator's arms are distinct and non-negative: they need no DeltaSet
        for arms in _distinct_arms(size, size):
            yield _from_frobenius(arms, arms)
        return
    yield from map(Partition, _descending_parts(size, size))
