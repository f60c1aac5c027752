"""Bead/space encodings of partitions and the half-integer balance axis.

A bead set is a finite set of distinct non-negative positions. Read as an
infinite string it carries beads at every negative position and spaces beyond
the largest bead; two encodings are equivalent when one is the other shifted
right with a bead pushed in at the origin. All axis arithmetic is kept exact
by storing 2*theta (an odd integer) instead of the half-integer theta.
"""

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .bisequence import Bisequence
from .errors import MAX_P, InvalidBetaSet, NotAPHook, TooFewBeads, _as_int, _ints, _items
from .partitions import Hook, Partition, _frobenius


@dataclass(frozen=True)
class BetaSet:
    """Distinct non-negative bead positions, kept sorted ascending."""

    beads: tuple[int, ...] = ()

    def __post_init__(self):
        given = _items(self.beads)
        beads = tuple(sorted(_ints(given)))
        object.__setattr__(self, "beads", beads)
        if beads and beads[0] < 0:
            raise InvalidBetaSet(f"bead position {min(given, key=_as_int)!r} is not a non-negative integer")
        if not all(map(operator.lt, beads, beads[1:])):
            raise InvalidBetaSet(f"duplicate bead position {next(a for a, b in zip(beads, beads[1:]) if a == b)}")

    def __contains__(self, pos: int) -> bool:  # `_as_int` reads a bool or a non-integer as -1, which no bead is
        return bisect_left(self.beads, n := _as_int(pos)) < bisect_right(self.beads, n)

    def __len__(self) -> int:
        return len(self.beads)

    def __iter__(self):
        return iter(self.beads)

    @property
    def max_bead(self) -> int:
        """Largest bead, or -1 for the empty set."""
        return self.beads[-1] if self.beads else -1

    @property
    def first_space(self) -> int:
        """Smallest non-negative position without a bead."""
        return next((s for s, b in enumerate(self.beads) if b != s), len(self.beads))

    def shifted(self, steps: int = 1) -> "BetaSet":
        """Equivalent encoding with `steps` beads pushed in at the origin."""
        n = _as_int(steps)
        if not 0 <= n <= MAX_P:
            shown = f"shift must be an integer >= 0, got {steps!r}" if n < 0 else f"shift {n} is above {MAX_P}"
            raise InvalidBetaSet(shown)
        return BetaSet(tuple(range(n)) + tuple(b + n for b in self.beads))

    def minimal(self) -> "BetaSet":
        """Canonical representative: shift left until position 0 is a space."""
        r = self.first_space
        return BetaSet(tuple(b - r for b in self.beads[r:]))


@dataclass(frozen=True)
class BetaHook:
    """A hook (y, x] of a bead set: space y jumped over by bead x > y."""

    y: int
    x: int

    @property
    def length(self) -> int:
        return self.x - self.y


@dataclass(frozen=True)
class Axis:
    """Balance point of a bead set, stored exactly as the odd integer 2*theta."""

    two_theta: int

    @property
    def last_left(self) -> int:
        """Largest integer position strictly left of the axis."""
        return (self.two_theta - 1) // 2

    def is_left(self, pos: int) -> bool:
        return 2 * pos < self.two_theta

    def is_right(self, pos: int) -> bool:
        return 2 * pos > self.two_theta


def _beads(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The k >= len(parts) bead positions encoding these rows, largest first: row i at parts[i-1] + k - i."""
    return tuple(map(operator.add, parts, range(k - 1, -1, -1))) + tuple(range(k - len(parts) - 1, -1, -1))


def beta_of(la: Partition, k: int) -> BetaSet:
    """First-column bead encoding of la with exactly k beads, at most MAX_P more than its parts."""
    n = _as_int(k)
    if not len(la.parts) <= n <= len(la.parts) + MAX_P:  # the canonical layout adds at most p - 1 beads
        raise TooFewBeads(f"need an integer bead count in {len(la.parts)}..{len(la.parts) + MAX_P} for {la}, got {k!r}")
    return BetaSet(_beads(la.parts, n))


def _parts(ascending: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The parts, largest first, of distinct bead positions in ascending order: the j-th smallest has j below it."""
    return tuple(filter(None, map(operator.sub, reversed(ascending), range(len(ascending) - 1, -1, -1))))


def _decoded(ascending: list[int] | tuple[int, ...]) -> Partition:
    """partition_of without Partition's checks, the only such construction. `_parts` of distinct ascending non-negative
    int positions gives plain ints, positive as zeros are dropped, weakly decreasing as b[j+1] - (j+1) >= b[j] - j."""
    la = object.__new__(Partition)
    object.__setattr__(la, "parts", _parts(ascending))
    return la


def partition_of(x: BetaSet) -> Partition:
    """The partition encoded by a bead set (inverse of beta_of at k = len)."""
    return _decoded(x.beads)


def hooks_of(x: BetaSet) -> list[BetaHook]:
    """All hooks (y, x]: one per cell of the encoded diagram, sorted by (x, y)."""
    return [BetaHook(y, b) for b in x.beads for y in range(b) if y not in x]


def _hook_ends(x: BetaSet, hook: BetaHook) -> tuple[int, int]:
    """The hook's space and bead as plain ints; raises NotAPHook unless they are a hook of x."""
    y, b = _ints((hook.y, hook.x))
    if b not in x or y in x or y < 0 or y >= b:
        raise NotAPHook(f"({hook.y!r},{hook.x!r}] is not a hook of this bead set")
    return y, b


def young_hook(x: BetaSet, hook: BetaHook) -> Hook:
    """Young-diagram corner, arm and leg of a bead-set hook.

    Row = beads at or above x, column = spaces at or below y, leg = beads and arm = spaces strictly between.
    """
    y, b = _hook_ends(x, hook)
    at_y, below_b = bisect_right(x.beads, y), bisect_left(x.beads, b)  # counts on the sorted beads, at any y
    leg = below_b - at_y
    return Hook(row=len(x.beads) - below_b, col=y + 1 - at_y, arm=b - y - 1 - leg, leg=leg)


def remove_hook(x: BetaSet, hook: BetaHook) -> BetaSet:
    """Move the bead at hook.x into the space at hook.y; removes a hook of that length."""
    y, b = _hook_ends(x, hook)
    return BetaSet(tuple(z for z in x.beads if z != b) + (y,))


def axis_of(x: BetaSet) -> Axis:
    """The unique half-integer with as many beads to its right as spaces to its left: k - 1/2 for k beads.

    Take beads b_1 > ... > b_k. Then b_i >= k exactly when the part b_i - (k - i) is at least i, which holds for the
    d rows of the Durfee square, so d beads sit right of k - 1/2. The other k - d beads lie below k, so d spaces sit
    left of it. The surplus of right beads over left spaces drops by one per unit step, so no other axis balances.
    """
    return Axis(two_theta=2 * len(x.beads) - 1)


def plus_minus(x: BetaSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Beads right of the axis (descending) and spaces left of it (ascending).

    The two lists always have equal length; paired entries differ by one plus the leg and arm of the corresponding
    diagonal hook: at the axis k - 1/2 of k beads, the rows' arm a is the bead k + a and their leg b the space k-1-b.
    """
    k, (legs, arms) = len(x.beads), _frobenius(_decoded(x.beads))
    return tuple(k + a for a in arms), tuple(k - 1 - b for b in legs)


def bisequence_of(x: BetaSet) -> Bisequence:
    """Diagonal legs k - 1 - y per space y < k and arms b - k per bead b >= k: read at the axis k - 1/2 of k beads."""
    return Bisequence(*_frobenius(_decoded(x.beads)))


def is_symmetric_beta(x: BetaSet) -> bool:
    """True when reflecting through the axis swaps beads and spaces.

    Positions below 0 count as beads, so the reflection swaps them exactly when it maps the beads right of the axis
    onto the spaces left of it, each bead k + a onto the space k - 1 - a: when the rows' legs are their arms.
    """
    legs, arms = _frobenius(_decoded(x.beads))
    return legs == arms
