"""The p-runner abacus: cores, quotients, and hook classification.

Bead position g + m*p sits at row m of runner g. The canonical layout of a
partition uses the least positive multiple of p that accommodates all parts,
so the bead count is always divisible by p and the quotient convention is
deterministic.
"""

import enum
import functools
from bisect import bisect_right
from dataclasses import dataclass
from operator import neg, sub
from typing import Sequence

from .beta import BetaHook, BetaSet, _beads, _decoded, axis_of, beta_of
from .errors import (
    BadModulus,
    NonEmptyCore,
    NotACore,
    NotAPHook,
    WrongQuotientLength,
    _ints,
    _items,
    require_modulus,
    require_residue,
)
from .partitions import _EMPTY, Partition, _columns, _frobenius, _rows, _self_conjugate_arms


@dataclass(frozen=True)
class Abacus:
    """A bead set arranged on p runners; bead count is a multiple of p."""

    p: int
    beads: BetaSet

    def __post_init__(self):
        object.__setattr__(self, "p", require_modulus(self.p))
        if not isinstance(self.beads, BetaSet):  # a given BetaSet is kept, so to_abacus builds one bead set
            object.__setattr__(self, "beads", BetaSet(self.beads))
        if len(self.beads) % self.p != 0:
            raise BadModulus(f"bead count {len(self.beads)} is not a multiple of {self.p}")

    def runner(self, g: int) -> BetaSet:
        """Row indices of the beads on runner g, a residue 0..p-1, itself a bead set."""
        return self.runners[require_residue(g, self.p)]

    @functools.cached_property
    def runners(self) -> tuple[BetaSet, ...]:
        """Every runner's bead rows, each a bead set."""
        return tuple(BetaSet(tuple(r)) for r in _rows(self.beads, self.p))


def _canonical_bead_count(la: Partition, p: int) -> int:
    return p * max(1, -(-len(la.parts) // p))


def to_abacus(la: Partition, p: int, bead_count: int | None = None) -> Abacus:
    """Abacus layout of la; bead_count (a multiple of p) overrides the default."""
    p = require_modulus(p)
    k = _canonical_bead_count(la, p) if bead_count is None else bead_count
    return Abacus(p, beta_of(la, k))


def _core_of(rows: list[list[int]], p: int) -> Partition:
    # rows full on every runner encode no parts; each later row is read over the runners reaching it: O(beads + p)
    counts = list(map(len, rows))
    live, beads, row, offset = range(p), [], min(counts), 0
    while live := [g for g in live if counts[g] > row]:
        beads += [g + offset for g in live]
        row, offset = row + 1, offset + p
    return _decoded(beads)


def _quotient_of(rows: list[list[int]]) -> tuple[Partition, ...]:
    # an ascending row that ends at len - 1 is packed: it decodes to no parts
    return tuple(_decoded(r) if r and r[-1] >= len(r) else _EMPTY for r in rows)


def _canonical_rows(la: Partition, p: int) -> list[list[int]]:
    # the canonical layout's bead positions bucketed by runner, each row ascending, as _quotient_of wants
    return _rows(reversed(_beads(la.parts, _canonical_bead_count(la, p))), p)


def core_and_quotient(la: Partition, p: int) -> tuple[Partition, tuple[Partition, ...]]:
    """p_core and p_quotient read off one pass over the canonical layout's bead positions, with no bead set."""
    p = require_modulus(p)
    rows = _canonical_rows(la, p)
    return _core_of(rows, p), _quotient_of(rows)


def p_core(la: Partition, p: int) -> Partition:
    """Push every bead as far up its runner as it goes; the remaining partition.

    The result has no hook of length p and does not depend on the bead count.
    """
    p = require_modulus(p)
    return _core_of(_canonical_rows(la, p), p)


def p_quotient(la: Partition, p: int) -> tuple[Partition, ...]:
    """The p partitions read off the runners of the canonical abacus."""
    return _quotient_of(_canonical_rows(la, require_modulus(p)))


def is_p_core(la: Partition, p: int) -> bool:
    """Direct check: no bead sits exactly p above a space."""
    p = require_modulus(p)
    beads = _beads(la.parts, len(la.parts))  # descending: the beads >= p lead, and map stops after them
    return set(beads).issuperset(map(sub, beads, (p,) * bisect_right(beads, -p, key=neg)))


def _charges(la: Partition, p: int) -> list[int]:
    """c_g = #{arms = g mod p} - #{legs = p-1-g mod p}: a layout of k beads, p | k, has k/p + c_g on runner g."""
    charges = [0] * p
    for leg, arm in zip(*_frobenius(la)):  # bead k + arm is on runner arm mod p, space k-1-leg on p-1-(leg mod p)
        charges[arm % p] += 1
        charges[-1 - leg % p] -= 1
    return charges


def _require_components(quotient: Sequence[Partition], p: int) -> None:
    if len(quotient) != p:
        raise WrongQuotientLength(f"expected {p} components, got {len(quotient)}")


def _require_core(core: Partition, p: int) -> None:
    if not is_p_core(core, p):
        raise NotACore(f"{core} has a hook of length {p}")


def is_symmetric_quotient(quotient: Sequence[Partition], p: int | None = None) -> bool:
    """True when component g is the conjugate of component p-1-g for every g."""
    quotient = _items(quotient)
    if p is not None:
        _require_components(quotient, require_modulus(p))
    # Conjugation is an involution, so the first half of the pairs decides; two empty components agree. A conjugate
    # has as many rows as its mirror's first part, so that count decides a mismatch before `_columns` walks a column.
    pairs = zip(quotient[: (len(quotient) + 1) // 2], reversed(quotient))
    return all(b.parts[:1] == (len(a.parts),) and a.parts == _columns(b.parts) for a, b in pairs if a.parts or b.parts)


def from_core_and_quotient(core: Partition, quotient: Sequence[Partition], p: int) -> Partition:
    """Rebuild the unique partition with the given p-core and p-quotient.

    Inverse of (p_core, p_quotient). A p-core's runners are packed, so its
    diagonal hooks give each runner's top bead (`_charges`). With enough spare
    full rows that each runner holds as many beads as its component has parts,
    a component with parts q1 >= q2 >= ... on runner g moves the runner's top
    bead q1 rows up, the next bead q2 rows up, and so on. Every other bead
    stays where the core put it, and spare full rows encode nothing.
    """
    p = require_modulus(p)
    quotient = _items(quotient)
    _require_components(quotient, p)
    _require_core(core, p)
    return _rebuild(core, quotient, p)


def _rebuild(core: Partition, quotient: Sequence[Partition], p: int) -> Partition:
    """from_core_and_quotient on a pair already checked: a p-core and p components."""
    k = _canonical_bead_count(core, p)
    charges = _charges(core, p)  # packed in a p-core, runner g's k/p + c_g beads top out at g + (k/p + c_g - 1)p
    moved = [(g + k - p + charges[g] * p, c.parts) for g, c in enumerate(quotient) if c.parts]  # g - p if empty
    # a spare full row adds one bead to every runner and encodes nothing: add as many as the runners lack
    j = max([len(parts) - top // p - 1 for top, parts in moved] + [0])
    old, new = [], []
    for top, parts in moved:  # the runner's top bead moves up parts[0] rows, the one below it parts[1], ...
        bead = top + j * p
        for part in parts:
            old.append(bead)
            new.append(bead + part * p)
            bead -= p
    beads = set(_beads(core.parts, k + j * p))
    beads.difference_update(old)
    beads.update(new)
    return _decoded(sorted(beads))


class HookSide(enum.Enum):
    """Where a hook of length p sits relative to the axis of the bead string."""

    STRADDLING = "straddling"
    RIGHT_OF_AXIS = "right"
    LEFT_OF_AXIS = "left"


@dataclass(frozen=True)
class PHookClass:
    """Classification of a length-p hook: its side, runner, and the row k of
    the unit hook (k-1, k] it induces on that runner."""

    side: HookSide
    runner: int
    row: int


def classify_p_hook(la: Partition, p: int, hook: BetaHook) -> PHookClass:
    """Classify a length-p hook of a self-conjugate, empty-core partition.

    Straddling hooks correspond to diagonal cells of the runner component,
    right-of-axis hooks to arm cells, left-of-axis hooks to leg cells.
    """
    p = require_modulus(p)
    _self_conjugate_arms(la)
    if p_core(la, p):
        raise NonEmptyCore(f"{la} has a non-empty {p}-core")
    ab = to_abacus(la, p)
    y, b = _ints((hook.y, hook.x))
    if y < 0 or b - y != p or b not in ab.beads or y in ab.beads:
        raise NotAPHook(f"({hook.y!r},{hook.x!r}] is not a length-{p} hook of the canonical layout")
    ax = axis_of(ab.beads)
    if ax.is_right(y):
        side = HookSide.RIGHT_OF_AXIS
    elif ax.is_left(b):
        side = HookSide.LEFT_OF_AXIS
    else:
        side = HookSide.STRADDLING
    return PHookClass(side=side, runner=b % p, row=b // p)


def render_ascii(la: Partition, p: int) -> str:
    """Deterministic picture of the canonical abacus.

    Runners are columns, beads are shown as bullets, spaces as dots, and a
    rule marks the axis (which always falls on a row boundary).
    """
    ab = to_abacus(la, p)
    p = ab.p
    axis_row = len(ab.beads) // p
    lines = []
    for row in range(ab.beads.max_bead // p + 1):
        cells = ["●" if (row * p + g) in ab.beads else "·" for g in range(p)]
        lines.append(" ".join(cells))
        if row + 1 == axis_row:
            lines.append("─" * (2 * p - 1))
    return "\n".join(lines)
