"""Diagonal leg/arm data of a partition and its decomposition by residue.

The bisequence of a partition pairs the strictly decreasing leg lengths of its
diagonal hooks with the strictly decreasing arm lengths. Splitting those
values by residue mod p (legs land on the mirrored residue p-1-g, arms on g)
is lossless and is what the runner formulas in `formula` operate on.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    InconsistentQuotient,
    NotSymmetricBisequence,
    _ints,
    _items,
    require_modulus,
    require_residue,
)
from .partitions import DeltaSet, Partition, _check_descending, _checked_frobenius, _frobenius, _rows


@dataclass(frozen=True)
class Bisequence:
    """Paired strictly decreasing sequences: diagonal legs and diagonal arms.

    A partition is self-conjugate exactly when the two sides coincide.
    """

    legs: tuple[int, ...] = ()
    arms: tuple[int, ...] = ()

    def __post_init__(self):
        legs, arms = _checked_frobenius(self.legs, self.arms)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "arms", arms)

    def __len__(self) -> int:
        return len(self.legs)

    @property
    def size(self) -> int:
        return len(self.legs)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.legs, self.arms))

    @property
    def is_symmetric(self) -> bool:
        return self.legs == self.arms

    def dual(self) -> "Bisequence":
        return Bisequence(self.arms, self.legs)

    def delta(self) -> DeltaSet:
        """Diagonal hook lengths 2*b+1; defined for symmetric data only."""
        return DeltaSet(tuple(2 * b + 1 for b in self._symmetric_arms()))

    def _symmetric_arms(self) -> tuple[int, ...]:
        """The arms; raises NotSymmetricBisequence unless they equal the legs."""
        if not self.is_symmetric:
            raise NotSymmetricBisequence("legs and arms differ")
        return self.arms


@dataclass(frozen=True)
class QuotientEntry:
    """Leg and arm m-values landing on one residue.

    Unlike a Bisequence the two sides may have different lengths: a non-empty
    core unbalances them (see `formula.d0_shift`).
    """

    legs: tuple[int, ...] = ()
    arms: tuple[int, ...] = ()

    def __post_init__(self):
        legs = _check_descending(sorted(_ints(self.legs), reverse=True), "legs")
        arms = _check_descending(sorted(_ints(self.arms), reverse=True), "arms")
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "arms", arms)

    @property
    def is_empty(self) -> bool:
        return not self.legs and not self.arms

    @property
    def is_balanced(self) -> bool:
        return len(self.legs) == len(self.arms)


_EMPTY_ENTRY = QuotientEntry()  # shared by every residue with no legs and no arms


@dataclass(frozen=True)
class QuotientBisequence:
    """One QuotientEntry per residue 0..p-1."""

    entries: tuple[QuotientEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def p(self) -> int:
        return len(self.entries)

    def __getitem__(self, g: int) -> QuotientEntry:
        return self.entries[require_residue(g, self.p)]

    def __iter__(self) -> Iterator[QuotientEntry]:
        return iter(self.entries)

    @property
    def populated(self) -> frozenset[int]:
        """Residues whose entry is non-empty."""
        return frozenset(g for g, e in enumerate(self.entries) if not e.is_empty)


def diagonal_bisequence(la: Partition) -> Bisequence:
    """Legs and arms of the diagonal hooks of la, largest first, read as Frobenius coordinates."""
    return Bisequence(*_frobenius(la))


def quotient_of(d: Bisequence, p: int) -> QuotientBisequence:
    """Split d by residue: a leg g+m*p puts m at entry p-1-g, an arm g+m*p puts m at entry g.

    The placement is lossless; `unquotient` recovers d exactly.
    """
    p = require_modulus(p)
    legs, arms = _rows(d.legs, p), _rows(d.arms, p)
    entries = (QuotientEntry(ls, a) if ls or a else _EMPTY_ENTRY for ls, a in zip(reversed(legs), arms))
    return QuotientBisequence(tuple(entries))


def unquotient(q: QuotientBisequence) -> Bisequence:
    """Reassemble a bisequence from its residue entries (inverse of quotient_of)."""
    p = require_modulus(q.p)
    legs = []
    arms = []
    for g, entry in enumerate(q.entries):
        legs.extend((p - 1 - g) + m * p for m in entry.legs)
        arms.extend(g + m * p for m in entry.arms)
    if len(legs) != len(arms):
        raise InconsistentQuotient(f"entries assemble to {len(legs)} legs but {len(arms)} arms")
    return Bisequence(tuple(sorted(legs, reverse=True)), tuple(sorted(arms, reverse=True)))


def residue_class(d: Bisequence, p: int, g: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The legs and arms of d congruent to g mod p, orders preserved."""
    p = require_modulus(p)
    g = require_residue(g, p)
    return (
        tuple(a for a in d.legs if a % p == g),
        tuple(b for b in d.arms if b % p == g),
    )


def is_concentrated(d: Bisequence, p: int, residues: Iterable[int]) -> bool:
    """True when the populated residue entries of d are exactly the given residues, each an integer 0..p-1."""
    q = quotient_of(d, p)
    return q.populated == frozenset(require_residue(g, q.p) for g in _items(residues))


def _is_packed(rows: list[int]) -> bool:
    """True when one residue class's rows, strictly decreasing and >= 0, are exactly r, ..., 1, 0: the first decides."""
    return not rows or rows[0] == len(rows) - 1


def is_gamma_packed(d: Bisequence, p: int, g: int) -> bool:
    """True when the residue-g diagonal values are exactly g, g+p, ..., g+r*p.

    The empty class counts as packed. Requires symmetric data, since packing
    is a statement about diagonal (b|b) pairs.
    """
    arms = d._symmetric_arms()
    p = require_modulus(p)
    g = require_residue(g, p)
    return _is_packed(_rows(arms, p)[g])


def is_symmetric_p_core(d: Bisequence, p: int) -> bool:
    """Residue test for p-core-ness of the self-conjugate partition behind d.

    The partition has no hook of length p exactly when every populated residue
    class is fully packed and the mirrored class p-1-g is empty. Note the
    centre residue of odd p is its own mirror, so it must be empty outright.
    The arms are bucketed by residue in one pass.
    """
    arms = d._symmetric_arms()
    p = require_modulus(p)
    rows = _rows(arms, p)
    return all(not r or (not rows[p - 1 - g] and _is_packed(r)) for g, r in enumerate(rows))
