"""Diagonal hook lengths of a self-conjugate partition from its core and quotient.

Nothing here touches the Young diagram of the full partition. One loop over the runner pairs {g, p-1-g}
reads the Frobenius legs and arms of the quotient component on one runner of each pair, shifts them by the
core's diagonal count d0 on that runner when it is non-zero (`_shift`) and writes their hook lengths
(`_pair_lengths`). The paper's empty-core, concentrated-pair and centre-runner results are restrictions of
that loop; the tests confirm it against the diagram reading `partitions.diagonal_hooks`.
"""

from dataclasses import dataclass
from typing import Sequence

from .abacus import _require_core, is_symmetric_quotient
from .bisequence import QuotientEntry
from .errors import (
    MAX_P,
    CenterResidue,
    EvenModulus,
    InternalInconsistency,
    NotSymmetricQuotient,
    _as_int,
    _items,
    require_modulus,
    require_residue,
)
from .partitions import _EMPTY, DeltaSet, Partition, _check_descending, _frobenius, _self_conjugate_arms


@dataclass(frozen=True)
class CoreCounts:
    """Per-residue diagonal counts of a symmetric core and the induced split.

    d0[g] counts the core's diagonal hooks whose arm is congruent to g mod p.
    Residues with d0 > 0 get the shift treatment, their mirrors p-1-g receive
    the shifted-out legs, and everything else passes through untouched.
    """

    d0: tuple[int, ...]

    @property
    def shifted(self) -> tuple[int, ...]:
        return tuple(g for g, d in enumerate(self.d0) if d)

    @property
    def mirrored(self) -> tuple[int, ...]:
        return tuple(g for g, d in enumerate(reversed(self.d0)) if d)

    @property
    def untouched(self) -> tuple[int, ...]:
        return tuple(g for g, (d, e) in enumerate(zip(self.d0, reversed(self.d0))) if not d and not e)


def core_counts(core: Partition, p: int) -> CoreCounts:
    """Residue bookkeeping for a symmetric p-core."""
    return CoreCounts(_core_d0(core, require_modulus(p)))


def _core_d0(core: Partition, p: int) -> tuple[int, ...]:
    """d0 as the core's diagonal arms counted by residue, for a checked modulus p; raises unless a symmetric p-core."""
    arms = _self_conjugate_arms(core)
    _require_core(core, p)
    d0 = [0] * p
    for a in arms:
        d0[a % p] += 1
    return tuple(d0)


def shift_sets(legs: Sequence[int], d0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The gap set S (values below d0 missing from legs) and the tail set T (legs >= d0).

    The legs must strictly decrease and be >= 0. Always len(S) + len(legs-in-[0,d0)) == d0, S disjoint from T.
    """
    legs = _check_descending(legs, "legs")
    moved = d0_shift(QuotientEntry(legs), d0)  # no arms in, so the arms out are the d0-s-1 of the gaps s
    n = len(moved.arms) + len(legs) - len(moved.legs)  # d0, by the identity above
    return tuple(n - 1 - a for a in reversed(moved.arms)), legs[: len(moved.legs)]  # T leads the descending legs


def _shift(legs: Sequence[int], arms: Sequence[int], d0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Trusted: descending legs and arms (a QuotientEntry's or a Partition's) and a plain int d0 >= 1. Descending
    # out: the moved arms are all >= d0, the new arms d0-s-1 all < d0, and ascending gaps s give descending d0-s-1.
    present = set(legs)
    gaps = [d0 - 1 - s for s in range(d0) if s not in present]
    return tuple([t - d0 for t in legs if t >= d0]), tuple([a + d0 for a in arms] + gaps)


def d0_shift(entry: QuotientEntry, d0: int) -> QuotientEntry:
    """Shift one residue entry by the core's diagonal count d0.

    Arms move up by d0; each gap s below d0 in the legs turns into a new arm
    d0-s-1; legs at least d0 drop by d0 and stay legs; legs below d0 are
    absorbed. A balanced entry comes out with exactly d0 more arms than legs.
    """
    n = _as_int(d0)
    if not 1 <= n <= MAX_P:  # the shift builds up to d0 new arms, one per gap
        raise InternalInconsistency(f"shift amount must be >= 1, got {d0!r}" if n < 1 else f"d0={n} is above {MAX_P}")
    return QuotientEntry(*_shift(entry.legs, entry.arms, n))


def _pair_lengths(legs: Sequence[int], arms: Sequence[int], g: int, p: int, d0: int) -> list[int]:
    """Hook lengths of the runner pair {g, p-1-g}, from the Frobenius legs and arms of the component on runner g.

    Shifted by d0 when d0 > 0, an arm m is the arm value g + m*p, of length 2p*m + 2g + 1, and a leg m the
    mirror component's arm value (p-1-g) + m*p, of length 2p*(m+1) - (2g+1).
    """
    if d0:
        legs, arms = _shift(legs, arms, d0)
    step, c, lengths = 2 * p, 2 * g + 1, []
    for m in arms:  # plain loops: on a pair's few values they beat comprehensions on Python 3.11
        lengths.append(step * m + c)
    for m in legs if c != p else ():  # the centre runner of odd p is its own mirror: only its arms count
        lengths.append(step * m + step - c)
    return lengths


def _delta(lengths: list[int]) -> DeltaSet:
    """The lengths, distinct as each runner pair writes only its own two residues, sorted in place, largest first."""
    lengths.sort(reverse=True)
    return DeltaSet(tuple(lengths))


def delta_concentrated_pair(component: Partition, g: int, p: int) -> DeltaSet:
    """Diagonal hook lengths contributed by the runner pair {g, p-1-g}.

    `component` sits on runner g; its conjugate is implicitly on the mirror
    runner. Each diagonal (leg s | arm t) of the component yields the two
    lengths 2*(s+1)*p - 2*g - 1 and 2*t*p + 2*g + 1: one pair of the loop in
    `delta_general`, with no core shift.
    """
    p = require_modulus(p)
    g = require_residue(g, p)
    if 2 * g == p - 1:
        raise CenterResidue(f"residue {g} is self-dual for p={p}; use delta_concentrated_center")
    return _delta(_pair_lengths(*_frobenius(component), g, p, 0))


def delta_concentrated_center(component: Partition, p: int) -> DeltaSet:
    """Diagonal hook lengths contributed by the self-dual centre runner (p odd).

    The centre component must itself be self-conjugate; each of its diagonal
    values m yields the length (2*m+1)*p: the centre pair of the loop in
    `delta_general`, with no core shift.
    """
    p = require_modulus(p)
    if p % 2 == 0:
        raise EvenModulus(f"p={p} has no centre runner")
    arms = _self_conjugate_arms(component)
    return _delta(_pair_lengths(arms, arms, (p - 1) // 2, p, 0))


def delta_empty_core(quotient: Sequence[Partition], p: int) -> DeltaSet:
    """Diagonal hook lengths when the core is empty: runner pairs contribute
    independently and their contributions never collide."""
    return delta_general(_EMPTY, quotient, p)


def delta_general(core: Partition, quotient: Sequence[Partition], p: int) -> DeltaSet:
    """Diagonal hook lengths of the self-conjugate partition with this core and quotient.

    One pass over the runner pairs {r, p-1-r}. A symmetric p-core populates at
    most one residue of each pair; that runner's entry is shifted by its
    d0 > 0, the shifted arms stay at its residue and the surviving legs
    re-emerge as arms at the mirror residue. A pair the core leaves alone
    contributes runner r's arms and legs unshifted. Every arm value b then
    gives the length 2*b + 1.
    """
    p = require_modulus(p)
    quotient = _items(quotient)
    if not is_symmetric_quotient(quotient, p):
        raise NotSymmetricQuotient("component g must equal conjugate of component p-1-g")
    d0 = _core_d0(core, p)
    lengths: list[int] = []
    for r in range((p + 1) // 2):
        g = p - 1 - r if d0[p - 1 - r] else r
        if quotient[g].parts or d0[g]:  # a pair with no core arms and an empty component adds no lengths
            lengths += _pair_lengths(*_frobenius(quotient[g]), g, p, d0[g])
    return _delta(lengths)
