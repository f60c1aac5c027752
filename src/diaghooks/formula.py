"""Diagonal hook lengths of a self-conjugate partition from its core and quotient.

Nothing here ever touches the Young diagram of the full partition. The
diagonal data is assembled one runner pair {r, p-1-r} at a time: the quotient
component on one runner of the pair is read once, shifted by the core's
diagonal count d0 on that runner when it is non-zero, and its arms and legs
become arm values at the two residues of the pair. The paper's empty-core,
concentrated-pair and centre-runner results are restrictions of that one
loop. The brute-force reading in `partitions.diagonal_hooks` exists precisely
so the test suite can confirm this module by exhaustive enumeration.
"""

from dataclasses import dataclass
from typing import Sequence

from .abacus import is_p_core, is_symmetric_quotient
from .bisequence import QuotientEntry
from .errors import (
    CenterResidue,
    EvenModulus,
    InternalInconsistency,
    NotACore,
    NotSymmetricQuotient,
    _as_int,
    require_modulus,
    require_residue,
)
from .partitions import _EMPTY, DeltaSet, Partition, _check_descending, _frobenius, _rows, _self_conjugate_arms


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
    p = require_modulus(p)
    arms = _self_conjugate_arms(core)
    if not is_p_core(core, p):
        raise NotACore(f"{core} has a hook of length {p}")
    return CoreCounts(tuple(map(len, _rows(arms, p))))


def shift_sets(legs: Sequence[int], d0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The gap set S (values below d0 missing from legs) and the tail set T (legs >= d0).

    The legs must strictly decrease and be >= 0. Always len(S) + len(legs-in-[0,d0)) == d0, S disjoint from T.
    """
    return _shift_sets(_check_descending(legs, "legs"), d0)[:2]


def _shift_sets(legs: Sequence[int], d0: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """S, T and the plain int d0 they were read with."""
    n = _as_int(d0)
    if n < 1:
        raise InternalInconsistency(f"shift amount must be >= 1, got {d0!r}")
    present = set(legs)
    s_set = tuple(s for s in range(n - 1, -1, -1) if s not in present)
    t_set = tuple(t for t in legs if t >= n)
    return s_set, t_set, n


def _shift(legs: Sequence[int], arms: Sequence[int], d0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Checked descending legs and arms in (a QuotientEntry's or a Partition's), descending out: the moved
    # arms are all >= d0, the new arms d0-s-1 all < d0, and ascending gaps s give descending d0-s-1.
    s_set, t_set, d0 = _shift_sets(legs, d0)
    arms = tuple(a + d0 for a in arms) + tuple(d0 - s - 1 for s in reversed(s_set))
    return tuple(t - d0 for t in t_set), arms


def d0_shift(entry: QuotientEntry, d0: int) -> QuotientEntry:
    """Shift one residue entry by the core's diagonal count d0.

    Arms move up by d0; each gap s below d0 in the legs turns into a new arm
    d0-s-1; legs at least d0 drop by d0 and stay legs; legs below d0 are
    absorbed. A balanced entry comes out with exactly d0 more arms than legs.
    """
    return QuotientEntry(*_shift(entry.legs, entry.arms, d0))


def _pair_arm_values(legs: Sequence[int], arms: Sequence[int], r: int, p: int, d0: int) -> list[int]:
    """Arm values of the runner pair {r, p-1-r}, from the Frobenius legs and arms of the component on runner r.

    The component's diagonal data is shifted by d0 when d0 > 0. Its arms then
    become arm values at residue r and its legs, which are the mirror
    component's arms, become arm values at p-1-r. On the centre runner of odd
    p the two residues coincide and only the arms count.
    """
    if d0:
        legs, arms = _shift(legs, arms, d0)
    values = [r + m * p for m in arms]
    if 2 * r != p - 1:
        values += [(p - 1 - r) + m * p for m in legs]
    return values


def _delta(arm_values: list[int]) -> DeltaSet:
    """The lengths 2*b + 1 of distinct arm values b, largest first."""
    return DeltaSet(tuple(sorted((2 * b + 1 for b in arm_values), reverse=True)))


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
    return _delta(_pair_arm_values(*_frobenius(component), g, p, 0))


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
    return _delta(_pair_arm_values(arms, arms, (p - 1) // 2, p, 0))


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
    quotient = tuple(quotient)
    if not is_symmetric_quotient(quotient, p):
        raise NotSymmetricQuotient("component g must equal conjugate of component p-1-g")
    d0 = core_counts(core, p).d0
    arm_values: list[int] = []
    for r in range((p + 1) // 2):
        g = p - 1 - r if d0[p - 1 - r] else r
        if d0[g] or quotient[g].parts:  # a pair with no core arms and empty components adds nothing
            arm_values += _pair_arm_values(*_frobenius(quotient[g]), g, p, d0[g])
    return _delta(arm_values)
