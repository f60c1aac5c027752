"""Exhaustive sweep comparing the runner formulas against the diagram reading."""

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from .abacus import _rebuild, core_and_quotient, is_p_core
from .bisequence import Bisequence, diagonal_bisequence, is_symmetric_p_core
from .errors import MAX_P, BadModulus, DiagHookError, NonPositivePart, _as_int, _items, require_modulus
from .formula import delta_general
from .partitions import DeltaSet, Partition, delta_of, enumerate_partitions


@dataclass(frozen=True)
class Failure:
    n: int
    partition: tuple[int, ...]
    p: int
    check: str
    detail: str


MAX_LISTED = 20  # failures a report keeps in full; it counts every one


@dataclass
class VerifyReport:
    n_max: int
    moduli: tuple[int, ...]
    cells: int = 0
    failures: int = 0
    first_failure: Failure | None = None
    failures_by_check: Counter[str] = field(default_factory=Counter)  # check name -> failures under it
    first_failures: list[Failure] = field(default_factory=list)  # the first MAX_LISTED, first_failure first

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def _add(self, failure: Failure) -> None:
        self.failures += 1
        self.failures_by_check[failure.check] += 1
        if len(self.first_failures) < MAX_LISTED:
            self.first_failures.append(failure)
        self.first_failure = self.first_failures[0]


def _cell_problems(la: Partition, p: int, oracle: DeltaSet, diagonal: Bisequence) -> list[tuple[str, str]]:
    problems = []
    core, quotient = core_and_quotient(la, p)
    try:
        formula = delta_general(core, quotient, p)  # checks the pair once, so the rebuild below need not
    except DiagHookError as exc:  # a pair its guards refuse: the guard names the cell's one problem
        return [(type(exc).__name__, str(exc))]
    rebuilt = _rebuild(core, quotient, p)
    if rebuilt != la:
        problems.append(("roundtrip", f"rebuilt {rebuilt} from core {core} and quotient"))
    if core.weight + p * sum(map(sum, map(attrgetter("parts"), quotient))) != la.weight:
        problems.append(("weight", f"core {core.weight} + {p}*quotient != {la.weight}"))
    if formula != oracle:
        problems.append(("delta", f"formula {formula.lengths} vs diagram {oracle.lengths}"))
    if is_symmetric_p_core(diagonal, p) != is_p_core(la, p):
        problems.append(("core-criterion", "residue test disagrees with direct hook check"))
    return problems


def run_verify(n_max: int, moduli: Iterable[int]) -> VerifyReport:
    """Check every self-conjugate partition of every n <= n_max against each modulus.

    Per (partition, p) cell: core/quotient roundtrip, the weight identity,
    formula delta == diagram delta, and the p-core residue criterion against
    the direct hook check; a pair the formula's guard refuses is one failure,
    named by the guard's error. Per n, a `coverage` failure when the partitions
    checked are not as many as an independent count of them.
    Deterministic order: n ascending, enumeration order, p ascending.
    """
    n_top = _as_int(n_max)
    if not 0 <= n_top <= MAX_P:
        raise NonPositivePart(f"n_max must be an integer in 0..{MAX_P}, got {n_max!r}")
    moduli = tuple(sorted({require_modulus(p) for p in _items(moduli)}))
    if not moduli:
        raise BadModulus("need at least one modulus")
    report = VerifyReport(n_max=n_top, moduli=moduli)
    counts = [1] + [0] * n_top  # partitions of each n into distinct odd parts, one odd part at a time
    for d in range(1, n_top + 1, 2):
        for m in range(n_top, d - 1, -1):
            counts[m] += counts[m - d]
    for n in range(n_top + 1):
        start = report.cells
        for la in enumerate_partitions(n, symmetric_only=True):
            oracle, diagonal = delta_of(la), diagonal_bisequence(la)
            for p in moduli:
                report.cells += 1
                for check, detail in _cell_problems(la, p, oracle, diagonal):
                    report._add(Failure(n, la.parts, p, check, detail))
        if (checked := (report.cells - start) // len(moduli)) != counts[n]:
            report._add(Failure(n, (), moduli[0], "coverage", f"checked {checked} partitions, expected {counts[n]}"))
    return report
