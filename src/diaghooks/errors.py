"""Exception types shared across the library.

Every error raised on bad input derives from DiagHookError, which itself is a
ValueError, so callers that do not care about the fine distinctions can catch
the usual thing.
"""

import operator

MAX_P = 10**6  # the bound of every size-setting integer: a layout has p runner lists, k bead positions, d0 gaps


class DiagHookError(ValueError):
    """Base class for every error raised by this package.

    `exit_code` is the status the command-line front end exits with when the
    error reaches it; subclasses override it per the documented contract.
    """

    exit_code = 2


class NonPositivePart(DiagHookError):
    """A partition part was not a positive integer."""


class NonMonotonic(DiagHookError):
    """Partition parts were not weakly decreasing."""


class CellOutOfDiagram(DiagHookError):
    """A (row, column) index fell outside the Young diagram."""


class NotStrictlyDecreasing(DiagHookError):
    """A sequence that must strictly decrease (and stay non-negative) failed to."""


class LengthMismatch(DiagHookError):
    """Paired leg/arm sequences had different lengths."""


class InvalidDeltaSet(DiagHookError):
    """Diagonal hook lengths must be positive, odd and strictly decreasing."""


class InvalidBetaSet(DiagHookError):
    """Bead positions must be distinct non-negative integers."""


class TooFewBeads(DiagHookError):
    """Requested bead count is below the number of parts, or more than MAX_P above it."""


class BadModulus(DiagHookError):
    """The runner count p must be an integer >= 2, compatible with the bead count."""

    exit_code = 3


class EvenModulus(DiagHookError):
    """The operation addresses the centre runner and therefore needs odd p."""

    exit_code = 3


class BadResidue(DiagHookError):
    """A residue was outside the range 0..p-1."""

    exit_code = 3


class CenterResidue(DiagHookError):
    """The paired-runner formula does not apply to the self-dual centre residue."""

    exit_code = 3


class NotAPHook(DiagHookError):
    """The given space/bead pair is not a hook of the expected kind."""


class NotSymmetric(DiagHookError):
    """A self-conjugate partition was required."""

    exit_code = 6


class NonEmptyCore(DiagHookError):
    """An empty p-core was required."""


class NotACore(DiagHookError):
    """The partition still contains a hook of length p."""

    exit_code = 4


class WrongQuotientLength(DiagHookError):
    """A p-quotient must have exactly p components."""

    exit_code = 5


class NotSymmetricQuotient(DiagHookError):
    """Quotient components must satisfy component[g] == conjugate(component[p-1-g])."""

    exit_code = 5


class NotSymmetricBisequence(DiagHookError):
    """A bisequence with equal leg and arm sequences was required."""

    exit_code = 6


class InconsistentQuotient(DiagHookError):
    """Residue entries do not reassemble into a valid bisequence."""

    exit_code = 5


class BadPartitionSyntax(DiagHookError):
    """Textual partition input could not be parsed."""


class InternalInconsistency(DiagHookError):
    """An internal invariant failed; indicates invalid input or a bug."""


def _as_int(v) -> int:
    """v as a plain int, via `operator.index`; -1, which every caller refuses, for bool and non-integers."""
    if type(v) is int:  # the common case, with no call
        return v
    try:
        return -1 if isinstance(v, bool) else operator.index(v)
    except TypeError:
        return -1


class _NotIterable(str):  # a non-iterable given as a sequence: one item that `_as_int` refuses, shown as this text
    __repr__ = str.__str__


def _items(values) -> tuple:
    """values as a tuple; a non-iterable, such as 5 or None, as one refused item, never as a sequence of itself."""
    try:
        return tuple(values)
    except TypeError:
        return (_NotIterable(f"{values!r} (not iterable)"),)


def _ints(values) -> tuple[int, ...]:
    """values as a tuple of plain ints, each read by `_as_int`; a tuple of plain ints is returned as it is."""
    values = values if type(values) is tuple else _items(values)  # a tuple is its own _items, with no call
    for v in values:  # exits at the first non-int; a set of the types would be built in full first
        if type(v) is not int:
            return tuple(map(_as_int, values))
    return values


def require_modulus(p: int) -> int:
    """p as a plain int; raises BadModulus unless it is a usable runner count (an integer 2..MAX_P)."""
    n = _as_int(p)
    if not 2 <= n <= MAX_P:
        raise BadModulus(f"p must be an integer >= 2, got {p!r}" if n < 2 else f"p={n} is above {MAX_P}")
    return n


def require_residue(g: int, p: int) -> int:
    """g as a plain int; raises BadResidue unless it is an integer residue 0..p-1 of an already checked modulus p."""
    r = _as_int(g)
    if not 0 <= r < p:
        raise BadResidue(f"residue {g!r} not in 0..{p - 1}")
    return r
