"""The builtin passes against the per-element loops they replaced, kept here as references.

Each reference is the loop as it read before parsing, validation and the bead
encodings moved into `map`, `filter`, `min` and `str` methods, before the
rebuild moved only the beads of non-empty components, before the formula's
pair loop wrote hook lengths through a trusted shift, before `young_hook`
counted on the sorted beads, before `_frobenius` took each leg by bisection,
before `_core_d0` counted arms by residue in place of taking the lengths of
`_rows`' lists, before a checked `Partition` decided by one sort test and
the parser stripped only a refused line, before the parser read each
distinct token once, or before the rebuild read each moved runner's top off
the core's charges in place of a dict over every core bead and `is_p_core`
tested the beads >= p in builtin passes in place of a generator over every
bead, or before the residue criterion read each arm's row against its
runner's charge and `is_gamma_packed` filtered its one class in place of
`_rows`' p lists and `_is_packed`, and the charges took legs and arms in place
of a partition; a result must be the same value, and a refusal the same
exception type and message. The conjugacy tests, which now
compare a length with a first part before reading columns, are checked against
the column reading alone. A bead set's `in`, which now bisects its sorted beads,
is checked against a set of them, read under the integer rule. The bead-string
readers, which now relabel the rows' Frobenius coordinates at the axis, are
checked against the scan of the positions below the axis that they replaced.
"""

import importlib
import sys
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diaghooks
from conftest import Index, bead_sets, partitions, partitions_up_to, symmetric_up_to
from diaghooks import beta, cli
from diaghooks.abacus import (
    _canonical_bead_count,
    _core_of,
    _rebuild,
    _require_core,
    classify_p_hook,
    core_and_quotient,
    is_p_core,
    is_symmetric_quotient,
    p_core,
    to_abacus,
)
from diaghooks.beta import (
    BetaHook,
    BetaSet,
    _beads,
    _parts,
    axis_of,
    beta_of,
    bisequence_of,
    hooks_of,
    is_symmetric_beta,
    partition_of,
    plus_minus,
    young_hook,
)
from diaghooks.bisequence import Bisequence, QuotientEntry, diagonal_bisequence, is_gamma_packed, is_symmetric_p_core
from diaghooks.cli import parse_partition
from diaghooks.errors import (
    BadPartitionSyntax,
    CenterResidue,
    EvenModulus,
    InternalInconsistency,
    NonEmptyCore,
    NonMonotonic,
    NonPositivePart,
    NotACore,
    NotAPHook,
    NotSymmetricQuotient,
    _as_int,
    _ints,
    require_modulus,
    require_residue,
)
from diaghooks.formula import (
    _core_d0,
    d0_shift,
    delta_concentrated_center,
    delta_concentrated_pair,
    delta_general,
    shift_sets,
)
from diaghooks.partitions import (
    _EMPTY,
    DeltaSet,
    Hook,
    Partition,
    _charges,
    _columns,
    _frobenius,
    _rows,
    _self_conjugate_arms,
    from_delta_lengths,
)


def outcome(call, *args):
    """call(*args) as ("value", result) or ("error", type, message)."""
    try:
        return "value", call(*args)
    except Exception as exc:  # the type is part of what must match
        return "error", type(exc), str(exc)


def reference_is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit() and len(text) <= 4300


def reference_parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return _EMPTY
    parts: list[int] = []
    cells = pos = 0
    for token in text.split(","):
        stripped = token.strip()
        base, caret, exp = stripped.partition("^")
        if not reference_is_digits(base) or (caret and not reference_is_digits(exp)):
            raise BadPartitionSyntax(f"bad token {stripped!r} at position {pos}")
        part, count = int(base), int(exp) if caret else 1
        cells += (part or 1) * count
        if cells > cli.MAX_PARTS:
            raise BadPartitionSyntax(f"token {stripped!r} at position {pos} makes more than {cli.MAX_PARTS} cells")
        parts.extend([part] * count)
        pos += len(token) + 1
    return Partition(tuple(parts))


def reference_partition_parts(given: tuple) -> tuple[int, ...]:
    parts = _ints(given)
    for k, part in enumerate(parts):
        if part < 1:
            raise NonPositivePart(f"part #{k + 1} is {given[k]!r}, must be an integer >= 1")
    for a, b in zip(parts, parts[1:]):
        if b > a:
            raise NonMonotonic(f"parts must be weakly decreasing, found {a} before {b}")
    return parts


def reference_frobenius(la: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    parts = la.parts
    legs, arms = [], []
    j = len(parts) - 1
    for i, part in enumerate(parts, start=1):
        if part < i:
            break
        while parts[j] < i:
            j -= 1
        legs.append(j + 1 - i)
        arms.append(part - i)
    return tuple(legs), tuple(arms)


def reference_core_d0(core: Partition, p: int) -> tuple[int, ...]:
    arms = _self_conjugate_arms(core)
    _require_core(core, p)
    return tuple(map(len, _rows(arms, p)))


def reference_beads(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple(part + k - i for i, part in enumerate(parts, 1)) + tuple(range(k - len(parts) - 1, -1, -1))


def reference_parts(ascending) -> tuple[int, ...]:
    return tuple(reversed([b - j for j, b in enumerate(ascending) if b > j]))


def reference_core_of(rows: list[list[int]], p: int) -> Partition:
    return Partition(reference_parts(sorted(g + m * p for g, r in enumerate(rows) for m in range(len(r)))))


def reference_rebuild(core: Partition, quotient, p: int) -> Partition:
    counts = [len(r) for r in _rows(_beads(core.parts, _canonical_bead_count(core, p)), p)]
    j = max(0, max(len(q.parts) - c for q, c in zip(quotient, counts)))
    beads = []
    for g in range(p):
        parts = quotient[g].parts
        if parts:
            beads.extend(g + m * p for m in _beads(parts, counts[g] + j))
        else:
            beads.extend(range(g, g + (counts[g] + j) * p, p))
    return Partition(_parts(sorted(beads)))


def reference_tops(core: Partition, p: int) -> list[int]:
    tops = {b % p: b for b in reversed(_beads(core.parts, _canonical_bead_count(core, p)))}
    return [tops.get(g, g - p) for g in range(p)]


def charge_tops(core: Partition, p: int) -> list[int]:
    """Each runner's top bead as `_rebuild` reads it: g + (k/p + c_g - 1)p, g - p on an empty runner."""
    k = _canonical_bead_count(core, p)
    return [g + k - p + c * p for g, c in enumerate(_charges(*_frobenius(core), p))]


def reference_is_p_core(la: Partition, p: int) -> bool:
    p = require_modulus(p)
    beads = set(_beads(la.parts, len(la.parts)))
    return not any(b >= p and (b - p) not in beads for b in beads)


def reference_is_symmetric_quotient(quotient) -> bool:
    n = len(quotient)
    return all(quotient[g].parts == _columns(quotient[n - 1 - g].parts) for g in range((n + 1) // 2))


def reference_young_hook(x: BetaSet, hook) -> Hook:
    y, b = hook.y, hook.x
    row = sum(1 for z in x.beads if z >= b)
    col = sum(1 for z in range(y + 1) if z not in x)
    leg = sum(1 for z in x.beads if y < z < b)
    arm = b - y - 1 - leg
    return Hook(row=row, col=col, arm=arm, leg=leg)


TOKEN_TEXT = st.text(alphabet=",^ 0123456789²３a", max_size=8)
LONG_DIGITS = st.sampled_from(["1" * 4300, "1" * 4301, "0" * 4301, "2^" + "1" * 4301])
PARSER_TOKEN = st.one_of(TOKEN_TEXT, TOKEN_TEXT, LONG_DIGITS)
PARSER_TEXT = st.one_of(  # free tokens, or tokens drawn again and again from a pool of up to three
    st.lists(PARSER_TOKEN, max_size=6),
    st.lists(PARSER_TOKEN, min_size=1, max_size=3).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=8)),
).map(",".join)


@settings(max_examples=400, deadline=None)
@given(PARSER_TEXT)
def test_parse_partition_matches_the_token_loop(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "MAX_PARTS", 10)
        assert outcome(parse_partition, text) == outcome(reference_parse_partition, text)


@pytest.mark.parametrize("text", [
    "3,2,1", " 4 , 4 ,1", "10", "11", "5,5,1", "6,5", "0", "2,0", "1,2", "3,,1", "3,1,", "１,1", "3²",
    "1" * 4300, "1" * 4301, "9,9", "5,5,0", "9,0,0", "10^1", "1^10", "1^11", "0^11",
    # repeated tokens, each distinct one read once: one value spelled several ways, a refusal before and after a
    # good token, a repeated token too long for int()
    "3,003, 3", "2, 2,02,2 ", "7,007, 7", "x,1,x", "３,1,３", "2,,1,,", "1,0,1,0", "1" * 4301 + ",1," + "1" * 4301,
    ",".join(["1" * 4301] * 2), ",".join(["1" * 4300] * 2),
])
def test_parse_partition_matches_the_token_loop_at_the_bounds(monkeypatch, text):
    monkeypatch.setattr(cli, "MAX_PARTS", 10)
    assert outcome(parse_partition, text) == outcome(reference_parse_partition, text)


@pytest.mark.parametrize("top, sep, last", [
    (1413, ",", ""), (1413, " , ", ""), (1414, ",", ""), (1413, ",", ",x"), (1412, ",", ",1^2"),
], ids=["within", "spaced", "over", "refused-last", "exponent-last"])
def test_parse_partition_matches_the_token_loop_on_distinct_parts(top, sep, last):
    # a line within the cell bound has at most 1,413 distinct parts: the staircase 1413..1 is its all-distinct worst
    # case, 999,091 cells, and 1414..1 is over the bound
    text = sep.join(map(str, range(top, 0, -1))) + last
    assert outcome(parse_partition, text) == outcome(reference_parse_partition, text)


@st.composite
def long_runs(draw) -> tuple[int, ...]:
    """Up to 25 runs of equal parts, in all up to 3,000 rows: the shape of a large-p `core` query line."""
    values = sorted(draw(st.sets(st.integers(1, 3000), max_size=25)), reverse=True)
    counts = draw(st.lists(st.integers(1, 120), min_size=len(values), max_size=len(values)))
    return tuple(v for v, c in zip(values, counts) for _ in range(c))


@settings(max_examples=100, deadline=None)
@given(
    long_runs(),
    st.sampled_from([",", ", ", " , "]),
    st.booleans(),
    st.sampled_from([None, "0", "rise", "-1", "1^2", "３", "", " "]),
    st.sampled_from([10**6, 5000]),
)
def test_parse_partition_matches_the_token_loop_on_long_lines(parts, sep, as_runs, last, bound):
    # spaced and unspaced lines, with exponents or not, whose only fault, if any, is the last token
    tokens = [f"{v}^{len(list(run))}" for v, run in groupby(parts)] if as_runs else list(map(str, parts))
    if last is not None:
        tokens.append(str((parts or (0,))[-1] + 1) if last == "rise" else last)
    text = " " + sep.join(tokens) + " "
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "MAX_PARTS", bound)
        assert outcome(parse_partition, text) == outcome(reference_parse_partition, text)


PART = st.one_of(
    st.integers(-2, 6),
    st.floats(-1, 6),
    st.booleans(),
    st.integers(-2, 6).map(Index),
    st.sampled_from(["1", None]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(PART, max_size=6).map(tuple))
def test_partition_validation_matches_the_loops(given):
    got = outcome(lambda: Partition(given).parts)
    assert got == outcome(reference_partition_parts, given)


@settings(max_examples=200, deadline=None)
@given(long_runs(), st.sampled_from(["none", "zero", "rise", "any"]), st.data())
def test_long_runs_with_a_last_fault_match_the_loops(parts, last, data):
    # a sorted prefix leaves the last part to decide: a 0, a rise, or any value PART draws
    if last == "rise":
        parts += ((parts or (0,))[-1] + 1,)
    elif last != "none":
        parts += (0 if last == "zero" else data.draw(PART),)
    assert outcome(lambda: Partition(parts).parts) == outcome(reference_partition_parts, parts)


@given(st.lists(st.integers(1, 9), max_size=8).map(lambda xs: tuple(sorted(xs, reverse=True))))
def test_descending_parts_pass_and_keep_their_values(parts):
    assert Partition(parts).parts == reference_partition_parts(parts)


def test_frobenius_matches_the_pointer_walk_up_to_20():
    for la in partitions_up_to(20):
        assert _frobenius(la) == reference_frobenius(la), la


@settings(max_examples=100, deadline=None)
@given(long_runs())
def test_frobenius_matches_the_pointer_walk_on_long_runs(parts):
    la, conjugate = Partition(parts), Partition(_columns(parts))
    assert _frobenius(la) == reference_frobenius(la)
    assert _frobenius(conjugate) == reference_frobenius(conjugate) == reference_frobenius(la)[::-1]


CORE_MODULI = (*range(2, 14), 101, 499, 997)


@st.composite
def d0_cores(draw) -> tuple[Partition, int]:
    """p in CORE_MODULI and a `from_delta_lengths` core: a symmetric p-core as in `symmetric_pairs` in most draws,
    a single arm on row 1 of a class whose row 0 is empty (no p-core), or a partition that is not self-conjugate."""
    p = draw(st.sampled_from(CORE_MODULI))
    kind = draw(st.sampled_from(["core", "core", "core", "no p-core", "not self-conjugate"]))
    if kind == "not self-conjugate":
        return draw(partitions(max_part=5, max_rows=5).filter(lambda la: la != la.conjugate())), p
    if kind == "no p-core":
        return from_delta_lengths([2 * (draw(st.integers(0, p - 1)) + p) + 1]), p
    pair = st.integers(0, p // 2 - 1)  # r < p-1-r
    classes = draw(st.lists(st.tuples(pair, st.booleans(), st.integers(1, 3)), max_size=3, unique_by=lambda t: t[0]))
    arms = [(p - 1 - r if mirrored else r) + m * p for r, mirrored, rows in classes for m in range(rows)]
    return from_delta_lengths(sorted((2 * a + 1 for a in arms), reverse=True)), p


@settings(max_examples=200, deadline=None)
@given(d0_cores())
def test_core_d0_counts_match_the_row_lists(core_and_p):
    core, p = core_and_p
    assert outcome(_core_d0, core, p) == outcome(reference_core_d0, core, p)


@given(partitions(), st.integers(0, 5))
def test_beads_match_the_generator(la, extra):
    k = len(la.parts) + extra
    assert _beads(la.parts, k) == reference_beads(la.parts, k)


@given(bead_sets())
def test_parts_match_the_generator(x):
    assert _parts(x.beads) == _parts(list(x.beads)) == reference_parts(x.beads)
    assert partition_of(x).parts == reference_parts(x.beads)


@given(partitions(), st.integers(2, 7), st.integers(0, 3))
def test_core_of_skips_full_rows_at_any_bead_count(la, p, j):
    rows = _rows(beta_of(la, len(la.parts) + j * p).beads, p)
    assert _core_of(rows, p) == reference_core_of(rows, p) == p_core(la, p)
    k = -(-len(la.parts) // p) * p + j * p  # the canonical counts, j * p beads on
    assert _core_of(_rows(beta_of(la, k).beads, p), p) == p_core(la, p)


@pytest.mark.parametrize("p", [2, 5, 97])
def test_core_of_reads_one_long_runner(p):
    x = BetaSet(tuple(range(p)) + tuple(range(2 * p, 300 * p, p)))  # runner 0 holds 299 beads, the rest one each
    rows = _rows(x.beads, p)
    assert _core_of(rows, p) == reference_core_of(rows, p) == p_core(partition_of(x), p)


COMPONENT = partitions(max_part=3, max_rows=3)


def one_dimension_off(draw, la: Partition) -> Partition:
    """la with one more row of 1 or one more cell in its first row: its length or first part no longer its mirror's."""
    parts = la.parts or (0,)
    return Partition(draw(st.sampled_from([la.parts + (1,), (parts[0] + 1,) + parts[1:]])))


@given(st.lists(st.one_of(st.just(_EMPTY), COMPONENT), min_size=1, max_size=7), st.data())
def test_symmetric_quotient_verdict_matches_the_pair_loop(components, data):
    n = len(components)
    mirrored = data.draw(st.sampled_from(["no", "yes", "yes, then one component one dimension off"]))
    if mirrored != "no":  # mirror the first half in most draws, so that True verdicts occur
        for g in range(n // 2):
            components[n - 1 - g] = Partition(_columns(components[g].parts))
    if mirrored.startswith("yes, then"):  # a mismatch a length and a first part decide, before any column
        g = data.draw(st.integers(0, n - 1))
        components[g] = one_dimension_off(data.draw, components[g])
    quotient = tuple(components)
    expected = reference_is_symmetric_quotient(quotient)
    assert is_symmetric_quotient(quotient) == expected
    if n >= 2:
        assert is_symmetric_quotient(quotient, n) == expected


@st.composite
def near_symmetric(draw) -> Partition:
    """A non-empty self-conjugate partition with a row of 1 or a first-row cell added: length and first part differ."""
    return one_dimension_off(draw, draw(st.sampled_from(symmetric_up_to(16)[1:])))


@given(st.one_of(partitions(), st.sampled_from(symmetric_up_to(16)), near_symmetric()))
def test_is_symmetric_matches_the_column_reading(la):
    assert la.is_symmetric == (la.parts == _columns(la.parts))


@settings(max_examples=200, deadline=None)
@given(bead_sets())
def test_young_hook_counts_match_the_sums(x):
    for hook in hooks_of(x):
        assert young_hook(x, hook) == reference_young_hook(x, hook)


def reference_contains(x: BetaSet, pos) -> bool:
    return _as_int(pos) in frozenset(x.beads)


@given(bead_sets())
def test_membership_matches_the_set(x):
    positions = range(-2, x.max_bead + 3)
    for pos in (*positions, *map(Index, positions), True, False, 1.0, "a", None):
        assert (pos in x) == reference_contains(x, pos), pos


def reference_plus_minus(x: BetaSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ax = axis_of(x)
    plus = tuple(b for b in reversed(x.beads) if ax.is_right(b))
    minus = tuple(y for y in range(ax.last_left + 1) if y not in x)
    return plus, minus


def reference_bisequence_of(x: BetaSet) -> Bisequence:
    k = len(x.beads)
    plus, minus = reference_plus_minus(x)
    return Bisequence(tuple(k - 1 - y for y in minus), tuple(b - k for b in plus))


def assert_bead_readers_match(x: BetaSet) -> None:
    reference = reference_bisequence_of(x)
    assert plus_minus(x) == reference_plus_minus(x), x
    assert bisequence_of(x) == reference, x
    assert is_symmetric_beta(x) == reference.is_symmetric, x


def test_bead_readers_match_the_scan_below_14():
    for mask in range(2 ** 14):  # every bead set with positions below 14
        assert_bead_readers_match(BetaSet(tuple(pos for pos in range(14) if mask >> pos & 1)))


@settings(max_examples=200)
@given(bead_sets(), st.integers(0, 4))
def test_bead_readers_match_the_scan(x, steps):
    assert_bead_readers_match(x.shifted(steps))


@pytest.mark.parametrize("reader", [plus_minus, bisequence_of, is_symmetric_beta], ids=lambda f: f.__name__)
def test_bead_readers_read_the_rows_once(count_calls, reader):
    x = BetaSet((0, 2, 3, 6, 9, 10))
    readings = count_calls(beta, "_frobenius")
    encodings = count_calls(BetaSet, "__post_init__")
    bisequences = count_calls(Bisequence, "__post_init__")
    reader(x)
    assert (len(readings), len(encodings)) == (1, 0)
    assert len(bisequences) == (reader is bisequence_of)


LONG_COMPONENT = st.one_of(st.just(_EMPTY), partitions(max_part=3, max_rows=3), partitions(max_part=2, max_rows=12))


@settings(max_examples=300, deadline=None)
@given(partitions(max_part=24, max_rows=16), st.integers(2, 13), st.data())
def test_rebuild_matches_the_runner_walk(core_seed, p, data):
    core = p_core(core_seed, p)
    quotient = tuple(data.draw(LONG_COMPONENT) for _ in range(p))
    la = _rebuild(core, quotient, p)
    assert la == reference_rebuild(core, quotient, p)
    assert core_and_quotient(la, p) == (core, quotient)


@pytest.mark.parametrize("p", [97, 997])
@pytest.mark.parametrize("long_runner", ["side", "centre"])
def test_rebuild_matches_the_runner_walk_at_large_p(p, long_runner):
    core = from_delta_lengths([2 * (10 + p) + 1, 21])  # arms 10 and 10 + p: one residue class, a symmetric p-core
    long = Partition((2, 2) + (1,) * 6)
    quotient = [_EMPTY] * p
    quotient[3], quotient[p - 4], quotient[(p - 1) // 2] = Partition((3, 1)), Partition((2, 1, 1)), Partition((2, 1))
    quotient[3 if long_runner == "side" else (p - 1) // 2] = long
    quotient = tuple(quotient)
    assert is_p_core(core, p)
    assert max(map(len, to_abacus(core, p).runners)) < len(long.parts)
    la = _rebuild(core, quotient, p)
    assert la == reference_rebuild(core, quotient, p)
    assert core_and_quotient(la, p) == (core, quotient)
    assert la.weight == core.weight + p * sum(q.weight for q in quotient)


TOP_MODULI = (*range(2, 14), 97, 997)


def test_tops_and_core_test_match_the_loops_up_to_20():
    for p in TOP_MODULI:
        cores = set()
        for la in partitions_up_to(20):
            assert is_p_core(la, p) == reference_is_p_core(la, p), (la, p)
            cores.add(p_core(la, p))
        for core in cores:
            assert is_p_core(core, p) and reference_is_p_core(core, p), (core, p)
            assert charge_tops(core, p) == reference_tops(core, p), (core, p)


HUGE = 10**30


@st.composite
def tall_partitions(draw) -> Partition:
    """A drawn partition whose first few rows may be 10**30 longer: a part as long as test_boundary's."""
    parts = draw(partitions(max_part=24, max_rows=16)).parts
    long_rows = draw(st.integers(0, len(parts)))
    return Partition(tuple(part + HUGE if i < long_rows else part for i, part in enumerate(parts)))


@settings(max_examples=300, deadline=None)
@given(tall_partitions(), st.one_of(st.integers(2, 13), st.sampled_from([97, 997])))
def test_tops_and_core_test_match_the_loops(la, p):
    core = p_core(la, p)
    assert is_p_core(la, p) == reference_is_p_core(la, p)
    assert is_p_core(core, p) and reference_is_p_core(core, p)
    assert charge_tops(core, p) == reference_tops(core, p)


def query_pairs(seed: int) -> list[tuple[Partition, tuple[Partition, ...], int]]:
    """The core, quotient and p of each `delta` line of the benchmark's query schedule."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[0]
    schedule = workloads.build(diaghooks, "query", seed)
    return [(Partition(tuple(op[3]["core"])), tuple(Partition(tuple(c)) for c in op[3]["quotient"]), op[1])
            for op in schedule if op[0] == "delta"]


def test_tops_and_core_test_match_the_loops_on_the_query_cores():
    pairs = query_pairs(1)
    assert len(pairs) == 48
    for core, quotient, p in pairs:
        assert is_p_core(core, p) and reference_is_p_core(core, p), (core, p)
        assert charge_tops(core, p) == reference_tops(core, p), (core, p)
        assert _rebuild(core, quotient, p) == reference_rebuild(core, quotient, p), (core, p)


def reference_charges(la: Partition, p: int) -> list[int]:
    charges = [0] * p
    for leg, arm in zip(*_frobenius(la)):
        charges[arm % p] += 1
        charges[-1 - leg % p] -= 1
    return charges


def reference_is_packed(rows: list[int]) -> bool:
    return not rows or rows[0] == len(rows) - 1


def reference_is_gamma_packed(d, p, g) -> bool:
    arms = d._symmetric_arms()
    p = require_modulus(p)
    g = require_residue(g, p)
    return reference_is_packed(_rows(arms, p)[g])


def reference_is_symmetric_p_core(d, p) -> bool:
    arms = d._symmetric_arms()
    p = require_modulus(p)
    rows = _rows(arms, p)
    return all(not r or (not rows[p - 1 - g] and reference_is_packed(r)) for g, r in enumerate(rows))


def assert_residue_readings_match(la: Partition, p: int) -> None:
    """The criterion, the packing of each g < min(p, 14) and of each arm's class and its mirror, and the charges."""
    d = diagonal_bisequence(la)
    assert outcome(is_symmetric_p_core, d, p) == outcome(reference_is_symmetric_p_core, d, p), (la, p)
    for g in {*range(min(p, 14)), *(a % p for a in d.arms), *(p - 1 - a % p for a in d.arms)}:
        assert outcome(is_gamma_packed, d, p, g) == outcome(reference_is_gamma_packed, d, p, g), (la, p, g)
    assert _charges(*_frobenius(la), p) == reference_charges(la, p), (la, p)


RESIDUE_MODULI = (*range(2, 14), 97, 997)


def test_residue_readings_match_the_row_lists_up_to_40():
    for la in symmetric_up_to(40):
        for p in RESIDUE_MODULI:
            assert_residue_readings_match(la, p)
            assert is_symmetric_p_core(diagonal_bisequence(la), p) == is_p_core(la, p), (la, p)


@st.composite
def residue_partitions(draw) -> tuple[Partition, int]:
    """p <= 997 and a `from_delta_lengths` partition with arms below 3p: free arms, or classes packed from row 0 on
    drawn runners, a p-core unless two of them are mirrors or one is the centre; now and then not self-conjugate."""
    p = draw(st.one_of(st.integers(2, 13), st.integers(2, 997)))
    kind = draw(st.sampled_from(["free", "packed", "packed", "not self-conjugate"]))
    if kind == "not self-conjugate":
        return draw(partitions(max_part=5, max_rows=5).filter(lambda la: la != la.conjugate())), p
    if kind == "free":
        arms = draw(st.sets(st.integers(0, 3 * p - 1), max_size=6))
    else:
        classes = draw(st.dictionaries(st.integers(0, p - 1), st.integers(1, 3), max_size=3))
        arms = {g + m * p for g, rows in classes.items() for m in range(rows)}
    return from_delta_lengths(sorted((2 * a + 1 for a in arms), reverse=True)), p


@settings(max_examples=300, deadline=None)
@given(residue_partitions())
def test_residue_readings_match_the_row_lists(drawn):
    la, p = drawn
    assert_residue_readings_match(la, p)
    if la.is_symmetric:
        assert is_symmetric_p_core(diagonal_bisequence(la), p) == is_p_core(la, p)


def test_residue_readings_match_the_row_lists_on_the_query_cores():
    for core, _, p in query_pairs(1):
        assert_residue_readings_match(core, p)
        assert is_symmetric_p_core(diagonal_bisequence(core), p)


def test_classify_refuses_exactly_the_non_empty_cores():
    for la in symmetric_up_to(30):
        for p in range(2, 8):
            beads = to_abacus(la, p).beads
            hooks = [BetaHook(b - p, b) for b in beads.beads if b >= p and b - p not in beads]
            got = outcome(classify_p_hook, la, p, (hooks or [BetaHook(0, p)])[0])
            if p_core(la, p).parts:
                assert got[:2] == ("error", NonEmptyCore), (la, p)
            else:  # the empty partition has no hook of length p
                assert got[0] == "value" if la.parts else got[:2] == ("error", NotAPHook), (la, p)


def reference_shift(legs, arms, d0):
    n = _as_int(d0)
    if n < 1:
        raise InternalInconsistency(f"shift amount must be >= 1, got {d0!r}")
    present = set(legs)
    s_set = tuple(s for s in range(n - 1, -1, -1) if s not in present)
    t_set = tuple(t for t in legs if t >= n)
    return tuple(t - n for t in t_set), tuple(a + n for a in arms) + tuple(n - s - 1 for s in reversed(s_set))


def reference_pair_arm_values(legs, arms, r: int, p: int, d0: int) -> list[int]:
    if d0:
        legs, arms = reference_shift(legs, arms, d0)
    values = [r + m * p for m in arms]
    if 2 * r != p - 1:
        values += [(p - 1 - r) + m * p for m in legs]
    return values


def reference_delta(arm_values: list[int]) -> DeltaSet:
    return DeltaSet(tuple(sorted((2 * b + 1 for b in arm_values), reverse=True)))


def reference_delta_general(core: Partition, quotient, p) -> DeltaSet:
    p = require_modulus(p)
    quotient = tuple(quotient)
    if not is_symmetric_quotient(quotient, p):
        raise NotSymmetricQuotient("component g must equal conjugate of component p-1-g")
    arms = _self_conjugate_arms(core)
    if not is_p_core(core, p):
        raise NotACore(f"{core} has a hook of length {p}")
    d0 = tuple(map(len, _rows(arms, p)))
    arm_values: list[int] = []
    for r in range((p + 1) // 2):
        g = p - 1 - r if d0[p - 1 - r] else r
        if d0[g] or quotient[g].parts:
            arm_values += reference_pair_arm_values(*_frobenius(quotient[g]), g, p, d0[g])
    return reference_delta(arm_values)


def reference_concentrated_pair(component: Partition, g, p) -> DeltaSet:
    p = require_modulus(p)
    g = require_residue(g, p)
    if 2 * g == p - 1:
        raise CenterResidue(f"residue {g} is self-dual for p={p}; use delta_concentrated_center")
    return reference_delta(reference_pair_arm_values(*_frobenius(component), g, p, 0))


def reference_concentrated_center(component: Partition, p) -> DeltaSet:
    p = require_modulus(p)
    if p % 2 == 0:
        raise EvenModulus(f"p={p} has no centre runner")
    arms = _self_conjugate_arms(component)
    return reference_delta(reference_pair_arm_values(arms, arms, (p - 1) // 2, p, 0))


SMALL_COMPONENT = partitions(max_part=4, max_rows=4)
SELF_CONJUGATE = st.sets(st.integers(0, 3), max_size=3).map(
    lambda ks: from_delta_lengths(sorted((2 * k + 1 for k in ks), reverse=True))
)


@st.composite
def symmetric_pairs(draw) -> tuple[int, Partition, tuple[Partition, ...]]:
    """p in 2..16, 97 or 997, a symmetric p-core and a symmetric p-quotient.

    The core's diagonal arms fill rows 0..d-1 of one residue class per chosen runner pair and leave its mirror
    and the centre runner empty. In half the draws the quotient also fills the core's pairs, so that shifted
    components are non-empty at large p too.
    """
    p = draw(st.sampled_from([*range(2, 17), 97, 997]))
    pair = st.one_of(st.integers(0, min(3, p // 2 - 1)), st.integers(0, p // 2 - 1))  # r < p-1-r
    core_pairs = draw(st.lists(st.tuples(pair, st.booleans(), st.integers(1, 3)), max_size=3, unique_by=lambda t: t[0]))
    arms = [(p - 1 - r if mirrored else r) + m * p for r, mirrored, rows in core_pairs for m in range(rows)]
    core = from_delta_lengths(sorted((2 * a + 1 for a in arms), reverse=True))
    filled = set(draw(st.lists(pair, max_size=3)))
    if draw(st.booleans()):
        filled.update(r for r, _, _ in core_pairs)
    quotient = [_EMPTY] * p
    for r in sorted(filled):
        quotient[r] = draw(SMALL_COMPONENT)
        quotient[p - 1 - r] = quotient[r].conjugate()
    if p % 2:
        quotient[(p - 1) // 2] = draw(SELF_CONJUGATE)
    return p, core, tuple(quotient)


@settings(max_examples=300, deadline=None)
@given(symmetric_pairs(), st.data())
def test_pair_loop_matches_the_arm_value_loop(pair, data):
    p, core, quotient = pair
    assert is_p_core(core, p) and is_symmetric_quotient(quotient, p)
    got = delta_general(core, quotient, p)
    assert ("value", got) == outcome(reference_delta_general, core, quotient, p)
    assert got.total == core.weight + p * sum(c.weight for c in quotient)
    g = data.draw(st.integers(0, p - 1))  # the centre residue of odd p is refused by both
    component = quotient[g]
    assert outcome(delta_concentrated_pair, component, g, p) == outcome(reference_concentrated_pair, component, g, p)
    centre = quotient[(p - 1) // 2]
    assert outcome(delta_concentrated_center, centre, p) == outcome(reference_concentrated_center, centre, p)


BREAKS = ("length", "quotient", "self-conjugate", "p-core")  # the order in which delta_general checks the rules


@pytest.mark.parametrize("breaks", [
    {rule for k, rule in enumerate(BREAKS) if mask >> k & 1} for mask in range(1, 2 ** len(BREAKS))
], ids=lambda breaks: "+".join(sorted(breaks)))
@settings(max_examples=25, deadline=None)
@given(pair=symmetric_pairs(), data=st.data())
def test_broken_pairs_are_refused_as_by_the_arm_value_loop(breaks, pair, data):
    # with several rules broken at once, the first in the order of BREAKS must be named
    p, core, quotient = pair
    quotient = list(quotient)
    if "quotient" in breaks:  # component g made unequal to the conjugate of component p-1-g
        g = data.draw(st.integers(0, p - 1))
        mirror = quotient[p - 1 - g]
        quotient[g] = data.draw(SMALL_COMPONENT.filter(lambda c: c != (c if 2 * g == p - 1 else mirror).conjugate()))
    if "length" in breaks:
        quotient = quotient[:-1] if data.draw(st.booleans()) else quotient + [_EMPTY]
    if "p-core" in breaks:  # one arm on row 1 of a class whose row 0 is empty
        core = from_delta_lengths([2 * (data.draw(st.integers(0, p - 1)) + p) + 1])
    if "self-conjugate" in breaks:
        core = data.draw(partitions(max_part=5, max_rows=5).filter(lambda la: la != la.conjugate()))
    got = outcome(delta_general, core, quotient, p)
    assert got[0] == "error" and got == outcome(reference_delta_general, core, quotient, p)
    assert got[1].__name__ == {
        "length": "WrongQuotientLength", "quotient": "NotSymmetricQuotient", "self-conjugate": "NotSymmetric",
        "p-core": "NotACore",
    }[next(rule for rule in BREAKS if rule in breaks)]


@pytest.mark.parametrize("d0", [0, -1, 2.5, True])
def test_shift_amount_refusals_keep_their_message(d0):
    shown = f"shift amount must be >= 1, got {d0!r}"
    for call in (lambda: shift_sets((1, 0), d0), lambda: d0_shift(QuotientEntry((1, 0), (2,)), d0)):
        assert outcome(call) == ("error", InternalInconsistency, shown)
    assert outcome(reference_shift, (1, 0), (2,), d0) == ("error", InternalInconsistency, shown)


@given(st.sets(st.integers(0, 9), max_size=5), st.sets(st.integers(0, 9), max_size=5), st.integers(1, 6))
def test_shift_sets_and_d0_shift_match_the_checked_shift(legs, arms, d0):
    legs, arms = tuple(sorted(legs, reverse=True)), tuple(sorted(arms, reverse=True))
    kept, moved = reference_shift(legs, arms, d0)
    assert d0_shift(QuotientEntry(legs, arms), d0) == QuotientEntry(kept, moved)
    present = set(legs)
    assert shift_sets(legs, d0) == (tuple(s for s in range(d0 - 1, -1, -1) if s not in present),
                                    tuple(t for t in legs if t >= d0))
