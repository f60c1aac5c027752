"""The three workloads: their seeded inputs, one op each, and the answer checks.

An op is a tuple whose first item is its kind:

* ``("sweep", n_max, moduli, cells)``: one `run_verify` call;
* ``("cell", partition, lengths, p)``: the four checks of one (partition, p) cell;
* ``("delta", p, argv, expected)`` and ``("core", p, argv, expected)``: one
  CLI query each, a valid cell taken through both directions of the abacus;
* ``("reject", p, argv, code)``: a malformed CLI query and the exit code it
  must give.

Inputs come from `random.Random(seed)` alone. The library is used to build
them (`from_delta_lengths`, `from_core_and_quotient`), never to choose them.
"""

import contextlib
import io
import json
import math
import random
from collections import defaultdict
from statistics import median
from time import perf_counter

SWEEP_N_MAX = 40
SWEEP_MODULI = (3, 5, 7)
SWEEP_CELLS = 1488  # self-conjugate partitions of n <= 40, times three moduli

CELL_PRIMES = (3, 5, 7, 11)
CELL_PARTITIONS = 256
CELL_WEIGHTS = (200, 2000)

QUERY_PRIMES = (101, 499, 997)
QUERY_CASES_PER_P = 16
QUERY_EMPTY_CORES_PER_P = 4  # a quarter: exercises the delta_empty_core branch
# Quotient components fit in a BOX x BOX square and one of them touches its
# edge. The rebuilt partitions then all have between 2p and 3p parts, so the
# abacus has 3p beads and a query's cost depends on p more than on the draw.
BOX = 3
QUERY_COMPONENT_WEIGHTS = (3, 5)
CENTRES = ((1,), (2, 1), (2, 2), (3, 1, 1), (3, 2, 1))
BAD_SYNTAX = ("2,,1", "1^", "3;1", "x")

WORKLOADS = ("sweep", "cells", "query")


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths; kept here so that generating a quotient needs no library call."""
    return tuple(sum(1 for x in parts if x > j) for j in range(parts[0])) if parts else ()


def text(parts) -> str:
    return ",".join(str(x) for x in parts)


def build(dh, workload: str, seed: int) -> list[tuple]:
    """The op schedule of a workload; the loop cycles through it in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return [("sweep", SWEEP_N_MAX, SWEEP_MODULI, SWEEP_CELLS)]
    if workload == "cells":
        return _cells(dh, rng)
    if workload == "query":
        return _queries(dh, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _odd_parts(rng: random.Random, weight: int) -> tuple[int, ...]:
    """Distinct odd parts summing to at most `weight`; the diagonal hook
    lengths of a self-conjugate partition of about that weight."""
    cap = 4 * math.isqrt(weight)
    left = weight
    used: set[int] = set()
    while left > 0:
        choices = [d for d in range(1, min(left, cap) + 1, 2) if d not in used]
        if not choices:
            break
        d = rng.choice(choices)
        used.add(d)
        left -= d
    return tuple(sorted(used, reverse=True))


def _cells(dh, rng: random.Random) -> list[tuple]:
    lo, hi = CELL_WEIGHTS
    ops = []
    for i in range(CELL_PARTITIONS):
        # Stratified weights: one draw from each of CELL_PARTITIONS equal bins,
        # so two seeds load the same mix of sizes.
        weight = lo + int((hi - lo) * (i + rng.random()) / CELL_PARTITIONS)
        lengths = _odd_parts(rng, weight)
        la = dh.from_delta_lengths(lengths)
        ops.extend(("cell", la, lengths, p) for p in CELL_PRIMES)
    rng.shuffle(ops)
    return ops


def _box_partition(rng: random.Random, weight: int) -> tuple[int, ...]:
    while True:
        parts = []
        left = weight
        while left > 0:
            x = rng.randint(1, min(left, BOX))
            parts.append(x)
            left -= x
        if len(parts) <= BOX:
            return tuple(sorted(parts, reverse=True))


def _packed_core_lengths(rng: random.Random, p: int) -> tuple[int, ...]:
    """Diagonal hook lengths of a symmetric p-core.

    Arms fill residue classes g, g+p, ... from the bottom, and no class is
    used together with its mirror p-1-g or the centre: exactly the residue
    criterion for a self-conjugate p-core.
    """
    arms = []
    for g in rng.sample(range((p - 1) // 2), 2):
        g = g if rng.random() < 0.5 else p - 1 - g
        arms.extend(g + i * p for i in range(rng.randint(1, 2)))
    return tuple(sorted((2 * b + 1 for b in arms), reverse=True))


def _symmetric_quotient(rng: random.Random, p: int) -> list[tuple[int, ...]]:
    components: list[tuple[int, ...]] = [()] * p
    for i, g in enumerate(rng.sample(range((p - 1) // 2), 3)):
        while True:
            c = _box_partition(rng, rng.randint(*QUERY_COMPONENT_WEIGHTS))
            if i > 0 or max(c[0], len(c)) == BOX:
                break
        components[g] = c
        components[p - 1 - g] = conjugate(c)
    components[(p - 1) // 2] = rng.choice(CENTRES)
    return components


def _delta_argv(core_arg: list[str], components, p: int) -> list[str]:
    argv = ["delta", *core_arg]
    for c in components:
        argv += ["--quotient", c if isinstance(c, str) else text(c)]
    return argv + ["--p", str(p), "--method", "both", "--json"]


def _queries(dh, rng: random.Random) -> list[tuple]:
    rounds: list[list[tuple]] = [[] for _ in range(QUERY_CASES_PER_P)]
    rejects = []
    for p in QUERY_PRIMES:
        empty = set(rng.sample(range(QUERY_CASES_PER_P), QUERY_EMPTY_CORES_PER_P))
        cases = []
        for j in range(QUERY_CASES_PER_P):
            lengths = () if j in empty else _packed_core_lengths(rng, p)
            components = _symmetric_quotient(rng, p)
            core = dh.from_delta_lengths(lengths)
            rebuilt = dh.from_core_and_quotient(core, tuple(dh.Partition(c) for c in components), p)
            core_arg = ["--from-delta", "--core", text(lengths)] if lengths else ["--core", ""]
            expected = {
                "core": list(core.parts),
                "quotient": [list(c) for c in components],
                "n": core.weight + p * sum(sum(c) for c in components),
                "partition": list(rebuilt.parts),
            }
            rounds[j].append(("delta", p, _delta_argv(core_arg, components, p), expected))
            rounds[j].append(("core", p, ["core", text(rebuilt.parts), "--p", str(p), "--json"], expected))
            cases.append((core_arg, components))
        rejects += _rejects(rng, p, cases)
    rng.shuffle(rejects)
    schedule = []
    for j, round_ in enumerate(rounds):
        schedule += round_
        schedule += rejects[j * len(rejects) // len(rounds):(j + 1) * len(rejects) // len(rounds)]
    return schedule


def _rejects(rng: random.Random, p: int, cases) -> list[tuple]:
    """One malformed query of each kind, built from this p's valid cases."""
    out = []
    _, components = rng.choice(cases)
    m = rng.randint(p + 1, 2 * p)  # the hook (m, 1^(m-1)) has a hook of length p
    out.append(("reject", p, _delta_argv(["--core", f"{m},1^{m - 1}"], components, p), 4))

    core_arg, components = rng.choice(cases)
    free = [g for g in range((p - 1) // 2) if not components[g] and not components[p - 1 - g]]
    broken = list(components)
    broken[rng.choice(free)] = (1,)
    out.append(("reject", p, _delta_argv(core_arg, broken, p), 5))

    core_arg, components = rng.choice(cases)
    wrong = components[:-1] if rng.random() < 0.5 else components + [()]
    out.append(("reject", p, _delta_argv(core_arg, wrong, p), 5))

    core_arg, components = rng.choice(cases)
    bad = rng.choice(BAD_SYNTAX)
    if rng.random() < 0.5:
        argv = ["core", bad, "--p", str(p), "--json"]
    else:
        garbled = list(components)
        garbled[rng.randrange(p)] = bad
        argv = _delta_argv(core_arg, garbled, p)
    out.append(("reject", p, argv, 2))
    return out


def label(op: tuple) -> str:
    """Op kind, with p for queries: the key of the traced breakdown."""
    return op[0] if op[0] in ("sweep", "cell") else f"{op[0]}@p{op[1]}"


def run_op(dh, op: tuple) -> tuple[float, float, str | None]:
    """Run one op; returns its start, its latency in seconds and a problem, or None."""
    kind = op[0]
    if kind == "sweep":
        _, n_max, moduli, cells = op
        t0 = perf_counter()
        report = dh.run_verify(n_max, moduli)
        dt = perf_counter() - t0
        if not report.ok or report.cells != cells:
            return t0, dt, f"sweep: {report.cells} cells, {report.failures} failures, first {report.first_failure}"
        return t0, dt, None
    if kind == "cell":
        _, la, lengths, p = op
        t0 = perf_counter()
        core = dh.p_core(la, p)
        quotient = dh.p_quotient(la, p)
        rebuilt = dh.from_core_and_quotient(core, quotient, p)
        formula = dh.delta_general(core, quotient, p)
        oracle = dh.delta_of(la)
        by_residue = dh.is_symmetric_p_core(dh.diagonal_bisequence(la), p)
        direct = dh.is_p_core(la, p)
        dt = perf_counter() - t0
        problems = []
        if rebuilt != la:
            problems.append("roundtrip")
        if core.weight + p * sum(c.weight for c in quotient) != la.weight:
            problems.append("weight")
        if formula != oracle or oracle.lengths != lengths:
            problems.append("delta")
        if by_residue != direct:
            problems.append("core-criterion")
        return t0, dt, f"cell {lengths} p={p}: {', '.join(problems)}" if problems else None
    return _run_query(dh, op)


def _run_query(dh, op: tuple) -> tuple[float, float, str | None]:
    kind, p, argv, expected = op
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = dh.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        dt = perf_counter() - t0
    want = expected if kind == "reject" else 0
    if code != want:
        return t0, dt, f"{kind} p={p}: exit {code}, expected {want}: {err.getvalue().strip()[:200]}"
    if kind == "reject":
        return t0, dt, None
    got = json.loads(out.getvalue())
    if kind == "delta":
        ok = (got["agree"] is True and got["conserved"] is True and got["n"] == expected["n"]
              and got["partition"] == expected["partition"] and sum(got["delta_formula"]) == expected["n"])
    else:
        ok = got["core"] == expected["core"] and got["quotient"] == expected["quotient"]
    return t0, dt, None if ok else f"{kind} p={p}: wrong answer"


def closed_loop(dh, schedule: list[tuple], seconds: float, tracer=None, sampler=None) -> list[tuple]:
    """Run ops back to back, cycling through the schedule, until `seconds` pass.

    Returns records (schedule index, latency in seconds, problem or None,
    factor to reference speed). With a `speed.SpeedSampler` running, each
    latency is net of the sampling inside it and the factor comes from the
    samples; without one the factor is None. An unexpected exception is a
    failed op.
    """
    records = []
    deadline = perf_counter() + seconds
    k = 0
    while True:
        index = k % len(schedule)
        if tracer is not None:
            tracer.op_id = k
        t0 = perf_counter()
        try:
            t0, dt, problem = run_op(dh, schedule[index])
        except Exception as exc:  # the op failed; the loop keeps measuring
            dt, problem = perf_counter() - t0, f"{label(schedule[index])}: {type(exc).__name__}: {exc}"
        scale = None
        if sampler is not None:
            scale = sampler.scale(t0, t0 + dt)
            dt -= sampler.busy(t0, t0 + dt)
        records.append((index, dt, problem, scale))
        k += 1
        if perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.op_id = -1
    return records


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest whole percentile
    with at least ten samples beyond it; the maximum when that percentile
    would fall below the median (fewer than 20 samples)."""
    xs = sorted(samples)
    n = len(xs)
    q = 100 * (n - 10) // n
    if q < 50:
        return xs[-1], 100, 0
    rank = math.ceil(q * n / 100)
    return xs[rank - 1], q, n - rank


def cells_of(op: tuple) -> int:
    """Cells an op finishes; on query a cell is done by its core query."""
    return op[3] if op[0] == "sweep" else int(op[0] in ("cell", "core"))


def reference_rate(schedule: list[tuple], records: list) -> float:
    """Cells per second at reference speed, from the passed ops.

    Each schedule index counts once, at the median of its reference-speed
    times, so a partial last pass weights no op twice and one op caught in a
    change of CPU speed moves nothing.
    """
    times = defaultdict(list)
    for i, dt, problem, scale in records:
        if problem is None:
            times[i].append(dt * scale)
    if not times:
        return 0.0
    return sum(cells_of(schedule[i]) for i in times) / sum(median(ts) for ts in times.values())


def end_to_end(workload: str, schedule: list[tuple], records: list) -> dict:
    """The workload's op metrics as name -> (value, unit), plus notes on tails.

    The records must come from a sampled loop. `cells_per_s` is at reference
    speed (see `speed`); `wall_cells_per_s` and the latencies are plain wall
    time, over the time spent in ops.
    """
    good = [(schedule[i], dt) for i, dt, problem, _ in records if problem is None]
    op_s = sum(r[1] for r in records)
    metrics: dict[str, tuple[float, str]] = {
        "fail_ratio": (sum(1 for r in records if r[2] is not None) / len(records), "ratio"),
        "cells_per_s": (reference_rate(schedule, records), "cells/s"),
        "wall_cells_per_s": (sum(cells_of(op) for op, _ in good) / op_s, "cells/s"),
    }
    notes: dict[str, str] = {
        "cells_per_s": f"at reference speed, the median per schedule index over {len(records)} ops",
    }

    def latency(name: str, samples: list[float], scale: float, unit: str) -> None:
        if not samples:
            return
        value, q, beyond = tail(samples)
        metrics[f"{name}_p50_{unit}"] = (scale * median(samples), unit)
        metrics[f"{name}_tail_{unit}"] = (scale * value, unit)
        notes[f"{name}_tail_{unit}"] = f"p{q}, {beyond} of {len(samples)} samples beyond it"

    if workload == "sweep":
        notes["ops"] = f"{len(good)} run_verify({SWEEP_N_MAX}, {SWEEP_MODULI}) calls"
    elif workload == "cells":
        latency("cell", [dt for _, dt in good], 1e6, "us")
    else:
        latency("delta", [dt for op, dt in good if op[0] == "delta"], 1e3, "ms")
        latency("core", [dt for op, dt in good if op[0] == "core"], 1e3, "ms")
        metrics["queries_per_s"] = (len(records) / op_s, "queries/s")
        notes["rejects"] = f"{sum(1 for op, _ in good if op[0] == 'reject')} malformed queries, kept out of latency"
    return {"metrics": metrics, "notes": notes}
