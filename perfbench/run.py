"""diaghooks benchmark: one workload per run, one closed-loop client, one thread.

    python3 perfbench/run.py --workload {sweep,cells,query,all} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
`src/`. The next op starts when the previous one returns. Every answer is
checked, and an op fails on a wrong answer, an unexpected exception or a
wrong exit code. The report goes to stdout, and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics. The gated times, `setup_s` and
`cells_per_s`, are given at reference speed (see `speed`), so that a drift of
the host's CPU speed does not read as a change of the code; their plain wall
times are printed beside them. --trace 1 runs the same ops
untraced for a share of the time, then traced through `tracer`, and reports
the per-layer metrics and the tracing overhead; its spans are written under
perfbench/out/. --workload all runs the three workloads one after another,
each in its own process.
"""

import argparse
import gc
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads
from speed import SpeedSampler
from tracer import Tracer, layer_metric_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The end-to-end metrics every workload reports on its last line; the other
# metrics of the report are printed above it. Keep in step with BENCHMARK.json.
# Its two times are at reference speed (see `speed`): on a shared 2-vCPU
# virtual machine the CPU speed was seen to drift by up to 2x for seconds to
# minutes at a time, which moves plain wall times by 20% between runs. The
# latencies stay off that line, in plain wall time.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "cells_per_s": "cells/s"}
SETUP_REPEATS = 7
UNTRACED_SHARE = 0.5  # of --seconds, in a traced run, to time the same ops untraced


def import_library():
    """Import diaghooks (and its CLI) afresh from SRC."""
    for name in [n for n in sys.modules if n == "diaghooks" or n.startswith("diaghooks.")]:
        del sys.modules[name]
    import diaghooks
    import diaghooks.cli

    if Path(diaghooks.__file__).resolve().parent != SRC / "diaghooks":
        raise ImportError(f"diaghooks imported from {diaghooks.__file__}, not from {SRC}")
    return diaghooks


def setup(workload: str, seed: int) -> tuple[object, list, float, float]:
    """Import the library and build the inputs SETUP_REPEATS times.

    Returns the median set-up time at reference speed and in plain wall
    time, both net of the speed sampling.
    """
    times, wall = [], []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's modules and inputs are garbage now
            t0 = perf_counter()
            dh = import_library()
            schedule = workloads.build(dh, workload, seed)
            t1 = perf_counter()
            wall.append(t1 - t0 - sampler.busy(t0, t1))
            times.append(wall[-1] * sampler.scale(t0, t1))
    return dh, schedule, median(times), median(wall)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the report as a dict."""
    dh, schedule, setup_s, wall_setup_s = setup(workload, seed)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        with SpeedSampler() as sampler:
            records = workloads.closed_loop(dh, schedule, seconds, sampler=sampler)
        e2e = workloads.end_to_end(workload, schedule, records)
        metrics = {"setup_s": (setup_s, "s"), "wall_setup_s": (wall_setup_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                   "ref_chunk_ms": (1e3 * median(sampler.times), "ms")}
        metrics.update(e2e["metrics"])
        report.update(metrics=metrics, notes=e2e["notes"])
    else:
        plain = workloads.closed_loop(dh, schedule, seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.closed_loop(dh, schedule, seconds * (1 - UNTRACED_SHARE), tracer)
        finally:
            tracer.uninstall()
        metrics, breakdown = tracer.summary([workloads.label(schedule[i]) for i, *_ in traced])
        # Both phases start at the head of the schedule, so their common
        # prefix is the same ops timed both ways.
        m = min(len(plain), len(traced))
        plain_s = sum(r[1] for r in plain[:m])
        traced_s = sum(r[1] for r in traced[:m])
        metrics["trace.overhead_ms_per_op"] = (1e3 * (traced_s - plain_s) / m, "ms/op")
        metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
        spans = tracer.dump(OUT, workload)
        records = plain + traced
        report.update(metrics=metrics, breakdown=breakdown,
                      notes={"overhead": f"over the first {m} ops, timed untraced then traced",
                             "spans": f"{len(tracer)} spans in {spans.relative_to(ROOT)}"})
    problems = [r[2] for r in records if r[2] is not None]
    report.update(attempted=len(records), failed=len(problems), problems=problems[:5])
    return report


def result_line(report: dict) -> dict:
    names = [n for n, _, _ in layer_metric_names()] if report["trace"] else list(END_TO_END)
    metrics = report["metrics"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}  "
          f"trace {report['trace']}  ops {report['attempted']}  failed {report['failed']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for name, note in report["notes"].items():
        print(f"  note {name}: {note}")
    for label, calls in report.get("breakdown", {}).items():
        print(f"  calls per op, {label}: " + ", ".join(f"{s} {c:.6g}" for s, c in calls.items()))
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps(result_line(report)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        code = 0
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    if not (SRC / "diaghooks" / "__init__.py").is_file():
        print(f"error: no diaghooks sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
