"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
import speed
import workloads
from speed import SpeedSampler
from tracer import layer_metric_names

sys.path.insert(0, str(run.SRC))

# End-to-end metrics the report must print, by workload; the gated ones of
# run.END_TO_END are among them.
NAMED = {
    "sweep": {"setup_s", "peak_rss_mb", "fail_ratio", "cells_per_s"},
    "cells": {"setup_s", "peak_rss_mb", "fail_ratio", "cells_per_s", "cell_p50_us", "cell_tail_us"},
    "query": {"setup_s", "peak_rss_mb", "fail_ratio", "cells_per_s", "queries_per_s",
              "delta_p50_ms", "delta_tail_ms", "core_p50_ms", "core_tail_ms"},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = repr(workloads.build(run.import_library(), workload, 7)).encode()
    again = repr(workloads.build(run.import_library(), workload, 7)).encode()
    other = repr(workloads.build(run.import_library(), workload, 8)).encode()
    assert first == again
    if workload != "sweep":  # the sweep is exhaustive: its input ignores the seed
        assert first != other


def test_query_inputs_have_every_rejected_kind():
    schedule = workloads.build(run.import_library(), "query", 3)
    codes = sorted(op[3] for op in schedule if op[0] == "reject")
    assert codes == sorted([2, 4, 5, 5] * len(workloads.QUERY_PRIMES))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_delta_general_is_counted_as_failure(workload):
    dh = run.import_library()
    original = dh.delta_general

    def perturbed(core, quotient, p):
        lengths = original(core, quotient, p).lengths
        return dh.DeltaSet((lengths[0] + 2,) + lengths[1:] if lengths else (1,))

    holders = [m for m in (dh, dh.formula, dh.verify, dh.cli) if getattr(m, "delta_general", None) is original]
    schedule = workloads.build(dh, workload, 1)
    try:
        for m in holders:
            m.delta_general = perturbed
        with SpeedSampler() as sampler:
            records = workloads.closed_loop(dh, schedule, 0.5, sampler=sampler)
    finally:
        for m in holders:
            m.delta_general = original
    fail_ratio = workloads.end_to_end(workload, schedule, records)["metrics"]["fail_ratio"][0]
    assert fail_ratio > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_a_unit(workload, capsys):
    report = run.measure(workload, seed=2, seconds=1.0, trace=False)
    assert report["failed"] == 0
    assert NAMED[workload] <= set(report["metrics"])
    assert all(isinstance(value, float | int) and unit for value, unit in report["metrics"].values())
    run.print_report(report)
    lines = capsys.readouterr().out.splitlines()
    for name in NAMED[workload]:
        unit = report["metrics"][name][1]
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == {n: {"value": report["metrics"][n][0], "unit": u} for n, u in run.END_TO_END.items()}


def test_sampling_is_taken_out_of_the_ops():
    dh = run.import_library()
    schedule = workloads.build(dh, "cells", 3)
    with SpeedSampler() as sampler:
        t0 = perf_counter()
        records = workloads.closed_loop(dh, schedule, 1.0, sampler=sampler)
        t1 = perf_counter()
    assert len(sampler.times) >= 0.5 * (t1 - t0) / speed.PERIOD_S
    assert 0 < sampler.busy(t0, t1) < 0.1 * (t1 - t0)
    assert sum(r[1] for r in records) < t1 - t0 - sampler.busy(t0, t1)
    assert all(r[3] > 0 for r in records)
    # A span with no sample in its window is judged by the last sample before it.
    assert sampler.scale(t1 + 1, t1 + 1) == speed.REF_S / sampler.times[-1]


@pytest.fixture(scope="module")
def traced():
    return {w: run.measure(w, seed=2, seconds=2.0, trace=True) for w in workloads.WORKLOADS}


def test_traced_run_reports_every_layer_metric(traced):
    for workload, report in traced.items():
        assert report["failed"] == 0
        line = run.result_line(report)
        assert list(line["metrics"]) == [n for n, _, _ in layer_metric_names()]
        assert all(m["unit"] for m in line["metrics"].values())


def test_traced_run_shows_the_predicted_contrasts(traced):
    enum = "partitions.enumerate_partitions.calls_per_op"
    assert traced["sweep"]["metrics"][enum][0] > 0
    assert traced["cells"]["metrics"][enum][0] == 0
    assert traced["query"]["metrics"][enum][0] == 0
    ratio = traced["sweep"]["metrics"]["partitions.enumerate_partitions.useful_ratio"][0]
    assert 0 < ratio < 0.01
    breakdown = traced["query"]["breakdown"]
    runner = [breakdown[f"core@p{p}"]["abacus.Abacus.runner"] for p in workloads.QUERY_PRIMES]
    assert runner == sorted(runner) and runner[0] < runner[-1]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer_metric_names()


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
