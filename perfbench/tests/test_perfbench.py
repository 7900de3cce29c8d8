"""Self-tests of the benchmark: metrics, output checks, span arithmetic.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import hostclock
import run
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    DECLARED = json.load(handle)

TINY = dataclasses.replace(
    workloads.FULL,
    algorithms=("BFS",),
    matrix_graphs=("RM22",),
    replay_graphs=("RM22",),
    replay_passes_per_s=2.0,
    serve_jobs_per_s=4.0,
    churn_graph="FR",
    churn_batch_edges=50,
    churn_inserts_per_s=2.0,
    churn_mixed_per_s=2.0,
    matrix_setups=1,
    replay_setups=1,
    serve_setups=1,
    churn_setups=1,
)


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    """Run the benchmark in-process, writing only under ``tmp_path``."""
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    for name in ("TMPDIR", "REPRO_SPILL_DIR", "REPRO_COMPILE_CACHE"):
        monkeypatch.setenv(name, os.environ.get(name, ""))

    def invoke(workload, trace, pins=None):
        capsys.readouterr()
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            sizes=TINY,
            pins=pins,
        )
        last = capsys.readouterr().out.strip().splitlines()[-1]
        return code, json.loads(last)

    return invoke


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(bench, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = bench(workload, trace)
        assert code == 0, result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
        assert all(
            isinstance(v["value"], float) for v in result["metrics"].values()
        )
        if trace:
            assert result["metrics"]["error_rate"]["value"] == 0.0


def test_wrong_pinned_digest_fails_every_op(bench):
    pins = workloads.load_pins()
    wrong = {
        "cells": {key: "0" * 64 for key in pins["cells"]},
        "grids": pins["grids"],
    }
    for trace in (0, 1):
        code, result = bench("matrix-cold", trace, pins=wrong)
        assert code != 0
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 1
        if trace:
            assert result["metrics"]["error_rate"]["value"] == 1.0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(id, parent, start, end, name="x"):
    return tracing.Span(id=id, parent=parent, name=name, start=start, end=end)


def test_self_time_of_a_nested_span_tree():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),  # overlaps a: counted once in root
        _span(4, 2, 2.0, 3.0, "a1"),
        _span(5, 1, 8.0, 12.0, "c"),  # clipped to root's end
        _span(6, None, 20.0, 21.0, "a"),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0, 6: 1.0})
    totals = tracing.totals_by_name(spans)
    assert totals["a"] == pytest.approx(
        {"self_s": 3.0, "total_s": 4.0, "calls": 2}
    )


def test_wrappers_are_removed_after_the_traced_block():
    from repro.graph import datasets, dynamic
    from repro.harness import service

    before = (datasets.load, service.RunService.cell, dynamic.DynamicGraph.apply,
              service.canonical_reports_json)
    with tracing.installed(tracing.Tracer()):
        assert datasets.load is not before[0]
    after = (datasets.load, service.RunService.cell, dynamic.DynamicGraph.apply,
             service.canonical_reports_json)
    assert after == before


def test_job_mix_depends_only_on_the_seed():
    args = (2, 5, workloads.ALGORITHMS, TINY.replay_graphs + ("FR",))
    assert workloads.job_mix(7, *args) == workloads.job_mix(7, *args)
    assert workloads.job_mix(7, *args) != workloads.job_mix(8, *args)


def test_host_clock_takes_out_the_steal_of_its_cpu(tmp_path, monkeypatch):
    clock = hostclock.HostClock()
    try:
        assert os.sched_getaffinity(0) == {clock.cpu}
        stat = tmp_path / "stat"
        monkeypatch.setattr(hostclock, "STAT", str(stat))
        lines = [f"cpu{n} 1 2 3 4 5 6 7 {100 * (n + 1)} 0 0"
                 for n in (0, clock.cpu)]
        stat.write_text("cpu  9 9 9 9 9 9 9 9 0 0\n" + "\n".join(lines) + "\n")
        steal = 100 * (clock.cpu + 1) / hostclock.TICKS_PER_S
        assert clock.steal_s() == steal
        before = time.perf_counter()
        now = clock.now()
        assert before - steal <= now <= time.perf_counter() - steal
    finally:
        clock.release()
    monkeypatch.setattr(hostclock, "STAT", str(tmp_path / "missing"))
    assert clock.steal_s() == 0.0
