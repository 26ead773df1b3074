"""Self-tests of the benchmark (not collected by the tier-1 run).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run as bench  # noqa: E402
from layers import LayerTracer  # noqa: E402
from pool import WorkerPool, parse_announce  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, outcome_mismatches  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == harness.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == harness.PER_LAYER
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in section}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "baseline-x1", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_mismatch_counts_as_failed_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(harness, "outcome_mismatches",
                        lambda *args: ["forced mismatch"])
    code = bench.main(["--workload", "compile-sweep", "--seconds", "0.1",
                       "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_pinned_outputs_and_plausibility_band():
    baseline = WORKLOADS["baseline-x1"]
    job = {"failures": 81, "shots": 4096}
    assert outcome_mismatches(baseline, "full", DEFAULT_SEED, [job]) == []
    job["failures"] = 82
    assert outcome_mismatches(baseline, "full", DEFAULT_SEED, [job])
    assert outcome_mismatches(baseline, "full", 5, [job]) == []
    job["failures"] = 2048  # a decoder that corrects nothing
    assert outcome_mismatches(baseline, "full", 5, [job])
    assert outcome_mismatches(baseline, "tiny", 5, [job]) == []
    sweep = WORKLOADS["compile-sweep"]
    points = [
        {"distance": d, "capacity": c, "topology": t,
         "makespan_us": m, "movement_ops": ops}
        for (d, c, t), (m, ops) in sweep.pinned_points.items()
    ]
    assert outcome_mismatches(sweep, "full", 3, points) == []
    points[0]["movement_ops"] += 1
    assert outcome_mismatches(sweep, "full", 3, points)


def test_layer_self_time_excludes_nested_layers():
    now = [0.0]
    tracer = LayerTracer(clock=lambda: now[0])

    def inner(rows):
        now[0] += 3.0
        return rows

    def outer(decode, rows):
        now[0] += 1.0
        decode(rows)
        now[0] += 1.0

    counted = []
    tracer.wrap("outer", outer)(
        tracer.wrap("inner", inner, lambda result, args: counted.append(args)),
        [1, 2],
    )
    assert tracer.seconds == {"outer": 2.0, "inner": 3.0}
    assert tracer.total_seconds() == 5.0
    assert counted == [([1, 2],)]


def test_worker_pool_announces_replaces_and_reaps():
    assert parse_announce("repro-worker listening on 127.0.0.1:4242\n") \
        == "127.0.0.1:4242"
    with pytest.raises(RuntimeError):
        parse_announce("something else")
    pool = WorkerPool(2, os.path.join(ROOT, "src"))
    with pool:
        assert len(pool.addrs) == 2
        procs = list(pool.procs)
        procs[0].send_signal(signal.SIGKILL)
        procs[0].wait(timeout=10)
        assert pool.replace_dead() == 1
        assert pool.peak_rss_mb() > 0
        assert len(pool.procs) == 2 and all(
            p.poll() is None for p in pool.procs)
        procs = list(pool.procs)
    assert all(p.returncode is not None for p in procs)
    assert pool.procs == [] and pool.dead_at_close == 0
