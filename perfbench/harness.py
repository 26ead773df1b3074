"""Timed passes over one workload and the metrics derived from them.

A *pass* is one sweep, spec in and results out, through the real
:class:`repro.engine.Runner` with a fresh compilation cache, so every
pass pays the full set-up a user pays.  A run makes a few small
set-up passes, then repeats full passes until ``--seconds`` is spent,
and reports medians.  With tracing on, every untraced pass is followed
by a traced one (see :mod:`layers`) and the run reports per-layer
medians instead of end-to-end ones.

Correctness is checked on every pass: pinned outputs (or a
plausibility band at other seeds), identical failures across the
passes of a run, traced equal to untraced, and the pooled workload
equal to a serial run of the same spec.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from layers import LAYERS, LayerTracer, traced
from pool import WorkerPool
from workloads import Workload, outcome_mismatches

from repro.engine import CompilationCache, ProgressReporter, Runner, SweepSpec
from repro.engine.remote import RemoteBackend

# Small set-up passes per run (LER workloads): each pays the whole
# per-job set-up but samples only this many shots, so setup_s is a
# median over several set-ups even when one full pass fills the run.
SETUP_PASSES = 3
SETUP_SHOTS = 64
# Fewest full passes an untraced run reports the median of.
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.s": "s" for layer in LAYERS},
    "core.route.movement_ops": "count",
    "core.schedule.makespan_us": "us",
    "sim.dem.errors": "count",
    "sim.dem_sampler.shots": "count",
    "decoders.batch.distinct": "count",
    "decoders.batch.memo_hit_rate": "ratio",
    "decoders.mwpm.decoded": "count",
    "decoders.mwpm.us_per_syndrome": "us",
    "engine.s": "s",
    "engine.remote.worker_busy_s": "s",
    "engine.remote.overhead_s": "s",
    "engine.remote.bytes": "bytes",
    "engine.remote.serialize_s": "s",
    "engine.remote.memo_pushed": "count",
    "engine.remote.worker_rss_mb": "MB",
    "engine.remote.crashes": "count",
    "engine.scheduler.resubmitted": "count",
    "engine.scheduler.steals": "count",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def host_fingerprint() -> dict:
    """What the numbers were measured on."""
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "gcc": shutil.which("gcc") is not None,
    }


class _SetupReporter(ProgressReporter):
    """Collects per-job set-up from the Runner: ``setup_s`` of every
    sampling job at the end of the sweep, and the whole elapsed time of
    every compile-only job (which is nothing but set-up)."""

    def __init__(self):
        super().__init__(enabled=False)
        self.setup_s = 0.0

    def job_done(self, key, failures, elapsed_s, shots=None):
        super().job_done(key, failures, elapsed_s, shots=shots)
        if failures is None:
            self.setup_s += elapsed_s

    def finish(self, *args, setup_s=None, **kwargs):
        super().finish(*args, setup_s=setup_s, **kwargs)
        self.setup_s += setup_s or 0.0


class _SetupTimedCache(CompilationCache):
    """Times the first build of each decoder, DEM sampler and distance
    matrix — set-up the Runner leaves to a job's first shard, outside
    its own ``setup_s``."""

    def __post_init__(self):
        super().__post_init__()
        self.build_s = 0.0
        self._built: set = set()
        self._timing = False

    def _first(self, what, build, *args):
        first = what not in self._built
        self._built.add(what)
        if not first or self._timing:
            return build(*args)
        self._timing = True
        t0 = time.perf_counter()
        try:
            return build(*args)
        finally:
            self.build_s += time.perf_counter() - t0
            self._timing = False

    def decoder(self, compiled, name):
        return self._first(
            ("decoder", compiled.key, name), super().decoder, compiled, name
        )

    def dem_sampler(self, compiled):
        return self._first(
            ("sampler", compiled.key), super().dem_sampler, compiled
        )

    def distance_matrix(self, compiled):
        return self._first(
            ("dmat", compiled.key), super().distance_matrix, compiled
        )


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    shots: int
    outcome: list[dict]
    pool: dict | None = None
    steals: int = 0
    tracer: LayerTracer | None = None

    @property
    def signature(self) -> list[tuple]:
        return [tuple(job.values()) for job in self.outcome]


def run_pass(
    workload: Workload,
    seed: int,
    size: str,
    addrs: list[str] | None = None,
    trace: bool = False,
    shots: int | None = None,
) -> PassResult:
    """One sweep of ``workload``; ``addrs`` drives repro-workers."""
    kwargs = workload.sweep_kwargs(size)
    if shots is not None:
        kwargs["shots"] = shots
    spec = SweepSpec(master_seed=seed, **kwargs)
    reporter = _SetupReporter()
    cache = _SetupTimedCache()
    with traced() if trace else nullcontext() as tracer:
        t0 = time.perf_counter()
        backend = RemoteBackend(addrs) if addrs else None
        try:
            runner = Runner(
                spec, backend=backend, cache=cache, progress=reporter,
                shard_shots=workload.shard_shots,
            )
            results = runner.run()
            wall_s = time.perf_counter() - t0
            health = backend.pool_health() if backend is not None else None
        finally:
            if backend is not None:
                backend.close()
    outcome = [
        {
            "distance": r.job.distance,
            "capacity": r.job.capacity,
            "topology": r.job.topology,
            "failures": r.failures,
            "shots": r.shots,
            "makespan_us": r.metrics["makespan_us"],
            "movement_ops": r.metrics["movement_ops"],
        }
        for r in results
    ]
    return PassResult(
        wall_s=wall_s,
        setup_s=reporter.setup_s + cache.build_s,
        shots=sum(job["shots"] for job in outcome if job["failures"] is not None),
        outcome=outcome,
        pool=health,
        steals=runner.steal_stats.get("steals", 0),
        tracer=tracer,
    )


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    workload: Workload
    seed: int
    size: str
    trace: bool
    passes: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Workers lost over the whole run, and their summed peak RSS.
    worker_crashes: int = 0
    worker_rss_mb: float = 0.0
    # Benchmark process peak RSS over the passes above.
    peak_rss_mb: float = 0.0

    @property
    def resubmitted(self) -> int:
        """Shards resubmitted after a lost worker, over every pass."""
        return sum(p.pool.get("resubmitted_shards", 0)
                   for p in self.passes + self.traced if p.pool)

    def record(self, jobs: int, problems: list[str], what: str) -> None:
        self.attempted += jobs
        if problems:
            self.failed += jobs
            self.problems.extend(f"{what}: {p}" for p in problems)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            size: str = "full") -> Run:
    """One benchmark run: set-up passes, then timed passes for
    ``seconds``, every output checked."""
    run = Run(workload, seed, size, trace)
    jobs = SweepSpec(master_seed=seed, **workload.sweep_kwargs(size)).num_jobs
    src_dir = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    pool = WorkerPool(workload.workers, src_dir) if workload.workers else None
    try:
        with pool if pool is not None else nullcontext():
            _measure(run, jobs, pool, seconds)
    except Exception:
        run.record(jobs, [traceback.format_exc().strip().splitlines()[-1]],
                   "error")
        traceback.print_exc(file=sys.stderr)
    if pool is not None:
        run.worker_crashes += pool.dead_at_close
    return run


def _measure(run: Run, jobs: int, pool: WorkerPool | None, seconds: float):
    workload, seed, size = run.workload, run.seed, run.size

    def one(trace: bool = False, shots: int | None = None) -> PassResult:
        if pool is None:
            return run_pass(workload, seed, size, trace=trace, shots=shots)
        result = run_pass(workload, seed, size, pool.addrs, trace=trace,
                          shots=shots)
        # A worker lost during the pass shows as a dead process, as a
        # driver-side crash, or both; count it once.
        run.worker_crashes += max(pool.replace_dead(), result.pool["crashes"])
        return result

    # Warm the interpreter (imports, lazy module state) outside timing.
    run_pass(workload, seed, "tiny")
    if workload.samples:
        for _ in range(SETUP_PASSES):
            result = one(shots=SETUP_SHOTS)
            run.record(jobs, [], "set-up pass")
            run.setup_samples.append(result.setup_s)
    # Untraced runs report a median of at least MIN_PASSES passes; a
    # traced pair already costs two.
    min_passes = 1 if run.trace else MIN_PASSES
    t0 = time.perf_counter()
    while True:
        result = one()
        first = run.passes[0] if run.passes else None
        run.record(jobs, _check(run, result, first), "pass")
        run.passes.append(result)
        run.setup_samples.append(result.setup_s)
        if run.trace:
            traced_result = one(trace=True)
            problems = _check(run, traced_result, run.passes[0])
            missing = [
                layer for layer in workload.traced_layers
                if not traced_result.tracer.calls.get(layer)
            ]
            if missing:
                problems.append(f"trace never reached {missing}")
            run.record(jobs, problems, "traced pass")
            run.traced.append(traced_result)
        elapsed = time.perf_counter() - t0
        per_unit = elapsed / len(run.passes)
        if len(run.passes) >= min_passes and elapsed + per_unit > seconds:
            break
    # Peaks of the measured passes only: the serial reference below
    # would otherwise set the benchmark process's peak on pool-2w.
    run.peak_rss_mb = peak_rss_mb()
    if pool is not None:
        run.worker_rss_mb = pool.peak_rss_mb()
        # The pooled outcome must equal a serial run of the same spec.
        reference = run_pass(workload, seed, size)
        run.record(jobs, _check(run, reference, run.passes[0]),
                   "serial reference")


def _check(run: Run, result: PassResult, first: PassResult | None) -> list[str]:
    problems = outcome_mismatches(run.workload, run.size, run.seed,
                                  result.outcome)
    if first is not None and result.signature != first.signature:
        problems.append(
            f"outcome {result.signature} differs from {first.signature}"
        )
    return problems


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(run: Run) -> dict[str, float]:
    passes = run.passes
    if run.workload.samples:
        throughput = [p.shots / (p.wall_s - p.setup_s) for p in passes]
    else:
        throughput = [len(p.outcome) / p.wall_s for p in passes]
    return {
        "wall_s": _median(p.wall_s for p in passes),
        "setup_s": _median(run.setup_samples),
        "throughput": _median(throughput),
        "peak_rss_mb": run.peak_rss_mb,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(result: PassResult) -> dict[str, float]:
    tracer = result.tracer
    seconds, counts = tracer.seconds, tracer.counts
    distinct = counts["decoders.batch.distinct"]
    decoded = counts["decoders.mwpm.decoded"]
    pool = result.pool or {}
    workers = pool.get("workers", {}).values()
    wire = pool.get("wire", {})
    metrics = {f"{layer}.s": seconds[layer] for layer in LAYERS}
    metrics.update({
        "core.route.movement_ops": sum(j["movement_ops"] for j in result.outcome),
        "core.schedule.makespan_us": sum(j["makespan_us"] for j in result.outcome),
        "sim.dem.errors": counts["sim.dem.errors"],
        "sim.dem_sampler.shots": counts["sim.dem_sampler.shots"],
        "decoders.batch.distinct": distinct,
        # Of the distinct rows per shard, the share the memo answered.
        "decoders.batch.memo_hit_rate": 1.0 - decoded / distinct if distinct else 0.0,
        "decoders.mwpm.decoded": decoded,
        "decoders.mwpm.us_per_syndrome":
            1e6 * seconds["decoders.mwpm"] / decoded if decoded else 0.0,
        "engine.s": result.wall_s - tracer.total_seconds(),
        "engine.remote.worker_busy_s": sum(w["busy_s"] for w in workers),
        "engine.remote.overhead_s": sum(w["overhead_s"] for w in workers),
        "engine.remote.bytes": wire.get("bytes_out", 0) + wire.get("bytes_in", 0),
        "engine.remote.serialize_s": wire.get("serialize_s", 0.0),
        "engine.remote.memo_pushed":
            pool.get("memo_share", {}).get("pushed_entries", 0),
        "engine.scheduler.steals": result.steals,
        "trace.wall_s": result.wall_s,
        "trace.coverage": tracer.total_seconds() / result.wall_s,
    })
    return metrics


def per_layer(run: Run) -> dict[str, float]:
    samples = [_layer_metrics(result) for result in run.traced]
    metrics = {name: _median(s[name] for s in samples) for name in samples[0]}
    # Faults are totals over the whole run, not medians.
    metrics["engine.remote.crashes"] = run.worker_crashes
    metrics["engine.remote.worker_rss_mb"] = run.worker_rss_mb
    metrics["engine.scheduler.resubmitted"] = run.resubmitted
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] / _median(p.wall_s for p in run.passes) - 1.0
    )
    return metrics
