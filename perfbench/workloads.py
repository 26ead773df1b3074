"""The benchmark's workloads, their pinned outputs and their tiny sizes.

Every workload is the paper's rotated surface code on a grid with
standard wiring, greedy routing, projection placement and MWPM unless
its spec says otherwise.  Each one leans on a different layer, so a
change to one layer shows on one workload and leaves the others still:

- ``baseline-x1`` — the paper's baseline point.  Almost every shot has
  a distinct syndrome, so the memo saves nothing and matching
  (``decoders.mwpm``) is most of the wall clock.
- ``deep-x20`` — far below threshold.  Most distinct rows are memo hits
  and clusters hold one or two defects, so time goes to sampling,
  dedupe and vectorised small-cluster matching, never to blossom.
- ``compile-sweep`` — compile only, the shape of the paper's Fig. 8/9
  round-time sweep; routing (``core.route``) dominates.
- ``pool-2w`` — the ×5 point over two local ``repro-worker`` processes;
  the only workload with the wire protocol (``engine.remote``) on the
  critical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # SweepSpec fields (the master seed comes from --seed).
    spec: dict
    # The same workload shrunk to run in seconds (self-tests).
    tiny: dict
    shard_shots: int = 2048
    # Single-slot repro-worker processes to drive (0 = serial backend).
    workers: int = 0
    # Logical failures at the default seed and full size.
    pinned_failures: int | None = None
    # Full-size compile-only points: (distance, capacity, topology) ->
    # (makespan_us, movement_ops).
    pinned_points: dict = field(default_factory=dict)
    # Layers a traced pass of this workload must reach in this process.
    traced_layers: tuple[str, ...] = ()

    def sweep_kwargs(self, size: str) -> dict:
        if size == "full":
            return dict(self.spec)
        return {**self.spec, **self.tiny}

    @property
    def samples(self) -> bool:
        return self.spec.get("shots", 0) > 0


_CORE = ("core.translate", "core.place", "core.route", "core.schedule")
_SETUP = _CORE + ("core.stim_export", "sim.dem", "decoders.graph")
_SERIAL_LER = _SETUP + ("sim.dem_sampler", "decoders.batch", "decoders.mwpm")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="baseline-x1",
            why="paper baseline d=5 x1: distinct syndromes, so MWPM "
                "matching dominates and memo reuse is nil",
            spec=dict(distances=(5,), rounds=5, shots=4096),
            tiny=dict(distances=(3,), rounds=2, shots=512),
            pinned_failures=81,
            traced_layers=_SERIAL_LER,
        ),
        Workload(
            name="deep-x20",
            why="d=5 x20 far below threshold: memo hits and 1-2 defect "
                "clusters, so sampling and dedupe dominate, never blossom",
            spec=dict(distances=(5,), rounds=5, shots=2_097_152,
                      gate_improvements=(20.0,)),
            tiny=dict(distances=(3,), rounds=2, shots=16_384),
            pinned_failures=10,
            traced_layers=_SERIAL_LER,
        ),
        Workload(
            name="compile-sweep",
            why="compile-only d{5,7} x capacity{2,5} x 3 topologies "
                "(Fig. 8/9 shape): routing dominates, no sampling",
            spec=dict(distances=(5, 7), capacities=(2, 5),
                      topologies=("grid", "linear", "switch"), rounds=2,
                      shots=0),
            tiny=dict(distances=(2, 3), capacities=(2,),
                      topologies=("grid", "linear")),
            pinned_points={
                (5, 2, "grid"): (13380.0, 1963),
                (5, 2, "linear"): (220910.0, 8331),
                (5, 2, "switch"): (8615.0, 1758),
                (5, 5, "grid"): (36475.0, 1016),
                (5, 5, "linear"): (99075.0, 2360),
                (5, 5, "switch"): (26150.0, 896),
                (7, 2, "grid"): (14195.0, 4066),
                (7, 2, "linear"): (658150.0, 28809),
                (7, 2, "switch"): (8575.0, 3756),
                (7, 5, "grid"): (45385.0, 2185),
                (7, 5, "linear"): (305675.0, 8884),
                (7, 5, "switch"): (27980.0, 2051),
            },
            traced_layers=_CORE,
        ),
        Workload(
            name="pool-2w",
            why="d=5 x5 over two local repro-workers, 256 shards: the "
                "only workload with the wire protocol on the critical path",
            spec=dict(distances=(5,), rounds=5, shots=131_072,
                      gate_improvements=(5.0,)),
            tiny=dict(distances=(3,), rounds=2, shots=4096),
            shard_shots=512,
            workers=2,
            pinned_failures=29,
            traced_layers=_SETUP,
        ),
    )
}


def outcome_mismatches(
    workload: Workload, size: str, seed: int, outcome: list[dict]
) -> list[str]:
    """What is wrong with one pass's per-job outcome, checked against
    the pinned values (default seed, full size) or, for other seeds, a
    plausibility band around the pinned failure rate."""
    if size != "full":
        return []
    problems = []
    if workload.pinned_points:
        got = {
            (job["distance"], job["capacity"], job["topology"]):
                (job["makespan_us"], job["movement_ops"])
            for job in outcome
        }
        for point, want in workload.pinned_points.items():
            if got.get(point) != want:
                problems.append(
                    f"{point}: (makespan_us, movement_ops) {got.get(point)} "
                    f"!= pinned {want}"
                )
    if workload.pinned_failures is not None:
        (job,) = outcome
        failures, shots = job["failures"], job["shots"]
        if seed == DEFAULT_SEED:
            if failures != workload.pinned_failures:
                problems.append(
                    f"{failures}/{shots} failures != pinned "
                    f"{workload.pinned_failures}"
                )
        else:
            # A sound decoder at another seed lands within a few
            # standard deviations of the pinned rate; a broken one
            # (no correction, wrong observable) lands far outside.
            expect = workload.pinned_failures
            slack = 6.0 * math.sqrt(expect) + 6.0
            if abs(failures - expect) > slack:
                problems.append(
                    f"{failures}/{shots} failures outside "
                    f"{expect} +/- {slack:.0f} expected at this size"
                )
    return problems
