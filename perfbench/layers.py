"""Per-layer timing from outside the program.

The traced pass runs the real :class:`repro.engine.Runner`, but first
swaps each layer's public entry point — at the name its caller looks
it up by — for a timing wrapper, and swaps the originals back
afterwards.  Nothing inside ``src/`` is instrumented for this.

Each wrapper records *self* time: a call's duration minus the time of
the wrapped calls nested inside it.  So ``decoders.batch`` (the
``decode_packed_dedup`` wrapper) excludes the ``decoders.mwpm`` time of
the ``decode_unique_words`` callable it is handed, and the layer times
add up to at most the traced wall clock; the remainder is the engine's
own glue (``engine.s``).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers whose self time the traced pass measures, in pipeline order.
LAYERS = (
    "core.translate", "core.place", "core.route", "core.schedule",
    "core.stim_export", "sim.dem", "decoders.graph", "sim.dem_sampler",
    "decoders.batch", "decoders.mwpm",
)


class LayerTracer:
    """Self-time and work counts per layer, accumulated by wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # One entry per open wrapped call: seconds spent in its
        # wrapped children so far.
        self._stack: list[float] = []

    def wrap(self, layer: str, fn, tally=None):
        """``fn`` timed as ``layer``; ``tally(result, args)`` runs after
        the timed region to record work counts."""
        stack, clock = self._stack, self.clock

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self.seconds[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if tally is not None:
                tally(result, args)
            return result

        return timed

    def total_seconds(self) -> float:
        return sum(self.seconds.values())


def _hooks(tracer: LayerTracer):
    """``(owner, attribute, replacement factory)`` for every layer entry
    point.  Functions are patched in the namespace of the module that
    calls them, because the callers imported them by name."""
    compiler = importlib.import_module("repro.core.compiler")
    runner = importlib.import_module("repro.engine.runner")
    cache = importlib.import_module("repro.engine.cache")
    batch = importlib.import_module("repro.decoders.batch")
    from repro.decoders.graph import DetectorGraph
    from repro.sim.dem_sampler import DemSampler

    counts = tracer.counts

    def route(router_by_name):
        def timed_router_by_name(name):
            construct = tracer.wrap("core.route", router_by_name(name))

            def build(*args, **kwargs):
                router = construct(*args, **kwargs)
                router.run = tracer.wrap("core.route", router.run)
                return router

            return build

        return timed_router_by_name

    def dem_errors(result, _args):
        exact, _graphlike = result
        counts["sim.dem.errors"] += len(exact.errors)

    def sampled(result, _args):
        counts["sim.dem_sampler.shots"] += result.shots

    def distinct(result, _args):
        counts["decoders.batch.distinct"] += len(result[0])

    def decoded(_result, args):
        counts["decoders.mwpm.decoded"] += len(args[0])

    def dedup(decode_packed_dedup):
        outer = tracer.wrap("decoders.batch", decode_packed_dedup)

        def timed_dedup(decode_unique_words, *args, **kwargs):
            inner = tracer.wrap("decoders.mwpm", decode_unique_words, decoded)
            return outer(inner, *args, **kwargs)

        return timed_dedup

    def layer(name, tally=None):
        return lambda fn: tracer.wrap(name, fn, tally)

    return [
        (compiler, "build_gate_dag", layer("core.translate")),
        (compiler, "place", layer("core.place")),
        (compiler, "router_by_name", route),
        (compiler, "schedule", layer("core.schedule")),
        (runner, "program_to_circuit", layer("core.stim_export")),
        (cache, "circuit_to_dems", layer("sim.dem", dem_errors)),
        (DetectorGraph, "from_dem",
         lambda fn: staticmethod(tracer.wrap("decoders.graph", fn))),
        (DetectorGraph, "shortest_paths", layer("decoders.graph")),
        (cache, "make_decoder", layer("decoders.graph")),
        (DemSampler, "__init__", layer("sim.dem_sampler")),
        (DemSampler, "sample_packed", layer("sim.dem_sampler", sampled)),
        (batch, "decode_packed_dedup", dedup),
        (batch, "unique_packed_rows", layer("decoders.batch", distinct)),
    ]


@contextmanager
def traced():
    """Install every layer hook for the duration of the block and
    yield the :class:`LayerTracer` they feed."""
    tracer = LayerTracer()
    saved = []
    try:
        for owner, name, factory in _hooks(tracer):
            if name not in vars(owner):
                raise AttributeError(
                    f"trace hook {owner.__name__}.{name} is gone; update "
                    "perfbench/layers.py to the layer's new entry point"
                )
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, factory(getattr(owner, name)))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
