"""Per-layer tracing of one fluidq CLI invocation, from outside the package.

`instrument` replaces fluidq's public functions and methods with timing
wrappers and returns a function that puts the originals back.  Coarse calls
(one per stage: parse, solve, profile, replication, comparison) keep a span
each: name, start, end and the index of the enclosing coarse span.  Hot
kernels (distribution methods, the per-step survival map, sup distances) keep
only a call count and times, so tracing them stays cheap.  Self time is a
call's duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.stack = []                   # frames: [name, child time, span index]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)   # inclusive time, outermost calls only
        self.self_time = defaultdict(float)
        self.pairs = defaultdict(int)     # (caller name, callee name) -> calls
        self.counts = defaultdict(float)  # counters read from arguments and results
        self.spans = []                   # [name, start, end, parent span index]
        self._depth = defaultdict(int)

    def _enclosing_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def call(self, name, coarse, func, args, kwargs):
        stack = self.stack
        caller = stack[-1] if stack else None
        span = None
        if coarse:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._enclosing_span()])
        frame = [name, 0.0, span]
        stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._depth[name] -= 1
            elapsed = end - start
            self.calls[name] += 1
            self.self_time[name] += elapsed - frame[1]
            if not self._depth[name]:
                self.total[name] += elapsed
            if caller is not None:
                caller[1] += elapsed
                self.pairs[(caller[0], name)] += 1
            if span is not None:
                self.spans[span][1:3] = [start, end]

    def wrap(self, owner, attr, name, *, coarse=False, observe=None):
        """Replace owner.attr by a traced version; returns an undo callable."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            result = self.call(name, coarse, func, args, kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        setattr(owner, attr, kind(traced) if kind else traced)
        return lambda: setattr(owner, attr, raw)

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "pairs": [[a, b, n] for (a, b), n in self.pairs.items()],
            "counts": dict(self.counts),
            "spans": self.spans,
        }


# -- observers: counters read from what a traced call takes or returns --------


def _count_steps(counts, args, sol):
    counts["fluid.steps"] += sol.times.size - 1


def _count_cells(counts, args, profiles):
    sol, t, probes = args[:3]
    counts["fluid.measures_at.cells"] += np.size(probes) * sol.grid_index(t)


def _count_events(counts, args, snaps):
    last = snaps[-1]
    counts["simulator.arrivals"] += last.arrivals
    counts["simulator.completions"] += last.completed
    counts["simulator.abandoned"] += last.abandoned


def _count_draws(counts, args, draws):
    counts["distributions.sample.draws"] += np.size(draws)


DISTRIBUTION_METHODS = ("cdf", "sf", "integrated_sf", "integrated_sf_inverse", "sample")


def instrument(tracer: Tracer):
    """Trace every layer of fluidq; returns a callable that restores the originals."""
    from fluidq import cli, distributions, equilibrium, fluid, measures, simulator

    undo = [
        tracer.wrap(cli, "main", "cli.main", coarse=True),
        tracer.wrap(cli, "parse_config", "cli.parse_config", coarse=True),
        tracer.wrap(fluid, "solve", "fluid.solve", coarse=True, observe=_count_steps),
        tracer.wrap(fluid, "survival_at_offered_wait", "fluid.survival_at_offered_wait"),
        tracer.wrap(fluid.FluidSolution, "measures_at", "fluid.measures_at", coarse=True,
                    observe=_count_cells),
        tracer.wrap(equilibrium, "equilibrium_state", "equilibrium.equilibrium_state",
                    coarse=True),
        tracer.wrap(simulator, "run", "simulator.run", coarse=True, observe=_count_events),
        tracer.wrap(simulator, "compare_to_fluid", "simulator.compare_to_fluid", coarse=True),
        tracer.wrap(simulator, "fluid_scale", "simulator.fluid_scale"),
        tracer.wrap(simulator, "sup_distance", "measures.sup_distance"),
        tracer.wrap(measures, "sup_distance", "measures.sup_distance"),
        tracer.wrap(measures.TailMeasure, "from_samples", "measures.from_samples"),
        tracer.wrap(measures.TailMeasure, "inverse_tail", "measures.inverse_tail"),
    ]
    base = distributions.DistributionSpec
    for cls in (base, *base.__subclasses__()):
        for attr in DISTRIBUTION_METHODS:
            if attr in cls.__dict__:
                undo.append(tracer.wrap(cls, attr, f"distributions.{attr}",
                                        observe=_count_draws if attr == "sample" else None))

    def restore():
        for step in reversed(undo):
            step()

    return restore
