"""Event-driven simulation of the n-server queue with abandonment.

The state descriptor mirrors the fluid model: a virtual buffer holding every
arrived-but-unscheduled customer (including those whose patience already
expired) measured by remaining patience, and the busy servers measured by
remaining service time.  Abandonment is detected lazily when a customer
reaches the head of the line; the real queue length at a snapshot counts the
virtual-buffer customers with positive residual patience.  The only heap holds
the busy servers' completion times; arrivals come in time order from their own
stream (renewal gaps, or an explicit schedule sorted first), and a completion
goes before an arrival at the same time.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .distributions import DistributionSpec, bisect_increasing
from .fluid import FluidSolution, MeasureProfiles, ValidatedInitial
from .measures import TailMeasure, sup_distance

_BLOCK = 2048  # arrivals per block of uniforms


@dataclass(frozen=True)
class SimConfig:
    """One simulated system, seeded from the fluid start state initial when it is given.

    floor(n busy0) servers start busy, with the (i + 1/2)/count quantiles of the
    state's server measure as residual service times.  floor(n virtual0) customers
    start in the virtual buffer in arrival order, arrived at times spread evenly over
    [-wait0, 0], with fresh patience and service draws; the expired ones stay there."""

    num_servers: int
    interarrival: DistributionSpec   # renewal spacing; mean 1/(n * lambda)
    patience: DistributionSpec
    service: DistributionSpec
    horizon: float
    snapshot_times: tuple
    seed: int = 0
    replications: int = 1
    initial: ValidatedInitial | None = None

    def __post_init__(self):
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))
        if self.num_servers < 1:
            raise ValueError("num_servers must be at least 1")
        if any(t < 0.0 or t > self.horizon for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, horizon]")
        if list(self.snapshot_times) != sorted(self.snapshot_times):
            raise ValueError("snapshot times must be sorted")


@dataclass(frozen=True)
class SystemSnapshot:
    time: float
    buffer_measure: TailMeasure   # residual patience over the virtual buffer, on R
    server_measure: TailMeasure   # residual service over busy servers, on (0, inf)
    queue_size: float             # Q: positive-residual-patience count
    virtual_size: float           # R: virtual-buffer count
    busy_servers: float           # Z
    system_size: float            # X = Q + Z
    abandoned: float              # customers whose patience has expired by now
    completed: float
    arrivals: float               # E(t), arrivals in (0, t]
    left_buffer: float            # customers ever released from the virtual buffer
    initial_virtual: float
    initial_busy: float


def _busy_residuals(service: DistributionSpec, init: ValidatedInitial, count: int) -> np.ndarray:
    """The x_i with server_tail(x_i) = busy0 (1 - (i + 1/2)/count).  Levels below the mass
    a tabulated tail keeps past its grid go where that tail stops falling, the grid's end."""
    levels = init.busy0 * (1.0 - (np.arange(count) + 0.5) / count)
    levels = np.maximum(levels, init.server_tail(service, np.finfo(float).max))
    return bisect_increasing(lambda x: -init.server_tail(service, x), -levels, np.zeros(count))


class _Engine:
    def __init__(self, cfg: SimConfig, replication_index: int, arrival_times=None):
        self.cfg = cfg
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, replication_index)))
        self.buffer: deque[tuple[float, float, float]] = deque()  # (arrival, patience, service)
        self.busy: list[float] = []  # completion times of the busy servers, a heap
        self.idle = cfg.num_servers  # idle server count
        self.arrivals = 0
        self.completed = 0
        self.left_buffer = 0
        self.abandoned_released = 0
        self.initial_virtual = 0
        self.initial_busy = 0
        self._schedule = None if arrival_times is None else iter(sorted(map(float, arrival_times)))

        self._seed_initial_state()

        self._rows = self._draw_rows()
        self._row = next(self._rows)  # the next arrival's draws
        self._next_arrival = self._arrival_after(0.0)

    def _seed_initial_state(self):
        init = self.cfg.initial
        if init is None:
            return
        n = self.cfg.num_servers
        busy_count = min(int(np.floor(n * init.busy0)), n)
        self.busy = _busy_residuals(self.cfg.service, init, busy_count).tolist()
        heapq.heapify(self.busy)
        self.idle = n - busy_count
        self.initial_busy = busy_count

        waiting = int(np.floor(n * init.virtual0))
        arrivals = -init.wait0 * (1.0 - (np.arange(waiting) + 0.5) / waiting)  # oldest first
        patience = self.cfg.patience.sample(self.rng, waiting)
        services = self.cfg.service.sample(self.rng, waiting)
        self.buffer.extend(zip(arrivals.tolist(), patience.tolist(), services.tolist()))
        self.initial_virtual = waiting

    def _draw_rows(self):
        """One (gap, patience, service) row per arrival, (patience, service) on a schedule.

        The rows read the stream after the seeding draws in order, as scalar sample()
        calls would: rng.random((k, m)) gives the doubles of k m scalar calls row by row,
        and each law samples as quantile(rng.random()).  Each column goes to quantile as
        a contiguous array, whose results equal those of 0-d calls bit for bit.
        """
        laws = (self.cfg.patience, self.cfg.service)
        if self._schedule is None:
            laws = (self.cfg.interarrival, *laws)
        while True:
            block = self.rng.random((_BLOCK, len(laws)))
            columns = [law.quantile(np.ascontiguousarray(block[:, j])).tolist()
                       for j, law in enumerate(laws)]
            yield from zip(*columns)

    def _arrival_after(self, now: float) -> float:
        """The gap in the current row added to now, or the schedule's next time."""
        if self._schedule is None:
            return now + self._row[0]
        return next(self._schedule, math.inf)

    # -- event handlers ----------------------------------------------------

    def _start_service(self, entry: tuple, now: float):
        heapq.heappush(self.busy, now + entry[2])  # entry = (arrival, patience, service)

    def _handle_arrival(self, now: float):
        self.arrivals += 1
        patience, service = self._row[-2:]
        self._row = next(self._rows)
        entry = (now, patience, service)
        if self.idle:
            self.idle -= 1
            self.left_buffer += 1  # passes through the virtual buffer instantly
            self._start_service(entry, now)
        else:
            self.buffer.append(entry)
        self._next_arrival = self._arrival_after(now)

    def _handle_completion(self, now: float):
        self.completed += 1
        while self.buffer:
            entry = self.buffer.popleft()
            self.left_buffer += 1
            arrival, patience, _ = entry
            if patience <= now - arrival:
                # expired before its turn: leaves the virtual buffer unserved
                self.abandoned_released += 1
                continue
            self._start_service(entry, now)
            break
        else:
            self.idle += 1

    def _pump(self, until: float):
        busy = self.busy
        while True:
            arrival = self._next_arrival
            if busy and busy[0] <= arrival and busy[0] <= until:  # completions win ties
                self._handle_completion(heapq.heappop(busy))
            elif arrival <= until:
                self._handle_arrival(arrival)
            else:
                return

    def _snapshot(self, t: float) -> SystemSnapshot:
        buf_res = np.array([patience - (t - arrival) for arrival, patience, _ in self.buffer])
        queue = int(np.sum(buf_res > 0.0))
        expired_waiting = buf_res.size - queue
        return SystemSnapshot(
            time=t,
            buffer_measure=TailMeasure.from_samples(buf_res, 1.0),
            server_measure=TailMeasure.from_samples(np.array(self.busy) - t, 1.0),
            queue_size=queue,
            virtual_size=buf_res.size,
            busy_servers=len(self.busy),
            system_size=queue + len(self.busy),
            abandoned=self.abandoned_released + expired_waiting,
            completed=self.completed,
            arrivals=self.arrivals,
            left_buffer=self.left_buffer,
            initial_virtual=self.initial_virtual,
            initial_busy=self.initial_busy,
        )

    def run(self) -> list[SystemSnapshot]:
        snaps = []
        for t in self.cfg.snapshot_times:
            self._pump(t)
            snaps.append(self._snapshot(t))
        return snaps


def run(cfg: SimConfig, replication_index: int = 0, arrival_times=None) -> list[SystemSnapshot]:
    """One replication; identical (config, seed, index) gives identical snapshots.

    arrival_times, when given, replaces the renewal stream with an explicit
    schedule (deterministic trace runs).
    """
    return _Engine(cfg, replication_index, arrival_times).run()


def run_replications(cfg: SimConfig) -> list[list[SystemSnapshot]]:
    """All replications, index-ordered; each owns an independent random stream."""
    return [run(cfg, i) for i in range(cfg.replications)]


def fluid_scale(snap: SystemSnapshot, n: int) -> SystemSnapshot:
    """Divide every count and measure by the server count."""
    s = 1.0 / n
    return replace(
        snap,
        buffer_measure=snap.buffer_measure.scaled(s),
        server_measure=snap.server_measure.scaled(s),
        queue_size=snap.queue_size * s,
        virtual_size=snap.virtual_size * s,
        busy_servers=snap.busy_servers * s,
        system_size=snap.system_size * s,
        abandoned=snap.abandoned * s,
        completed=snap.completed * s,
        arrivals=snap.arrivals * s,
        left_buffer=snap.left_buffer * s,
        initial_virtual=snap.initial_virtual * s,
        initial_busy=snap.initial_busy * s,
    )


@dataclass(frozen=True)
class FluidComparison:
    """Replication-aggregated distances between scaled snapshots and the fluid solution."""

    times: np.ndarray
    mean_buffer_dist: np.ndarray
    max_buffer_dist: np.ndarray
    mean_server_dist: np.ndarray
    max_server_dist: np.ndarray
    mean_queue_gap: np.ndarray
    mean_busy_gap: np.ndarray
    queue_gap_sup_by_rep: np.ndarray   # sup over snapshot times, per replication
    busy_gap_final_by_rep: np.ndarray  # |busy gap| at the last snapshot, per replication

    @property
    def mean_sup_queue_gap(self) -> float:
        return float(np.mean(self.queue_gap_sup_by_rep))

    @property
    def mean_final_busy_gap(self) -> float:
        return float(np.mean(self.busy_gap_final_by_rep))


def compare_to_fluid(scaled_reps: list[list[SystemSnapshot]], sol: FluidSolution,
                     probes, profiles: list[MeasureProfiles]) -> FluidComparison:
    """Distances per snapshot time, aggregated over replications.

    profiles is sol.profiles(times, probes) for the snapshot times, in order;
    they depend on neither n nor the replication, so callers build them once.
    Snapshot times must lie on the fluid grid; a mismatch raises.
    """
    if not scaled_reps or not scaled_reps[0]:
        raise ValueError("at least one replication with one snapshot is required")
    times = [snap.time for snap in scaled_reps[0]]
    if len(profiles) != len(times):
        raise ValueError("one fluid profile per snapshot time is required")
    probes = np.asarray(probes, dtype=float)

    buffer_d = np.empty((len(scaled_reps), len(times)))
    server_d = np.empty_like(buffer_d)
    queue_g = np.empty_like(buffer_d)
    busy_g = np.empty_like(buffer_d)
    for j, (t, fluid) in enumerate(zip(times, profiles)):
        k = sol.grid_index(t)
        for i, rep in enumerate(scaled_reps):
            snap = rep[j]
            if snap.time != t:
                raise ValueError("replications disagree on snapshot times")
            buffer_d[i, j] = sup_distance(snap.buffer_measure, fluid.buffer, probes)
            server_d[i, j] = sup_distance(snap.server_measure, fluid.server, probes)
            queue_g[i, j] = abs(snap.queue_size - sol.queue[k])
            busy_g[i, j] = abs(snap.busy_servers - sol.busy[k])

    return FluidComparison(
        times=np.asarray(times),
        mean_buffer_dist=buffer_d.mean(axis=0),
        max_buffer_dist=buffer_d.max(axis=0),
        mean_server_dist=server_d.mean(axis=0),
        max_server_dist=server_d.max(axis=0),
        mean_queue_gap=queue_g.mean(axis=0),
        mean_busy_gap=busy_g.mean(axis=0),
        queue_gap_sup_by_rep=queue_g.max(axis=1),
        busy_gap_final_by_rep=busy_g[:, -1].copy(),
    )


def gc_diagnostic(dist: DistributionSpec, sample_count: int, seed: int) -> float:
    """Sup distance between the empirical tail of iid draws and the true tail.

    Evaluated on a 512-point uniform probe grid over the sampled range; the
    95% Kolmogorov-Smirnov bound for the statistic is 1.36 / sqrt(N).
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6C)))
    samples = np.asarray(dist.sample(rng, sample_count), dtype=float)
    lo = min(0.0, float(samples.min()))
    hi = float(samples.max())
    if hi <= lo:
        hi = lo + 1.0
    probes = np.linspace(lo, hi, 512)
    empirical = TailMeasure.from_samples(samples, 1.0 / sample_count)
    gaps = np.abs(np.asarray(empirical.tail_at(probes)) - np.asarray(dist.sf(probes)))
    return float(np.max(gaps))
