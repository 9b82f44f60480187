"""Simulation of the n-server FCFS queue with abandonment, one customer at a time.

Customers are taken in arrival order, the seeded buffer first.  Each meets the earliest
free time W of the n servers (Kiefer and Wolfowitz, On the theory of queues with many
servers, 1955), kept in a heap that starts from the seeded completion times and 0 for
each idle server.  It leaves the buffer at max(A, W): unserved if it had to wait, W > A,
and its patience ran out, P <= W - A; otherwise that server is free again at
max(A, W) + S.  So a completion goes before an arrival at the same time.  A start only
replaces the heap's minimum by a later time, so W never falls; A is sorted, so leaving
times max(A, W) are sorted too, and snapshots are slices of the per-customer arrays.
They mirror the fluid state: a virtual buffer holding every arrived-but-unscheduled
customer (including those whose patience already expired) measured by residual patience,
and the busy servers measured by residual service time.  The real queue counts the
buffer's positive residuals; a completion or a departure from the buffer at the snapshot
time has happened by then.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields, replace

import numpy as np

from .distributions import DistributionSpec, bisect_increasing
from .fluid import FluidSolution, MeasureProfiles, ValidatedInitial
# sup_distance: unused here, but perfbench/tracing.py wraps simulator.sup_distance by name
from .measures import TailMeasure, sup_distance, tail_gap

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
    snapshot_times: tuple            # sorted; the run ends at the last
    seed: int = 0
    initial: ValidatedInitial | None = None

    def __post_init__(self):
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))
        if not (isinstance(self.num_servers, (int, np.integer)) and self.num_servers >= 1):
            raise ValueError(f"num_servers must be a whole number >= 1, got {self.num_servers!r}")
        if not all(0.0 <= t < np.inf for t in self.snapshot_times):
            raise ValueError("snapshot times must be finite and nonnegative")
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
    a tabulated tail keeps past its grid go where that tail stops falling, the grid's end.
    bisect_increasing takes no guess here: a lognormal equilibrium tail sums terms that move
    in opposite directions, so it is monotone only in exact arithmetic, each x_i is one
    crossing of its level, and a guess could pick another a few floats away."""
    levels = init.busy0 * (1.0 - (np.arange(count) + 0.5) / count)
    levels = np.maximum(levels, init.server_tail(service, np.finfo(float).max))
    return bisect_increasing(lambda x: -init.server_tail(service, x), -levels, np.zeros(count))


def _seed(cfg: SimConfig, rng: np.random.Generator) -> tuple:
    """The seeded servers' completion times and the seeded buffer's arrival, patience and
    service arrays, oldest first."""
    init = cfg.initial
    if init is None:
        return (np.empty(0),) * 4
    n = cfg.num_servers
    busy = min(int(np.floor(n * init.busy0)), n)
    waiting = int(np.floor(n * init.virtual0))
    arrival = -init.wait0 * (1.0 - (np.arange(waiting) + 0.5) / waiting)
    patience = cfg.patience.sample(rng, waiting)
    service = cfg.service.sample(rng, waiting)
    return _busy_residuals(cfg.service, init, busy), arrival, patience, service


def _arrivals(cfg: SimConfig, rng: np.random.Generator, arrival_times, until: float) -> tuple:
    """Arrival times up to until, with each arrival's patience and service draws.

    The draws come in blocks of rows, (gap, patience, service) per arrival, (patience,
    service) on a schedule, read after the seeding draws in order as scalar sample() calls
    would: rng.random((k, m)) gives the doubles of k m scalar calls row by row, and each law
    samples as quantile(rng.random()).  Each column goes to quantile as a contiguous array,
    whose results equal those of 0-d calls bit for bit.  Renewal times are one sequential
    cumsum per block with the last time carried in, the floats of repeated now + gap.
    Blocks stop once a row lies past the arrivals up to until.
    """
    laws = (cfg.patience, cfg.service)
    if arrival_times is None:
        laws = (cfg.interarrival, *laws)
    else:
        arrival = np.array(sorted(map(float, arrival_times)))
        if not np.all(arrival >= 0.0):
            raise ValueError("scheduled arrival times must be nonnegative")
        arrival = arrival[:np.searchsorted(arrival, until, side="right")]
    blocks, last = [], 0.0
    while last <= until if arrival_times is None else len(blocks) * _BLOCK <= arrival.size:
        u = rng.random((_BLOCK, len(laws))).T.copy()
        blocks.append([law.quantile(column) for law, column in zip(laws, u)])
        if arrival_times is None:
            blocks[-1][0] = np.cumsum(np.concatenate(([last], blocks[-1][0])))[1:]
            last = blocks[-1][0][-1]
    columns = [np.concatenate(column) for column in zip(*blocks)]
    if arrival_times is None:
        arrival = columns[0][:np.searchsorted(columns[0], until, side="right")]
    return arrival, columns[-2][:arrival.size], columns[-1][:arrival.size]


def _customers(cfg: SimConfig, replication_index: int, arrival_times=None) -> tuple:
    """Draw, then recurse: the seeded servers' completion times, the seeded buffer's size,
    and per customer in FIFO order its arrival, patience and service, the time it left
    the buffer, and whether it was served.  The loop records only W per customer; max(A, W)
    and the served flag are then the loop's own comparisons, made over the arrays."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, replication_index)))
    done0, *seeded = _seed(cfg, rng)
    fresh = _arrivals(cfg, rng, arrival_times, max(cfg.snapshot_times, default=0.0))
    arrival, patience, service = (np.concatenate(pair) for pair in zip(seeded, fresh))
    # the servers' free times, a heap; an idle server is free from 0, so it takes the
    # seeded buffer's head there, not the next arrival (a busy mass within validation's
    # 1e-9 of one floors to n - 1 seeded servers)
    free = [0.0] * (cfg.num_servers - done0.size) + sorted(done0.tolist())
    offered = []
    record, start = offered.append, heapq.heapreplace
    for a, p, s in zip(arrival.tolist(), patience.tolist(), service.tolist()):
        w = free[0]
        record(w)
        if w <= a:
            start(free, a + s)
        elif p > w - a:
            start(free, w + s)
    offered = np.array(offered)
    served = (offered <= arrival) | (patience > offered - arrival)
    return done0, seeded[0].size, arrival, patience, service, np.maximum(arrival, offered), served


def run(cfg: SimConfig, replication_index: int = 0, arrival_times=None) -> list[SystemSnapshot]:
    """One replication; identical (config, seed, index) gives identical snapshots.

    arrival_times, when given, replaces the renewal stream with an explicit
    schedule of times >= 0 (deterministic trace runs); a negative time raises ValueError.

    arrival and leave are sorted, so at t the customers [0, left) have left the buffer,
    the served ones busy or completed, and [left, arrived) wait in it; all seeded arrived.
    """
    done0, waiting0, arrival, patience, service, leave, served = _customers(
        cfg, replication_index, arrival_times)
    done = leave + service
    snaps = []
    for t in cfg.snapshot_times:
        left = int(np.searchsorted(leave, t, side="right"))
        arrived = int(np.searchsorted(arrival, t, side="right"))
        residual = patience[left:arrived] - (t - arrival[left:arrived])
        queue = int(np.count_nonzero(residual > 0.0))
        started = int(np.count_nonzero(served[:left]))
        busy = np.concatenate((done[:left][served[:left] & (t < done[:left])], done0[done0 > t]))
        snaps.append(SystemSnapshot(
            time=t,
            buffer_measure=TailMeasure.from_samples(residual, 1.0),
            server_measure=TailMeasure.from_samples(busy - t, 1.0),
            queue_size=queue,
            virtual_size=residual.size,
            busy_servers=busy.size,
            system_size=queue + busy.size,
            abandoned=left - started + residual.size - queue,
            completed=started + done0.size - busy.size,
            arrivals=arrived - waiting0,
            left_buffer=left,
            initial_virtual=waiting0,
            initial_busy=done0.size,
        ))
    return snaps


def fluid_scale(snap: SystemSnapshot, n: int) -> SystemSnapshot:
    """Divide every count and measure by the server count."""
    s = 1.0 / n
    values = {f.name: getattr(snap, f.name) for f in fields(snap) if f.name != "time"}
    return replace(snap, **{name: v.scaled(s) if isinstance(v, TailMeasure) else v * s
                            for name, v in values.items()})


@dataclass(frozen=True)
class ProbeReadings:
    """One replication's fluid-scaled snapshots read on a probe grid: all that its gaps to
    the fluid solution need of it, and nothing of that solution.  Axis 0 is the buffer
    (row 0) and the servers (row 1); the next axis is the snapshot."""

    times: tuple
    tails: np.ndarray    # (2, snapshots, probes): each measure's tail_at(probes)
    totals: np.ndarray   # (2, snapshots): each measure's total
    sizes: np.ndarray    # (2, snapshots): Q and Z


def read_on_probes(snaps: list[SystemSnapshot], probes) -> ProbeReadings:
    """The fluid-free half of compare_to_fluid: each fluid-scaled snapshot's buffer and
    server tails at the probes, their totals, Q and Z."""
    tails = np.empty((2, len(snaps), np.size(probes)))
    totals, sizes = np.empty((2, 2, len(snaps)))
    for j, snap in enumerate(snaps):
        for m, measure in enumerate((snap.buffer_measure, snap.server_measure)):
            tails[m, j] = measure.tail_at(probes)
            totals[m, j] = measure.total
        sizes[:, j] = snap.queue_size, snap.busy_servers
    return ProbeReadings(tuple(snap.time for snap in snaps), tails, totals, sizes)


def gaps_to_fluid(readings: ProbeReadings, sol: FluidSolution,
                  profiles: list[MeasureProfiles]) -> np.ndarray:
    """The other half: one column per snapshot, the buffer and server sup distances to
    the profiles, read on the probe grid the profiles were built on, |Q - q| and |Z - z|.

    Snapshot times must lie on the fluid grid; a mismatch raises."""
    if not readings.times or len(profiles) != len(readings.times):
        raise ValueError("one fluid profile per snapshot time (at least one) is required")
    k = [sol.grid_index(t) for t in readings.times]
    fluid = [[p.buffer for p in profiles], [p.server for p in profiles]]
    return np.concatenate((
        tail_gap(readings.tails, readings.totals,
                 np.array([[m.tails for m in row] for row in fluid]),
                 np.array([[m.total for m in row] for row in fluid])),
        np.abs(readings.sizes - np.array([sol.queue[k], sol.busy[k]]))))


def compare_to_fluid(snaps: list[SystemSnapshot], sol: FluidSolution,
                     profiles: list[MeasureProfiles]) -> np.ndarray:
    """One replication's gaps to the fluid solution, one column per snapshot: the buffer
    and server sup distances on the profiles' probe grid, |Q - q| and |Z - z|.

    snaps are fluid-scaled; profiles is sol.profiles(times, probes) at their times, in
    order, and depends on neither n nor the replication, so callers build it once.
    Snapshot times must lie on the fluid grid; a mismatch raises.  The two halves,
    read_on_probes and gaps_to_fluid, may run apart: the first needs no fluid value.
    """
    probes = profiles[0].buffer.grid if profiles else ()
    return gaps_to_fluid(read_on_probes(snaps, probes), sol, profiles)


def gc_diagnostic(dist: DistributionSpec, sample_count: int, seed: int) -> float:
    """Sup distance between the empirical tail of iid draws and the true tail.

    Evaluated on a 512-point uniform probe grid over the sampled range; the
    95% Kolmogorov-Smirnov bound for the statistic is 1.36 / sqrt(N).
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6C)))
    samples = dist.sample(rng, sample_count)
    lo = min(0.0, float(samples.min()))
    hi = float(samples.max())
    if hi <= lo:
        hi = lo + 1.0
    probes = np.linspace(lo, hi, 512)
    empirical = TailMeasure.from_samples(samples, 1.0 / sample_count)
    gaps = np.abs(empirical.tail_at(probes) - dist.sf(probes))
    return float(np.max(gaps))
