"""Simulation of the n-server FCFS queue with abandonment, one customer at a time.

Customers are taken in arrival order, the seeded buffer first.  Each meets the earliest
free time W of the n servers (Kiefer and Wolfowitz, On the theory of queues with many
servers, 1955), kept in a heap that starts from the seeded completion times and 0 for
each idle server.  It leaves the buffer at max(A, W): unserved if it had to wait, W > A,
and its patience ran out, P <= W - A; otherwise that server is free again at
max(A, W) + S.  So a completion goes before an arrival at the same time.  Snapshots are
masks over the per-customer arrays and mirror the fluid state: a virtual buffer holding
every arrived-but-unscheduled customer (including those whose patience already expired)
measured by residual patience, and the busy servers measured by residual service time.
The real queue counts the buffer's positive residuals; a completion or a departure from
the buffer at the snapshot time has happened by then.
"""

from __future__ import annotations

import heapq
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
    the buffer, and whether it was served."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, replication_index)))
    done0, *seeded = _seed(cfg, rng)
    fresh = _arrivals(cfg, rng, arrival_times, max(cfg.snapshot_times, default=0.0))
    arrival, patience, service = (np.concatenate(pair) for pair in zip(seeded, fresh))
    # the servers' free times, a heap; an idle server is free from 0, so it takes the
    # seeded buffer's head there, not the next arrival (a busy mass within validation's
    # 1e-9 of one floors to n - 1 seeded servers)
    free = [0.0] * (cfg.num_servers - done0.size) + sorted(done0.tolist())
    leave, served = [], []
    for a, p, s in zip(arrival.tolist(), patience.tolist(), service.tolist()):
        w = free[0]
        served.append(w <= a or p > w - a)
        if served[-1]:
            w = max(a, w)
            heapq.heapreplace(free, w + s)
        leave.append(w)
    return (done0, seeded[0].size, arrival, patience, service, np.array(leave),
            np.array(served, dtype=bool))


def run(cfg: SimConfig, replication_index: int = 0, arrival_times=None) -> list[SystemSnapshot]:
    """One replication; identical (config, seed, index) gives identical snapshots.

    arrival_times, when given, replaces the renewal stream with an explicit
    schedule (deterministic trace runs).
    """
    done0, waiting0, arrival, patience, service, leave, served = _customers(
        cfg, replication_index, arrival_times)
    done = leave + service
    snaps = []
    for t in cfg.snapshot_times:
        waiting = (arrival <= t) & (t < leave)
        residual = patience[waiting] - (t - arrival[waiting])
        queue = int(np.count_nonzero(residual > 0.0))
        busy = np.concatenate((done[served & (leave <= t) & (t < done)], done0[done0 > t]))
        snaps.append(SystemSnapshot(
            time=t,
            buffer_measure=TailMeasure.from_samples(residual, 1.0),
            server_measure=TailMeasure.from_samples(busy - t, 1.0),
            queue_size=queue,
            virtual_size=residual.size,
            busy_servers=busy.size,
            system_size=queue + busy.size,
            abandoned=int(np.count_nonzero(~served & (leave <= t))) + residual.size - queue,
            completed=int(np.count_nonzero(served & (done <= t)) + np.count_nonzero(done0 <= t)),
            arrivals=int(np.count_nonzero(arrival[waiting0:] <= t)),
            left_buffer=int(np.count_nonzero(leave <= t)),
            initial_virtual=waiting0,
            initial_busy=done0.size,
        ))
    return snaps


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
