import heapq
import math
from dataclasses import fields

import numpy as np
import pytest

from fluidq.distributions import Deterministic, Exponential, HyperExponential, LogNormal, Uniform
from fluidq.equilibrium import equilibrium_state
from fluidq.fluid import (EquilibriumShaped, FluidConfig, InitialCondition,
                          ServiceComplementShaped, TabulatedProfile, solve, validate_initial)
from fluidq.measures import TailMeasure, sup_distance
from fluidq.simulator import (
    SimConfig,
    SystemSnapshot,
    _customers,
    compare_to_fluid,
    fluid_scale,
    gc_diagnostic,
    run,
)


def _mmnm_config(n, lam=1.2, mu=1.0, alpha=1.0, snapshots=(5.0, 10.0), seed=99, initial=None):
    return SimConfig(
        num_servers=n,
        interarrival=Exponential(n * lam),
        patience=Exponential(alpha),
        service=Exponential(mu),
        snapshot_times=snapshots,
        seed=seed,
        initial=initial,
    )


# ---------------------------------------------------------------- hand traces

def test_hand_trace_busy_then_idle():
    cfg = SimConfig(
        num_servers=1,
        interarrival=Deterministic(1.0),   # arrivals at 1, 2, 3, ...
        patience=Deterministic(10.0),
        service=Deterministic(0.5),
        snapshot_times=(1.2, 1.6),
    )
    first, second = run(cfg)
    assert (first.busy_servers, first.queue_size, first.virtual_size) == (1, 0, 0)
    assert second.busy_servers == 0
    assert second.completed == 1


def test_hand_trace_virtual_buffer_abandonment():
    cfg = SimConfig(
        num_servers=1,
        interarrival=Deterministic(1.0),  # unused: explicit schedule below
        patience=Deterministic(0.5),
        service=Deterministic(1.0),
        snapshot_times=(1.8, 2.05),
    )
    at_18, at_205 = run(cfg, arrival_times=[1.0, 1.2])
    # customer 2 has expired (residual -0.1) but still occupies the virtual buffer
    assert at_18.queue_size == 0
    assert at_18.virtual_size == 1
    assert at_18.busy_servers == 1
    assert at_18.abandoned == 1
    assert at_18.buffer_measure.tail_at(0.0) == 0.0
    assert at_18.buffer_measure.total == 1.0
    # at 2.0 the server frees and releases the expired customer unserved
    assert at_205.virtual_size == 0
    assert at_205.abandoned == 1
    assert at_205.completed == 1
    assert at_205.busy_servers == 0


def test_empty_system_stays_empty():
    cfg = SimConfig(
        num_servers=2,
        interarrival=Deterministic(50.0),  # first arrival after the last snapshot
        patience=Exponential(1.0),
        service=Exponential(1.0),
        snapshot_times=(2.0, 10.0),
    )
    for snap in run(cfg):
        assert (snap.system_size, snap.arrivals, snap.completed, snap.abandoned) == (0, 0, 0, 0)


# ---------------------------------------------------------------- invariants

def test_policy_constraints_and_conservation():
    cfg = _mmnm_config(5, lam=1.6, snapshots=tuple(np.arange(0.5, 10.5, 0.5)))
    for snap in run(cfg):
        n = cfg.num_servers
        x = snap.system_size
        assert snap.queue_size == max(x - n, 0)
        assert snap.busy_servers == min(x, n)
        in_flight = snap.busy_servers + snap.queue_size
        accounted = in_flight + snap.completed + snap.abandoned
        assert snap.arrivals + snap.initial_virtual + snap.initial_busy == accounted
        # virtual-buffer law: R = R(0) + E - (customers released from the buffer)
        assert snap.virtual_size == snap.initial_virtual + snap.arrivals - snap.left_buffer


def test_waiting_customers_leave_no_server_idle_from_a_nearly_full_start():
    # busy mass 1 - 5e-10 passes validation next to a positive queue and seeds floor(n z)
    # = n - 1 busy servers; the idle one must take the buffer's head, not the next arrival
    fc = FluidConfig(arrival_rate=1.5, patience=Exponential(1.0), service=Exponential(1.0))
    init = validate_initial(fc, InitialCondition(0.5, EquilibriumShaped(1.0 - 5e-10)))
    n = 200
    cfg = _mmnm_config(n, lam=1.5, snapshots=np.arange(9) * 0.25, initial=init)
    snaps = run(cfg)
    assert snaps[0].initial_virtual == 100 and snaps[0].initial_busy == n - 1
    for snap in snaps:
        assert snap.queue_size == 0 or snap.busy_servers == n, snap.time


def test_fcfs_service_starts_are_ordered():
    cfg = _mmnm_config(3, lam=2.0, snapshots=(10.0,))
    _, _, arrival, _, _, leave, served = _customers(cfg, 0)
    started = list(zip(arrival[served], leave[served]))  # (arrival, start) per start, FIFO
    snap = run(cfg)[0]
    assert snap.abandoned > 0  # customers reneged while others waited
    assert sum(s > a for a, s in started) > 10  # and many started after a wait
    arrivals = [a for a, _ in started]
    starts = [s for _, s in started]
    assert arrivals == sorted(arrivals)  # service in order of arrival
    assert starts == sorted(starts)
    assert all(a <= s for a, s in started)


def test_completion_heap_holds_exactly_the_busy_servers():
    patience, service = HyperExponential((0.4, 0.6), (0.5, 2.0)), LogNormal.from_mean_cv(1.0, 1.0)
    _, init = _equilibrium_start(1.5, patience, service)
    n = 40
    cfg = SimConfig(n, Exponential(n * 1.5), patience, service,
                    snapshot_times=tuple(np.arange(13) * 0.25), seed=8, initial=init)
    done0, _, _, _, service, leave, served = _customers(cfg, 0)
    starts = np.concatenate((np.zeros(done0.size), leave[served]))
    ends = np.concatenate((done0, (leave + service)[served]))
    for t, snap in zip(cfg.snapshot_times, run(cfg)):
        busy = ends[(starts <= t) & (t < ends)]  # completion times of the servers busy at t
        # idle: the servers not seeded busy, plus those freed, less those taken
        idle = (n - done0.size + np.count_nonzero(ends <= t)
                - np.count_nonzero(starts[done0.size:] <= t))
        assert len(busy) == snap.busy_servers == n - idle
        assert all(done > t for done in busy)



def _mask_snapshots(cfg, replication_index=0, arrival_times=None):
    """An earlier engine, kept as an oracle: the recursion with Python's max and a served
    list, then each snapshot as full-length masks over the per-customer arrays."""
    done0, waiting0, arrival, patience, service, _, _ = _customers(
        cfg, replication_index, arrival_times)
    free = [0.0] * (cfg.num_servers - done0.size) + sorted(done0.tolist())
    leave, served = [], []
    for a, p, s in zip(arrival.tolist(), patience.tolist(), service.tolist()):
        w = free[0]
        served.append(w <= a or p > w - a)
        if served[-1]:
            w = max(a, w)
            heapq.heapreplace(free, w + s)
        leave.append(w)
    leave, served = np.array(leave), np.array(served, dtype=bool)
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
    return leave, served, snaps


def _slice_cases():
    lam, hyper = 1.5, HyperExponential((0.4, 0.6), (0.5, 2.0))
    lognormal = LogNormal.from_mean_cv(1.0, 1.0)
    fc = FluidConfig(arrival_rate=lam, patience=Exponential(1.0), service=lognormal)
    complement = validate_initial(fc, InitialCondition(0.5, ServiceComplementShaped(1.0)))
    times = tuple(np.arange(17) * 0.25)
    yield "empty", _mmnm_config(5, lam=1.6, snapshots=tuple(np.arange(21) * 0.5)), None
    yield "equilibrium-hyperexp", SimConfig(
        40, Exponential(40 * lam), hyper, lognormal, snapshot_times=times,
        seed=8, initial=_equilibrium_start(lam, hyper, lognormal)[1]), None
    yield "r0-service-complement", SimConfig(
        60, Exponential(60 * lam), Exponential(1.0), lognormal,
        snapshot_times=times, seed=2, initial=complement), None
    # repeated times, times equal to snapshot times, and -0.0, which Python's max keeps
    # as the leaving time where np.maximum gives 0.0
    schedule = [-0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.25, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.5]
    yield "schedule", SimConfig(
        2, Exponential(1.0), Deterministic(0.75), Deterministic(1.0),
        snapshot_times=(0.0, 0.5, 1.0, 1.25, 2.0, 2.75, 3.0, 4.0), seed=3), schedule
    # deterministic arrivals and service: departures and starts land on snapshot times
    yield "deterministic-service", SimConfig(
        3, Deterministic(0.25), Exponential(1.0), Deterministic(1.0),
        snapshot_times=tuple(np.arange(33) * 0.25), seed=6), None


@pytest.mark.parametrize("case", ["empty", "equilibrium-hyperexp", "r0-service-complement",
                                  "schedule", "deterministic-service"])
def test_snapshot_slices_equal_the_masks(case):
    cfg, schedule = next(rest for name, *rest in _slice_cases() if name == case)
    for index in range(2):
        leave, served, want = _mask_snapshots(cfg, index, schedule)
        *_, got_leave, got_served = _customers(cfg, index, schedule)
        assert np.all(np.diff(got_leave) >= 0.0)  # what makes a slice of every snapshot
        assert np.array_equal(got_leave, leave) and np.array_equal(got_served, served)
        got = run(cfg, index, schedule)
        assert len(got) == len(want) == len(cfg.snapshot_times)
        for g, w in zip(got, want):
            for field in fields(SystemSnapshot):
                a, b = getattr(g, field.name), getattr(w, field.name)
                if isinstance(b, TailMeasure):
                    assert a.grid.tobytes() == b.grid.tobytes(), (g.time, field.name)
                    assert a.tails.tobytes() == b.tails.tobytes(), (g.time, field.name)
                    assert a.total == b.total, (g.time, field.name)
                else:
                    assert type(a) is type(b) and a == b, (g.time, field.name, a, b)

def test_determinism_same_seed_and_index():
    cfg = _mmnm_config(4, snapshots=(1.0, 5.0, 10.0))
    a = run(cfg, replication_index=3)
    b = run(cfg, replication_index=3)
    for s1, s2 in zip(a, b):
        assert s1.time == s2.time
        assert (s1.queue_size, s1.virtual_size, s1.busy_servers) == \
               (s2.queue_size, s2.virtual_size, s2.busy_servers)
        assert (s1.abandoned, s1.completed, s1.arrivals) == (s2.abandoned, s2.completed, s2.arrivals)
        np.testing.assert_array_equal(s1.buffer_measure.grid, s2.buffer_measure.grid)
        np.testing.assert_array_equal(s1.server_measure.tails, s2.server_measure.tails)


def test_replications_have_independent_streams():
    cfg = _mmnm_config(4, snapshots=(10.0,))
    reps = [run(cfg, i) for i in range(3)]
    assert len(reps) == 3
    sizes = {rep[0].arrivals for rep in reps}
    assert len(sizes) > 1  # streams differ across replication indices


# ---------------------------------------------------------------- scaling

def test_fluid_scale_examples():
    cfg = _mmnm_config(100, lam=1.0, snapshots=(5.0,))
    snap = run(cfg)[0]
    scaled = fluid_scale(snap, 100)
    assert scaled.busy_servers == pytest.approx(snap.busy_servers / 100.0)
    assert scaled.server_measure.total == pytest.approx(snap.server_measure.total / 100.0)

    zero = run(SimConfig(1, Deterministic(99.0), Exponential(1.0), Exponential(1.0),
                         snapshot_times=(1.0,)))[0]
    zs = fluid_scale(zero, 1)
    assert zs.system_size == 0.0 and zs.buffer_measure.total == 0.0

    emp = TailMeasure.from_samples(np.linspace(0.1, 5.0, 50), 1.0)
    assert emp.scaled(1.0 / 100).total == pytest.approx(0.5)


def _equilibrium_start(lam, patience, service):
    """The equilibrium state and the validated fluid start state it gives."""
    state = equilibrium_state(lam, patience, service)
    fc = FluidConfig(arrival_rate=lam, patience=patience, service=service)
    return state, validate_initial(fc, state.initial_condition())


def test_fluid_matched_initialization_counts():
    state, init = _equilibrium_start(1.2, Exponential(1.0), Exponential(1.0))
    n = 50
    cfg = _mmnm_config(n, snapshots=(0.0, 5.0), initial=init)
    at_zero = run(cfg)[0]
    assert at_zero.busy_servers == int(np.floor(n * state.busy_mass))
    assert at_zero.virtual_size == int(np.floor(n * state.virtual_mass))
    assert at_zero.queue_size <= at_zero.virtual_size


def test_seeded_completions_are_positive_quantiles_of_the_exact_law():
    service = LogNormal.from_mean_cv(1.0, 1.0)
    _, init = _equilibrium_start(1.5, Exponential(1.0), service)
    n = 400
    cfg = SimConfig(n, Exponential(n * 1.5), Exponential(1.0), service,
                    snapshot_times=(1.0,), initial=init)
    done = np.sort(_customers(cfg, 0)[0])
    assert done.size == n and done[0] > 0.0
    assert done[-1] > 1.0  # not clamped to a probe range
    np.testing.assert_allclose(service.equilibrium_cdf(done), (np.arange(n) + 0.5) / n,
                               rtol=0.0, atol=1e-12)


def test_seeded_buffer_arrived_in_order_over_the_offered_wait():
    state, init = _equilibrium_start(1.5, Exponential(1.0), Exponential(1.0))
    assert init.wait0 == pytest.approx(state.offered_wait, rel=1e-12)
    arrival = _customers(_mmnm_config(400, lam=1.5, initial=init), 0)[2]
    arrivals = arrival[:np.count_nonzero(arrival <= 0.0)]  # from the FIFO head
    assert arrivals.size == int(np.floor(400 * init.virtual0)) > 0
    assert -init.wait0 <= arrivals[0] and arrivals[-1] <= 0.0
    assert np.all(np.diff(arrivals) > 0.0)


def test_tabulated_profile_with_mass_past_its_grid_seeds_at_the_grid_end():
    grid = np.linspace(0.0, 2.0, 2001)
    table = TailMeasure(grid, 1.0 - 0.3 * grid, 1.0, "linear")  # mass 0.4 lies past x = 2
    fc = FluidConfig(arrival_rate=1.2, patience=Exponential(1.0), service=Exponential(1.0))
    init = validate_initial(fc, InitialCondition(0.0, TabulatedProfile(table)))
    n = 50
    done = np.sort(_customers(_mmnm_config(n, initial=init), 0)[0])
    levels = 1.0 - (np.arange(n) + 0.5) / n
    below = levels < table.tails[-1]  # the last 20 levels
    assert below.sum() == 20
    np.testing.assert_allclose(done[below], grid[-1], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(table.tail_at(done[~below]), levels[~below], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [400, 1600])
def test_equilibrium_start_keeps_the_scaled_queue_at_its_fluid_value(n):
    state, init = _equilibrium_start(1.5, Exponential(1.0), Exponential(1.0))
    cfg = _mmnm_config(n, lam=1.5, snapshots=np.arange(9) * 0.25, initial=init)
    queue = [[fluid_scale(s, n).queue_size for s in run(cfg, i)] for i in range(8)]
    gap = np.abs(np.mean(queue, axis=0) - state.queue_mass)
    assert float(np.max(gap)) <= 0.05, gap


# ---------------------------------------------------------------- stream

def _residual_sum(measure):
    """Exact sum of the residuals behind an empirical tail: grid value times count."""
    counts = -np.diff(np.concatenate(([measure.total], measure.tails)))
    return math.fsum(measure.grid * counts)


def _pins(snaps):
    return [((s.queue_size, s.virtual_size, s.busy_servers, s.abandoned, s.completed,
              s.arrivals), _residual_sum(s.buffer_measure).hex(),
             _residual_sum(s.server_measure).hex()) for s in snaps]


def test_stream_is_pinned_for_an_equilibrium_start():
    # pinned values: a change in the order or the arithmetic of any draw, seeding or
    # per arrival, moves a count or a last bit here
    patience, service = HyperExponential((0.4, 0.6), (0.5, 2.0)), LogNormal.from_mean_cv(1.0, 1.0)
    _, init = _equilibrium_start(1.5, patience, service)
    cfg = SimConfig(30, Exponential(30 * 1.5), patience, service,
                    snapshot_times=(0.0, 1.0, 3.0), seed=17, initial=init)
    assert [_pins(run(cfg, i)) for i in range(2)] == [
        [((10, 13, 30, 3, 0, 0), "0x1.53488149e776dp+2", "0x1.d1b4cb7d6d5bbp+4"),
         ((14, 21, 30, 22, 30, 53), "0x1.13e42698f8110p+3", "0x1.1bb01802e8be4p+5"),
         ((10, 13, 30, 64, 88, 149), "0x1.caed9e8d79b16p+2", "0x1.219dfc56df62fp+5")],
        [((12, 13, 30, 1, 0, 0), "0x1.7a26ecbe041e5p+3", "0x1.d1b4cb7d6d5bbp+4"),
         ((17, 22, 30, 21, 30, 55), "0x1.24588decf7a32p+4", "0x1.7ab4062dbae41p+4"),
         ((8, 9, 30, 50, 95, 140), "0x1.1bbb2fab9a039p+3", "0x1.079346d9676aap+5")],
    ]


def test_stream_is_pinned_across_draw_blocks():
    # ~3000 arrivals per replication: arrival times carry over a 2048-row block boundary
    n = 400
    cfg = SimConfig(n, Exponential(n * 1.5), Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0),
                    snapshot_times=(1.0, 3.0, 5.0), seed=23)
    assert [_pins(run(cfg, i)) for i in range(2)] == [
        [((4, 4, 400, 0, 185, 589), "0x1.c5a9c82cff048p+1", "0x1.4b20b44836cb8p+8"),
         ((198, 235, 400, 197, 1009, 1804), "0x1.b5f81a239f19fp+7", "0x1.6634ab6474418p+8"),
         ((180, 235, 400, 561, 1859, 3000), "0x1.6922d8be77964p+7", "0x1.9595699fa4564p+8")],
        [((0, 0, 366, 0, 187, 553), "0x0.0p+0", "0x1.5b22aa0bb132fp+8"),
         ((161, 181, 400, 149, 1004, 1714), "0x1.519d86a59d1a7p+7", "0x1.7121067e89087p+8"),
         ((202, 251, 400, 521, 1813, 2936), "0x1.6c64656b88201p+7", "0x1.5fe11ea019807p+8")],
    ]


def test_equilibrium_start_seeds_the_exact_buffer_count():
    # n R_inf = 30 in exact arithmetic; a root one float low seeded 29
    _, init = _equilibrium_start(1.5, Uniform(0.0, 2.0), Exponential(1.0))
    cfg = SimConfig(30, Exponential(30 * 1.5), Uniform(0.0, 2.0), Exponential(1.0),
                    snapshot_times=(0.0,), initial=init)
    assert run(cfg)[0].initial_virtual == 30


def test_stream_is_pinned_for_an_arrival_schedule():
    patience, service = HyperExponential((0.4, 0.6), (0.5, 2.0)), LogNormal.from_mean_cv(1.0, 1.0)
    cfg = SimConfig(3, Exponential(1.0), patience, service, snapshot_times=(2.0, 6.0), seed=5)
    assert _pins(run(cfg, arrival_times=np.linspace(0.05, 5.9, 40))) == [
        ((5, 5, 3, 1, 5, 14), "0x1.ec36d6d80d70ep+1", "0x1.c976fe3f14c23p+1"),
        ((1, 1, 3, 15, 21, 40), "0x1.9942dbd5828a0p+0", "0x1.2d7c85bb16411p+2"),
    ]


def _snapshot_values(snap):
    return ((snap.time, snap.queue_size, snap.virtual_size, snap.busy_servers, snap.abandoned,
             snap.completed, snap.arrivals, snap.left_buffer),
            [(m.grid.tolist(), m.tails.tolist(), m.total)
             for m in (snap.buffer_measure, snap.server_measure)])


def test_negative_schedule_times_are_rejected():
    # the servers are free from 0, so a customer arrived before 0 has no server to take it
    cfg = SimConfig(1, Deterministic(1.0), Deterministic(0.5), Deterministic(1.0),
                    snapshot_times=(0.0, 2.0))
    with pytest.raises(ValueError, match="nonnegative"):
        run(cfg, arrival_times=[-1.0, 0.2])
    assert run(cfg, arrival_times=[0.0, 0.2])[-1].completed == 1


@pytest.mark.parametrize("t", [math.inf, math.nan, -0.5])
def test_snapshot_times_must_be_finite_and_nonnegative(t):
    # the run ends at the last snapshot time: at inf the renewal stream would never end
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SimConfig(1, Exponential(1.0), Exponential(1.0), Exponential(1.0),
                  snapshot_times=(0.0, t))


def test_arrival_schedule_is_taken_in_time_order():
    cfg = SimConfig(3, Exponential(1.0), Exponential(1.0), Exponential(0.8),
                    snapshot_times=(1.0, 2.5, 6.0), seed=11)
    schedule = np.concatenate((np.linspace(0.05, 5.9, 40), [1.7, 1.7, 3.0]))
    shuffled = np.random.default_rng(4).permutation(schedule)
    assert not np.all(np.diff(shuffled) >= 0.0)
    expected = [_snapshot_values(s) for s in run(cfg, arrival_times=np.sort(schedule))]
    assert [_snapshot_values(s) for s in run(cfg, arrival_times=shuffled)] == expected
    assert expected[-1][0][6] == schedule.size


# ---------------------------------------------------------------- comparison

def test_compare_to_fluid_deterministic_rows():
    lam = 1.2
    fc = FluidConfig(arrival_rate=lam, patience=Exponential(1.0), service=Exponential(1.0),
                     horizon=4.0, dt=1e-3)
    sol = solve(fc)
    probes = np.linspace(-4.0, 4.0, 65)
    cfg = _mmnm_config(10, snapshots=(2.0, 4.0))
    scaled = [[fluid_scale(s, 10) for s in run(cfg, i)] for i in range(2)]
    profiles = sol.profiles([2.0, 4.0], probes)
    c1 = np.array([compare_to_fluid(rep, sol, profiles) for rep in scaled])
    c2 = np.array([compare_to_fluid(rep, sol, profiles) for rep in scaled])
    np.testing.assert_array_equal(c1, c2)
    assert c1.shape == (2, 4, 2)   # (replication, gap, time)
    for j, (snap, fluid, k) in enumerate(zip(scaled[0], profiles, (2000, 4000))):
        assert c1[0, :, j].tolist() == [
            sup_distance(snap.buffer_measure, fluid.buffer, probes),
            sup_distance(snap.server_measure, fluid.server, probes),
            abs(snap.queue_size - sol.queue[k]), abs(snap.busy_servers - sol.busy[k])]
    with pytest.raises(ValueError, match="one fluid profile per snapshot time"):
        compare_to_fluid(scaled[0], sol, profiles[:1])


def test_compare_to_fluid_rejects_off_grid_snapshots():
    fc = FluidConfig(arrival_rate=1.0, patience=Exponential(1.0), service=Exponential(1.0),
                     horizon=4.0, dt=1e-3)
    sol = solve(fc)
    cfg = _mmnm_config(5, snapshots=(1.00037,))
    scaled = [fluid_scale(s, 5) for s in run(cfg)]
    probes = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(ValueError, match="grid"):
        compare_to_fluid(scaled, sol, sol.profiles([1.0], probes))


def test_compare_handles_atomic_distributions():
    # deterministic service and arrivals at n=1: step tails everywhere, no crash
    fc = FluidConfig(arrival_rate=0.8, patience=Exponential(1.0), service=Exponential(1.0),
                     horizon=4.0, dt=1e-3)
    sol = solve(fc)
    cfg = SimConfig(1, Deterministic(1.0), Deterministic(10.0), Deterministic(0.5),
                    snapshot_times=(2.0, 4.0))
    scaled = [fluid_scale(s, 1) for s in run(cfg)]
    probes = np.linspace(-4.0, 4.0, 65)
    gaps = compare_to_fluid(scaled, sol, sol.profiles([2.0, 4.0], probes))
    assert np.all(np.isfinite(gaps[0]))
    assert np.all(np.isfinite(gaps[1]))


# ---------------------------------------------------------------- empirical diagnostic

def test_gc_diagnostic_deterministic_is_exact():
    assert gc_diagnostic(Deterministic(2.0), 1000, seed=4) == 0.0


def test_gc_diagnostic_ks_bound():
    stat = gc_diagnostic(Exponential(1.0), 10_000, seed=5)
    assert stat <= 1.36 / np.sqrt(10_000)


def test_gc_diagnostic_decreases_with_sample_count():
    small = gc_diagnostic(Uniform(0.0, 2.0), 100, seed=6)
    large = gc_diagnostic(Uniform(0.0, 2.0), 10_000, seed=6)
    assert large < small


def test_gc_diagnostic_requires_enough_samples():
    with pytest.raises(ValueError):
        gc_diagnostic(Exponential(1.0), 50, seed=0)
