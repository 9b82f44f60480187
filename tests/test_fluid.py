import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from fluidq import fluid
from fluidq.distributions import Exponential, HyperExponential, LogNormal, Uniform
from fluidq.equilibrium import equilibrium_state
from fluidq.expode import ExpOdeConfig, integrate
from fluidq.fluid import (
    EMPTY_SERVERS,
    EquilibriumShaped,
    FluidConfig,
    InitialCondition,
    InvalidInitialError,
    TabulatedProfile,
    ValidatedInitial,
    check_queue_drain_monotone,
    fixed_point_residual,
    initial_load,
    solve,
    survival_at_offered_wait,
    validate_initial,
)
from fluidq.measures import TailMeasure, sup_distance

LN2 = math.log(2.0)


def _cfg(lam, patience, service, horizon=10.0, dt=1e-3):
    return FluidConfig(arrival_rate=lam, patience=patience, service=service,
                       horizon=horizon, dt=dt)


# ---------------------------------------------------------------- initial conditions

def test_validate_initial_empty():
    cfg = _cfg(1.0, Exponential(1.0), Exponential(1.0))
    v = validate_initial(cfg, InitialCondition())
    assert (v.queue0, v.busy0, v.system0) == (0.0, 0.0, 0.0)


def test_validate_initial_equilibrium_case():
    cfg = _cfg(1.2, Exponential(1.0), Exponential(1.0))
    init = InitialCondition(virtual_buffer_mass=1.2 * math.log(1.2),
                            server_profile=EquilibriumShaped(1.0))
    v = validate_initial(cfg, init)
    assert v.queue0 == pytest.approx(0.2, abs=1e-12)
    assert v.busy0 == 1.0


def test_validate_initial_rejects_queue_without_full_servers():
    cfg = _cfg(1.0, Exponential(1.0), Exponential(1.0))
    init = InitialCondition(virtual_buffer_mass=1.0, server_profile=EMPTY_SERVERS)
    with pytest.raises(InvalidInitialError, match="queue positive but servers not full"):
        validate_initial(cfg, init)


@pytest.mark.parametrize("r0", [math.inf, math.nan])
def test_validate_initial_rejects_a_virtual_buffer_mass_that_is_not_finite(r0):
    # an infinite buffer holds the largest queue, lambda N_F, which no offered wait reaches
    cfg = _cfg(1.5, Exponential(1.0), Exponential(1.0))
    init = InitialCondition(r0)
    with pytest.raises(InvalidInitialError, match="virtual buffer mass must be finite"):
        validate_initial(cfg, init)
    with pytest.raises(InvalidInitialError, match="virtual buffer mass must be finite"):
        solve(cfg, init)


def test_validate_initial_rejects_atom_at_zero():
    cfg = _cfg(1.0, Exponential(1.0), Exponential(1.0))
    jumpy = TailMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.4]), 0.9, "linear")
    init = InitialCondition(server_profile=TabulatedProfile(jumpy))
    with pytest.raises(InvalidInitialError, match="atom at zero"):
        validate_initial(cfg, init)


def test_validate_initial_accepts_smooth_tabulated_profile():
    cfg = _cfg(1.0, Exponential(1.0), Exponential(1.0))
    # tables must resolve mass at dt scale: max tail drop <= dt * total
    grid = np.linspace(0.0, 12.0, 24001)
    profile = TailMeasure(grid, 0.8 * np.exp(-grid), 0.8, "linear")
    v = validate_initial(cfg, InitialCondition(server_profile=TabulatedProfile(profile)))
    assert v.busy0 == pytest.approx(0.8, abs=1e-12)


# ---------------------------------------------------------------- survival map

def test_survival_map_examples():
    assert survival_at_offered_wait(2.0, Exponential(1.0), 1.0) == pytest.approx(0.5, abs=1e-12)
    for patience in (Exponential(1.0), Uniform(0.0, 2.0)):
        assert survival_at_offered_wait(2.0, patience, 2.0) == 0.0
        assert survival_at_offered_wait(2.0, patience, 0.0) == 1.0


def test_survival_map_exponential_closed_form():
    # for exponential patience the map is linear: 1 - alpha q / lambda, and it
    # reaches 0 at q = lambda / alpha, beyond lambda when the mean patience exceeds 1
    for lam, alpha in ((2.0, 1.0), (1.0, 0.5)):
        for q in np.linspace(0.0, 0.95 * lam / alpha, 25):
            expected = 1.0 - alpha * q / lam
            assert survival_at_offered_wait(lam, Exponential(alpha), float(q)) == pytest.approx(
                expected, abs=1e-12)


def test_survival_map_nonincreasing():
    lam = 1.5
    for patience in (Exponential(0.7), Uniform(0.0, 2.0), LogNormal.from_mean_cv(1.0, 1.0)):
        vals = [survival_at_offered_wait(lam, patience, q) for q in np.linspace(0.0, 2.0, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- initial load

def test_initial_load_examples():
    cfg = _cfg(1.0, Exponential(1.0), Exponential(1.0))
    empty = validate_initial(cfg, InitialCondition())
    assert initial_load(cfg, empty, 3.7) == 0.0

    half_queue = ValidatedInitial(virtual0=0.0, wait0=0.0, queue0=0.5, busy0=0.0,
                                  server_profile=EMPTY_SERVERS)
    assert initial_load(cfg, half_queue, LN2) == pytest.approx(0.25, abs=1e-12)

    eq = ValidatedInitial(virtual0=0.0, wait0=0.0, queue0=0.0, busy0=1.0,
                          server_profile=EquilibriumShaped(1.0))
    assert initial_load(cfg, eq, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    # at t=0 the initial load is the initial system mass
    assert initial_load(cfg, eq, 0.0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- solve

def test_solve_underloaded_closed_form():
    sol = solve(_cfg(0.8, Exponential(1.0), Exponential(1.0)))
    expected = 0.8 * (1.0 - np.exp(-sol.times))
    assert float(np.max(np.abs(sol.system - expected))) <= 1e-3


def test_solve_equilibrium_start_stays_constant():
    state = equilibrium_state(1.2, Exponential(1.0), Exponential(1.0))
    sol = solve(_cfg(1.2, Exponential(1.0), Exponential(1.0)), state.initial_condition())
    assert float(np.max(np.abs(sol.system - sol.system[0]))) <= 1e-3


def test_solve_overloaded_reaches_stationary_point():
    sol = solve(_cfg(2.0, Exponential(2.0), Exponential(1.0)))
    assert sol.system[-1] == pytest.approx(1.5, abs=2e-3)


def test_solve_equilibrium_with_bounded_patience_support():
    # Uniform(0,2) patience, rho=2: w=1, Q_inf = 2*(1 - 1/4) = 1.5
    lam, patience, service = 2.0, Uniform(0.0, 2.0), Exponential(1.0)
    state = equilibrium_state(lam, patience, service)
    assert state.queue_mass == pytest.approx(1.5, abs=1e-9)
    sol = solve(_cfg(lam, patience, service, horizon=4.0), state.initial_condition())
    assert float(np.max(np.abs(sol.system - sol.system[0]))) <= 1e-3


def test_solve_with_hyperexponential_patience_uses_generic_inverse():
    from fluidq.distributions import HyperExponential

    patience = HyperExponential((0.4, 0.6), (0.5, 2.0))
    sol = solve(_cfg(1.5, patience, Exponential(1.0), horizon=2.0))
    assert float(np.min(np.diff(sol.scheduled))) >= -1e-12
    assert fixed_point_residual(sol) <= 2e-10


def test_solve_policy_constraints_hold_exactly():
    sol = solve(_cfg(2.0, Exponential(2.0), Exponential(1.0), horizon=2.0))
    np.testing.assert_array_equal(sol.queue, np.maximum(sol.system - 1.0, 0.0))
    np.testing.assert_array_equal(sol.busy, np.minimum(sol.system, 1.0))


def test_solve_structural_invariants():
    for lam, patience in ((2.0, Exponential(2.0)), (1.2, Uniform(0.0, 2.0))):
        sol = solve(_cfg(lam, patience, Exponential(1.0), horizon=5.0))
        assert float(np.min(np.diff(sol.scheduled))) >= -1e-12
        tail_area = patience.mean
        assert float(np.max(sol.queue)) <= lam * tail_area + 1e-9


def test_solve_step_equation_has_a_unique_root():
    # g(w) = a F_d(w) - b sf(w) + (1 - base), and base does not depend on w: a
    # strictly increasing g has one root, so an accepted |g| of a few rounding errors pins it
    cfg = _cfg(2.0, Exponential(2.0), Exponential(1.0), horizon=3.0)
    sol = solve(cfg)
    inc_ge, inc_g = fluid._increments(cfg, sol.times)
    a = cfg.arrival_rate * (1.0 - inc_g[0])
    b = cfg.traffic_intensity * inc_ge[0]
    w = np.linspace(0.0, 2.0 * float(np.max(sol.virtual)) / cfg.arrival_rate, 1001)
    g = a * np.asarray(cfg.patience.integrated_sf(w)) - b * np.asarray(cfg.patience.sf(w))
    assert np.all(np.diff(g) > 0.0)
    assert sol.inner_iterations > 0 and sol.max_step_residual <= 1e-12


def test_fixed_point_residual_within_tolerance():
    cfg = _cfg(2.0, Exponential(2.0), Exponential(1.0), horizon=2.0)
    sol = solve(cfg)
    assert fixed_point_residual(sol) <= 2e-10


def test_fixed_point_residual_detects_a_perturbed_system_value():
    sol = solve(_cfg(2.0, Exponential(2.0), Exponential(1.0), horizon=2.0, dt=4e-3))
    system = sol.system.copy()
    system[300] += 1e-6
    assert fixed_point_residual(dataclasses.replace(sol, system=system)) > 1e-7


@pytest.mark.parametrize("patience", [Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0),
                                      HyperExponential((0.4, 0.6), (0.5, 2.0))],
                         ids=["exponential", "lognormal", "hyperexponential"])
def test_fixed_point_residual_matches_the_direct_history_sums(patience):
    service = LogNormal.from_mean_cv(1.0, 1.0)
    cfg = _cfg(1.5, patience, service, horizon=3.0, dt=2e-3)
    sol = solve(cfg)
    steps = sol.times.size - 1
    dge = np.diff(service.equilibrium_cdf(sol.times))
    dg = np.diff(service.cdf(sol.times))
    surv = survival_at_offered_wait(cfg.arrival_rate, patience, sol.queue)
    rhs = (initial_load(cfg, sol.initial, sol.times)[1:]
           + cfg.traffic_intensity * np.convolve(surv[1:], dge)[:steps]
           + np.convolve(sol.queue[1:], dg)[:steps])
    direct = float(np.max(np.abs(sol.system[1:] - rhs)))
    assert abs(fixed_point_residual(sol) - direct) <= 1e-14


def test_solve_reports_newton_diagnostics():
    cfg = _cfg(1.5, LogNormal.from_mean_cv(1.0, 1.0), Exponential(1.0), horizon=2.0, dt=4e-3)
    sol = solve(cfg)
    queued_steps = int(np.count_nonzero(sol.queue[1:] > 0.0))
    assert queued_steps > 0
    assert sol.inner_iterations >= queued_steps
    assert 0.0 < sol.max_step_residual <= 1e-12


PATIENCE_FAMILIES = {
    "exponential": Exponential(1.0),
    "uniform": Uniform(0.0, 2.0),
    "lognormal": LogNormal.from_mean_cv(1.0, 1.0),
    "hyperexponential": HyperExponential((0.4, 0.6), (0.5, 2.0)),
}


@pytest.mark.parametrize("start", ["empty", "equilibrium"])
@pytest.mark.parametrize("family", sorted(PATIENCE_FAMILIES))
def test_offered_wait_root_ties_queue_system_and_virtual_buffer(family, start):
    lam, patience, service = 1.5, PATIENCE_FAMILIES[family], Exponential(1.0)
    init = None
    if start == "equilibrium":
        init = equilibrium_state(lam, patience, service).initial_condition()
    sol = solve(_cfg(lam, patience, service, horizon=2.0, dt=4e-3), init)
    np.testing.assert_allclose(sol.queue,
                               lam * np.asarray(patience.integrated_sf(sol.virtual / lam)),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(sol.queue, np.maximum(sol.system - 1.0, 0.0))
    assert fixed_point_residual(sol) <= 2e-10


def test_newton_step_past_the_patience_support_end_converges():
    # Below lo the step equation's slope is lambda (1 - dG_0) alone, so the
    # first Newton step from a wait just under lo overshoots past hi, where
    # sf = pdf = 0 and g' vanishes; the bracket must take over.  On this
    # coarse grid a window's first sweep, built on extrapolated waits, also
    # pushes steps past hi; only settled bases may call that a violation.
    past_end = []

    class RecordingUniform(Uniform):
        def sf(self, x):
            past_end.extend(float(v) for v in np.ravel(x) if v > self.hi)
            return super().sf(x)

    lam, patience = 10.0, RecordingUniform(1.0, 1.2)
    cfg = _cfg(lam, patience, Exponential(1.0), horizon=2.0, dt=0.25)
    init = InitialCondition(virtual_buffer_mass=lam * 0.99, server_profile=EquilibriumShaped(1.0))
    sol = solve(cfg, init)
    assert past_end
    assert float(np.max(sol.virtual / lam)) <= patience.hi
    assert sol.max_step_residual <= 1e-12
    assert fixed_point_residual(sol) <= 2e-10


def test_newton_leaves_a_rootless_step_alone_until_the_bases_settle():
    # past Uniform(1, 1.2)'s support g is a N_F + 1 - base = 2.1 - base, so a
    # base of 3 has no root: _newton leaves that entry where it is, unevaluated, and
    # solves the other, whose g = w - 0.1 below lo takes one Newton step to its root
    patience = Uniform(1.0, 1.2)
    base = np.array([1.0, 3.0])
    w = np.array([0.5, 0.5])
    fd, sf = np.asarray(patience.integrated_sf(w)), np.asarray(patience.sf(w))
    assert fluid._newton(patience, 1.0, 0.1, base, w, fd, sf, np.arange(2)) == 2
    assert abs(fd[0] - 0.1 * sf[0]) <= 1e-12
    assert w[1] == 0.5


def test_solve_raises_when_a_settled_step_has_no_root():
    # a queue of 5 against lambda N_F = 1.1: the first step's base is about 6,
    # past g(inf) = a N_F + 1 under any sweep, so the settled sweep raises
    cfg = _cfg(1.0, Uniform(1.0, 1.2), Exponential(1.0), horizon=1.0, dt=0.01)
    init = ValidatedInitial(virtual0=0.0, wait0=0.0, queue0=5.0, busy0=1.0,
                            server_profile=EquilibriumShaped(1.0))
    with pytest.raises(fluid.InvariantViolationError,
                       match=r"N_F fails at t=0\.01 \(arrival_rate\*dt = 0\.01;"):
        solve(cfg, init)


def _per_step_oracle(cfg):
    """X from the fluid step equation solved one step at a time, each root by brentq."""
    lam, rho, patience = cfg.arrival_rate, cfg.traffic_intensity, cfg.patience
    steps = int(round(cfg.horizon / cfg.dt))
    times = np.arange(steps + 1) * cfg.dt
    dge = np.diff(cfg.service.equilibrium_cdf(times))
    dg = np.diff(cfg.service.cdf(times))
    load = initial_load(cfg, validate_initial(cfg, InitialCondition()), times)
    a, b = lam * (1.0 - dg[0]), rho * dge[0]
    x, queue, surv = np.zeros(steps + 1), np.zeros(steps + 1), np.zeros(steps + 1)
    for k in range(1, steps + 1):
        base = (load[k] + rho * np.dot(surv[1:k], dge[k - 1:0:-1])
                + np.dot(queue[1:k], dg[k - 1:0:-1]))

        def g(w):
            return a * patience.integrated_sf(w) + 1.0 - base - b * patience.sf(w)

        if g(0.0) >= 0.0:
            x[k], surv[k] = base + b * patience.sf(0.0), patience.sf(0.0)
            continue
        hi = 1.0
        while g(hi) < 0.0:
            hi *= 2.0
        w = brentq(g, 0.0, hi, xtol=1e-15)
        x[k] = 1.0 + lam * patience.integrated_sf(w)
        queue[k], surv[k] = x[k] - 1.0, patience.sf(w)
    return x


@pytest.mark.parametrize("patience, horizon", [
    (Exponential(1.0), 3.0), (LogNormal.from_mean_cv(1.0, 1.0), 3.0),
    (HyperExponential((0.4, 0.6), (0.5, 2.0)), 3.0), (LogNormal.from_mean_cv(1.0, 1.0), 4.8),
], ids=["exponential", "lognormal", "hyperexponential", "lognormal-nine-windows"])
def test_windowed_solve_matches_a_per_step_brentq_oracle(patience, horizon):
    # 750 steps: five full windows and a partial one; 1200 steps: nine full windows and a
    # partial one, where the 8-window square's outputs end clipped; the queue starts empty
    cfg = _cfg(1.5, patience, Exponential(1.0), horizon=horizon, dt=4e-3)
    sol = solve(cfg)
    assert sol.times.size - 1 > 4 * fluid._WINDOW
    assert float(np.max(np.abs(sol.system - _per_step_oracle(cfg)))) <= 1e-9


@pytest.mark.parametrize("lam, service", [(1.5, Exponential(0.5)),
                                           (10.0, LogNormal.from_mean_cv(1.0, 1.0))],
                         ids=["lambda-1.5", "lambda-10"])
@pytest.mark.parametrize("patience", [LogNormal.from_mean_cv(0.2, 3.0),
                                      HyperExponential((0.01, 0.99), (0.05, 20.0))],
                         ids=["lognormal-cv3", "hyperexponential-tail"])
def test_heavy_tailed_patience_solves_from_empty(lam, service, patience):
    # an extrapolated first sweep can ask a step for more queue than lambda N_F
    # allows; with no support end to stop at, such a step must wait for the next
    # sweep's bases rather than double its wait until the iteration cap
    cfg = _cfg(lam, patience, service, horizon=2.0, dt=0.01)
    sol = solve(cfg)
    assert float(np.max(np.abs(sol.system - _per_step_oracle(cfg)))) <= 1e-12
    assert fixed_point_residual(sol) <= 2e-10


# 8 windows fill the 4-window square exactly; one step more opens the 8-window square,
# whose outputs the horizon clips to that step; 13 1/3 windows clip it inside a window;
# 16 windows and a step fill it and open the 16-window square
@pytest.mark.parametrize("steps", [fluid._WINDOW // 2, fluid._WINDOW, fluid._WINDOW + 1,
                                   3 * fluid._WINDOW + fluid._WINDOW // 3, 8 * fluid._WINDOW,
                                   8 * fluid._WINDOW + 1,
                                   13 * fluid._WINDOW + fluid._WINDOW // 3,
                                   16 * fluid._WINDOW + 1])
def test_window_boundaries_keep_every_step_solved(steps):
    cfg = _cfg(1.5, LogNormal.from_mean_cv(1.0, 1.0), Exponential(1.0),
               horizon=steps * 0.01, dt=0.01)
    sol = solve(cfg)
    assert sol.times.size == steps + 1
    assert fixed_point_residual(sol) <= 2e-10
    assert sol.max_step_residual <= 1e-12


def test_long_horizon_solve_matches_the_exponential_ode():
    # 10^5 steps reach the deepest square, of 2^9 windows; criterion 1's bound
    cfg = _cfg(1.5, Exponential(1.0), Exponential(1.0), horizon=100.0)
    sol = solve(cfg)
    assert sol.times.size - 1 > 512 * fluid._WINDOW
    _, ode = integrate(ExpOdeConfig(1.0, 1.0, 1.5, horizon=100.0, dt=1e-3))
    assert float(np.max(np.abs(sol.system - ode))) <= 2e-3
    assert fixed_point_residual(sol) <= 2e-10


def test_grid_refinement_is_first_order():
    sols = {}
    for dt in (4e-3, 2e-3, 1e-3):
        sol = solve(_cfg(2.0, Exponential(2.0), Exponential(1.0), dt=dt))
        stride = int(round(4e-3 / dt))
        sols[dt] = sol.system[::stride]
    d1 = float(np.max(np.abs(sols[4e-3] - sols[2e-3])))
    d2 = float(np.max(np.abs(sols[2e-3] - sols[1e-3])))
    assert 1.5 <= d1 / d2 <= 2.5


# ---------------------------------------------------------------- measure profiles

def test_measures_at_empty_initial_time_zero():
    sol = solve(_cfg(1.0, Exponential(1.0), Exponential(1.0), horizon=1.0))
    profiles = sol.measures_at(0.0, np.linspace(-2.0, 2.0, 17))
    assert profiles.buffer.total == 0.0
    assert profiles.server.total == 0.0


def test_measures_at_matches_equilibrium_profiles():
    probes = np.linspace(-6.0, 8.0, 256)
    lam, patience, service = 1.2, Exponential(1.0), Exponential(1.0)
    state = equilibrium_state(lam, patience, service)
    sol = solve(_cfg(lam, patience, service, horizon=2.0), state.initial_condition())
    start = sol.measures_at(0.0, probes)
    for t in (1.0, 2.0):
        profiles = sol.measures_at(t, probes)
        assert sup_distance(profiles.buffer, start.buffer, probes) <= 1e-3
        assert sup_distance(profiles.server, start.server, probes) <= 1e-3


def test_measures_at_buffer_against_quadrature_oracle():
    lam, patience = 1.2, Uniform(0.0, 2.0)
    sol = solve(_cfg(lam, patience, Exponential(1.0), horizon=2.0))
    t = 2.0
    profiles = sol.measures_at(t, np.linspace(-3.0, 3.0, 61))
    wait = sol.virtual[sol.grid_index(t)] / lam
    for x in (-3.0, -1.0, -0.25, 0.0, 0.4, 1.3):
        u = np.linspace(0.0, wait, 20001)
        oracle = lam * np.trapezoid(np.asarray(patience.sf(x + u)), u)
        assert profiles.buffer.tail_at(x) == pytest.approx(float(oracle), abs=1e-9)
    # beyond the patience support the whole virtual buffer is counted
    assert profiles.buffer.tail_at(-2.5) == pytest.approx(sol.virtual[sol.grid_index(t)], abs=1e-12)


def _one_matrix_server_tails(sol, t, probes):
    """Server tails at t from one service.sf matrix over every probe."""
    cfg, k = sol.config, sol.grid_index(t)
    mids = 0.5 * (sol.times[:k] + sol.times[1 : k + 1])
    waits = 0.5 * (sol.virtual[:k] + sol.virtual[1 : k + 1]) / cfg.arrival_rate
    coeff = cfg.patience.sf(waits) * np.diff(sol.scheduled[: k + 1])
    total = (sol.initial.server_tail(cfg.service, t)
             + np.einsum("j,j->", cfg.service.sf(t - mids), coeff))
    tails = (sol.initial.server_tail(cfg.service, np.maximum(probes, 0.0) + t)
             + np.einsum("ij,j->i", cfg.service.sf(np.maximum(probes, 0.0)[:, None] + (t - mids)),
                         coeff))
    tails = np.where(probes <= 0.0, total, np.clip(tails, 0.0, total))
    return np.minimum.accumulate(tails)


def _record_sf_matrices(monkeypatch, law):
    """Shapes of the 2-d arrays passed to law.sf from now on."""
    shapes, sf = [], law.sf

    def recording_sf(self, x, out=None):
        if np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return sf(self, x, out=out)

    monkeypatch.setattr(law, "sf", recording_sf)
    return shapes


@pytest.mark.parametrize("service", [Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0)],
                         ids=["exp", "lognormal"])
def test_measures_at_memory_does_not_grow_with_the_horizon(service):
    # one reused 2 MiB block of service.sf plus a few vectors of the 30,000 lags: 2.8 MB
    # at H=30; a fresh block and its temporaries for each row block take 15-23 MB
    sol = solve(_cfg(1.5, Exponential(1.0), service, horizon=30.0))
    probes = np.linspace(-30.0, 30.0, 512)
    for build in (lambda: sol.measures_at(30.0, probes),
                  lambda: sol.profiles([15.0, 30.0], probes)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"{peak / 2**20:.1f} MB"


def test_measures_at_row_blocks_match_one_matrix(monkeypatch):
    sol = solve(_cfg(1.5, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0), horizon=2.0))
    probes = np.linspace(-1.0, 3.0, 41)  # 30 positive probes
    reference = _one_matrix_server_tails(sol, 2.0, probes)
    monkeypatch.setattr(fluid, "_PROFILE_CELLS", 1)  # the smallest blocks: 1 row
    shapes = _record_sf_matrices(monkeypatch, LogNormal)
    server = sol.measures_at(2.0, probes).server
    assert shapes == [(1, 2000)] * 30
    assert float(np.max(np.abs(server.tails - reference))) <= 1e-15


@pytest.mark.parametrize("rows", [1, 7, 29])
def test_profiles_bytes_do_not_depend_on_the_block_row_count(rows, monkeypatch):
    # each tail is one einsum over its own row, so the rows beside it change no bit
    sol = solve(_cfg(1.5, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0), horizon=2.0))
    probes = np.linspace(-1.0, 3.0, 41)  # 30 positive probes, one block by default
    default = sol.profiles([1.0, 2.0], probes)
    monkeypatch.setattr(fluid, "_PROFILE_CELLS", rows * 2000)
    for one, other in zip(default, sol.profiles([1.0, 2.0], probes)):
        assert np.array_equal(one.server.tails, other.server.tails)
        assert one.server.total == other.server.total


@pytest.mark.parametrize("probes", [np.linspace(-2.0, 0.0, 9), np.linspace(0.25, 2.0, 8),
                                    np.linspace(-2.0, 2.0, 17)],
                         ids=["nonpositive", "positive", "mixed"])
def test_measures_at_server_probe_sets(probes, monkeypatch):
    lam, patience, service = 1.5, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0)
    state = equilibrium_state(lam, patience, service)
    sol = solve(_cfg(lam, patience, service, horizon=1.0), state.initial_condition())
    reference = _one_matrix_server_tails(sol, 1.0, probes)
    shapes = _record_sf_matrices(monkeypatch, LogNormal)
    server = sol.measures_at(1.0, probes).server
    positive = int(np.sum(probes > 0.0))
    assert shapes == ([(positive, 1000)] if positive else [])  # no row for a probe <= 0
    assert np.all(server.tails[probes <= 0.0] == server.total)
    assert float(np.max(np.abs(server.tails - reference))) <= 1e-15


def test_solve_rejects_a_horizon_off_the_dt_grid():
    with pytest.raises(fluid.FluidModelError, match="horizon 1.0 is not on the grid of dt=0.3"):
        solve(_cfg(1.2, Exponential(1.0), Exponential(1.0), horizon=1.0, dt=0.3))


def test_measures_at_rejects_off_grid_times():
    sol = solve(_cfg(1.0, Exponential(1.0), Exponential(1.0), horizon=1.0))
    with pytest.raises(ValueError, match="grid"):
        sol.measures_at(0.00037, np.linspace(-1.0, 1.0, 9))


@pytest.mark.parametrize("service", [Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0)],
                         ids=["exp", "lognormal"])
@pytest.mark.parametrize("start", ["empty", "equilibrium"])
def test_profiles_match_one_matrix_at_every_time(service, start):
    lam, patience = 1.5, Exponential(1.0)
    init = (equilibrium_state(lam, patience, service).initial_condition()
            if start == "equilibrium" else None)
    sol = solve(_cfg(lam, patience, service, horizon=2.0), init)
    probes = np.linspace(-1.0, 3.0, 41)
    times = [1.5, 0.0, 2.0, 0.5, 1.5]  # unsorted, duplicated, with t = 0
    batch = sol.profiles(times, probes)
    assert len(batch) == len(times)
    for t, profiles in zip(times, batch):
        reference = _one_matrix_server_tails(sol, t, probes)
        assert float(np.max(np.abs(profiles.server.tails - reference))) <= 1e-15
        assert abs(profiles.server.total - reference[0]) <= 1e-15  # probe -1 reads the total
        assert profiles.buffer.total == sol.virtual[sol.grid_index(t)]


def test_profiles_build_one_sf_table_for_a_batch(monkeypatch):
    sol = solve(_cfg(1.5, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0), horizon=2.0))
    probes = np.linspace(-1.0, 3.0, 41)  # 30 positive probes
    times = np.round(np.arange(1, 11) * 0.2, 3)  # k = 200, 400, ..., 2000
    shapes = _record_sf_matrices(monkeypatch, LogNormal)
    sol.profiles(times, probes)
    assert shapes == [(30, 2000)]  # 30 x k_max cells, not 30 x sum(k) = 30 x 11000


@pytest.mark.parametrize("times", [[0.00037, 0.5], [0.5, 1.0, 0.00037]], ids=["first", "last"])
def test_profiles_reject_an_off_grid_time_before_any_sf_matrix(times, monkeypatch):
    sol = solve(_cfg(1.0, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0), horizon=1.0))
    shapes = _record_sf_matrices(monkeypatch, LogNormal)
    with pytest.raises(ValueError, match="grid"):
        sol.profiles(times, np.linspace(-1.0, 1.0, 9))
    assert shapes == []


# ---------------------------------------------------------------- drain monotonicity

def test_drain_monotone_underloaded_empty():
    sol = solve(_cfg(0.8, Exponential(1.0), Exponential(1.0), horizon=5.0))
    assert check_queue_drain_monotone(sol) <= 1e-12


def test_drain_monotone_overloaded():
    sol = solve(_cfg(2.0, Exponential(2.0), Exponential(1.0)))
    assert check_queue_drain_monotone(sol) <= 1e-6


def test_drain_check_reads_the_survival_the_bisection_gives():
    lam, patience = 1.5, LogNormal.from_mean_cv(1.0, 1.0)
    sol = solve(_cfg(lam, patience, Exponential(1.0), horizon=2.0, dt=1e-2))
    bisected = np.array([survival_at_offered_wait(lam, patience, q) for q in sol.queue])
    np.testing.assert_allclose(patience.sf(sol.virtual / lam), bisected, rtol=0.0, atol=1e-9)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (bisected[:-1] + bisected[1:]) * 1e-2)])
    drain = float(np.max(np.diff(sol.queue - lam * integral)))
    assert check_queue_drain_monotone(sol) == pytest.approx(drain, abs=1e-10)


def test_drain_monotone_equilibrium_affine():
    state = equilibrium_state(2.0, Exponential(2.0), Exponential(1.0))
    sol = solve(_cfg(2.0, Exponential(2.0), Exponential(1.0), horizon=3.0),
                state.initial_condition())
    assert check_queue_drain_monotone(sol) <= 1e-12
