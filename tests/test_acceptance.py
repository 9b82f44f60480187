"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS lines.
"""

import math
import time

import numpy as np
import pytest

from fluidq.distributions import (
    Deterministic,
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
)
from fluidq.equilibrium import equilibrium_state
from fluidq.expode import ExpOdeConfig, cross_check
from fluidq.fluid import (
    FluidConfig,
    check_queue_drain_monotone,
    fixed_point_residual,
    solve,
)
from fluidq.measures import sup_distance, uniform_probes
from fluidq.simulator import (
    SimConfig,
    compare_to_fluid,
    fluid_scale,
    gc_diagnostic,
    run,
)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_exponential_cross_check():
    start = time.perf_counter()
    sups = []
    for rho, alpha, mu in ((0.8, 1.0, 1.0), (2.0, 2.0, 1.0), (1.2, 1.0, 1.0)):
        result = cross_check(ExpOdeConfig(mu, alpha, rho, x0=0.0, horizon=10.0, dt=1e-3))
        sups.append(result.sup_diff)
    elapsed = time.perf_counter() - start
    ok = max(sups) <= 2e-3 and elapsed < 5.0
    _report(1, "exponential cross-check", ok,
            f"sup_diffs={[f'{v:.2e}' for v in sups]}, runtime={elapsed:.2f}s")


EQUILIBRIUM_CASES = [
    (1.2, Exponential(1.0), Exponential(1.0)),
    (2.0, Exponential(2.0), Exponential(1.0)),
    (0.8, Uniform(0.0, 2.0), Exponential(1.0)),
    (1.5, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0)),
]


def test_criterion_2_equilibrium_invariance():
    start = time.perf_counter()
    probes = uniform_probes(-10.0, 10.0, 512)
    worst_drift, worst_profile = 0.0, 0.0
    for lam, patience, service in EQUILIBRIUM_CASES:
        state = equilibrium_state(lam, patience, service)
        cfg = FluidConfig(arrival_rate=lam, patience=patience, service=service,
                          horizon=10.0, dt=1e-3)
        sol = solve(cfg, state.initial_condition())
        worst_drift = max(worst_drift, float(np.max(np.abs(sol.system - sol.system[0]))))
        initial, *later = sol.profiles([0.0, 1.0, 5.0, 10.0], probes)  # t = 0: the start state
        for profiles in later:
            worst_profile = max(
                worst_profile,
                sup_distance(profiles.buffer, initial.buffer, probes),
                sup_distance(profiles.server, initial.server, probes),
            )
    elapsed = time.perf_counter() - start
    ok = worst_drift <= 1e-3 and worst_profile <= 5e-3 and elapsed < 10.0
    _report(2, "equilibrium invariance", ok,
            f"drift={worst_drift:.2e}, profile={worst_profile:.2e}, runtime={elapsed:.2f}s")


def test_criterion_3_closed_form_equilibrium_values():
    a = equilibrium_state(1.2, Exponential(1.0), Exponential(1.0))
    b = equilibrium_state(2.0, Exponential(2.0), Exponential(1.0))
    checks = [
        abs(a.offered_wait - math.log(6.0 / 5.0)) <= 1e-9,
        abs(a.queue_mass - 0.2) <= 1e-9,
        a.busy_mass == 1.0,
        abs(a.virtual_mass - 1.2 * math.log(6.0 / 5.0)) <= 1e-9,
        abs(b.system_mass - 1.5) <= 1e-9,
    ]
    _report(3, "closed-form equilibrium values", all(checks), f"checks={checks}")


def test_criterion_4_structural_invariants_on_every_solve():
    worst = {"b_increment": 0.0, "q_excess": -np.inf, "drain": -np.inf, "residual": 0.0}
    cases = [(lam, p, s, equilibrium_state(lam, p, s).initial_condition())
             for lam, p, s in EQUILIBRIUM_CASES]
    cases += [(2.0, Exponential(2.0), Exponential(1.0), None),
              (0.8, Exponential(1.0), Exponential(1.0), None)]
    for lam, patience, service, init in cases:
        cfg = FluidConfig(arrival_rate=lam, patience=patience, service=service,
                          horizon=5.0, dt=1e-3)
        sol = solve(cfg, init)  # raises on B/Q invariant violations already
        worst["b_increment"] = min(worst["b_increment"], float(np.min(np.diff(sol.scheduled))))
        tail_area = patience.mean
        if math.isfinite(tail_area):
            worst["q_excess"] = max(worst["q_excess"],
                                    float(np.max(sol.queue)) - lam * tail_area)
        worst["drain"] = max(worst["drain"], check_queue_drain_monotone(sol))
        worst["residual"] = max(worst["residual"], fixed_point_residual(sol))
    ok = (worst["b_increment"] >= -1e-12 and worst["q_excess"] <= 1e-9
          and worst["drain"] <= 1e-6 and worst["residual"] <= 2e-10)
    _report(4, "structural invariants", ok,
            f"min_B_inc={worst['b_increment']:.1e}, Q_excess={worst['q_excess']:.1e}, "
            f"drain={worst['drain']:.1e}, residual={worst['residual']:.1e}")


def _convergence_trend(service, seed):
    lam, alpha = 1.2, 1.0
    snapshot_times = tuple(np.round(np.arange(0.5, 10.5, 0.5), 3))
    probes = uniform_probes(-10.0, 10.0, 512)
    cfg = FluidConfig(arrival_rate=lam, patience=Exponential(alpha), service=service,
                      horizon=10.0, dt=1e-3)
    sol = solve(cfg)
    profiles = sol.profiles(snapshot_times, probes)
    mean_sup_q, final_z = [], {}
    for n in (25, 100, 400):
        sim_cfg = SimConfig(
            num_servers=n,
            interarrival=Exponential(n * lam),
            patience=Exponential(alpha),
            service=service,
            snapshot_times=snapshot_times,
            seed=seed,
        )
        gaps = np.array([   # (replication, gap, time)
            compare_to_fluid([fluid_scale(s, n) for s in run(sim_cfg, i)], sol, profiles)
            for i in range(20)])
        mean_sup_q.append(float(np.mean(gaps[:, 2].max(axis=1))))
        final_z[n] = float(np.mean(gaps[:, 3, -1]))
    return mean_sup_q, final_z[400]


def test_criterion_5_simulation_convergence():
    start = time.perf_counter()
    details = []
    ok = True
    for label, service in (("exp", Exponential(1.0)),
                           ("lognormal", LogNormal.from_mean_cv(1.0, 1.0))):
        mean_sup_q, z_gap_400 = _convergence_trend(service, seed=2026)
        decreasing = mean_sup_q[0] > mean_sup_q[1] > mean_sup_q[2]
        ok = ok and decreasing and z_gap_400 <= 0.05
        details.append(f"{label}: supQ={[f'{v:.3f}' for v in mean_sup_q]}, "
                       f"Zgap400={z_gap_400:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(5, "simulation convergence", ok, "; ".join(details) + f", runtime={elapsed:.1f}s")


def test_criterion_6_hand_simulated_traces():
    cfg1 = SimConfig(1, Deterministic(1.0), Deterministic(10.0), Deterministic(0.5),
                     snapshot_times=(1.2, 1.6))
    s12, s16 = run(cfg1)
    trace1 = (s12.busy_servers == 1 and s12.queue_size == 0 and s12.virtual_size == 0
              and s16.busy_servers == 0)

    cfg2 = SimConfig(1, Deterministic(1.0), Deterministic(0.5), Deterministic(1.0),
                     snapshot_times=(1.8, 2.05))
    s18, s205 = run(cfg2, arrival_times=[1.0, 1.2])
    trace2 = (s18.queue_size == 0 and s18.virtual_size == 1 and s18.busy_servers == 1
              and s205.virtual_size == 0 and s205.abandoned == 1 and s205.completed == 1)

    _report(6, "hand-simulated event traces", trace1 and trace2,
            f"trace1={trace1}, trace2={trace2}")


def test_criterion_7_glivenko_cantelli_diagnostic():
    families = [
        Exponential(1.0),
        Deterministic(2.0),
        Uniform(0.0, 2.0),
        LogNormal.from_mean_cv(1.0, 1.0),
        HyperExponential((0.4, 0.6), (0.5, 2.0)),
    ]
    n = 10_000
    bound = 1.36 / math.sqrt(n)
    stats = {}
    ok = True
    for dist in families:
        stat = gc_diagnostic(dist, n, seed=314)
        if stat > bound:  # statistical: one retry, fail on two consecutive exceedances
            stat = gc_diagnostic(dist, n, seed=315)
        stats[type(dist).__name__] = stat
        ok = ok and stat <= bound
    _report(7, "empirical-tail diagnostic", ok,
            f"bound={bound:.4f}, stats={ {k: f'{v:.4f}' for k, v in stats.items()} }")


def test_criterion_8_grid_refinement():
    sols = {}
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = FluidConfig(arrival_rate=2.0, patience=Exponential(2.0),
                          service=Exponential(1.0), horizon=10.0, dt=dt)
        stride = int(round(4e-3 / dt))
        sols[dt] = solve(cfg).system[::stride]
    d1 = float(np.max(np.abs(sols[4e-3] - sols[2e-3])))
    d2 = float(np.max(np.abs(sols[2e-3] - sols[1e-3])))
    ratio = d1 / d2
    _report(8, "grid refinement", 1.5 <= ratio <= 2.5,
            f"sup_diffs=({d1:.2e}, {d2:.2e}), ratio={ratio:.3f}")
