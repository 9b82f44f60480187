"""Exponential special case: the fluid content solves a scalar ODE.

With exponential patience and service the fixed-point equation collapses to
x' = mu (rho - 1) - alpha (x - 1)^+ + mu (x - 1)^-, which a plain RK4 sweep
integrates to high accuracy.  This serves as an independent oracle for the
general solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Exponential
from .fluid import EquilibriumShaped, FluidConfig, InitialCondition, solve


@dataclass(frozen=True)
class ExpOdeConfig:
    service_rate: float      # mu
    patience_rate: float     # alpha
    traffic_intensity: float  # rho
    x0: float = 0.0
    horizon: float = 10.0
    dt: float = 1e-3

    def __post_init__(self):
        if not (self.service_rate > 0.0 and self.patience_rate > 0.0):
            raise ValueError("rates must be positive")
        if not self.traffic_intensity > 0.0:
            raise ValueError("traffic intensity rho must be positive")


def drift(cfg: ExpOdeConfig, x: float) -> float:
    """Right side of the fluid ODE; piecewise linear with a kink at x = 1."""
    over = max(x - 1.0, 0.0)
    under = max(1.0 - x, 0.0)
    return cfg.service_rate * (cfg.traffic_intensity - 1.0) - cfg.patience_rate * over + cfg.service_rate * under


def integrate(cfg: ExpOdeConfig):
    """Classical RK4 sweep; returns (times, trajectory)."""
    steps = int(round(cfg.horizon / cfg.dt))
    times = np.arange(steps + 1) * cfg.dt
    x = np.empty(steps + 1)
    x[0] = cfg.x0
    h = cfg.dt
    v = cfg.x0
    for k in range(steps):
        k1 = drift(cfg, v)
        k2 = drift(cfg, v + 0.5 * h * k1)
        k3 = drift(cfg, v + 0.5 * h * k2)
        k4 = drift(cfg, v + h * k3)
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x[k + 1] = v
    return times, x


@dataclass(frozen=True)
class CrossCheckResult:
    times: np.ndarray
    ode: np.ndarray
    fluid: np.ndarray
    sup_diff: float


def cross_check(cfg: ExpOdeConfig) -> CrossCheckResult:
    """Run the general solver on the matching exponential model and compare.

    The initial state spreads min(x0, 1) busy mass with exponential residuals
    (the stationary-excess law coincides with the service law) and backs out
    the virtual-buffer mass that yields queue mass (x0 - 1)^+, so the initial
    load decays exactly as x0 * exp(-mu t).  solve runs first, so a start beyond
    the buffer's reach or a horizon off the dt grid fails before the RK4 sweep.
    """
    lam = cfg.traffic_intensity * cfg.service_rate
    patience = Exponential(cfg.patience_rate)
    q0 = max(cfg.x0 - 1.0, 0.0)
    r0 = lam * patience.integrated_sf_inverse(q0 / lam)
    fluid_cfg = FluidConfig(
        arrival_rate=lam,
        patience=patience,
        service=Exponential(cfg.service_rate),
        horizon=cfg.horizon,
        dt=cfg.dt,
    )
    init = InitialCondition(
        virtual_buffer_mass=r0,
        server_profile=EquilibriumShaped(min(cfg.x0, 1.0)),
    )
    sol = solve(fluid_cfg, init)
    times, x_ode = integrate(cfg)
    diff = float(np.max(np.abs(sol.system - x_ode)))
    return CrossCheckResult(times=times, ode=x_ode, fluid=sol.system, sup_diff=diff)
