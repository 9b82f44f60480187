"""Exponential special case: the fluid content solves a scalar ODE.

With exponential patience and service the fixed-point equation collapses to
x' = mu (rho - 1) - alpha (x - 1)^+ + mu (1 - x)^+.  The drift is linear on
each side of x = 1, so the solution is piecewise exponential, monotone, and
crosses 1 at most once; integrate evaluates it in closed form.  This serves
as an independent oracle for the general solver.
"""

from __future__ import annotations

import math
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


def _fluid_config(cfg: ExpOdeConfig) -> FluidConfig:
    """The matching exponential fluid model, on the grid the general solver marches."""
    return FluidConfig(cfg.traffic_intensity * cfg.service_rate, Exponential(cfg.patience_rate),
                       Exponential(cfg.service_rate), cfg.horizon, cfg.dt)


def integrate(cfg: ExpOdeConfig):
    """The exact solution on solve's dt grid (FluidConfig's rule: a dt <= 0 or a horizon
    off the grid raises FluidModelError); returns (times, trajectory).  x relaxes toward
    rho at rate mu below 1, and toward 1 + mu (rho - 1) / alpha at rate alpha above it, so
    it crosses 1 at most once, toward rho's side.  expm1 and log1p keep every term finite
    for any positive rates."""
    mu, alpha, rho, x0 = cfg.service_rate, cfg.patience_rate, cfg.traffic_intensity, cfg.x0
    fc = _fluid_config(cfg)
    times = np.arange(fc.steps + 1) * fc.dt
    if x0 > 1.0:
        rate, slope, after = alpha, mu * (rho - 1.0) - alpha * (x0 - 1.0), mu
        cross = math.log1p(alpha * (x0 - 1.0) / (mu * (1.0 - rho))) / alpha if rho < 1.0 else math.inf
    else:
        rate, slope, after = mu, mu * (rho - x0), alpha
        cross = math.log1p((1.0 - x0) / (rho - 1.0)) / mu if rho > 1.0 else math.inf
    x = x0 + slope * (-np.expm1(-rate * times) / rate)
    late = times >= cross
    x[late] = 1.0 + mu * (rho - 1.0) * (-np.expm1(-after * (times[late] - cross)) / after)
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
    the buffer's reach or a horizon off the dt grid fails before integrate.
    """
    fluid_cfg = _fluid_config(cfg)
    lam = fluid_cfg.arrival_rate
    q0 = max(cfg.x0 - 1.0, 0.0)
    r0 = lam * fluid_cfg.patience.integrated_sf_inverse(q0 / lam)
    init = InitialCondition(
        virtual_buffer_mass=r0,
        server_profile=EquilibriumShaped(min(cfg.x0, 1.0)),
    )
    sol = solve(fluid_cfg, init)
    times, x_ode = integrate(cfg)
    diff = float(np.max(np.abs(sol.system - x_ode)))
    return CrossCheckResult(times=times, ode=x_ode, fluid=sol.system, sup_diff=diff)
