import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fluidq.expode import CrossCheckResult, ExpOdeConfig, cross_check, integrate


def test_integrate_stationary_start_is_constant():
    cfg = ExpOdeConfig(1.0, 2.0, 2.0, x0=1.5, horizon=5.0)
    _, x = integrate(cfg)
    assert float(np.max(np.abs(x - 1.5))) <= 1e-12


def test_integrate_underloaded_closed_form():
    cfg = ExpOdeConfig(1.0, 1.0, 0.8, x0=0.0, horizon=10.0, dt=1e-3)
    t, x = integrate(cfg)
    assert float(np.max(np.abs(x - 0.8 * (1.0 - np.exp(-t))))) <= 1e-8


def test_integrate_overloaded_limit():
    cfg = ExpOdeConfig(1.0, 2.0, 2.0, x0=0.0, horizon=10.0, dt=1e-3)
    _, x = integrate(cfg)
    assert x[-1] == pytest.approx(1.5, abs=1e-6)


# (mu, alpha, rho, x0, horizon): each side of x = 1 and each way across it
ODE_CASES = {
    "crossing from below, alpha != mu": (1.0, 2.0, 2.0, 0.0, 10.0),
    "crossing from above": (1.0, 2.0, 0.8, 1.3, 20.0),
    "x0 = 1, rho > 1": (1.0, 1.0, 1.5, 1.0, 10.0),
    "x0 = 1, rho < 1": (1.0, 1.0, 0.8, 1.0, 10.0),
    "stationary start": (1.0, 2.0, 2.0, 1.5, 10.0),
    "alpha = mu, H = 100": (1.0, 1.0, 1.5, 0.0, 100.0),
    "alpha = 1e-300": (1.0, 1e-300, 1.5, 0.0, 10.0),
}


@pytest.mark.parametrize("mu,alpha,rho,x0,horizon", ODE_CASES.values(), ids=ODE_CASES)
def test_integrate_is_monotone_and_matches_a_high_order_solver(mu, alpha, rho, x0, horizon):
    t, x = integrate(ExpOdeConfig(mu, alpha, rho, x0=x0, horizon=horizon, dt=1e-3))
    step = np.diff(x)
    assert np.all(np.isfinite(x))
    assert np.all(step >= 0.0) or np.all(step <= 0.0)

    def rhs(_, v):
        return [mu * (rho - 1.0) - alpha * max(v[0] - 1.0, 0.0) + mu * max(1.0 - v[0], 0.0)]

    ref = solve_ivp(rhs, (0.0, horizon), [x0], method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t)
    assert float(np.max(np.abs(x - ref.y[0]))) <= 1e-9


@pytest.mark.parametrize(
    "rho,alpha,mu,x0,bound",
    [
        (0.8, 1.0, 1.0, 0.0, 1e-3),
        (2.0, 2.0, 1.0, 0.0, 2e-3),
        (1.2, 1.0, 1.0, 0.0, 1e-3),
        (1.5, 1.0, 1.0, 2.4, 1e-3),   # a queued start the buffer can hold: x0 < 1 + rho mu / alpha
    ],
)
def test_cross_check_bounds(rho, alpha, mu, x0, bound):
    result = cross_check(ExpOdeConfig(mu, alpha, rho, x0=x0, horizon=10.0, dt=1e-3))
    assert isinstance(result, CrossCheckResult)
    assert result.sup_diff <= bound


def test_cross_check_from_equilibrium_is_stationary():
    # x0 at the stationary point: both solvers should sit still
    result = cross_check(ExpOdeConfig(1.0, 2.0, 2.0, x0=1.5, horizon=5.0, dt=1e-3))
    assert result.sup_diff <= 1e-3
    assert float(np.max(np.abs(result.ode - 1.5))) <= 1e-10


@pytest.mark.parametrize("horizon,dt,match", [(1.0, 0.0, "dt must be positive"),
                                              (1.0, -1e-3, "dt must be positive"),
                                              (1.05, 0.1, "not on the grid")],
                         ids=["dt=0", "dt<0", "off-grid horizon"])
def test_integrate_takes_the_solvers_grid_rule(horizon, dt, match):
    with pytest.raises(ValueError, match=match):
        integrate(ExpOdeConfig(1.0, 1.0, 1.5, horizon=horizon, dt=dt))
