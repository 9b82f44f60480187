import numpy as np
import pytest

from fluidq.expode import CrossCheckResult, ExpOdeConfig, cross_check, drift, integrate


def test_drift_examples():
    assert drift(ExpOdeConfig(1.0, 1.0, 1.0), 1.0) == 0.0
    assert drift(ExpOdeConfig(1.0, 2.0, 2.0), 1.5) == pytest.approx(0.0, abs=1e-15)
    assert drift(ExpOdeConfig(1.0, 1.0, 0.8), 0.8) == pytest.approx(0.0, abs=1e-15)


def test_drift_sign_structure():
    # below the stationary point the drift is positive, above it negative
    cfg = ExpOdeConfig(1.0, 2.0, 2.0)  # stationary at x = 1.5
    assert drift(cfg, 1.2) > 0.0 and drift(cfg, 1.8) < 0.0
    cfg = ExpOdeConfig(1.0, 1.0, 0.8)  # stationary at x = 0.8
    assert drift(cfg, 0.5) > 0.0 and drift(cfg, 0.95) < 0.0


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


def test_rk4_order():
    # halving dt shrinks the closed-form error by ~2^4 on the smooth branch
    errs = []
    for dt in (0.05, 0.025):
        cfg = ExpOdeConfig(1.0, 1.0, 0.8, x0=0.0, horizon=5.0, dt=dt)
        t, x = integrate(cfg)
        errs.append(float(np.max(np.abs(x - 0.8 * (1.0 - np.exp(-t))))))
    assert 8.0 <= errs[0] / errs[1] <= 32.0


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
