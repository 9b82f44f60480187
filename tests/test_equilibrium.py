import math

import numpy as np
import pytest

from fluidq.distributions import Exponential, HyperExponential, LogNormal, Uniform
from fluidq.equilibrium import EquilibriumError, equilibrium_state
from fluidq.fluid import EquilibriumShaped, FluidConfig, solve, virtual_buffer_tail

PROBES = np.linspace(-6.0, 10.0, 257)


def test_offered_wait_underloaded_is_zero():
    state = equilibrium_state(0.8, Exponential(1.0), Exponential(1.0))
    assert state.offered_wait == 0.0
    assert state.wait_bracket == (0.0, 0.0)


def test_offered_wait_closed_forms():
    # F(w) = (rho-1)/rho with exponential patience inverts to log terms
    state = equilibrium_state(1.2, Exponential(1.0), Exponential(1.0))
    assert state.offered_wait == pytest.approx(math.log(1.2), abs=1e-9)

    state = equilibrium_state(2.0, Exponential(2.0), Exponential(1.0))
    assert state.offered_wait == pytest.approx(0.5 * math.log(2.0), abs=1e-9)


def test_offered_wait_bracket_degenerate_for_strictly_increasing_cdf():
    state = equilibrium_state(1.5, Exponential(1.0), Exponential(1.0))
    lo, hi = state.wait_bracket
    assert hi - lo <= 2e-10
    assert lo <= state.offered_wait <= hi + 1e-12


def test_offered_wait_is_the_smallest_float_reaching_the_target():
    # uniform(0, 2) patience at rho = 1.5: the last bracket's midpoint was the float below
    patience = Uniform(0.0, 2.0)
    target = (1.5 - 1.0) / 1.5
    w = equilibrium_state(1.5, patience, Exponential(1.0)).offered_wait
    assert patience.cdf(w) >= target
    assert patience.cdf(np.nextafter(w, 0.0)) < target


def test_offered_wait_bounded_patience_support():
    # rho = 2 with Uniform(0,2) patience: F(w) = w/2 = 1/2 -> w = 1
    state = equilibrium_state(2.0, Uniform(0.0, 2.0), Exponential(1.0))
    assert state.offered_wait == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("arrival_rate", [0.0, -1.5, math.nan])
def test_equilibrium_state_rejects_an_arrival_rate_that_is_not_positive(arrival_rate):
    # as FluidConfig does: a negative rate would give Z_inf = rho < 0
    with pytest.raises(EquilibriumError, match="arrival_rate must be positive"):
        equilibrium_state(arrival_rate, Exponential(1.0), Exponential(1.0))


def test_equilibrium_state_underloaded():
    state = equilibrium_state(0.8, Exponential(1.0), Exponential(1.0))
    assert state.queue_mass == 0.0
    assert state.busy_mass == pytest.approx(0.8, abs=1e-12)
    assert state.virtual_mass == 0.0
    buffer = virtual_buffer_tail(0.8, Exponential(1.0), state.virtual_mass, PROBES)
    assert np.all(buffer.tails == 0.0)


def test_equilibrium_state_closed_form_values():
    state = equilibrium_state(1.2, Exponential(1.0), Exponential(1.0))
    assert state.offered_wait == pytest.approx(math.log(1.2), abs=1e-9)
    assert state.queue_mass == pytest.approx(0.2, abs=1e-9)
    assert state.busy_mass == 1.0
    assert state.virtual_mass == pytest.approx(1.2 * math.log(1.2), abs=1e-9)

    state = equilibrium_state(2.0, Exponential(2.0), Exponential(1.0))
    assert state.queue_mass == pytest.approx(0.5, abs=1e-9)
    assert state.system_mass == pytest.approx(1.5, abs=1e-9)
    # exponential service: equilibrium server tail is exp(-x)
    for x in (0.0, 0.5, 2.0):
        server_tail = EquilibriumShaped(state.busy_mass).tail(Exponential(1.0), x)
        assert server_tail == pytest.approx(math.exp(-x), abs=1e-9)


@pytest.mark.parametrize(
    "lam,patience,service",
    [
        (1.2, Exponential(1.0), Exponential(1.0)),
        (2.0, Exponential(2.0), Exponential(1.0)),
        (0.8, Uniform(0.0, 2.0), Exponential(1.0)),
        (1.5, Exponential(1.0), LogNormal.from_mean_cv(1.0, 1.0)),
        (1.7, Uniform(0.0, 2.0), LogNormal.from_mean_cv(1.0, 0.5)),
        (1.5, LogNormal.from_mean_cv(1.0, 1.0), Exponential(1.0)),
        (1.5, HyperExponential((0.4, 0.6), (0.5, 2.0)), Exponential(1.0)),
    ],
)
def test_flow_balance_and_littles_law(lam, patience, service):
    state = equilibrium_state(lam, patience, service)
    mu = 1.0 / service.mean
    inflow = lam
    outflow = lam * state.abandonment_fraction + state.busy_mass * mu
    assert outflow == pytest.approx(inflow, abs=1e-9)
    # Little's law holds exactly as computed
    assert state.virtual_mass == lam * state.offered_wait
    # the offered wait meets its root to rounding: F(w) = (rho - 1)/rho
    rho = state.traffic_intensity
    if rho > 1.0:
        assert abs(float(patience.cdf(state.offered_wait)) - (rho - 1.0) / rho) <= 1e-15


def test_equilibrium_feeds_back_into_fluid_solver():
    lam, patience, service = 2.0, Exponential(2.0), Exponential(1.0)
    state = equilibrium_state(lam, patience, service)
    cfg = FluidConfig(arrival_rate=lam, patience=patience, service=service, horizon=10.0, dt=1e-3)
    sol = solve(cfg, state.initial_condition())
    assert float(np.max(np.abs(sol.system - sol.system[0]))) <= 1e-3


_LAWS = {"exponential": Exponential(1.0), "lognormal": LogNormal.from_mean_cv(1.0, 1.0),
         "hyperexponential": HyperExponential((0.4, 0.6), (0.5, 2.0)),
         "uniform(0, 2)": Uniform(0.0, 2.0), "uniform(0.5, 1.5)": Uniform(0.5, 1.5)}
_SMOOTH = ("exponential", "lognormal", "hyperexponential")
# (arrival rate, patience, service): every pair of smooth laws, over- and underloaded, and
# patience of bounded support, each with a service tail that decays fast and one that does not
_MARCHES = ([(lam, p, s) for lam in (1.5, 0.8) for p in _SMOOTH for s in _SMOOTH]
            + [(lam, p, s) for lam, p in ((1.5, "uniform(0, 2)"), (2.0, "uniform(0, 2)"),
                                          (1.5, "uniform(0.5, 1.5)"))
               for s in ("exponential", "lognormal")])


@pytest.mark.parametrize("lam, patience, service", _MARCHES)
def test_the_march_from_empty_reaches_the_equilibrium_state(lam, patience, service):
    # the fluid model from empty converges to its equilibrium (Whitt, Fluid models for
    # multiserver queues with abandonments, 2006; Kang & Ramanan, AAP 2010), and the
    # discrete march's fixed point is the exact one: the gaps below do not depend on dt
    patience, service_law = _LAWS[patience], _LAWS[service]
    sol = solve(FluidConfig(arrival_rate=lam, patience=patience, service=service_law,
                            horizon=200.0, dt=1e-2))
    state = equilibrium_state(lam, patience, service_law)

    def gaps(k):
        return abs(sol.system[k] - state.system_mass), abs(sol.virtual[k] - state.virtual_mass)

    (x_half, r_half), (x_end, r_end) = gaps(len(sol.times) // 2), gaps(-1)
    if service == "lognormal":
        # its tail decays slowly: 1.3-2.7e-8 at H/2, 1.0-3.2e-10 at H
        assert x_end < x_half and r_end <= r_half
        assert max(x_end, r_end) <= 1e-9
    else:   # 0 to 1.7e-14
        assert max(x_end, r_end) <= 1e-13
