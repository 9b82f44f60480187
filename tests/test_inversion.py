"""Every caller of bisect_increasing returns the floats of 80 fixed halvings, bit for bit.

bisect_increasing stops its halvings once one moves no entry, and HyperExponential.quantile
searches from a Newton guess; neither may move a bit of what the fixed loop in
halvings_oracle returns.
"""

import math

import numpy as np
import pytest

from fluidq.distributions import (
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
    bisect_increasing,
)
from fluidq.equilibrium import equilibrium_state
from fluidq.fluid import (FluidConfig, InitialCondition, ServiceComplementShaped,
                          TabulatedProfile, validate_initial)
from fluidq.measures import TailMeasure
from fluidq.simulator import _busy_residuals
from halvings_oracle import halvings

MIXTURES = [
    HyperExponential((0.4, 0.6), (0.5, 2.0)),
    HyperExponential((0.1, 0.9), (0.01, 10.0)),
    HyperExponential((1 / 3, 1 / 3, 1 / 3), (1.0, 3.0, 9.0)),
]
EDGE_UNIFORMS = [0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5, 0.999999, 1.0 - 2.0**-52, 1.0 - 2.0**-53]


def _ids(dists):
    return [repr(d) for d in dists]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _quantile_oracle(dist, u):
    u = np.asarray(u, dtype=float)
    return halvings(dist.cdf, u, np.zeros_like(u), -np.log1p(-u) / min(dist.rates))


# ---------------------------------------------------------------- hyperexponential draws


@pytest.mark.parametrize("dist", MIXTURES, ids=_ids(MIXTURES))
def test_quantile_equals_the_halvings_bit_for_bit(dist):
    u = np.concatenate((EDGE_UNIFORMS, np.random.default_rng(26).random(100_000)))
    assert _bits(dist.quantile(u)) == _bits(_quantile_oracle(dist, u))
    for edge in EDGE_UNIFORMS:
        assert float(dist.quantile(edge)).hex() == float(_quantile_oracle(dist, edge)).hex(), edge


@pytest.mark.parametrize("size", [1, 46, 2048])
@pytest.mark.parametrize("dist", MIXTURES, ids=_ids(MIXTURES))
def test_quantile_of_an_array_equals_its_scalar_calls(dist, size):
    # the sample docstring's promise, on which the simulator's blocks of draws rest
    u = np.random.default_rng(size).random(size)
    assert _bits(dist.quantile(u)) == _bits([dist.quantile(float(v)) for v in u])


def test_quantile_evaluates_the_cdf_a_few_times_per_block(monkeypatch):
    # 80 halvings took 80 evaluations; the search from Newton's guess takes about a sixth
    dist, cdf, calls = MIXTURES[0], HyperExponential.cdf, []

    def counted(self, x):
        calls.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(HyperExponential, "cdf", counted)
    dist.quantile(np.random.default_rng(3).random(2048))
    assert len(calls) <= 16, calls


# ---------------------------------------------------------------- the guess contract


GUESSED = [Exponential(2.0), HyperExponential((0.4, 0.6), (0.5, 2.0)),
           HyperExponential((0.1, 0.9), (0.01, 10.0))]


@pytest.mark.parametrize("dist", GUESSED, ids=_ids(GUESSED))
def test_any_guess_returns_the_floats_of_the_halvings(dist):
    # targets down to 1e-30, where the halvings from [0, 1] stop 2^-80 wide, far from
    # adjacent floats: there the guess must not serve, whatever it is
    rng = np.random.default_rng(9)
    y = np.concatenate((np.geomspace(1e-30, 0.99 * dist.mean, 2000),
                        rng.uniform(0.0, dist.mean, 2000)))
    want = halvings(dist.integrated_sf, y, 0.0)
    exact = want.view(np.int64)
    near = (exact + rng.integers(-3000, 3000, y.size)).view(float)
    for guess in (want, near, 1.5 * want, np.full(y.size, math.nan), np.full(y.size, -1.0),
                  np.full(y.size, math.inf), np.zeros(y.size)):
        assert _bits(bisect_increasing(dist.integrated_sf, y, 0.0, guess=guess)) == _bits(want)


# ---------------------------------------------------------------- callers without a guess


INTEGRATED = [Exponential(1.0), Uniform(0.5, 2.5), LogNormal.from_mean_cv(1.0, 1.0),
              LogNormal(0.3, 0.8), HyperExponential((0.4, 0.6), (0.5, 2.0))]


@pytest.mark.parametrize("dist", INTEGRATED, ids=_ids(INTEGRATED))
def test_integrated_sf_inverse_equals_the_halvings_bit_for_bit(dist):
    y = np.concatenate((np.geomspace(1e-30, dist.mean, 3000), [0.0, -1.0, dist.mean, 2.0 * dist.mean],
                        np.random.default_rng(4).uniform(0.0, dist.mean, 3000)))
    inside = (y > 0.0) & (y < dist.mean)
    x = halvings(dist.integrated_sf, np.where(inside, y, 0.0), 0.0)
    want = np.where(inside, x, np.where(y <= 0.0, 0.0, dist.support_end))
    assert _bits(dist.integrated_sf_inverse(y)) == _bits(want)


PATIENCE = [Exponential(1.0), Uniform(0.0, 2.0), LogNormal.from_mean_cv(1.0, 3.0),
            HyperExponential((0.4, 0.6), (0.5, 2.0)), HyperExponential((0.1, 0.9), (0.01, 10.0))]


@pytest.mark.parametrize("arrival_rate", [1.05, 1.5, 4.0])
@pytest.mark.parametrize("patience", PATIENCE, ids=_ids(PATIENCE))
def test_equilibrium_wait_bracket_equals_the_halvings_bit_for_bit(patience, arrival_rate):
    state = equilibrium_state(arrival_rate, patience, Exponential(1.0))
    target = (arrival_rate - 1.0) / arrival_rate
    want = halvings(patience.cdf, [target, np.nextafter(target, 1.0)], 0.0)
    assert _bits(state.wait_bracket) == _bits(want)
    assert float(state.offered_wait).hex() == float(want[0]).hex()


def _profiles():
    lam, lognormal = 1.5, LogNormal.from_mean_cv(1.0, 1.0)
    hyper = HyperExponential((0.4, 0.6), (0.5, 2.0))
    fc = FluidConfig(arrival_rate=lam, patience=hyper, service=lognormal)
    yield "equilibrium-shaped", lognormal, validate_initial(
        fc, equilibrium_state(lam, hyper, lognormal).initial_condition())
    yield "service-complement", lognormal, validate_initial(
        fc, InitialCondition(0.5, ServiceComplementShaped(1.0)))
    grid = np.linspace(0.0, 2.0, 2001)
    table = TailMeasure(grid, 1.0 - 0.3 * grid, 1.0, "linear")   # mass 0.4 lies past x = 2
    fc = FluidConfig(arrival_rate=1.2, patience=Exponential(1.0), service=Exponential(1.0))
    yield "tabulated", Exponential(1.0), validate_initial(
        fc, InitialCondition(0.0, TabulatedProfile(table)))


PROFILES = list(_profiles())


@pytest.mark.parametrize("count", [1, 100, 3200])
@pytest.mark.parametrize("service, init", [p[1:] for p in PROFILES], ids=[p[0] for p in PROFILES])
def test_busy_residuals_equal_the_halvings_bit_for_bit(service, init, count):
    levels = init.busy0 * (1.0 - (np.arange(count) + 0.5) / count)
    levels = np.maximum(levels, init.server_tail(service, np.finfo(float).max))
    want = halvings(lambda x: -init.server_tail(service, x), -levels, np.zeros(count))
    assert _bits(_busy_residuals(service, init, count)) == _bits(want)
