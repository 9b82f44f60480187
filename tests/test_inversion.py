"""Every caller of bisect_increasing returns the least float with func >= y, whatever the guess.

The result is defined by a property, not by the path of a loop: x in [lo, hi] with
func(prev(x)) < y <= func(x), or hi where func(hi) < y.  For a func nondecreasing as
computed in floating point, such an x is the least float with func >= y; for a lognormal
tail, monotone only in exact arithmetic, it is one crossing of y.
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

MIXTURES = [
    HyperExponential((0.4, 0.6), (0.5, 2.0)),
    HyperExponential((0.1, 0.9), (0.01, 10.0)),
    HyperExponential((1 / 3, 1 / 3, 1 / 3), (1.0, 3.0, 9.0)),
]
EDGE_UNIFORMS = [0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5, 0.999999, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
MAX = np.finfo(float).max


def _ids(dists):
    return [repr(d) for d in dists]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_crossing(func, y, x, lo=0.0, hi=MAX):
    """x in [lo, hi] with func(prev(x)) < y <= func(x) entrywise, prev(lo) read as below y,
    or x = hi with func(hi) < y; for a func nondecreasing as computed, the least float."""
    y, x, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, x, lo, hi)))
    assert np.all((lo <= x) & (x <= hi))
    reached = func(x) >= y
    assert np.all(reached | (x == hi)), x[~reached & (x != hi)]
    below = (x == lo) | (func(np.nextafter(x, 0.0)) < y)
    assert np.all(below), x[~below]


# ---------------------------------------------------------------- hyperexponential draws


@pytest.mark.parametrize("dist", MIXTURES, ids=_ids(MIXTURES))
def test_quantile_is_the_least_float_with_cdf_at_u(dist):
    u = np.concatenate((EDGE_UNIFORMS, np.random.default_rng(26).random(100_000)))
    x = dist.quantile(u)
    _assert_crossing(dist.cdf, u, x, hi=-np.log1p(-u) / min(dist.rates))
    for edge, want in zip(EDGE_UNIFORMS, x):
        assert float(dist.quantile(edge)).hex() == float(want).hex(), edge


@pytest.mark.parametrize("size", [1, 46, 2048])
@pytest.mark.parametrize("dist", MIXTURES, ids=_ids(MIXTURES))
def test_quantile_of_an_array_equals_its_scalar_calls(dist, size):
    # the sample docstring's promise, on which the simulator's blocks of draws rest
    u = np.random.default_rng(size).random(size)
    assert _bits(dist.quantile(u)) == _bits([dist.quantile(float(v)) for v in u])


def test_quantile_evaluates_the_cdf_a_few_times_per_block(monkeypatch):
    # the bisection alone takes 63 evaluations; the search from Newton's guess
    # takes about a sixth
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
def test_any_guess_returns_the_floats_found_without_one(dist):
    # targets down to 1e-30, far below the guesses' steps of up to 2^20 floats
    rng = np.random.default_rng(9)
    y = np.concatenate((np.geomspace(1e-30, 0.99 * dist.mean, 2000),
                        rng.uniform(0.0, dist.mean, 2000)))
    want = bisect_increasing(dist.integrated_sf, y, 0.0)
    _assert_crossing(dist.integrated_sf, y, want)
    exact = want.view(np.int64)
    near = (exact + rng.integers(-3000, 3000, y.size)).view(float)
    for guess in (want, near, 1.5 * want, np.full(y.size, math.nan), np.full(y.size, -1.0),
                  np.full(y.size, math.inf), np.zeros(y.size)):
        assert _bits(bisect_increasing(dist.integrated_sf, y, 0.0, guess=guess)) == _bits(want)


def test_an_unreached_target_returns_hi_whatever_the_guess():
    dist = Exponential(1.0)
    for guess in (None, 0.5, 2.0, math.inf):
        assert float(bisect_increasing(dist.cdf, 0.9, 0.0, 2.0, guess=guess)) == 2.0
        assert float(bisect_increasing(dist.cdf, 0.0, 0.0, 2.0, guess=guess)) == 0.0


# ---------------------------------------------------------------- callers without a guess


INTEGRATED = [Exponential(1.0), Uniform(0.5, 2.5), LogNormal.from_mean_cv(1.0, 1.0),
              LogNormal(0.3, 0.8), HyperExponential((0.4, 0.6), (0.5, 2.0))]


@pytest.mark.parametrize("dist", INTEGRATED, ids=_ids(INTEGRATED))
def test_integrated_sf_inverse_crosses_y(dist):
    y = np.concatenate((np.geomspace(1e-30, dist.mean, 3000),
                        np.random.default_rng(4).uniform(0.0, dist.mean, 3000)))
    inside = y < dist.mean
    _assert_crossing(dist.integrated_sf, y[inside], dist.integrated_sf_inverse(y[inside]))
    edges = [0.0, -1.0, dist.mean, 2.0 * dist.mean]
    want = [0.0, 0.0, dist.support_end, dist.support_end]
    assert _bits(dist.integrated_sf_inverse(edges)) == _bits(want)


@pytest.mark.parametrize("dist", INTEGRATED, ids=_ids(INTEGRATED))
def test_integrated_sf_inverse_crosses_tiny_targets(dist):
    # 80 arithmetic halvings of [0, 1] end 2^-80 wide, short of adjacent floats below ~1e-7
    y = np.geomspace(5e-324, 1e-7, 2000)
    _assert_crossing(dist.integrated_sf, y, dist.integrated_sf_inverse(y))


PATIENCE = [Exponential(1.0), Uniform(0.0, 2.0), LogNormal.from_mean_cv(1.0, 3.0),
            HyperExponential((0.4, 0.6), (0.5, 2.0)), HyperExponential((0.1, 0.9), (0.01, 10.0))]


@pytest.mark.parametrize("arrival_rate", [1.0 + 1e-12, 1.0 + 2.0**-30, 1.05, 1.5, 4.0])
@pytest.mark.parametrize("patience", PATIENCE, ids=_ids(PATIENCE))
def test_equilibrium_wait_bracket_is_the_least_float_with_cdf_at_its_target(patience,
                                                                             arrival_rate):
    # the docstring's "to the last float", near the critical load too
    state = equilibrium_state(arrival_rate, patience, Exponential(1.0))
    target = (arrival_rate - 1.0) / arrival_rate
    _assert_crossing(patience.cdf, [target, np.nextafter(target, 1.0)], state.wait_bracket)
    assert state.offered_wait == state.wait_bracket[0]


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
def test_busy_residuals_cross_their_levels(service, init, count):
    # a lognormal tail is monotone only in exact arithmetic: each residual is a crossing
    levels = init.busy0 * (1.0 - (np.arange(count) + 0.5) / count)
    levels = np.maximum(levels, init.server_tail(service, MAX))
    _assert_crossing(lambda x: -init.server_tail(service, x), -levels,
                     _busy_residuals(service, init, count))
