import math

import numpy as np
import pytest
from scipy.special import ndtr

from fluidq.distributions import (
    Deterministic,
    DistributionError,
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
    distribution_from_dict,
)
from fluidq.fluid import survival_at_offered_wait

LN2 = math.log(2.0)

FAMILIES = [
    Exponential(1.0),
    Exponential(2.0),
    Deterministic(2.0),
    Uniform(0.0, 2.0),
    Uniform(0.5, 2.5),
    LogNormal.from_mean_cv(1.0, 1.0),
    LogNormal(0.3, 0.8),
    HyperExponential((0.4, 0.6), (0.5, 2.0)),
]

CONTINUOUS = [d for d in FAMILIES if not d.has_atoms]


def _ids(dists):
    return [repr(d) for d in dists]


# ---------------------------------------------------------------- oracles

def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48):
    """Recursive adaptive Simpson quadrature (independent of the closed forms)."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(lm), f(rm)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth - 1)
                + recurse(xm, x2, f1, fr, f2, right, eps / 2.0, depth - 1))

    if b <= a:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, max_depth)


# ---------------------------------------------------------------- cdf

def test_cdf_examples():
    assert Exponential(1.0).cdf(LN2) == pytest.approx(0.5, abs=1e-12)
    assert Deterministic(2.0).cdf(1.0) == 0.0
    assert Uniform(0.0, 2.0).cdf(0.5) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_cdf_monotone_in_unit_interval(dist):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-1.0, 4.0 * max(dist.mean, 1.0), size=1000))
    vals = np.asarray(dist.cdf(x))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-15)
    assert float(dist.cdf(-0.5)) == 0.0


def _lognormal_z(dist, x):
    with np.errstate(divide="ignore"):
        return (np.log(x) - dist.mu) / dist.sigma


# the kernels as written with x > 0 masks, kept as oracles
_MASKED_KERNELS = {
    (LogNormal, "cdf"): lambda d, x: np.where(
        x > 0.0, ndtr(_lognormal_z(d, np.where(x > 0.0, x, 1.0))), 0.0),
    (LogNormal, "sf"): lambda d, x: np.where(
        x > 0.0, ndtr(-_lognormal_z(d, np.where(x > 0.0, x, 1.0))), 1.0),
    (Exponential, "cdf"): lambda d, x: np.where(
        x > 0.0, -np.expm1(-d.rate * np.maximum(x, 0.0)), 0.0),
    (Exponential, "sf"): lambda d, x: np.where(
        x > 0.0, np.exp(-d.rate * np.maximum(x, 0.0)), 1.0),
}
_KERNEL_EDGES = [-1.0, -0.0, 0.0, 5e-324, math.inf, -math.inf, 1e308]


@pytest.mark.parametrize("dist", [LogNormal.from_mean_cv(1.0, 1.0), LogNormal(-3.0, 2.5),
                                  Exponential(1.0), Exponential(1.7)], ids=repr)
@pytest.mark.parametrize("method", ["cdf", "sf"])
def test_unmasked_kernels_equal_the_masked_formulas_bit_for_bit(dist, method):
    # log(0) = -inf and exp(-0) = 1 give the x <= 0 limits the masks used to set
    oracle = _MASKED_KERNELS[type(dist), method]
    rng = np.random.default_rng(31)
    x = np.concatenate((_KERNEL_EDGES, rng.lognormal(0.0, 3.0, 50_000),
                        rng.normal(0.0, 2.0, 50_000 - len(_KERNEL_EDGES))))
    kernel = getattr(dist, method)
    assert np.asarray(kernel(x)).tobytes() == oracle(dist, x).tobytes()
    for edge in _KERNEL_EDGES:
        got = float(kernel(edge)).hex()   # a scalar gives what numpy gives: no float round trip
        assert got == float(kernel(np.array([edge]))[0]).hex()
        assert got == float(oracle(dist, np.asarray(edge))).hex()
    assert math.isnan(kernel(math.nan))  # the masks read nan as <= 0; it now stays nan


_SF_EDGES = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.3, 1.0, 7.5, 700.0, 1e308, math.inf,
             math.nan]


@pytest.mark.parametrize("dist", [Exponential(1.7), LogNormal(-3.0, 2.5), Uniform(0.5, 2.5),
                                  Deterministic(2.0), HyperExponential((0.4, 0.6), (0.5, 2.0))],
                         ids=repr)
def test_sf_into_out_equals_sf_bit_for_bit(dist):
    x = np.array(_SF_EDGES)
    for shaped in (x, x.reshape(1, -1), np.column_stack((x, x[::-1]))):
        expected = np.asarray(dist.sf(shaped)).tobytes()
        buf = np.empty(shaped.shape)
        assert dist.sf(shaped, out=buf) is buf
        assert buf.tobytes() == expected
        inplace = shaped.copy()   # out may be x itself, as FluidSolution.profiles passes it
        assert dist.sf(inplace, out=inplace) is inplace
        assert inplace.tobytes() == expected
    for edge, from_array in zip(_SF_EDGES, dist.sf(x)):
        got = dist.sf(edge)   # a scalar still gives a numpy scalar or a 0-d array
        assert isinstance(got, np.generic) or (isinstance(got, np.ndarray) and got.ndim == 0)
        assert np.asarray(got).tobytes() == from_array.tobytes()


def _unclipped(dist, method, x):
    """dist's kernel as written before the clip; it overflows where rate x does."""
    if isinstance(dist, HyperExponential):
        return (1.0 - _outer_cdf(dist, x)) if method == "sf" else _OUTER_KERNELS[method](dist, x)
    e = -dist.rate * np.maximum(x, 0.0)
    return {"cdf": -np.expm1(e), "sf": np.exp(e),
            "pdf": np.where(x >= 0.0, dist.rate * np.exp(e), 0.0),
            "integrated_sf": -np.expm1(e) / dist.rate}[method]


@pytest.mark.parametrize("dist", [Exponential(2.0), Exponential(1e300),
                                  HyperExponential((0.4, 0.6), (0.5, 2.0))], ids=repr)
def test_exponential_kernels_reach_their_limits_without_overflow(dist):
    # rate x would overflow at the top of the float range; the kernels clip x at 746 over
    # the slowest rate, where exp(-rate x) is already 0, so they reach their limits
    # silently (pytest makes any warning an error), and no value moves on either side
    top = np.array([1e308, np.finfo(float).max, math.inf])
    slowest = min(dist.rates) if isinstance(dist, HyperExponential) else dist.rate
    near = 746.0 / slowest * np.array([0.5, 0.999, 1.0, 1.001, 2.0, 1e3])
    for method, limit in {"cdf": 1.0, "sf": 0.0, "pdf": 0.0, "integrated_sf": dist.mean}.items():
        kernel = getattr(dist, method)
        assert np.all(kernel(top) == limit), method
        assert kernel(near).tobytes() == _unclipped(dist, method, near).tobytes(), method


# the mixture kernels as written with np.multiply.outer and np.sum(axis=-1), kept as oracles

def _outer_cdf(d, x):
    w, r = np.asarray(d.weights), np.asarray(d.rates)
    out = -np.sum(w * np.expm1(-np.multiply.outer(np.maximum(x, 0.0), r)), axis=-1)
    return np.where(x > 0.0, out, 0.0)


def _outer_pdf(d, x):
    w, r = np.asarray(d.weights), np.asarray(d.rates)
    out = np.sum(w * r * np.exp(-np.multiply.outer(np.maximum(x, 0.0), r)), axis=-1)
    return np.where(x >= 0.0, out, 0.0)


def _outer_integrated_sf(d, x):
    w, r = np.asarray(d.weights), np.asarray(d.rates)
    return -np.sum((w / r) * np.expm1(-np.multiply.outer(np.maximum(x, 0.0), r)), axis=-1)


_OUTER_KERNELS = {"cdf": _outer_cdf, "pdf": _outer_pdf, "integrated_sf": _outer_integrated_sf}
_MIXTURE_EDGES = [0.0, -0.0, -1.0, 5e-324, math.inf, -math.inf]
_UNIFORM_EDGES = [0.0, 5e-324, 1.0 - 2.0**-53]


def _mixture(phases):
    rng = np.random.default_rng(phases)
    weights = rng.dirichlet(np.ones(phases))
    return HyperExponential(tuple(weights), tuple(np.exp(rng.uniform(-3.0, 3.0, phases))))


@pytest.mark.parametrize("phases", [2, 3, 7])
def test_mixture_sums_equal_the_outer_formulas_bit_for_bit(phases):
    # up to 7 phases numpy sums the short axis left to right from 0, as the builtin sum
    # does; from 8 on it unrolls the sum, and the last bit may move
    dist = _mixture(phases)
    rng = np.random.default_rng(phases + 40)
    x = np.concatenate((_MIXTURE_EDGES, rng.lognormal(0.0, 3.0, 100_000) / max(dist.rates),
                        rng.normal(0.0, 2.0, 10_000)))
    for method, oracle in _OUTER_KERNELS.items():
        kernel = getattr(dist, method)
        assert kernel(x).tobytes() == oracle(dist, x).tobytes(), method
        for edge in _MIXTURE_EDGES:
            assert float(kernel(edge)).hex() == float(oracle(dist, np.asarray(edge))).hex()
    # quantile is the least float with the outer cdf at u, or its bracket's end
    # -log1p(-u) / min(rates) where that cdf stays below u
    u = np.concatenate((_UNIFORM_EDGES, rng.random(100_000)))
    x, hi = dist.quantile(u), -np.log1p(-u) / min(dist.rates)
    assert np.all((0.0 <= x) & (x <= hi))
    assert np.all((_outer_cdf(dist, x) >= u) | (x == hi))
    assert np.all((x == 0.0) | (_outer_cdf(dist, np.nextafter(x, 0.0)) < u))
    assert dist.mean == float(np.sum(np.divide(dist.weights, dist.rates)))


# ---------------------------------------------------------------- equilibrium cdf

def test_equilibrium_cdf_examples():
    exp = Exponential(1.5)
    for x in (0.3, 1.0, 2.7):
        assert exp.equilibrium_cdf(x) == pytest.approx(exp.cdf(x), abs=1e-12)
    assert Deterministic(2.0).equilibrium_cdf(1.0) == pytest.approx(0.5, abs=1e-12)
    for dist in FAMILIES:
        assert dist.equilibrium_cdf(0.0) == 0.0


def _sf_breakpoints(dist):
    # kinks/jumps of the survival function, from the public parameters only
    if isinstance(dist, Deterministic):
        return [dist.value]
    if isinstance(dist, Uniform):
        return [dist.lo, dist.hi]
    return []


@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_equilibrium_cdf_matches_quadrature(dist):
    # one quadrature per interval between consecutive x values and breakpoints, summed
    # cumulatively, so the oracle at x is still the integral of sf over [0, x]
    mu = 1.0 / dist.mean
    xs = np.linspace(0.0, 3.0 * dist.mean, 100)
    nodes = np.union1d(xs, [b for b in _sf_breakpoints(dist) if 0.0 < b < xs[-1]])
    pieces = [adaptive_simpson(lambda y: float(dist.sf(y)), a, b, tol=1e-12)
              for a, b in zip(nodes[:-1], nodes[1:])]
    areas = np.concatenate([[0.0], np.cumsum(pieces)])
    for x, area in zip(xs, areas[np.searchsorted(nodes, xs)]):
        assert dist.equilibrium_cdf(x) == pytest.approx(mu * area, abs=1e-8)


# ---------------------------------------------------------------- integrated sf

def test_integrated_sf_examples():
    assert Exponential(1.0).integrated_sf(LN2) == pytest.approx(0.5, abs=1e-12)
    assert Deterministic(2.0).integrated_sf(3.0) == 2.0
    for dist in FAMILIES:
        assert dist.integrated_sf(0.0) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_integrated_sf_at_infinity_is_the_mean(dist):
    assert dist.integrated_sf(math.inf) == dist.mean
    assert dist.equilibrium_cdf(math.inf) == 1.0


@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_integrated_sf_one_lipschitz(dist):
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 4.0 * dist.mean, size=1000)
    b = a + rng.uniform(0.0, 2.0, size=1000)
    fa = np.array([dist.integrated_sf(v) for v in a])
    fb = np.array([dist.integrated_sf(v) for v in b])
    assert np.all(fb - fa >= -1e-12)
    assert np.all(fb - fa <= (b - a) + 1e-12)


@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_integrated_sf_inverse_round_trip(dist):
    total = dist.mean
    for y in np.linspace(0.0, 0.99 * total, 200):
        x = dist.integrated_sf_inverse(float(y))
        assert dist.integrated_sf(x) == pytest.approx(float(y), abs=1e-10)
    # arrays invert entrywise as the scalar calls do, both clamped ends in one array
    ys = np.concatenate([[-1.0, 0.0], np.linspace(0.01, 0.99, 50) * total, [total, 2.0 * total]])
    np.testing.assert_array_equal(dist.integrated_sf_inverse(ys),
                                  [dist.integrated_sf_inverse(float(y)) for y in ys])
    np.testing.assert_array_equal(survival_at_offered_wait(1.5, dist, 1.5 * ys),
                                  [survival_at_offered_wait(1.5, dist, float(q)) for q in 1.5 * ys])


def test_integrated_sf_inverse_examples():
    assert Exponential(1.0).integrated_sf_inverse(0.5) == pytest.approx(LN2, abs=1e-10)
    assert Deterministic(2.0).integrated_sf_inverse(2.5) == 2.0
    for dist in FAMILIES:
        assert dist.integrated_sf_inverse(0.0) == 0.0
    # beyond the tail area the support end is the answer, inf included
    assert Exponential(1.0).integrated_sf_inverse(1.5) == math.inf
    assert Uniform(0.0, 2.0).integrated_sf_inverse(5.0) == 2.0


# ---------------------------------------------------------------- sampling

def test_quantile_examples():
    assert Exponential(1.0).quantile(0.5) == pytest.approx(LN2, abs=1e-12)
    assert Uniform(0.0, 2.0).quantile(0.25) == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(0)
    assert Deterministic(2.0).sample(rng) == 2.0


@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_sampling_is_deterministic_under_seed(dist):
    draws1 = dist.sample(np.random.default_rng(42), 100)
    draws2 = dist.sample(np.random.default_rng(42), 100)
    np.testing.assert_array_equal(draws1, draws2)


def test_block_quantiles_equal_interleaved_scalar_draws():
    # the simulator's stream contract: column j of one rng.random((k, m)) block, mapped
    # by one quantile call on a contiguous array, is what law j's scalar draws give when
    # the m laws take turns on the same stream
    laws = FAMILIES + [Exponential(1.5).time_scaled(1.0 / 400)]
    k = 500
    block = np.random.default_rng(7).random((k, len(laws)))
    columns = [law.quantile(np.ascontiguousarray(block[:, j])) for j, law in enumerate(laws)]
    rng = np.random.default_rng(7)
    scalar = np.array([[law.sample(rng) for law in laws] for _ in range(k)])
    assert np.all(np.column_stack(columns) == scalar)


def _ks_statistic(dist, n, seed):
    samples = np.sort(np.asarray(dist.sample(np.random.default_rng(seed), n)))
    cdf_vals = np.asarray(dist.cdf(samples))
    upper = np.arange(1, n + 1) / n - cdf_vals
    lower = cdf_vals - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


@pytest.mark.parametrize("dist", CONTINUOUS, ids=_ids(CONTINUOUS))
def test_sampling_ks_bound(dist):
    n = 10_000
    bound = 1.36 / math.sqrt(n)
    stat = _ks_statistic(dist, n, seed=101)
    if stat > bound:  # statistical test: one rerun allowed
        stat = _ks_statistic(dist, n, seed=102)
    assert stat <= bound


def test_deterministic_sampling_is_exact():
    draws = Deterministic(2.0).sample(np.random.default_rng(3), 1000)
    assert np.all(np.asarray(draws) == 2.0)


# ---------------------------------------------------------------- stats

def test_stats_examples():
    assert (Exponential(0.5).mean, Exponential(0.5).support_end) == (2.0, math.inf)
    assert (Deterministic(2.0).mean, Deterministic(2.0).support_end) == (2.0, 2.0)
    assert (Uniform(0.0, 2.0).mean, Uniform(0.0, 2.0).support_end) == (1.0, 2.0)


def test_lognormal_mean_cv_parameterization():
    d = LogNormal.from_mean_cv(1.0, 1.0)
    assert d.mean == pytest.approx(1.0, abs=1e-12)
    # cv^2 = exp(sigma^2) - 1
    assert math.exp(d.sigma**2) - 1.0 == pytest.approx(1.0, abs=1e-12)


def test_hyperexponential_mean():
    d = HyperExponential((0.4, 0.6), (0.5, 2.0))
    assert d.mean == pytest.approx(0.4 / 0.5 + 0.6 / 2.0, abs=1e-12)


# ---------------------------------------------------------------- roles & literals

@pytest.mark.parametrize("dist", FAMILIES, ids=_ids(FAMILIES))
def test_role_validation(dist):
    if not dist.has_atoms:
        dist.validate_as_service()
        dist.validate_as_patience()
        return
    with pytest.raises(DistributionError, match="invalid service distribution: CDF has atoms"):
        dist.validate_as_service()
    with pytest.raises(DistributionError, match="invalid patience distribution: CDF is neither "
                                                "Lipschitz nor of bounded hazard"):
        dist.validate_as_patience()


def test_distribution_literals_round_trip():
    literals = [
        ({"family": "exponential", "rate": 1.0}, Exponential(1.0)),
        ({"family": "deterministic", "value": 2.0}, Deterministic(2.0)),
        ({"family": "uniform", "lo": 0.5, "hi": 2.5}, Uniform(0.5, 2.5)),
        ({"family": "lognormal", "mu": 0.3, "sigma": 0.8}, LogNormal(0.3, 0.8)),
        ({"family": "hyperexponential", "weights": [0.4, 0.6], "rates": [0.5, 2]},
         HyperExponential((0.4, 0.6), (0.5, 2.0))),
    ]
    for literal, dist in literals:
        assert distribution_from_dict(literal) == dist
    with pytest.raises(DistributionError):
        distribution_from_dict({"family": "gamma", "shape": 2.0})
    with pytest.raises(DistributionError):
        distribution_from_dict({"family": "exponential", "rte": 1.0})
    ln = distribution_from_dict({"family": "lognormal", "mean": 1.0, "cv": 1.0})
    assert ln == LogNormal.from_mean_cv(1.0, 1.0)


def test_time_scaled_preserves_law_shape():
    rng = np.random.default_rng(5)
    for dist in FAMILIES:
        scaled = dist.time_scaled(0.25)
        assert scaled.mean == pytest.approx(dist.mean * 0.25, rel=1e-12)
        x = rng.uniform(0.0, 3.0 * dist.mean, size=50)
        np.testing.assert_allclose(
            np.asarray(scaled.cdf(0.25 * x)), np.asarray(dist.cdf(x)), atol=1e-12)
