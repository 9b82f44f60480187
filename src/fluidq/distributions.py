"""Lifetime distributions for the fluid model and the simulator.

Each family knows its CDF and complement, the integrated survival function
x -> int_0^x sf(y) dy with its inverse, the equilibrium (stationary-excess)
distribution, and deterministic inverse-CDF sampling.  All of the solver's
distributional inputs flow through this module.

Conventions:
  * mean is the tail area int_0^inf sf(y) dy (the two agree for nonnegative
    lifetimes) and is finite for every family here;
  * support_end is the supremum of the support, math.inf when unbounded:
    +inf is a first-class sentinel, and consumers must branch on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


class DistributionError(ValueError):
    """Invalid distribution parameters or an unsupported role."""


def bisect_increasing(func, y, lo, hi=None):
    """Where the nondecreasing func reaches y, entrywise in [lo, hi]: 80 vectorized halvings.

    Returns the upper end of the last bracket, the smallest float with
    func >= y to resolution; the bracket's midpoint can round to the float
    below.  Without hi, the upper bracket doubles from 1 until func reaches
    every target, and stops past 1e300, where the unreached targets get the
    bracket end.  The package's one monotone inversion.
    """
    y = np.asarray(y, dtype=float)
    if hi is None:
        hi = 1.0
        while hi <= 1e300 and np.any(np.asarray(func(hi)) < y):
            hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = np.asarray(func(mid)) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def _maybe_scalar(x):
    """Return a python float for 0-d results, the array otherwise."""
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


class DistributionSpec:
    """Base class for parametric lifetime distributions."""

    #: True when the CDF has a jump (only the Deterministic family here).
    has_atoms = False
    #: sup{x : F(x) < 1}; Deterministic and Uniform override the unbounded default.
    support_end = math.inf

    # -- core functions -------------------------------------------------

    def cdf(self, x):
        """P(lifetime <= x); 0 for x < 0, nondecreasing."""
        raise NotImplementedError

    def sf(self, x):
        """Complement 1 - cdf(x)."""
        return _maybe_scalar(1.0 - np.asarray(self.cdf(x)))

    def pdf(self, x):
        """Density where one exists."""
        raise NotImplementedError

    def quantile(self, u):
        """Inverse CDF on [0, 1)."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """E[lifetime], which is also the tail area int_0^inf sf(y) dy."""
        raise NotImplementedError

    # -- derived objects -------------------------------------------------

    def integrated_sf(self, x):
        """int_0^x sf(y) dy; nondecreasing, concave, 1-Lipschitz."""
        raise NotImplementedError

    def integrated_sf_inverse(self, y):
        """Inverse of integrated_sf, entrywise: 0 for y <= 0, support_end (which may
        be the +inf sentinel) for y >= mean, the tail area, bisection between."""
        y = np.asarray(y, dtype=float)
        inside = (y > 0.0) & (y < self.mean)
        x = bisect_increasing(self.integrated_sf, np.where(inside, y, 0.0), 0.0)
        return _maybe_scalar(np.where(inside, x, np.where(y <= 0.0, 0.0, self.support_end)))

    def equilibrium_cdf(self, x):
        """Stationary-excess distribution: integrated_sf(x) / mean."""
        m = self.mean
        if not (0.0 < m < math.inf):
            raise DistributionError("invalid service distribution: mean must be positive and finite")
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.integrated_sf(np.maximum(x, 0.0))) / m
        return _maybe_scalar(np.clip(out, 0.0, 1.0))

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF sampling, quantile(rng.random(size)); identical seed gives identical draws.

        quantile of a contiguous array equals entrywise quantile of its 0-d entries, bit
        for bit, so a caller may draw a block of uniforms and map it in one call without
        changing a draw; the simulator draws its per-arrival rows that way."""
        return self.quantile(rng.random(size))

    # -- role validation ---------------------------------------------------

    def validate_as_service(self) -> None:
        """Service distributions must be continuous with finite positive mean."""
        if self.has_atoms:
            raise DistributionError("invalid service distribution: CDF has atoms")
        m = self.mean
        if not (0.0 < m < math.inf):
            raise DistributionError("invalid service distribution: mean must be positive and finite")

    def validate_as_patience(self) -> None:
        """Patience distributions need a Lipschitz CDF or a bounded hazard rate.

        A jump is the only way a law here has neither: every atomless family has
        a bounded density, so its CDF is Lipschitz, and has_atoms decides it.
        """
        if self.has_atoms:
            raise DistributionError(
                "invalid patience distribution: CDF is neither Lipschitz nor of bounded hazard"
            )

    def time_scaled(self, factor: float) -> "DistributionSpec":
        """The law of factor * lifetime (used to scale interarrival times by 1/n)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DistributionError("exponential rate must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.where(x > 0.0, np.exp(-self.rate * np.maximum(x, 0.0)), 1.0))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(-np.log1p(-u) / self.rate)

    def integrated_sf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(-np.expm1(-self.rate * np.maximum(x, 0.0)) / self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def time_scaled(self, factor: float) -> "Exponential":
        return Exponential(self.rate / factor)


@dataclass(frozen=True)
class Deterministic(DistributionSpec):
    value: float
    has_atoms = True

    def __post_init__(self):
        if not self.value > 0.0:
            raise DistributionError("deterministic value must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.where(x >= self.value, 1.0, 0.0))

    def pdf(self, x):
        raise DistributionError("deterministic distribution has no density")

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(np.full_like(u, self.value))

    def integrated_sf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.clip(x, 0.0, self.value))

    @property
    def mean(self) -> float:
        return self.value

    @property
    def support_end(self) -> float:
        return self.value

    def time_scaled(self, factor: float) -> "Deterministic":
        return Deterministic(self.value * factor)


@dataclass(frozen=True)
class Uniform(DistributionSpec):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise DistributionError("uniform requires 0 <= lo < hi")

    @property
    def _width(self) -> float:
        return self.hi - self.lo

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.clip((x - self.lo) / self._width, 0.0, 1.0))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(np.where((x >= self.lo) & (x <= self.hi), 1.0 / self._width, 0.0))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(self.lo + u * self._width)

    def integrated_sf(self, x):
        x = np.asarray(x, dtype=float)
        xl = np.clip(x, 0.0, self.lo)
        u = np.clip(x - self.lo, 0.0, self._width)
        return _maybe_scalar(xl + u - u * u / (2.0 * self._width))

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def support_end(self) -> float:
        return self.hi

    def time_scaled(self, factor: float) -> "Uniform":
        return Uniform(self.lo * factor, self.hi * factor)


@dataclass(frozen=True)
class LogNormal(DistributionSpec):
    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.sigma
                and self.mu + 0.5 * self.sigma * self.sigma <= math.log(np.finfo(float).max)):
            raise DistributionError("lognormal needs a finite mu, a positive sigma and a finite mean")

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Parameterize by mean and coefficient of variation."""
        if not (mean > 0.0 and cv > 0.0):
            raise DistributionError("lognormal mean and cv must be positive")
        sigma2 = math.log(1.0 + cv * cv)
        return cls(mu=math.log(mean) - 0.5 * sigma2, sigma=math.sqrt(sigma2))

    def _z(self, x):
        with np.errstate(divide="ignore"):
            return (np.log(x) - self.mu) / self.sigma

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        return _maybe_scalar(np.where(pos, ndtr(self._z(np.where(pos, x, 1.0))), 0.0))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        return _maybe_scalar(np.where(pos, ndtr(-self._z(np.where(pos, x, 1.0))), 1.0))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        z = self._z(xs)
        out = np.where(pos, np.exp(-0.5 * z * z) / (xs * self.sigma * math.sqrt(2.0 * math.pi)), 0.0)
        return _maybe_scalar(out)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(np.exp(self.mu + self.sigma * ndtri(u)))

    def integrated_sf(self, x):
        # int_0^x sf = x sf(x) + E[Y] Phi((ln x - mu)/sigma - sigma),
        # by parts plus the lognormal partial-expectation identity.
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        z = self._z(xs)
        out = np.where(pos, xs * ndtr(-z) + self.mean * ndtr(z - self.sigma), 0.0)
        return _maybe_scalar(out)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def time_scaled(self, factor: float) -> "LogNormal":
        return LogNormal(self.mu + math.log(factor), self.sigma)


@dataclass(frozen=True)
class HyperExponential(DistributionSpec):
    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        r = tuple(float(v) for v in self.rates)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)
        if len(w) != len(r) or not w:
            raise DistributionError("hyperexponential weights and rates must match and be nonempty")
        if any(v <= 0.0 for v in w) or any(v <= 0.0 for v in r):
            raise DistributionError("hyperexponential weights and rates must be positive")
        if abs(sum(w) - 1.0) > 1e-9:
            raise DistributionError("hyperexponential weights must sum to 1")

    def _w(self):
        return np.asarray(self.weights), np.asarray(self.rates)

    def cdf(self, x):
        w, r = self._w()
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        out = -np.sum(w * np.expm1(-np.multiply.outer(xp, r)), axis=-1)
        return _maybe_scalar(np.where(x > 0.0, out, 0.0))

    def pdf(self, x):
        w, r = self._w()
        x = np.asarray(x, dtype=float)
        out = np.sum(w * r * np.exp(-np.multiply.outer(np.maximum(x, 0.0), r)), axis=-1)
        return _maybe_scalar(np.where(x >= 0.0, out, 0.0))

    def quantile(self, u):
        # single-uniform inverse CDF via vectorized bisection; the mixture CDF
        # is strictly increasing, and sf(x) <= exp(-min(rates) x) brackets it.
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(bisect_increasing(self.cdf, u, np.zeros_like(u),
                                               -np.log1p(-u) / min(self.rates)))

    def integrated_sf(self, x):
        w, r = self._w()
        x = np.asarray(x, dtype=float)
        out = -np.sum((w / r) * np.expm1(-np.multiply.outer(np.maximum(x, 0.0), r)), axis=-1)
        return _maybe_scalar(out)

    @property
    def mean(self) -> float:
        w, r = self._w()
        return float(np.sum(w / r))

    def time_scaled(self, factor: float) -> "HyperExponential":
        return HyperExponential(self.weights, tuple(r / factor for r in self.rates))


_FAMILIES = {
    "exponential": (Exponential, ("rate",)),
    "deterministic": (Deterministic, ("value",)),
    "uniform": (Uniform, ("lo", "hi")),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "hyperexponential": (HyperExponential, ("weights", "rates")),
}


def _number(value, name: str) -> float:
    """A parameter that is a finite JSON number (a bool is not one), as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise DistributionError(f"distribution parameter {name!r} must be a finite number, got {value!r}")


def _numbers(value, name: str) -> list:
    if not isinstance(value, list):
        raise DistributionError(f"distribution parameter {name!r} must be a list of numbers, got {value!r}")
    return [_number(v, name) for v in value]


def distribution_from_dict(spec: dict) -> DistributionSpec:
    """Build a distribution from a config literal like {"family": "exponential", "rate": 1.0}."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise DistributionError("distribution literal must be an object with a 'family' key")
    family = spec["family"]
    if family == "lognormal" and "mean" in spec:
        extra = set(spec) - {"family", "mean", "cv"}
        if extra:
            raise DistributionError(f"unknown distribution parameter(s): {sorted(extra)}")
        return LogNormal.from_mean_cv(_number(spec["mean"], "mean"), _number(spec.get("cv", 1.0), "cv"))
    if not isinstance(family, str) or family not in _FAMILIES:
        raise DistributionError(f"unknown distribution family: {family!r}")
    cls, params = _FAMILIES[family]
    extra = set(spec) - {"family", *params}
    if extra:
        raise DistributionError(f"unknown distribution parameter(s): {sorted(extra)}")
    missing = [p for p in params if p not in spec]
    if missing:
        raise DistributionError(f"distribution family {family!r} requires {missing}")
    read = _numbers if family == "hyperexponential" else _number
    return cls(**{p: read(spec[p], p) for p in params})
