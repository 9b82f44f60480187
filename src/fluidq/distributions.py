"""Lifetime distributions for the fluid model and the simulator.

Each family knows its CDF and complement, the integrated survival function
x -> int_0^x sf(y) dy with its inverse, the equilibrium (stationary-excess)
distribution, and deterministic inverse-CDF sampling.  All of the solver's
distributional inputs flow through this module.

Conventions:
  * mean is the tail area int_0^inf sf(y) dy (the two agree for nonnegative
    lifetimes) and is finite for every family here;
  * support_end is the supremum of the support, math.inf when unbounded:
    +inf is a first-class sentinel, and consumers must branch on it;
  * the kernels return what numpy returns: an array shaped like the input, or
    for a scalar input a numpy scalar or 0-d array with no conversion to a
    Python float, so array callers need no wrap and scalar callers call float();
  * sf takes an optional out array, numpy's own convention: given one shaped like
    x, it writes the result there and returns it, and out may be x itself, so a
    caller that reuses one block pays for no fresh pages; without out it returns
    a fresh array, a 0-d one for a scalar x;
  * scipy.special, the source of LogNormal's ndtr and ndtri, is imported where
    a LogNormal is built, in its __post_init__: every other family runs on
    numpy alone, and a program that builds no lognormal law never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


# exp(-y) underflows to 0 and expm1(-y) rounds to -1 for every y past 746 in double
# precision, so the exponential kernels clip x at 746 / rate before they multiply: rate * x
# cannot overflow, and no value moves
_EXP_CAP = 746.0


class DistributionError(ValueError):
    """Invalid distribution parameters or an unsupported role."""


def bisect_increasing(func, y, lo, hi=None, guess=None):
    """The least float x in [lo, hi] with func(x) >= y, entrywise, or hi where there is none,
    for a nondecreasing entrywise func; lo >= 0, and without hi the upper end is the
    largest float.

    Nonnegative floats are ordered as their int64 bit patterns, so the search bisects the
    patterns between one below lo, never evaluated, and hi until the two are adjacent: at
    most 63 evaluations of func.  guess, an estimate of each entry's result, only narrows
    that bracket, in at most four more: the search checks the guess, then steps 64, 2^10
    and 2^20 floats from it toward y, staying in [lo, hi] and checking each step with
    func.  So for a func nondecreasing as computed in floating point, the result does not
    depend on the guess.  A func monotone only in exact arithmetic, such as a sum of terms
    that move in opposite directions, can cross y more than once within a few floats; the
    result is then one crossing, func(prev(x)) < y <= func(x) with func(prev(lo)) read as
    below y, or hi with func(hi) < y, and which one may depend on the guess.  The
    package's one monotone inversion.
    """
    shape = np.broadcast_shapes(np.shape(y), np.shape(lo), np.shape(hi), np.shape(guess))
    y, lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel()
                 for v in (y, lo, np.finfo(float).max if hi is None else hi))
    a, b = np.abs(lo).view(np.int64) - 1, np.abs(hi).view(np.int64)   # -0.0 reads as 0.0
    if guess is not None:
        x = np.broadcast_to(np.asarray(guess, dtype=float), shape).ravel().view(np.int64)
        x = np.clip(x, a + 1, b)
        up = func(x.view(float)) < y   # which way from the guess the result lies
        np.copyto(a, x, where=up)
        np.copyto(b, x, where=~up)
        at = np.arange(y.size)
        for ulps in _GUESS_ULPS:
            if not at.size:
                break
            x = np.clip(x + np.where(up, ulps, -ulps), a[at] + 1, b[at])
            below = func(x.view(float)) < y[at]
            a[at[below]] = x[below]
            b[at[~below]] = x[~below]
            short = below == up   # the entries whose step fell short of the result
            at, x, up = at[short], x[short], up[short]
    return _adjacent(func, y, a, b).view(float).reshape(shape)


# how far bisect_increasing's search steps from a guess, in floats
_GUESS_ULPS = (64, 1 << 10, 1 << 20)


def _adjacent(func, y, a, b):
    """Bisection over the int64 bit patterns a <= b of floats until they are adjacent; returns
    b.  Where evaluated, func(a) < y <= func(b).  Each step evaluates the upper midpoint, which
    shrinks b - a to at most half of it rounded up, and is b itself once the ends meet, so
    entries already adjacent stay put while ceil(log2(b - a)) steps close the widest."""
    for _ in range(int(np.max(b - a, initial=1) - 1).bit_length()):
        m = b - ((b - a) >> 1)
        below = func(m.view(float)) < y
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    return b


class DistributionSpec:
    """Base class for parametric lifetime distributions."""

    #: The family's name in a config literal, e.g. "exponential"; each family sets it.
    family: str
    #: True when the CDF has a jump (only the Deterministic family here).
    has_atoms = False
    #: sup{x : F(x) < 1}; Deterministic and Uniform override the unbounded default.
    support_end = math.inf

    # -- core functions -------------------------------------------------

    def cdf(self, x):
        """P(lifetime <= x); 0 for x < 0, nondecreasing."""
        raise NotImplementedError

    def sf(self, x, out=None):
        """Complement 1 - cdf(x), written into out when one is given."""
        return np.subtract(1.0, self.cdf(x), out=out)

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
        return np.where(inside, x, np.where(y <= 0.0, 0.0, self.support_end))

    def equilibrium_cdf(self, x):
        """Stationary-excess distribution: integrated_sf(x) / mean."""
        m = self.mean
        if not (0.0 < m < math.inf):
            raise DistributionError("invalid service distribution: mean must be positive and finite")
        x = np.asarray(x, dtype=float)
        out = self.integrated_sf(np.maximum(x, 0.0)) / m
        return np.clip(out, 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF sampling, quantile(rng.random(size)); identical seed gives identical draws.

        Without size the draw is quantile of one Python float, a numpy scalar or 0-d
        array.  quantile of a contiguous array equals, element by element, quantile of
        each entry as a scalar, bit for bit, so a caller may draw a block of uniforms and
        map it in one call without changing a draw; the simulator draws its per-arrival
        rows that way."""
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
    family = "exponential"

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DistributionError("exponential rate must be positive")

    def _clipped(self, x):   # max(x, 0), which is +0.0 for -0.0, capped
        return np.maximum(np.minimum(x, _EXP_CAP / self.rate), 0.0)

    def cdf(self, x):
        return -np.expm1(-self.rate * self._clipped(x))

    def sf(self, x, out=None):
        out = np.empty(np.shape(x)) if out is None else out
        np.asarray(x).clip(0.0, _EXP_CAP / self.rate, out=out)   # one pass; exp(-0.0) is 1 too
        out *= -self.rate
        return np.exp(out, out=out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * self._clipped(x)), 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u) / self.rate

    def integrated_sf(self, x):
        return -np.expm1(-self.rate * self._clipped(x)) / self.rate

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def time_scaled(self, factor: float) -> "Exponential":
        return Exponential(self.rate / factor)


@dataclass(frozen=True)
class Deterministic(DistributionSpec):
    value: float
    family = "deterministic"
    has_atoms = True

    def __post_init__(self):
        if not self.value > 0.0:
            raise DistributionError("deterministic value must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)

    def pdf(self, x):
        raise DistributionError("deterministic distribution has no density")

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.full_like(u, self.value)

    def integrated_sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(x, 0.0, self.value)

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
    family = "uniform"

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise DistributionError("uniform requires 0 <= lo < hi")

    @property
    def _width(self) -> float:
        return self.hi - self.lo

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / self._width, 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / self._width, 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.lo + u * self._width

    def integrated_sf(self, x):
        x = np.asarray(x, dtype=float)
        xl = np.clip(x, 0.0, self.lo)
        u = np.clip(x - self.lo, 0.0, self._width)
        return xl + u - u * u / (2.0 * self._width)

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
    family = "lognormal"

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.sigma
                and self.mu + 0.5 * self.sigma * self.sigma <= math.log(np.finfo(float).max)):
            raise DistributionError("lognormal needs a finite mu, a positive sigma and a finite mean")
        global ndtr, ndtri   # bound for the kernels by the first lognormal law built
        from scipy.special import ndtr, ndtri

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Parameterize by mean and coefficient of variation."""
        if not (mean > 0.0 and cv > 0.0):
            raise DistributionError("lognormal mean and cv must be positive")
        sigma2 = math.log(1.0 + cv * cv)
        return cls(mu=math.log(mean) - 0.5 * sigma2, sigma=math.sqrt(sigma2))

    def _z(self, x, out=None):
        """(log x - mu) / sigma in out, or one fresh array; x <= 0 reads as 0, whose log is -inf."""
        z = np.maximum(x, 0.0, out=np.empty(np.shape(x)) if out is None else out)
        with np.errstate(divide="ignore"):
            np.log(z, out=z)
        z -= self.mu
        z /= self.sigma
        return z

    def cdf(self, x):
        z = self._z(x)
        return ndtr(z, out=z)

    def sf(self, x, out=None):
        z = self._z(x, out)
        return ndtr(np.negative(z, out=z), out=z)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        z = self._z(xs)
        return np.where(pos, np.exp(-0.5 * z * z) / (xs * self.sigma * math.sqrt(2.0 * math.pi)), 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(self.mu + self.sigma * ndtri(u))

    def integrated_sf(self, x):
        # int_0^x sf = x sf(x) + E[Y] Phi((ln x - mu)/sigma - sigma),
        # by parts plus the lognormal partial-expectation identity; at x = inf, the mean.
        x = np.asarray(x, dtype=float)
        finite = (x > 0.0) & (x < math.inf)
        xs = np.where(finite, x, 1.0)
        z = self._z(xs)
        return np.where(finite, xs * ndtr(-z) + self.mean * ndtr(z - self.sigma),
                        np.where(x > 0.0, self.mean, 0.0))

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def time_scaled(self, factor: float) -> "LogNormal":
        return LogNormal(self.mu + math.log(factor), self.sigma)


@dataclass(frozen=True)
class HyperExponential(DistributionSpec):
    """A mixture of exponential phases.  cdf, pdf and integrated_sf add the phases in one
    builtin sum, left to right from 0 as numpy sums a short axis, so integrated_sf keeps
    its -0.0 at x <= 0.  They clip x once, at the slowest phase's cap: no phase's r x
    overflows while the rates lie within a factor 1e305 of each other."""

    weights: tuple
    rates: tuple
    family = "hyperexponential"

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

    def _clipped(self, x):   # one pass; each sum below takes -0.0 as it does 0.0
        return np.asarray(x, dtype=float).clip(0.0, _EXP_CAP / min(self.rates))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xp = self._clipped(x)
        out = -sum(w * np.expm1(-r * xp) for w, r in zip(self.weights, self.rates))
        return np.where(x > 0.0, out, 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xp = self._clipped(x)
        out = sum(w * r * np.exp(-r * xp) for w, r in zip(self.weights, self.rates))
        return np.where(x >= 0.0, out, 0.0)

    def quantile(self, u):
        # the least float with cdf >= u, by bisect_increasing on the strictly increasing cdf,
        # bracketed by sf(x) <= exp(-min(rates) x), from Newton's guess.  The cdf sums phases
        # that each rise as computed, so it is nondecreasing in floating point too, and the
        # guess moves no result: it only narrows the bracket.  The cdf is concave, so Newton
        # from below stays below the root and rises.  Newton starts at the largest lower bound
        # that one phase gives, sf(x) >= w exp(-r x), or the fastest, sf(x) >= exp(-max(rates)
        # x), and sweeps until every residual is within 2^-26 u; that sweep's quadratic step
        # lands within a few floats of the root.  Entries unsettled after 40 sweeps keep the
        # guess they have: the search checks any guess.
        u = np.asarray(u, dtype=float)
        t = -np.log1p(-u)
        x = t / max(self.rates)
        for w, r in zip(self.weights, self.rates):
            x = np.maximum(x, (t + math.log(w)) / r)
        with np.errstate(all="ignore"):
            for _ in range(40):
                terms = [(w, r, np.expm1(-r * x)) for w, r in zip(self.weights, self.rates)]
                residual = u + sum(w * e for w, _, e in terms)
                x = x + residual / sum(w * r * (e + 1.0) for w, r, e in terms)
                if np.all(np.abs(residual) <= 2.0**-26 * u):
                    break
        return bisect_increasing(self.cdf, u, np.zeros_like(u), t / min(self.rates), guess=x)

    def integrated_sf(self, x):
        xp = self._clipped(x)
        return -sum(w / r * np.expm1(-r * xp) for w, r in zip(self.weights, self.rates))

    @property
    def mean(self) -> float:
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def time_scaled(self, factor: float) -> "HyperExponential":
        return HyperExponential(self.weights, tuple(r / factor for r in self.rates))


_FAMILIES = {cls.family: cls for cls in (Exponential, Deterministic, Uniform, LogNormal,
                                          HyperExponential)}


def is_finite_number(value) -> bool:
    """Whether value is a finite JSON number: a bool is not one, nor an int beyond the float
    range."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _number(value, name: str) -> float:
    if not is_finite_number(value):
        raise DistributionError(f"distribution parameter {name!r} must be a finite number, got {value!r}")
    return float(value)


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
    cls = _FAMILIES[family]
    params = [f.name for f in fields(cls)]
    extra = set(spec) - {"family", *params}
    if extra:
        raise DistributionError(f"unknown distribution parameter(s): {sorted(extra)}")
    missing = [p for p in params if p not in spec]
    if missing:
        raise DistributionError(f"distribution family {family!r} requires {missing}")
    read = _numbers if family == "hyperexponential" else _number
    return cls(**{p: read(spec[p], p) for p in params})
