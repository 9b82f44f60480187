"""Deterministic fluid model of the many-server queue with abandonment.

The scalar fluid content X(t) solves a Volterra-type fixed-point equation
driven by the service distribution, its equilibrium distribution, and the
patience distribution through the survival map H.  The solver marches a
uniform time grid: convolution integrals are Lebesgue-Stieltjes sums with
exact CDF increments over the grid cells, the integrand taken at the newest
grid value.  The final cell is solved for the offered wait w; the queue
lambda * F_d(w), the survival sf(w), the virtual buffer lambda * w and X
follow from w directly.  The march takes a window of steps at a time: the
history before the window is summed by the blocked FFT of Hairer, Lubich and
Schlichte (1985), one square of earlier steps against later ones per window,
in O(N log^2 N) for N steps; the history inside it is one triangular Toeplitz
product, and Picard sweeps solve every step of the window by one vectorized
bracketed Newton iteration until the history sums settle.  A step's equation
increases in w towards its value past the patience tail, so it has a root
exactly when the queue it implies stays within lambda times the patience
mean; a root is accepted at a few rounding errors, with no tolerance to
tune, and a settled step with no root is an invariant violation.  The busy-server
and scheduled masses follow in closed form, and measure-valued buffer/server
profiles can be materialized at any grid time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .measures import TailMeasure


class FluidModelError(ValueError):
    """Invalid fluid-model inputs."""


class InvalidInitialError(FluidModelError):
    """Initial condition violates the validity constraints."""


class NoConvergenceError(RuntimeError):
    """A step's Newton iteration, or a window's sweeps, exceeded its cap."""


class InvariantViolationError(RuntimeError):
    """The solved trajectory breaks a structural invariant."""


_INNER_CAP = 50
_LAGRANGE = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])   # prod_{i != j} (j - i), i, j < 6
_WINDOW = 128              # fluid steps solve takes together in one window of sweeps
_SETTLED = 1e-13           # a window's sweeps stop once no base moves by more
_ROOT = 4e-15              # a step's root is accepted at |g| <= _ROOT (1 + b + base)


def grid_slack(t: float) -> float:
    """The rounding slack of the grid rule at time t: 1e-12 max(1, |t|)."""
    return 1e-12 * max(1.0, abs(t))


@dataclass(frozen=True)
class FluidConfig:
    """Scaled model parameters: one unit of fluid equals the server pool."""

    arrival_rate: float
    patience: DistributionSpec
    service: DistributionSpec
    horizon: float = 10.0
    dt: float = 1e-3

    def __post_init__(self):
        if not self.arrival_rate > 0.0:
            raise FluidModelError("arrival_rate must be positive")
        if not self.dt > 0.0:
            raise FluidModelError("dt must be positive")
        if not self.horizon >= self.dt:
            raise FluidModelError("horizon must be at least dt")

    @property
    def traffic_intensity(self) -> float:
        return self.arrival_rate * self.service.mean

    def grid_index(self, t: float, what: str = "time") -> int:
        """The k with t = k dt, t in [0, horizon]: the package's one grid rule.

        Both hold up to 1e-12 max(1, |t|), so k dt, a running sum of dt and the last grid
        time, which rounding can put just past the horizon, all lie on the grid."""
        tol = grid_slack(t)
        if not 0.0 <= t <= self.horizon + tol:
            raise FluidModelError(f"{what} {t!r} lies outside [0, horizon={self.horizon!r}]")
        k = int(round(t / self.dt))
        if abs(t - k * self.dt) > tol:
            raise FluidModelError(f"{what} {t!r} is not on the grid of dt={self.dt!r}")
        return k

    @property
    def steps(self) -> int:
        """Grid steps up to the horizon, which must lie on the grid."""
        return self.grid_index(self.horizon, "horizon")

    def probe_steps(self, probes) -> np.ndarray:
        """probes / dt, each checked below 2**52 (a NaN is not), where a float holds a whole
        step count."""
        probes = np.asarray(probes, dtype=float)
        if not np.all(probes < 2.0**52 * self.dt):   # checked before a quotient can overflow
            raise FluidModelError(f"probes must lie below 2**52 steps of dt={self.dt!r}")
        return probes / self.dt


# -- initial conditions -----------------------------------------------------


class ServerProfile:
    """Shape of the initial in-service mass, by its tail in remaining service time."""

    def mass(self, service: DistributionSpec) -> float:
        raise NotImplementedError

    def tail(self, service: DistributionSpec, x):
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyServers(ServerProfile):
    def mass(self, service):
        return 0.0

    def tail(self, service, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class EquilibriumShaped(ServerProfile):
    """Mass z spread as the stationary-excess law of the service distribution."""

    busy_mass: float

    def mass(self, service):
        return self.busy_mass

    def tail(self, service, x):
        return self.busy_mass * (1.0 - service.equilibrium_cdf(x))


@dataclass(frozen=True)
class ServiceComplementShaped(ServerProfile):
    """Mass z of freshly started services (remaining time distributed as G)."""

    busy_mass: float

    def mass(self, service):
        return self.busy_mass

    def tail(self, service, x):
        return self.busy_mass * service.sf(x)


@dataclass(frozen=True)
class TabulatedProfile(ServerProfile):
    measure: TailMeasure

    def mass(self, service):
        return self.measure.total

    def tail(self, service, x):
        return self.measure.tail_at(np.maximum(x, 0.0))


EMPTY_SERVERS = EmptyServers()


@dataclass(frozen=True)
class InitialCondition:
    """Virtual-buffer mass plus a server profile; queue mass is implied."""

    virtual_buffer_mass: float = 0.0
    server_profile: ServerProfile = EMPTY_SERVERS


@dataclass(frozen=True)
class ValidatedInitial:
    virtual0: float
    wait0: float      # offered wait virtual0 / arrival_rate: the buffer holds that much history
    queue0: float
    busy0: float
    server_profile: ServerProfile

    @property
    def system0(self) -> float:
        return self.queue0 + self.busy0

    def server_tail(self, service: DistributionSpec, x):
        return self.server_profile.tail(service, x)


def validate_initial(cfg: FluidConfig, init: InitialCondition) -> ValidatedInitial:
    """Check the validity constraints and return the normalized state.

    The queue mass is pinned by the buffer equation: queue0 equals
    arrival_rate times the integrated patience survival at the elapsed-wait
    window virtual0/arrival_rate, which is finite: a queue of arrival_rate
    times the patience mean has no such window.  A positive queue requires
    full servers, the busy mass cannot exceed one, and tabulated profiles must
    be atomless at grid resolution with no mass at remaining time zero.
    """
    lam = cfg.arrival_rate
    r0 = float(init.virtual_buffer_mass)
    if not math.isfinite(r0):
        raise InvalidInitialError("invalid-init: virtual buffer mass must be finite; a queue "
                                  "of lambda*N_F or more has no offered wait")
    if r0 < 0.0:
        raise InvalidInitialError("invalid-init: virtual buffer mass must be nonnegative")
    w0 = r0 / lam
    q0 = lam * float(cfg.patience.integrated_sf(w0))
    z0 = float(init.server_profile.mass(cfg.service))
    if z0 < -1e-12 or z0 > 1.0 + 1e-9:
        raise InvalidInitialError("invalid-init: server mass must lie in [0, 1]")
    z0 = min(max(z0, 0.0), 1.0)
    if q0 > 1e-12 and z0 < 1.0 - 1e-9:
        raise InvalidInitialError("invalid-init: queue positive but servers not full")
    if isinstance(init.server_profile, TabulatedProfile):
        m = init.server_profile.measure
        resolution = cfg.dt * max(m.total, 1e-300)
        if m.total - m.tail_at(0.0) > resolution + 1e-12:
            raise InvalidInitialError("invalid-init: atom at zero")
        if m.tails.size > 1 and np.max(-np.diff(m.tails)) > resolution + 1e-12:
            raise InvalidInitialError("invalid-init: tabulated profile has atoms at grid resolution")
    return ValidatedInitial(virtual0=r0, wait0=w0, queue0=q0, busy0=z0,
                            server_profile=init.server_profile)


# -- the survival map and the initial load ------------------------------------


def survival_at_offered_wait(arrival_rate: float, patience: DistributionSpec, queue_mass):
    """Fraction of arriving fluid patient enough to reach service, entrywise.

    For queue mass q the offered wait is the inverse integrated patience
    survival at q/arrival_rate; the value is the patience complement there.
    Nonincreasing in q, equal to 0 from arrival_rate times the patience tail
    area onward.
    """
    wait = patience.integrated_sf_inverse(np.asarray(queue_mass) / arrival_rate)
    # past an unbounded support sf is 0 exactly, not 1 minus a rounded sum of weights
    return np.where(np.isinf(wait), 0.0, patience.sf(wait))


def initial_load(cfg: FluidConfig, init: ValidatedInitial, t):
    """Fluid still present at time t from the initial state alone."""
    return init.server_tail(cfg.service, t) + init.queue0 * cfg.service.sf(t)


# -- measure profiles ------------------------------------------------------------


@dataclass(frozen=True)
class MeasureProfiles:
    buffer: TailMeasure
    server: TailMeasure


def virtual_buffer_tail(arrival_rate: float, patience: DistributionSpec, virtual_mass: float,
                        probes: np.ndarray) -> TailMeasure:
    """Virtual-buffer tail in residual patience on sorted probes.

    The buffer holds the arrivals of the last virtual_mass/arrival_rate time
    units, thinned by patience survival at their residual level.
    """
    wait = virtual_mass / arrival_rate
    fd = patience.integrated_sf
    buf = arrival_rate * (
        np.clip(-probes, 0.0, wait)
        + fd(np.maximum(probes + wait, 0.0))
        - fd(np.maximum(probes, 0.0))
    )
    return TailMeasure(probes, np.maximum(buf, 0.0), virtual_mass, "linear")


@dataclass(frozen=True)
class FluidSolution:
    """Grid-indexed trajectories plus on-demand measure profiles."""

    config: FluidConfig
    initial: ValidatedInitial
    times: np.ndarray
    system: np.ndarray      # X
    queue: np.ndarray       # Q = (X - 1)^+
    busy: np.ndarray        # Z = X ^ 1
    virtual: np.ndarray     # R
    scheduled: np.ndarray   # B = arrival_rate * t - R
    inner_iterations: int = 0        # step-equation evaluations, summed over steps and sweeps
    max_step_residual: float = 0.0   # worst |g| of a step's accepted root

    def grid_index(self, t: float) -> int:
        return self.config.grid_index(t)

    def measures_at(self, t: float, probes) -> MeasureProfiles:
        """Materialize buffer and server tail measures at a grid time."""
        return self.profiles([t], probes)[0]

    def _entries(self, k: int) -> np.ndarray:
        """Fluid entering service in each of the first k grid cells (midpoint rule)."""
        waits = 0.5 * (self.virtual[:k] + self.virtual[1 : k + 1]) / self.config.arrival_rate
        return self.config.patience.sf(waits) * np.diff(self.scheduled[: k + 1])

    def profiles(self, times, probes) -> list[MeasureProfiles]:
        """Buffer and server tail measures at each grid time, in the order given.

        The server tail at t_k is the initial profile shifted by t_k plus the admitted fluid,
        S(x) = sum_l c_l service.sf(x + (l + 1/2) dt), c_l = coeff_{k-1-l} of _entries, and
        S(m dt) = sum_l c_l g_{m+l} for g_i = service.sf((i + 1/2) dt): a correlation, taken by
        overlap-save.  Each tile of the grid that holds a probe's stencil takes g on its N
        cells, N the least power of two >= max k + min(M, max k + 6), M = ceil(largest probe /
        dt) + 6, and one rfft; per time one rfft and one irfft, in reused buffers, give S where
        no wrap reaches.  So memory is O(max k) whatever the probes.  Probes x > 0 read S by
        the 6-point Lagrange stencil about x / dt, one-sided near 0: within 1e-12 of the direct
        sum on smooth service laws, O(dt^2) at a kink of service.sf (9e-8 for uniform(0, 2) at
        dt = 1e-3).  Probes x <= 0 read the total busy mass.
        """
        cfg, lam = self.config, self.config.arrival_rate
        ks = [self.grid_index(t) for t in times]
        probes = np.sort(np.asarray(probes, dtype=float))
        on = probes > 0.0
        positive, u = probes[on], cfg.probe_steps(probes)[on]   # a NaN, not > 0, checked too
        kmax = max(ks, default=0)
        coeff = self._entries(kmax)
        sf_lags = cfg.service.sf((np.arange(kmax - 1, -1, -1) + 0.5) * cfg.dt)   # before the FFTs
        reach = math.ceil(u[-1]) + 6 if u.size else 0   # M
        size = 1 << (min(reach, kmax + 6) + kmax - 1).bit_length()   # N
        span = size - kmax - 4   # a tile's stencils start in [a, a + span)
        first = np.maximum(np.floor(u).astype(np.int64) - 2, 0)   # the stencil's first node
        weights = np.prod(np.where(np.eye(6) == 0, (u - first)[:, None, None] - np.arange(6), 1.0),
                          axis=2) / _LAGRANGE
        sums, g_hat, spectrum = np.empty(size), None, None   # g, then each time's correlation
        admitted = np.zeros((len(ks), u.size))   # the admitted part of each tail
        for a in dict.fromkeys((first // span * span).tolist()):   # a tile, by its first cell
            on, end = (first >= a) & (first < a + span), min(size, reach + kmax - a)
            g = cfg.service.sf(np.arange(a + 0.5, a + end) * cfg.dt, out=sums[:end])
            g_hat = np.fft.rfft(g, size, out=g_hat)   # g zero-padded to N
            cells = first[on, None] - a + np.arange(-1, 5)   # S(m) is sums[m - a + k - 1]
            for c, k in enumerate(ks):
                spectrum = np.fft.rfft(coeff[:k], size, out=spectrum)
                np.fft.irfft(np.multiply(spectrum, g_hat, out=spectrum), size, out=sums)
                admitted[c, on] = np.einsum("pj,pj->p", weights[on], sums[cells + k])
        out = []
        for t, k, started in zip(times, ks, admitted):
            tails = self.initial.server_tail(cfg.service, positive + t) + started
            total = (float(self.initial.server_tail(cfg.service, t))
                     + float(np.einsum("j,j->", sf_lags[kmax - k :], coeff[:k])))
            tails = np.concatenate((np.full(probes.size - positive.size, total), tails))
            tails = np.minimum.accumulate(np.minimum(np.maximum(tails, 0.0), total))
            buffer = virtual_buffer_tail(lam, cfg.patience, self.virtual[k], probes)
            out.append(MeasureProfiles(buffer, TailMeasure(probes, tails, total, "linear")))
        return out


# -- solver ---------------------------------------------------------------------


def _increments(cfg: FluidConfig, times: np.ndarray) -> np.ndarray:
    """Exact grid-cell increments of Ge (row 0) and G (row 1); column m is cell m's."""
    return np.diff([cfg.service.equilibrium_cdf(times), cfg.service.cdf(times)])


def _violation(invariant: str, t: float, cfg: FluidConfig) -> InvariantViolationError:
    """Where the check failed, and the fluid one step admits: a grid too coarse breaks it."""
    return InvariantViolationError(
        f"invariant-violation: {invariant} fails at t={float(t)!r} "
        f"(arrival_rate*dt = {cfg.arrival_rate * cfg.dt!r}; a finer dt may resolve it)")


def _newton(patience: DistributionSpec, a: float, b: float, base, w, fd, sf, todo) -> int:
    """Bracketed Newton on g(w) = a F_d(w) + 1 - base - b sf(w) = 0 at the entries todo.

    Each of them has g(0) < 0.  w holds the starts, fd and sf the integrated
    patience survival and the survival there; all three are updated in place.
    g increases towards g(inf) = a N_F + 1 - base, N_F the patience mean, so
    an entry with g(inf) < 0 has no root under these bases: it is dropped
    before the iteration and left where it is.  Every other entry stops at
    |g| <= _ROOT (1 + b + base), a few rounding errors of g's terms, which
    balance at the root: a F_d + 1 = base + b sf.  A Newton step that leaves
    its bracket falls back to bisection, or to doubling while no upper bound
    is known.  Returns the step-equation evaluations made.
    """
    todo = todo[a * patience.mean + 1.0 - base[todo] >= 0.0]
    accept = _ROOT * (1.0 + b + base)
    lo = np.zeros(w.size)
    hi = np.full(w.size, math.inf)
    evaluations = 0
    for _ in range(_INNER_CAP):
        g = a * fd[todo] + 1.0 - base[todo] - b * sf[todo]
        evaluations += todo.size
        open_ = np.abs(g) > accept[todo]
        todo, g = todo[open_], g[open_]
        if not todo.size:
            return evaluations
        wt = w[todo]
        below = g < 0.0
        lo[todo] = np.where(below, wt, lo[todo])
        hi[todo] = np.where(below, hi[todo], wt)
        l, h = lo[todo], hi[todo]
        slope = a * sf[todo] + b * patience.pdf(wt)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = wt - g / slope   # not finite where g' vanishes
        inside = (l < newton) & (newton < h)
        wt = np.where(inside, newton, np.where(h < math.inf, 0.5 * (l + h), 2.0 * wt))
        w[todo] = wt
        fd[todo] = patience.integrated_sf(wt)
        sf[todo] = patience.sf(wt)
    raise NoConvergenceError("no-convergence: inner Newton iteration exceeded its cap")


def solve(cfg: FluidConfig, init: InitialCondition | ValidatedInitial | None = None) -> FluidSolution:
    """March the fluid fixed-point equation over the grid, a window of steps at a time.

    Each step solves for the offered wait w, from which the queue
    Q = arrival_rate * integrated_sf(w), the survival H = sf(w), the system
    X = 1 + Q and the virtual buffer R = arrival_rate * w all follow.  The
    step equation

        g(w) = arrival_rate (1 - dG_0) F_d(w) + 1 - base - rho dGe_0 sf(w) = 0,

    with F_d the integrated patience survival and base the initial load plus
    the history sums, is increasing in w.  If g(0) >= 0 the queue is empty
    and X follows in closed form; otherwise _newton finds the root.

    The steps are solved _WINDOW at a time.  A window's base splits into the
    far history of the steps before it and the near history of its own
    steps, one lower-triangular Toeplitz product of the increments per law.
    The far history follows Hairer, Lubich and Schlichte's partition of the
    lower triangle into squares (SIAM J. Sci. Stat. Comput. 6, 1985).  At
    the start of window b >= 1, counting from 0, one square adds the last
    span = lowbit(b) * _WINDOW solved steps onto the next span steps, clipped
    at the horizon: one real FFT of size 2 span over the lags 1 .. 2 span - 1,
    whose circular wrap misses the outputs, summed into the initial load.
    Each pair of windows a < b lies in exactly one square, the one at the
    highest bit where a and b differ, so the far history costs
    O(N log^2 N) for N steps.  Picard sweeps alternate the two: bases from the
    current values, then every step's root at once, starting from the last
    waits.  The first sweep starts from the waits of the last two steps,
    extrapolated.  The sweeps stop when the bases move by at most _SETTLED,
    and the roots of that sweep are final.  g rises to
    g(inf) = arrival_rate (1 - dG_0) N_F + 1 - base, N_F the patience mean, so
    a queued step has a root exactly when g(inf) >= 0; its queue
    Q = arrival_rate F_d(w) is then at most arrival_rate N_F by construction.
    Under a sweep's provisional bases a rootless step waits for the next
    sweep; under settled ones it breaks Q <= arrival_rate N_F, and solve
    raises.  inner_iterations sums every step's step-equation evaluations
    over all sweeps; max_step_residual is the worst |g| of the final roots.

    Raises FluidModelError if the horizon is off the dt grid, DistributionError
    if the service law has atoms or the patience law neither a Lipschitz CDF nor
    a bounded hazard, NoConvergenceError if a step exceeds the iteration cap and
    InvariantViolationError if a settled step has no root or the scheduled mass decreases.
    """
    cfg.service.validate_as_service()
    cfg.patience.validate_as_patience()
    if init is None:
        init = InitialCondition()
    if isinstance(init, InitialCondition):
        init = validate_initial(cfg, init)

    lam = cfg.arrival_rate
    rho = cfg.traffic_intensity
    patience = cfg.patience
    steps = cfg.steps
    times = np.arange(steps + 1) * cfg.dt
    inc = _increments(cfg, times)
    history = initial_load(cfg, init, times)   # plus each square's far sums
    a = lam * (1.0 - inc[1, 0])     # g'(w) = a sf(w) + b pdf(w)
    b = rho * inc[0, 0]
    sf0 = float(patience.sf(0.0))
    near = np.zeros((2, _WINDOW, _WINDOW))   # row r, column s < r: cell r - s
    for r in range(1, min(_WINDOW, steps)):
        near[:, r, :r] = inc[:, r:0:-1]
    near[0] *= rho
    near[1] *= lam                  # the G history reads Q = lam F_d

    x = np.empty(steps + 1)
    qv = np.empty(steps + 1)     # queue at grid values
    surv = np.empty(steps + 1)   # H(queue) at grid values; index 0 is never read
    wait = np.empty(steps + 1)   # offered wait at grid values
    x[0] = init.system0
    qv[0] = max(x[0] - 1.0, 0.0)
    wait[0] = init.wait0
    iterations = 0
    worst = 0.0

    for window, k0 in enumerate(range(1, steps + 1, _WINDOW)):
        k1 = min(k0 + _WINDOW, steps + 1)
        m = k1 - k0
        if window:
            # this window's square: the last span steps onto the next span, lags 1 .. 2 span - 1
            span = (window & -window) * _WINDOW
            size = 2 * span
            spectra = (np.fft.rfft(inc[:, 1:size], size)
                       * np.fft.rfft([surv[k0 - span:k0], qv[k0 - span:k0]], size))
            sums = np.fft.irfft(rho * spectra[0] + spectra[1], size)
            out = history[k0:k0 + span]
            out += sums[span - 1:span - 1 + out.size]
        far = history[k0:k1]
        ge_near, g_near = near[:, :m, :m]
        trend = wait[k0 - 1] - wait[max(k0 - 2, 0)]
        w = np.maximum(wait[k0 - 1] + trend * np.arange(1, m + 1), 0.0)
        fd = patience.integrated_sf(w)
        sf = patience.sf(w)
        previous = None
        for _ in range(m + 1):   # row r's base is final after r + 1 sweeps
            base = far + np.einsum("ij,j->i", ge_near, sf) + np.einsum("ij,j->i", g_near, fd)
            queued = 1.0 - base - b * sf0 < 0.0
            w[~queued], fd[~queued], sf[~queued] = 0.0, 0.0, sf0
            iterations += _newton(patience, a, b, base, w, fd, sf, np.flatnonzero(queued))
            if previous is not None and float(np.max(np.abs(base - previous))) <= _SETTLED:
                break
            previous = base
        else:
            raise NoConvergenceError("no-convergence: window sweeps did not settle")
        if np.any(rootless := queued & (a * patience.mean + 1.0 - base < 0.0)):
            raise _violation("Q exceeds lambda*N_F", times[k0 + np.argmax(rootless)], cfg)
        if queued.any():
            g = a * fd + 1.0 - base - b * sf
            worst = max(worst, float(np.max(np.abs(g[queued]))))
        x[k0:k1] = np.where(queued, 1.0 + lam * fd, base + b * sf0)
        qv[k0:k1] = np.where(queued, x[k0:k1] - 1.0, 0.0)
        surv[k0:k1] = sf
        wait[k0:k1] = w

    busy = np.minimum(x, 1.0)
    virtual = lam * wait
    scheduled = lam * times - virtual

    if np.any(falls := np.diff(scheduled) < -1e-12):
        raise _violation("B nondecreasing", times[np.argmax(falls) + 1], cfg)

    return FluidSolution(
        config=cfg, initial=init, times=times,
        system=x, queue=qv, busy=busy, virtual=virtual, scheduled=scheduled,
        inner_iterations=iterations, max_step_residual=worst,
    )


# -- diagnostics -----------------------------------------------------------------


def check_queue_drain_monotone(sol: FluidSolution) -> float:
    """Max grid increment of queue(t) - arrival_rate * int_0^t H(queue(s)) ds.

    The functional is nonincreasing for the exact solution; the returned
    value should not exceed quadrature tolerance.  H is the patience
    survival at the solved offered wait R/arrival_rate.
    """
    cfg = sol.config
    h_vals = cfg.patience.sf(sol.virtual / cfg.arrival_rate)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (h_vals[:-1] + h_vals[1:]) * cfg.dt)]
    )
    drain = sol.queue - cfg.arrival_rate * integral
    return float(np.max(np.diff(drain)))


def fixed_point_residual(sol: FluidSolution) -> float:
    """Max gap when the solved trajectory is plugged back into the discretized equation.

    The survival values are recomputed from the solved queue through
    survival_at_offered_wait, not taken from the solver, so the check stays
    independent of the march.  Both history sums are causal convolutions, entry
    k - 1 the sum over j = 1..k of value_j times the increment of cell k - j,
    taken by one real FFT padded to 2 steps - 1 or more points, so none wraps.
    """
    cfg = sol.config
    steps = sol.times.size - 1
    increments = _increments(cfg, sol.times)
    load = initial_load(cfg, sol.initial, sol.times)
    surv = survival_at_offered_wait(cfg.arrival_rate, cfg.patience, sol.queue)
    size = 1 << (2 * steps - 2).bit_length()
    spectra = np.fft.rfft([surv[1:], sol.queue[1:]], size) * np.fft.rfft(increments, size)
    sums = np.fft.irfft(spectra, size)[:, :steps]
    rhs = load[1:] + cfg.traffic_intensity * sums[0] + sums[1]
    return float(np.max(np.abs(sol.system[1:] - rhs)))
