"""Deterministic fluid model of the many-server queue with abandonment.

The scalar fluid content X(t) solves a Volterra-type fixed-point equation
driven by the service distribution, its equilibrium distribution, and the
patience distribution through the survival map H.  The solver marches a
uniform time grid: convolution integrals are Lebesgue-Stieltjes sums with
exact CDF increments over the grid cells, the integrand taken at the newest
grid value.  The final cell is solved for the offered wait w by a bracketed
Newton iteration; the queue lambda * F_d(w), the survival sf(w), the
virtual buffer lambda * w and X follow from w directly.  The busy-server
and scheduled masses follow in closed form, and measure-valued
buffer/server profiles can be materialized at any grid time.
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
    """A step's Newton iteration exceeded its cap (signals a bad distribution or tolerance)."""


class InvariantViolationError(RuntimeError):
    """A post-solve structural invariant failed beyond tolerance."""


_INNER_CAP = 50
_PROFILE_CELLS = 1 << 20   # cells of one service.sf block in FluidSolution.profiles


@dataclass(frozen=True)
class FluidConfig:
    """Scaled model parameters: one unit of fluid equals the server pool."""

    arrival_rate: float
    patience: DistributionSpec
    service: DistributionSpec
    horizon: float = 10.0
    dt: float = 1e-3
    tol: float = 1e-10

    def __post_init__(self):
        if not self.arrival_rate > 0.0:
            raise FluidModelError("arrival_rate must be positive")
        if not self.dt > 0.0:
            raise FluidModelError("dt must be positive")
        if not self.horizon >= self.dt:
            raise FluidModelError("horizon must be at least dt")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise FluidModelError("tol must be finite and positive")

    @property
    def traffic_intensity(self) -> float:
        return self.arrival_rate * self.service.mean


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
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return self.busy_mass * (1.0 - np.asarray(service.equilibrium_cdf(x)))


@dataclass(frozen=True)
class ServiceComplementShaped(ServerProfile):
    """Mass z of freshly started services (remaining time distributed as G)."""

    busy_mass: float

    def mass(self, service):
        return self.busy_mass

    def tail(self, service, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return self.busy_mass * np.asarray(service.sf(x))


@dataclass(frozen=True)
class TabulatedProfile(ServerProfile):
    measure: TailMeasure

    def mass(self, service):
        return self.measure.total

    def tail(self, service, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return np.asarray(self.measure.tail_at(x))


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
    window virtual0/arrival_rate.  A positive queue requires full servers,
    the busy mass cannot exceed one, and tabulated profiles must be atomless
    at grid resolution with no mass at remaining time zero.
    """
    lam = cfg.arrival_rate
    r0 = float(init.virtual_buffer_mass)
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
    wait = np.asarray(patience.integrated_sf_inverse(np.asarray(queue_mass) / arrival_rate))
    # past an unbounded support sf is 0 exactly, not 1 minus a rounded sum of weights
    out = np.where(np.isinf(wait), 0.0, np.asarray(patience.sf(wait)))
    return float(out) if out.ndim == 0 else out


def initial_load(cfg: FluidConfig, init: ValidatedInitial, t):
    """Fluid still present at time t from the initial state alone."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(init.server_tail(cfg.service, t), dtype=float)
    out = out + init.queue0 * np.asarray(cfg.service.sf(t))
    return float(out) if out.ndim == 0 else out


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
        + np.asarray(fd(np.maximum(probes + wait, 0.0)))
        - np.asarray(fd(np.maximum(probes, 0.0)))
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
    inner_iterations: int = 0        # step-equation evaluations over the march
    max_step_residual: float = 0.0   # worst accepted |g| of a step

    def grid_index(self, t: float) -> int:
        k = int(round(t / self.config.dt))
        if k < 0 or k >= self.times.size or abs(t - self.times[k]) > 1e-9 * max(1.0, abs(t)):
            raise FluidModelError(f"time {t!r} is not on the solution grid")
        return k

    def measures_at(self, t: float, probes) -> MeasureProfiles:
        """Materialize buffer and server tail measures at a grid time."""
        return self.profiles([t], probes)[0]

    def profiles(self, times, probes) -> list[MeasureProfiles]:
        """Buffer and server tail measures at each grid time, in the order given.

        The server tail at t_k is the initial profile shifted by t_k plus the
        Stieltjes sum of admitted fluid against the service complement
        (midpoint rule), sum_j coeff_j service.sf(x + (k - 1 - j + 1/2) dt),
        where coeff_j does not depend on k.  So one table of
        service.sf(x + (m + 1/2) dt), m < max k, serves every time: stored
        with m descending, time k reads its last k columns, which line up
        with coeff_0 .. coeff_{k-1}.  The table is built only for probes > 0
        (a probe <= 0 reads the total busy mass) and in row blocks of about
        _PROFILE_CELLS cells, so the memory does not grow with the horizon.
        A block's row count is a multiple of 8 (at least 8): the BLAS
        matrix-vector kernel sums rows in groups, and other row counts move
        the last bit of some tails.
        """
        cfg = self.config
        lam = cfg.arrival_rate
        ks = [self.grid_index(t) for t in times]
        probes = np.sort(np.asarray(probes, dtype=float))
        positive = probes[probes > 0.0]
        kmax = max(ks, default=0)
        waits_mid = 0.5 * (self.virtual[:kmax] + self.virtual[1 : kmax + 1]) / lam
        coeff = np.asarray(cfg.patience.sf(waits_mid)) * np.diff(self.scheduled[: kmax + 1])
        lags = (np.arange(kmax - 1, -1, -1) + 0.5) * cfg.dt
        started = np.zeros((len(ks), positive.size))
        rows = max(8, _PROFILE_CELLS // max(kmax, 1) // 8 * 8)
        for i in range(0, positive.size if kmax else 0, rows):
            table = np.asarray(cfg.service.sf(positive[i : i + rows, None] + lags))
            for c, k in enumerate(ks):
                started[c, i : i + rows] = table[:, kmax - k :] @ coeff[:k]
            del table  # freed before the next block is built
        sf_lags = np.asarray(cfg.service.sf(lags))
        out = []
        for t, k, sums in zip(times, ks, started):
            tails = np.asarray(self.initial.server_tail(cfg.service, positive + t)) + sums
            total = (float(self.initial.server_tail(cfg.service, np.asarray(t)))
                     + float(sf_lags[kmax - k :] @ coeff[:k]))
            tails = np.concatenate((np.full(probes.size - positive.size, total), tails))
            tails = np.minimum.accumulate(np.minimum(np.maximum(tails, 0.0), total))
            out.append(MeasureProfiles(
                buffer=virtual_buffer_tail(lam, cfg.patience, self.virtual[k], probes),
                server=TailMeasure(probes, tails, total, "linear"),
            ))
        return out


# -- solver ---------------------------------------------------------------------


def _reversed_increments(cfg: FluidConfig, times: np.ndarray):
    """Grid increments of Ge and G, newest-first: entry -1 - m is cell m's increment.

    The history sums pair the value at step j with the increment of cell
    k - j; reversed once, both arrays are read as contiguous slices.
    """
    ge = np.asarray(cfg.service.equilibrium_cdf(times))
    g = np.asarray(cfg.service.cdf(times))
    return np.ascontiguousarray(np.diff(ge)[::-1]), np.ascontiguousarray(np.diff(g)[::-1])


def solve(cfg: FluidConfig, init: InitialCondition | ValidatedInitial | None = None) -> FluidSolution:
    """March the fluid fixed-point equation over the grid.

    Each step solves for the offered wait w, from which the queue
    Q = arrival_rate * integrated_sf(w), the survival H = sf(w), the system
    X = 1 + Q and the virtual buffer R = arrival_rate * w all follow.  The
    step equation

        g(w) = arrival_rate (1 - dG_0) F_d(w) + 1 - base - rho dGe_0 sf(w) = 0,

    with F_d the integrated patience survival and base the initial load plus
    the history sums, is increasing in w.  If g(0) >= 0 the queue is empty
    and X follows in closed form; otherwise a Newton iteration bracketed in
    w, started from the linear extrapolation of the last two waits, runs
    until |g| <= cfg.tol, falling back to bisection (or to doubling while no
    upper bound is known) when a step leaves the bracket or g' vanishes.

    Raises DistributionError if the service law has atoms or the patience
    law neither a Lipschitz CDF nor a bounded hazard, NoConvergenceError if
    a step exceeds the iteration cap and InvariantViolationError if the
    solved trajectories break the structural invariants (nondecreasing
    scheduled mass, queue capped by the patience tail area).
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
    steps = int(round(cfg.horizon / cfg.dt))
    times = np.arange(steps + 1) * cfg.dt
    rev_ge, rev_g = _reversed_increments(cfg, times)
    load = np.asarray(initial_load(cfg, init, times))
    a = lam * (1.0 - rev_g[-1])     # g'(w) = a sf(w) + b pdf(w)
    b = rho * rev_ge[-1]
    sf0 = float(patience.sf(0.0))
    slope0 = a * sf0 + b * float(patience.pdf(0.0))

    x = np.empty(steps + 1)
    qv = np.empty(steps + 1)     # queue at grid values
    surv = np.empty(steps + 1)   # H(queue) at grid values; index 0 is never read
    wait = np.empty(steps + 1)   # offered wait at grid values
    x[0] = init.system0
    qv[0] = max(x[0] - 1.0, 0.0)
    wait[0] = init.wait0
    iterations = 0
    worst = 0.0

    for k in range(1, steps + 1):
        base = (load[k]
                + rho * np.dot(surv[1:k], rev_ge[steps - k:steps - 1])
                + np.dot(qv[1:k], rev_g[steps - k:steps - 1]))
        g0 = 1.0 - base - b * sf0
        if g0 >= 0.0:
            x[k] = base + b * sf0
            qv[k] = 0.0
            surv[k] = sf0
            wait[k] = 0.0
            continue
        lo, hi = 0.0, math.inf
        w = 2.0 * wait[k - 1] - wait[max(k - 2, 0)]
        if not w > lo:  # one Newton step from w = 0, where g is already known
            w = -g0 / slope0 if slope0 > 0.0 else cfg.dt
        for _ in range(_INNER_CAP):
            fd = patience.integrated_sf(w)
            sf = patience.sf(w)
            g = a * fd + 1.0 - base - b * sf
            iterations += 1
            if abs(g) <= cfg.tol:
                break
            if g < 0.0:
                lo = w
            else:
                hi = w
            slope = a * sf + b * patience.pdf(w)
            newton = w - g / slope if slope > 0.0 else math.nan
            if lo < newton < hi:
                w = newton
            elif hi < math.inf:
                w = 0.5 * (lo + hi)
            elif w >= patience.support_end:  # g is flat and negative past the support
                raise InvariantViolationError("invariant-violation: Q exceeds lambda*N_F")
            else:
                w = 2.0 * w
        else:
            raise NoConvergenceError("no-convergence: inner Newton iteration exceeded its cap")
        worst = max(worst, abs(g))
        x[k] = 1.0 + lam * fd
        qv[k] = x[k] - 1.0
        surv[k] = sf
        wait[k] = w

    busy = np.minimum(x, 1.0)
    virtual = lam * wait
    scheduled = lam * times - virtual

    if scheduled.size > 1 and float(np.min(np.diff(scheduled))) < -1e-12:
        raise InvariantViolationError("invariant-violation: B nondecreasing")
    if float(np.max(qv)) > lam * patience.mean + 1e-9:
        raise InvariantViolationError("invariant-violation: Q exceeds lambda*N_F")

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
    h_vals = np.asarray(cfg.patience.sf(sol.virtual / cfg.arrival_rate))
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
    increments = np.diff([cfg.service.equilibrium_cdf(sol.times), cfg.service.cdf(sol.times)])
    load = np.asarray(initial_load(cfg, sol.initial, sol.times))
    surv = survival_at_offered_wait(cfg.arrival_rate, cfg.patience, sol.queue)
    size = 1 << (2 * steps - 2).bit_length()
    spectra = np.fft.rfft([surv[1:], sol.queue[1:]], size) * np.fft.rfft(increments, size)
    sums = np.fft.irfft(spectra, size)[:, :steps]
    rhs = load[1:] + cfg.traffic_intensity * sums[0] + sums[1]
    return float(np.max(np.abs(sol.system[1:] - rhs)))
