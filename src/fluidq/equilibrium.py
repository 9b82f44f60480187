"""Equilibrium state of the fluid model.

In steady state the patience CDF at the offered waiting time equals the
overload fraction max((rho - 1)/rho, 0).  The smallest root is reported as
canonical; when the CDF is flat at the target level the maximal bracket of
roots is exposed alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .fluid import EquilibriumShaped, InitialCondition, virtual_buffer_tail
from .measures import TailMeasure

_ROOT_TOL = 1e-10


class EquilibriumError(ValueError):
    pass


@dataclass(frozen=True)
class OfferedWait:
    wait: float
    bracket: tuple


@dataclass(frozen=True)
class EquilibriumState:
    offered_wait: float
    wait_bracket: tuple
    queue_mass: float        # Q_inf = arrival_rate * integrated_sf(w)
    busy_mass: float         # Z_inf = min(rho, 1)
    virtual_mass: float      # R_inf = arrival_rate * w
    abandonment_fraction: float
    traffic_intensity: float
    buffer_tail: TailMeasure
    server_tail: TailMeasure

    @property
    def system_mass(self) -> float:
        return self.queue_mass + self.busy_mass

    def initial_condition(self) -> InitialCondition:
        """The fluid initial condition that reproduces this state."""
        return InitialCondition(
            virtual_buffer_mass=self.virtual_mass,
            server_profile=EquilibriumShaped(self.busy_mass),
        )

    def to_json_dict(self) -> dict:
        return {
            "w": self.offered_wait,
            "w_bracket": list(self.wait_bracket),
            "Q_inf": self.queue_mass,
            "Z_inf": self.busy_mass,
            "R_inf": self.virtual_mass,
            "abandonment_fraction": self.abandonment_fraction,
            "rho": self.traffic_intensity,
        }


def initial_condition_from_json(doc: dict) -> InitialCondition:
    """Rebuild the fluid-matched initial condition from an emitted equilibrium JSON."""
    return InitialCondition(
        virtual_buffer_mass=float(doc["R_inf"]),
        server_profile=EquilibriumShaped(float(doc["Z_inf"])),
    )


def _bisect_boundary(predicate, lo: float, hi: float) -> float:
    """Smallest point where the nondecreasing predicate turns true, within tolerance."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= _ROOT_TOL:
            break
    return hi


def solve_offered_wait(arrival_rate: float, patience: DistributionSpec,
                       service: DistributionSpec) -> OfferedWait:
    """Solve the patience CDF for the overload fraction.

    Underloaded systems wait zero with a degenerate bracket.  Otherwise the
    smallest root is found by bisection over [0, support end], expanding the
    upper bracket geometrically when the support is unbounded; the bracket
    [w_lo, w_hi] covers any flat stretch of the CDF at the target level.
    """
    service.validate_as_service()
    rho = arrival_rate * service.mean
    if rho <= 1.0:
        return OfferedWait(wait=0.0, bracket=(0.0, 0.0))
    target = (rho - 1.0) / rho
    if target >= 1.0:
        raise EquilibriumError("target-unreachable: abandonment fraction would reach 1")

    hi = patience.stats().support_end
    if math.isinf(hi):
        hi = 1.0
        while float(patience.cdf(hi)) <= target:
            hi *= 2.0
    w_lo = _bisect_boundary(lambda v: float(patience.cdf(v)) >= target, 0.0, hi)
    w_hi = _bisect_boundary(lambda v: float(patience.cdf(v)) > target, 0.0, hi)
    return OfferedWait(wait=w_lo, bracket=(w_lo, max(w_lo, w_hi)))


def equilibrium_state(arrival_rate: float, patience: DistributionSpec,
                      service: DistributionSpec, probes) -> EquilibriumState:
    """Steady-state masses and measure profiles on the probe grid."""
    ow = solve_offered_wait(arrival_rate, patience, service)
    rho = arrival_rate * service.mean
    w = ow.wait
    probes = np.sort(np.asarray(probes, dtype=float))

    virtual = arrival_rate * w
    busy = min(rho, 1.0)
    server = EquilibriumShaped(busy).tail(service, probes)
    return EquilibriumState(
        offered_wait=w,
        wait_bracket=ow.bracket,
        queue_mass=arrival_rate * float(patience.integrated_sf(w)),
        busy_mass=busy,
        virtual_mass=virtual,
        abandonment_fraction=float(patience.cdf(w)),
        traffic_intensity=rho,
        buffer_tail=virtual_buffer_tail(arrival_rate, patience, virtual, probes),
        server_tail=TailMeasure(probes, server, busy, "linear"),
    )
