"""Equilibrium state of the fluid model.

In steady state the patience CDF at the offered waiting time equals the
overload fraction max((rho - 1)/rho, 0).  The wait is the least float where
the CDF reaches that target, and the bracket beside it ends at the least
float where the CDF reaches the next float past it, so a flat stretch of the
CDF at the target level lies inside the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, bisect_increasing
from .fluid import EquilibriumShaped, InitialCondition


class EquilibriumError(ValueError):
    pass


@dataclass(frozen=True)
class EquilibriumState:
    offered_wait: float
    wait_bracket: tuple
    queue_mass: float        # Q_inf = arrival_rate * integrated_sf(w)
    busy_mass: float         # Z_inf = min(rho, 1)
    virtual_mass: float      # R_inf = arrival_rate * w
    abandonment_fraction: float
    traffic_intensity: float

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


def equilibrium_state(arrival_rate: float, patience: DistributionSpec,
                      service: DistributionSpec) -> EquilibriumState:
    """Steady-state offered wait and masses; EquilibriumShaped(busy_mass) is the server law.

    Underloaded systems wait zero with a degenerate bracket.  Otherwise one
    bisection finds both ends of the bracket of roots, to the last float: the
    wait, the smallest root, is where the CDF reaches the target, and the
    upper end is where it reaches the next float past the target, so that a
    flat stretch of the CDF at the target level lies inside the bracket.
    """
    if not arrival_rate > 0.0:
        raise EquilibriumError("arrival_rate must be positive")
    service.validate_as_service()
    rho = arrival_rate * service.mean
    w = w_hi = 0.0
    if rho > 1.0:
        target = (rho - 1.0) / rho
        if target >= 1.0:
            raise EquilibriumError("target-unreachable: abandonment fraction would reach 1")
        w, w_hi = map(float, bisect_increasing(patience.cdf, [target, np.nextafter(target, 1.0)], 0.0))
    return EquilibriumState(
        offered_wait=w,
        wait_bracket=(w, w_hi),
        queue_mass=arrival_rate * float(patience.integrated_sf(w)),
        busy_mass=min(rho, 1.0),
        virtual_mass=arrival_rate * w,
        abandonment_fraction=float(patience.cdf(w)),
        traffic_intensity=rho,
    )
