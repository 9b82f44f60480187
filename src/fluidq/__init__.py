"""Fluid-model solver and FCFS recursion simulator for many-server queues with abandonment."""

from .distributions import (
    Deterministic,
    DistributionError,
    DistributionSpec,
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
    distribution_from_dict,
)
from .equilibrium import EquilibriumState, equilibrium_state
from .expode import ExpOdeConfig, cross_check, drift, integrate
from .fluid import (
    EMPTY_SERVERS,
    EquilibriumShaped,
    FluidConfig,
    FluidSolution,
    InitialCondition,
    InvalidInitialError,
    InvariantViolationError,
    MeasureProfiles,
    ServiceComplementShaped,
    TabulatedProfile,
    check_queue_drain_monotone,
    fixed_point_residual,
    initial_load,
    solve,
    survival_at_offered_wait,
    validate_initial,
)
from .measures import TailMeasure, sup_distance, uniform_probes
from .simulator import (
    SimConfig,
    SystemSnapshot,
    compare_to_fluid,
    fluid_scale,
    gc_diagnostic,
    run,
)

__version__ = "0.1.0"
