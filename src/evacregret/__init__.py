"""Minmax-regret 1-sink location on dynamic path networks with general
edge capacities, with exact rational arithmetic throughout.

The top level holds the path model, the solver entry points with their
return types, and the `pwl` module; the other layers are reached through
their own modules (`evacregret.profiles`, `evacregret.envelopes`, ...)."""

from . import pwl
from .evacuation import EvacResult, OptSink, optimal_sink, regret, theta
from .path_model import (
    PathInstance,
    PathModelError,
    Point,
    Scenario,
    parse_instance,
    parse_scenario,
    validate,
)
from .worst_case import (
    RegretReport,
    RegretSolver,
    Witness,
    max_regret,
    min_max_regret,
)

__all__ = [
    "EvacResult",
    "OptSink",
    "PathInstance",
    "PathModelError",
    "Point",
    "RegretReport",
    "RegretSolver",
    "Scenario",
    "Witness",
    "max_regret",
    "min_max_regret",
    "optimal_sink",
    "parse_instance",
    "parse_scenario",
    "pwl",
    "regret",
    "theta",
    "validate",
]
__version__ = "0.1.0"
