"""Sum-rate modeling and optimization for a self-backhauling full-duplex access node."""

from .model import (
    ConfigError,
    PowerAllocation,
    Scheme,
    StructuralError,
    SystemParams,
    load_params,
    params_from_db,
    params_to_db,
    validate,
)
from .rates import RateBreakdown, SinrSet, rates, sinr_set
from .feasibility import ConstraintReport, constraints
from .optimizer import (
    OptimizerOptions,
    OptResult,
    baseline,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstraintReport",
    "OptResult",
    "OptimizerOptions",
    "PowerAllocation",
    "RateBreakdown",
    "Scheme",
    "SinrSet",
    "StructuralError",
    "SystemParams",
    "baseline",
    "constraints",
    "load_params",
    "optimize",
    "params_from_db",
    "params_to_db",
    "rates",
    "sinr_set",
    "validate",
]
