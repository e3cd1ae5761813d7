"""Two-qubit Rabi-type models: series solver, quasi-exact states, ED cross-check."""

from .model import (
    Baseline,
    ConditionNotMet,
    ConfigError,
    DegenerateDenominator,
    ModelParams,
    NoConvergence,
    NotConverged,
    OutsideDisk,
    Parity,
    RequiresEqualCouplings,
    RequiresValidCouplings,
    SolverError,
    SpectrumRecord,
    SpectrumResult,
    SupportOverflow,
    load_params,
)
from .series import baselines
from .gfunction import (
    GTrace,
    find_roots,
    trace,
)
from .exceptional import (
    ExceptionalState,
    FlatLineHit,
    build_state,
    condition,
    exceptional_energy,
    scan_flat_lines,
)
from .oracle import diagonalize, residual

__version__ = "0.1.0"

__all__ = [
    "Baseline", "ConditionNotMet", "ConfigError", "DegenerateDenominator",
    "ModelParams", "NoConvergence", "NotConverged", "OutsideDisk", "Parity",
    "RequiresEqualCouplings", "RequiresValidCouplings",
    "SolverError", "SpectrumRecord", "SpectrumResult", "SupportOverflow",
    "baselines", "load_params",
    "GTrace", "find_roots", "trace",
    "ExceptionalState", "FlatLineHit", "build_state",
    "condition", "exceptional_energy", "scan_flat_lines",
    "diagonalize", "residual",
    "__version__",
]
