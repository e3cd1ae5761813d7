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
    PoleAtBaseline,
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
    gvalue,
    trace,
)
from .exceptional import (
    ExceptionalCandidate,
    ExceptionalState,
    FlatLineHit,
    build_state,
    closed_form_state,
    condition,
    exceptional_energy,
    fock_subspace_check,
    scan_flat_lines,
)
from .oracle import diagonalize, residual

__version__ = "0.1.0"

__all__ = [
    "Baseline", "ConditionNotMet", "ConfigError", "DegenerateDenominator",
    "ModelParams", "NoConvergence", "NotConverged", "OutsideDisk", "Parity",
    "PoleAtBaseline", "RequiresEqualCouplings", "RequiresValidCouplings",
    "SolverError", "SpectrumRecord", "SpectrumResult", "SupportOverflow",
    "baselines", "load_params",
    "GTrace", "find_roots", "gvalue", "trace",
    "ExceptionalCandidate", "ExceptionalState", "FlatLineHit", "build_state",
    "closed_form_state", "condition", "exceptional_energy",
    "fock_subspace_check", "scan_flat_lines",
    "diagonalize", "residual",
    "__version__",
]
