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
from .series import (
    ExpansionBlock,
    SeriesPoint,
    baselines,
    convergence_radius,
    evaluate,
    free_slots,
    recur,
    sample,
)
from .gfunction import (
    GTrace,
    MatchingScheme,
    default_scheme,
    find_roots,
    gvalue,
    trace,
    write_spectrum_csv,
    write_trace_csv,
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
from .oracle import FockHamiltonian, build_hamiltonian, diagonalize, residual

__version__ = "0.1.0"

__all__ = [
    "Baseline", "ConditionNotMet", "ConfigError", "DegenerateDenominator",
    "ModelParams", "NoConvergence", "NotConverged", "OutsideDisk", "Parity",
    "PoleAtBaseline", "RequiresEqualCouplings", "RequiresValidCouplings",
    "SolverError", "SpectrumRecord", "SpectrumResult", "SupportOverflow",
    "baselines", "load_params",
    "ExpansionBlock", "SeriesPoint", "convergence_radius", "evaluate",
    "free_slots", "recur", "sample",
    "GTrace", "MatchingScheme", "default_scheme", "find_roots", "gvalue",
    "trace", "write_spectrum_csv", "write_trace_csv",
    "ExceptionalCandidate", "ExceptionalState", "FlatLineHit", "build_state",
    "closed_form_state", "condition", "exceptional_energy",
    "fock_subspace_check", "scan_flat_lines",
    "FockHamiltonian", "build_hamiltonian", "diagonalize", "residual",
    "__version__",
]
