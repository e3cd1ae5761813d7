"""Shared domain types: model parameters, parity sectors, baselines, spectrum records."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "Parity",
    "ModelParams",
    "Baseline",
    "SpectrumRecord",
    "SpectrumResult",
    "load_params",
    "QUBIT_PAIRS",
    "DEFAULT_TRUNCATION_CAP",
    "SolverError",
    "ConfigError",
    "RequiresValidCouplings",
    "RequiresEqualCouplings",
    "OutsideDisk",
    "NoConvergence",
    "DegenerateDenominator",
    "ConditionNotMet",
    "SupportOverflow",
    "NotConverged",
]

# Qubit-pair basis order used everywhere (photon number is the major index).
QUBIT_PAIRS = ("ee", "eg", "ge", "gg")
# The oracle's truncation cap in photons, and the reach of every energy
# window: no level past it is certified (ModelParams.require_reach).
DEFAULT_TRUNCATION_CAP = 1200


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class ConfigError(SolverError):
    """Malformed or incomplete parameter file."""


class RequiresValidCouplings(SolverError):
    """The series solver needs g1 > 0 and g2 > 0 (|g1 - g2| < g1 + g2)."""


class RequiresEqualCouplings(SolverError):
    """Cutoff conditions are only defined for identical couplings g1 = g2."""


class OutsideDisk(SolverError):
    """Evaluation point outside the convergence disk of a series expansion."""


class NoConvergence(SolverError):
    """Series tail did not drop below tolerance at the hard truncation cap."""


class DegenerateDenominator(SolverError):
    """A built cutoff state's second component divided by zero."""


class ConditionNotMet(SolverError):
    """Requested cutoff state does not exist at these parameters."""


class SupportOverflow(SolverError):
    """State has photon support beyond the requested truncation."""


class NotConverged(SolverError):
    """An oracle tail bound stayed at or above 1e-8 up to the truncation cap."""


class Parity(enum.Enum):
    """Eigenvalue of the Z2 symmetry exp(i*pi*n) sigma1_z sigma2_z (+1 even, -1 odd)."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self) -> int:
        return self.value

    def __str__(self) -> str:
        return self.name.lower()


def _distinct(parities: Sequence[Parity]) -> tuple[Parity, ...]:
    """The parities in their first-seen order, each once; at least one."""
    if not (parities := tuple(dict.fromkeys(parities))):
        raise ValueError("no parity given")
    return parities


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings of the two-qubit Rabi model with optional exchange terms.

    omega is the photon frequency; delta1/delta2 are half the qubit splittings;
    g1/g2 the qubit-photon couplings; jx/jy/jz the qubit-qubit exchange strengths.
    All fields share one energy unit.
    """

    omega: float
    delta1: float
    delta2: float
    g1: float
    g2: float
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0

    def __post_init__(self) -> None:
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"parameters must be finite: {', '.join(bad)}")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("couplings g1, g2 must be non-negative")

    @property
    def g(self) -> float:
        """Total coupling g1 + g2."""
        return self.g1 + self.g2

    @property
    def gprime(self) -> float:
        """Coupling asymmetry g1 - g2 (signed)."""
        return self.g1 - self.g2

    def scaled(self) -> "ModelParams":
        """Same model in units of the photon frequency (omega = 1).

        Built once per instance and kept in the instance dict, outside the
        fields: equality, hashing, replace and pickling never see it.
        """
        if self.omega == 1.0:
            return self
        unit = self.__dict__.get("_scaled")
        if unit is None:
            w = self.omega
            unit = ModelParams(1.0, self.delta1 / w, self.delta2 / w, self.g1 / w,
                               self.g2 / w, self.jx / w, self.jy / w, self.jz / w)
            self.__dict__["_scaled"] = unit
        return unit

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_scaled", None)
        return state

    def canonical(self) -> "ModelParams":
        """The model with its qubits relabelled so that gprime >= 0.

        Swapping (g1, delta1) <-> (g2, delta2) is a unitary on the full model and
        leaves the exchange terms and the parity sectors unchanged.
        """
        if self.gprime >= 0:
            return self
        return replace(self, g1=self.g2, g2=self.g1,
                       delta1=self.delta2, delta2=self.delta1)

    def with_g(self, g_total: float) -> "ModelParams":
        """Rescale both couplings to a new total, preserving the g1:g2 ratio."""
        if self.g <= 0:
            raise ValueError("with_g needs a template with g1 + g2 > 0")
        f = g_total / self.g
        return replace(self, g1=self.g1 * f, g2=self.g2 * f)

    def require_analytic(self) -> None:
        """Validate couplings for the series solver: g1, g2 > 0 and, in omega = 1
        units, |gprime| < g, which rounding breaks below g2/g1 ~ 1.1e-16."""
        sp = self.scaled()
        if not (self.g1 > 0 and self.g2 > 0 and abs(sp.gprime) < sp.g):
            raise RequiresValidCouplings(
                "series solver needs g1 > 0, g2 > 0 and |g1 - g2| < g1 + g2 "
                f"(got g1={self.g1}, g2={self.g2})")

    def require_reach(self, e_max: float, e_min: float = -math.inf) -> None:
        """Validate a window's ends: e_min not NaN, e_max finite and e_max/omega
        within the oracle's photon cap, past which no level is certified."""
        if math.isnan(e_min) or not math.isfinite(e_max):
            raise ValueError("e_max must be finite and e_min not NaN")
        if e_max / self.omega > DEFAULT_TRUNCATION_CAP:
            raise ValueError(f"e_max/omega = {e_max / self.omega:.6g} is past the "
                             f"{DEFAULT_TRUNCATION_CAP}-photon cap")


@dataclass(frozen=True)
class Baseline:
    """Energy at which a recurrence divisor vanishes; the matching determinant has a pole.

    kind 'first' is E = n - g^2 + Jx, kind 'second' is E = n - gprime^2 - Jx,
    kind 'exchange' (identical couplings only) is E = n - Jx +/- (Jy + Jz).
    Energies are series._divisor's, and so are exceptional.levels' cutoff energies.
    """

    kind: str
    index: int
    energy: float


@dataclass(frozen=True)
class SpectrumRecord:
    """One eigenvalue record: energy, parity, producing method, and a residual.

    For 'gfunction' records the residual is the distance to the nearest
    diagonalization eigenvalue of the same parity when verification ran,
    otherwise the determinant magnitude at the root. For 'oracle' records it
    is the tail bound: the residual norm of the level's truncated eigenvector
    in the untruncated Hamiltonian. 'verified' is None when no cross-check
    was requested.
    """

    energy: float
    parity: Parity
    method: str
    residual: float
    verified: Optional[bool] = None


@dataclass(frozen=True)
class SpectrumResult:
    """Energy-sorted collection of spectrum records."""

    records: tuple[SpectrumRecord, ...] = field(default_factory=tuple)

    @classmethod
    def from_records(cls, records: Iterable[SpectrumRecord]) -> "SpectrumResult":
        return cls(tuple(sorted(records, key=lambda r: (r.energy, r.parity.sign))))

    def energies(self) -> list[float]:
        return [r.energy for r in self.records]

    def filtered(self, parity: Parity) -> "SpectrumResult":
        return SpectrumResult(tuple(r for r in self.records if r.parity is parity))

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


_CONFIG_KEYS = ("omega", "delta1", "delta2", "g1", "g2", "jx", "jy", "jz")
_REQUIRED_KEYS = ("omega", "delta1", "delta2", "g1", "g2")


def load_params(path: str | Path) -> ModelParams:
    """Read a key = value parameter file; jx/jy/jz default to 0 when absent.

    Lines starting with '#' or ';' and bracketed section headers are ignored;
    a key set twice is an error.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {p}: not UTF-8 text: {exc}") from exc
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{p}:{lineno}: key {key!r} already set on line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = float(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{p}:{lineno}: bad number {text.strip()!r}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{p}: missing keys: {', '.join(missing)}")
    try:
        return ModelParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from exc
