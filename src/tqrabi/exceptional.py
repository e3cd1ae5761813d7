"""Quasi-exact eigenstates with bounded photon number on the baseline energies.

For identical couplings (g1 = g2) the center-0 recurrence can terminate at a
photon number N, leaving an eigenstate supported on at most N photons with
energy E = N - Jx +/- (-1)^N (Jy + Jz) (E = N without exchange terms). The
termination happens iff a downward three-term recurrence, started from the
cutoff row, reaches n = -1 with value zero; that value is the cutoff
condition f(-1, N) evaluated here. For several small-N cases the states have
closed forms, which the recurrence construction reproduces componentwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import series
from .model import (
    ConditionNotMet,
    DegenerateDenominator,
    ModelParams,
    Parity,
    QUBIT_PAIRS,
    RequiresEqualCouplings,
    RequiresValidCouplings,
    SolverError,
    SupportOverflow,
)

__all__ = [
    "ExceptionalCandidate",
    "ExceptionalState",
    "FlatLineHit",
    "condition",
    "build_state",
    "scan_flat_lines",
    "exceptional_energy",
    "levels",
]

CONDITION_TOL = 1e-10
_DEGENERATE_EPS = 1e-12
_DROP_REL = 1e-13
MANIFOLD_TOL = 1e-8

_SCAN_AXES = ("delta1", "delta2", "jx", "jy", "jz")


@dataclass(frozen=True)
class ExceptionalCandidate:
    """A baseline index with its cutoff-condition value at the probed parameters."""

    n_index: int
    parity: Parity
    energy: float
    condition_value: float
    g_independent: bool


@dataclass(frozen=True)
class ExceptionalState:
    """Finite-photon-support eigenstate: unit-norm amplitudes over |n, s1 s2>."""

    energy: float
    parity: Parity
    coeffs: tuple[tuple[int, str, float], ...]

    @property
    def max_photon(self) -> int:
        return max(n for n, _, _ in self.coeffs)

    def vector(self, truncation: int) -> np.ndarray:
        """Dense amplitude vector in the diagonalization basis (4*n + pair index)."""
        if self.max_photon > truncation:
            raise SupportOverflow(
                f"state reaches photon {self.max_photon} > truncation {truncation}")
        v = np.zeros(4 * (truncation + 1))
        for n, pair, amp in self.coeffs:
            v[4 * n + QUBIT_PAIRS.index(pair)] = amp
        return v


def exceptional_energy(params: ModelParams, parity: Parity, n_index: int) -> float:
    """Cutoff state N's energy: omega times its center-0 series._divisor (g1 = g2 > 0)."""
    sp = _equal_couplings(params, "cutoff states")
    origin = series._centers(sp)[-1]
    shift = series._slaving(sp, parity.sign, origin, -math.inf)[0]
    return params.omega * series._divisor(origin, shift, n_index)


def _equal_couplings(params: ModelParams, what: str) -> ModelParams:
    """params in omega = 1 units, checked for g1 = g2 > 0; what names the caller."""
    sp = params.scaled()
    if sp.gprime != 0.0:
        raise RequiresEqualCouplings(f"{what} need g1 == g2")
    if sp.g == 0.0:
        raise RequiresValidCouplings(f"{what} need g1 = g2 > 0")
    return sp


def _downward(sp: ModelParams, s: int, n_cut: int) -> list[float]:
    """First-component coefficients e1[n], n = -1..N, from the cutoff row down.

    Stored with offset one (entry k holds e1_{k-1}); the second component at
    the cutoff is normalized to one, so entry 0 is the cutoff condition. They
    are Python floats, which turn inf or NaN silently past the double range.
    """
    g = sp.g
    d1, d2, jx = sp.delta1, sp.delta2, sp.jx
    jy, jz = sp.jy, sp.jz
    beta = jy + jz
    sig_n = (-1.0) ** n_cut
    e = [0.0] * (n_cut + 2)
    if n_cut >= 1:
        e[n_cut] = (s * (-1.0) ** (n_cut - 1) * d1 - d2) / g
    else:
        e[0] = (-s * d1 - d2) / g
    for n in range(n_cut - 2, -2, -1):
        if e[n + 2] == 0.0:  # dark chains vanish identically; no division needed
            e[n + 1] = -(n + 2) * e[n + 3]
            continue
        sig = (-1.0) ** n
        den = n_cut - n - 1 + s * (sig_n + sig) * beta
        if abs(den) < _DEGENERATE_EPS:
            raise DegenerateDenominator(
                f"downward recurrence denominator vanished at n={n} (N={n_cut})")
        bracket = (-((d2 + s * (-1.0) ** (n + 1) * d1) ** 2) / den
                   + s * (sig_n - sig) * jy + s * (sig_n + sig) * jz
                   + n_cut - n - 1 - 2 * jx)
        e[n + 1] = bracket / g * e[n + 2] - (n + 2) * e[n + 3]
    return e


def condition(params: ModelParams, parity: Parity, n_index: int) -> float:
    """Cutoff condition f(-1, N); zero (within 1e-10) iff the state exists.

    Values are reported in omega = 1 units. Only defined for g1 = g2 > 0.
    Where the recurrence leaves the double range (on flat lines past N ~ 170)
    the value is inf or NaN: such an index cannot be certified and is no state.
    """
    if n_index < 0:
        raise ValueError("n_index must be >= 0")
    sp = _equal_couplings(params, "cutoff conditions")
    return _downward(sp, parity.sign, n_index)[0]


def _second_component(sp: ModelParams, s: int, n_cut: int,
                      e1: Sequence[float]) -> np.ndarray:
    """Second-component coefficients slaved to e1 through the center-0 constraint."""
    beta = sp.jy + sp.jz
    sig_n = (-1.0) ** n_cut
    e2 = np.zeros(n_cut + 1)
    e2[n_cut] = 1.0
    for n in range(n_cut):
        if e1[n + 1] == 0.0:
            continue
        sig = (-1.0) ** n
        den = n_cut - n + s * (sig_n - sig) * beta
        if abs(den) < _DEGENERATE_EPS:
            raise DegenerateDenominator(
                f"second-component denominator vanished at n={n} (N={n_cut})")
        e2[n] = (sp.delta2 + s * sig * sp.delta1) * e1[n + 1] / den
    return e2


def _amps_from_coeffs(s: int, e1: Sequence[float], e2: np.ndarray,
                      n_cut: int) -> dict[tuple[int, str], float]:
    """Map series coefficients to Fock x qubit amplitudes, up to one factor.

    Photon numbers with (-1)^m equal to the parity sign carry the (ee, gg)
    combinations; the others carry (ge, eg). Photon m weighs sqrt(m!/2), or
    sqrt(m!/N!), relative to the largest, where N! leaves the double range."""
    amps: dict[tuple[int, str], float] = {}
    scale = 2.0 if n_cut <= 170 else math.factorial(n_cut)
    for m in range(n_cut + 1):
        w = math.sqrt(math.factorial(m) / scale)
        up, down = ("ee", "gg") if (-1) ** m == s else ("ge", "eg")
        amps[(m, up)] = w * (e1[m] + e2[m])
        amps[(m, down)] = w * (e1[m] - e2[m])
    return amps


def _unit(amps: Mapping[tuple[int, str], float]) -> dict[tuple[int, str], float]:
    """amps above 1e-13 of the largest, scaled to unit norm."""
    top = max(abs(a) for a in amps.values())
    if top == 0:
        raise SolverError("zero amplitude table")
    kept = {k: a for k, a in amps.items() if abs(a) > _DROP_REL * top}
    norm = math.sqrt(sum(a * a for a in kept.values()))
    return {k: a / norm for k, a in kept.items()}


def _closed_form_amps(sp: ModelParams, parity: Parity, n_cut: int,
                      ) -> Optional[dict[tuple[int, str], float]]:
    """Raw closed-form amplitude tables where one is known; None otherwise."""
    s = parity.sign
    d1, d2, g = sp.delta1, sp.delta2, sp.g
    beta = sp.jy + sp.jz
    no_j = sp.jx == 0.0 and sp.jy == 0.0 and sp.jz == 0.0
    if d1 == d2 and s == ((-1) ** (n_cut + 1)):
        return {(n_cut, "ge"): 1.0, (n_cut, "eg"): -1.0}
    if n_cut == 1 and s == 1 and d1 != d2:
        if no_j:
            return {(0, "ee"): 2 * (d1 - d2) / g, (1, "eg"): -1.0, (1, "ge"): 1.0}
        if 1 - 2 * beta == 0.0:
            return None
        return {(0, "gg"): 1 - 2 * beta - d1 - d2,
                (0, "ee"): 1 - 2 * beta + d1 + d2,
                (1, "ge"): (1 - 2 * beta) * g / (d1 - d2),
                (1, "eg"): -(1 - 2 * beta) * g / (d1 - d2)}
    if n_cut == 1 and s == -1 and d1 + d2 != 0.0:
        if no_j:
            if abs(d1 - d2 - 1) <= abs(d2 - d1 - 1):
                return {(0, "eg"): 2 * (d1 + d2) / g, (1, "gg"): 1.0, (1, "ee"): -1.0}
            return {(0, "ge"): 2 * (d1 + d2) / g, (1, "gg"): 1.0, (1, "ee"): -1.0}
        return {(0, "eg"): 1 + 2 * beta + d1 - d2,
                (0, "ge"): 1 + 2 * beta - d1 + d2,
                (1, "ee"): -(1 + 2 * beta) * g / (d1 + d2),
                (1, "gg"): (1 + 2 * beta) * g / (d1 + d2)}
    if (n_cut == 3 and s == 1 and d1 != d2 and 1 - 2 * beta != 0.0
            and abs(sp.jx + sp.jy + 2 * sp.jz - 2.0) < MANIFOLD_TOL):
        d12 = d1 + d2
        return {(0, "gg"): 3 - 2 * beta - d12,
                (0, "ee"): 3 - 2 * beta + d12,
                (2, "gg"): (2 * beta - 3) * (1 - 2 * beta - d12)
                / (math.sqrt(2.0) * (1 - 2 * beta)),
                (2, "ee"): (2 * beta - 3) * (1 - 2 * beta + d12)
                / (math.sqrt(2.0) * (1 - 2 * beta)),
                (3, "ge"): math.sqrt(6.0) * (2 * beta - 3) * g / (2 * (d1 - d2)),
                (3, "eg"): -math.sqrt(6.0) * (2 * beta - 3) * g / (2 * (d1 - d2))}
    return None


def build_state(params: ModelParams, parity: Parity, n_index: int) -> ExceptionalState:
    """Construct the cutoff state from the downward recurrence and normalize it.

    Raises ConditionNotMet unless |f(-1, N)| < 1e-10. When a closed form is
    known the construction is cross-checked against it componentwise (1e-12,
    up to global sign), and the amplitudes take the closed form's sign.
    """
    sp = _equal_couplings(params, "cutoff states")
    s = parity.sign
    e1_off = _downward(sp, s, n_index)
    if not abs(e1_off[0]) < CONDITION_TOL:  # also where it is NaN
        raise ConditionNotMet(
            f"cutoff condition {e1_off[0]:.3e} not below {CONDITION_TOL:g} "
            f"(N={n_index}, parity {parity})")
    e2 = _second_component(sp, s, n_index, e1_off)
    amps = _unit(_amps_from_coeffs(s, e1_off[1:], e2, n_index))

    if (cf_raw := _closed_form_amps(sp, parity, n_index)) is not None:
        cf_amps = _unit(cf_raw)
        keys = set(amps) | set(cf_amps)
        anchor = max(keys, key=lambda k: abs(cf_amps.get(k, 0.0)))
        flip = -1.0 if amps.get(anchor, 0.0) * cf_amps[anchor] < 0 else 1.0
        worst = max(abs(flip * amps.get(k, 0.0) - cf_amps.get(k, 0.0)) for k in keys)
        if worst > 1e-12:
            raise SolverError(
                f"recurrence state deviates from its closed form by {worst:.3e}")
        amps = {k: flip * v for k, v in amps.items()}
    coeffs = tuple(sorted((n, pair, a) for (n, pair), a in amps.items()))
    return ExceptionalState(exceptional_energy(params, parity, n_index), parity, coeffs)


def levels(params: ModelParams, parity: Parity, e_min: float,
           e_max: float) -> list[tuple[int, float, float, int]]:
    """Cutoff states of one parity with energies in [e_min, e_max].

    Returns (N, E, f(-1, N), k) for every index N whose condition vanishes
    (within 1e-10), from the center-0 divisors (series._slaving): E is omega
    times the baseline that series.baselines lists, and k counts the columns
    that carry the pole at E. A state with k = 1 is a root of G, where G
    jumps; a dark state (k = 0) sits where G has no pole and is no root. A
    vanishing denominator of the condition (DegenerateDenominator) means no
    state at that index, as in scan_flat_lines, and so does one whose
    recurrence leaves the double range (condition). Empty unless g1 = g2 in
    omega = 1 units; g1 = g2 = 0 raises. e_min may be -inf, and e_max must
    be finite and within the photon cap (ModelParams.require_reach).
    """
    if math.isnan(e_min) or not math.isfinite(e_max):
        raise ValueError("e_max must be finite and e_min not NaN")
    params.require_reach(e_max)
    if params.scaled().gprime != 0.0:
        return []
    sp = _equal_couplings(params, "cutoff states")
    origin = series._centers(sp)[-1]
    out = []
    for n, b, k in series._slaving(sp, parity.sign, origin, e_max / params.omega)[2]:
        energy = b * params.omega
        if not e_min <= energy <= e_max:
            continue
        try:
            cond = condition(params, parity, n)
        except DegenerateDenominator:
            continue
        if abs(cond) < CONDITION_TOL:
            out.append((n, energy, cond, k))
    return out


@dataclass(frozen=True)
class FlatLineHit:
    """One zero of the cutoff condition found along a scan line."""

    manifold: str
    params: ModelParams
    candidate: ExceptionalCandidate


def _manifold_label(sp: ModelParams, parity: Parity, n_index: int) -> str:
    s = parity.sign
    d1, d2 = sp.delta1, sp.delta2
    jx, jy, jz = sp.jx, sp.jy, sp.jz
    no_j = jx == 0.0 and jy == 0.0 and jz == 0.0
    if abs(d1 - d2) < MANIFOLD_TOL and s == (-1) ** (n_index + 1):
        return "delta1=delta2"
    if n_index == 1 and s == 1:
        if no_j and abs(d1 + d2 - 1) < MANIFOLD_TOL:
            return "delta1+delta2=omega"
        bracket = (jx + jy + 2 * jz - 1) ** 2 - (jx - jy) ** 2 - (d2 + d1) ** 2
        if abs(bracket) < MANIFOLD_TOL:
            return "xyz-even-n1"
    if n_index == 1 and s == -1:
        if no_j and abs(d1 - d2 - 1) < MANIFOLD_TOL:
            return "delta1-delta2=omega"
        if no_j and abs(d2 - d1 - 1) < MANIFOLD_TOL:
            return "delta2-delta1=omega"
        bracket = (jx - jy - 2 * jz - 1) ** 2 - (jx + jy) ** 2 - (d2 - d1) ** 2
        if abs(bracket) < MANIFOLD_TOL:
            return "xyz-odd-n1"
    if n_index == 3:
        if s == 1 and abs(jx + jy + 2 * jz - 2) < MANIFOLD_TOL:
            return "jx+jy+2jz=2omega"
        if s == -1 and abs(jx - jy - 2 * jz - 2) < MANIFOLD_TOL:
            return "jx-jy-2jz=2omega"
    return "numeric"


def _bisect(f: Callable[[float], float], xa: float, xb: float,
            fa: float) -> Optional[float]:
    """Zero of f between xa and xb, where f(xa) = fa and f(xb) has the other sign.

    Halves the cell down to a width of 1e-14 relative; a probe where f is
    exactly zero is the zero. A NaN probe returns None: the sign change sits
    across a pole of f, not a zero.
    """
    while xb - xa > 1e-14 * max(1.0, abs(xa), abs(xb)):
        xm = 0.5 * (xa + xb)
        fm = f(xm)
        if fm == 0.0:
            return xm
        if math.isnan(fm):
            return None
        if (fm > 0) == (fa > 0):
            xa, fa = xm, fm
        else:
            xb = xm
    return 0.5 * (xa + xb)


def scan_flat_lines(template: ModelParams, axes: Mapping[str, Sequence[float]],
                    n_max: int = 3,
                    g_probe: tuple[float, float] = (0.8, 2.1)) -> list[FlatLineHit]:
    """Zeros of the cutoff condition along 1-D parameter lines, with g-probing.

    axes maps parameter names (delta1, delta2, jx, jy, jz) to grids; the last
    axis is the bisection line, the others span an outer grid. For each outer
    point, parity and N the hits are the exact zeros of the condition at the
    line's grid points, then one zero per grid cell whose ends change sign,
    found by bisection at coupling g_probe[0]. A vanishing denominator of the
    condition is a pole, so a cell whose bisection meets one gives no hit.
    Each zero is re-evaluated at g_probe[1], which must differ from
    g_probe[0]; hits whose condition vanishes at both couplings are flagged
    g_independent, the rest are the fine-tuned kind that exists at one
    coupling only.
    """
    if template.scaled().gprime != 0.0:
        raise RequiresEqualCouplings("flat-line scan needs g1 == g2")
    for name, grid in axes.items():
        if name not in _SCAN_AXES:
            raise ValueError(f"cannot scan axis {name!r}")
        if len(grid) == 0:
            raise ValueError(f"scan axis {name!r} has no points")
    if len(axes) == 0:
        raise ValueError("need at least one scan axis")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if g_probe[0] == g_probe[1]:
        raise ValueError(f"g_probe couplings must differ; both are {g_probe[0]}")
    *outer_names, line_axis = axes
    line = [float(x) for x in axes[line_axis]]
    if len(line) < 2:
        raise ValueError("scan line needs at least two points")
    hits: list[FlatLineHit] = []
    for combo in itertools.product(*(map(float, axes[k]) for k in outer_names)):
        base = replace(template, **dict(zip(outer_names, combo)))
        for parity, n in itertools.product(Parity, range(n_max + 1)):
            def cond(x: float, g: float = g_probe[0]) -> float:
                try:
                    return condition(replace(base, **{line_axis: x}).with_g(g),
                                     parity, n)
                except DegenerateDenominator:
                    return math.nan

            vals = [cond(x) for x in line]
            roots = [x for x, v in zip(line, vals) if v == 0.0]
            for xa, xb, fa, fb in zip(line, line[1:], vals, vals[1:]):
                if (math.isfinite(fa) and math.isfinite(fb) and fa != 0.0
                        and fb != 0.0 and (fa > 0) != (fb > 0)):
                    x = _bisect(cond, xa, xb, fa)
                    if x is not None:
                        roots.append(x)
            for x in roots:
                cond_a = cond(x)
                if abs(cond_a) < CONDITION_TOL:  # False for NaN, on a pole
                    point = replace(base, **{line_axis: x})
                    cand = ExceptionalCandidate(
                        n, parity, exceptional_energy(point, parity, n), cond_a,
                        abs(cond(x, g_probe[1])) < CONDITION_TOL)
                    hits.append(FlatLineHit(
                        _manifold_label(point.scaled(), parity, n), point, cand))
    return hits
