"""Analyticity-matching determinant G(E) and eigenvalue search between baselines.

The series expansions around the admissible centers must describe one entire
function, which forces their values to agree at points inside overlapping
convergence disks. Stacking those conditions over the free leading
coefficients gives a square matrix whose determinant G(E) vanishes exactly at
the regular eigenvalues of the chosen parity sector. Two topologies cover
the coupling asymmetry: an 8x8 system for g' > 0 (centers 0, g', g with two
matching points) and a 4x4 system for g' = 0 (centers 0 and g only). Both are
rows of one table, _TOPOLOGIES, which gives the centers in column order and
the matching conditions. Each energy's series are summed only as far as its
own tail test needs, up to the hard cap, so G(E) is a function of E alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import oracle, series
from .model import (
    Baseline,
    ModelParams,
    NoConvergence,
    OutsideDisk,
    Parity,
    PoleAtBaseline,
    SchemeMismatch,
    SpectrumRecord,
    SpectrumResult,
    baselines,
    fmt,
    write_csv,
)
from .series import (_CENTER_G, _CENTER_GPRIME, _CENTER_ZERO, _center, _radius, _slots,
                     _tables)

__all__ = [
    "MatchingScheme",
    "GTrace",
    "default_scheme",
    "gvalue",
    "find_roots",
    "trace",
    "write_spectrum_csv",
    "write_trace_csv",
    "DEFAULT_GRID_STEP",
    "POLE_MARGIN",
]

DEFAULT_GRID_STEP = 0.01
POLE_MARGIN = 1e-6
ROOT_TOL = 1e-10
VERIFY_TOL = 1e-6
DEFAULT_VERIFY_TRUNCATION = 300
TANGENT_GTOL = 1e-10


# Per topology: the centers in column order, then the matching conditions as
# (point, + center, - center), where a point names a MatchingScheme field.
_TOPOLOGIES = {
    "full8": ((_CENTER_G, _CENTER_GPRIME, _CENTER_ZERO),
              (("z0", _CENTER_G, _CENTER_GPRIME),
               ("z0prime", _CENTER_GPRIME, _CENTER_ZERO))),
    "reduced4": ((_CENTER_G, _CENTER_ZERO),
                 (("z0", _CENTER_G, _CENTER_ZERO),)),
}


@dataclass(frozen=True)
class MatchingScheme:
    """Matching topology and the points where expansions are compared.

    z0 joins the disks around g' and g (around 0 and g when g' = 0); z0prime
    joins the disks around 0 and g' and is only used by the 8x8 system.
    Points are in omega = 1 units like the couplings themselves.
    """

    topology: str
    z0: float
    z0prime: Optional[float] = None

    @property
    def basis_columns(self) -> dict[float | str, tuple[int, ...]]:
        """Free-initial-condition slots spanning each expansion, keyed by center."""
        gp = 0.0 if self.topology == "reduced4" else 1.0  # only g' = 0 matters
        return {tag: _slots(tag, gp) for tag in _TOPOLOGIES[self.topology][0]}


def _conditions(scheme: MatchingScheme) -> list[tuple[float, str, str]]:
    """Matching conditions (point, + center, - center) with the points resolved."""
    out = []
    for point, plus, minus in _TOPOLOGIES[scheme.topology][1]:
        z = getattr(scheme, point)
        if z is None:
            raise SchemeMismatch(f"{scheme.topology} needs {point}")
        out.append((z, plus, minus))
    return out


def default_scheme(params: ModelParams) -> MatchingScheme:
    """Topology by asymmetry, with matching points balanced between the two disks.

    full8 for every g' > 0, with z0' = g'^2/g; z0 weighs g' and g by the
    other center's radius, which gives z0 = (g' + g)/2 for g' >= g/3.
    reduced4 (g' = 0) uses z0 = g/2.
    """
    sp, _ = params.scaled().canonical()
    g, gp = sp.g, sp.gprime
    if gp == 0:
        return MatchingScheme("reduced4", g / 2)
    r2 = _radius(sp, _CENTER_GPRIME)
    r4 = _radius(sp, _CENTER_G)
    return MatchingScheme("full8", (gp * r4 + g * r2) / (r2 + r4), gp * gp / g)


def _validate_scheme(sp: ModelParams, scheme: MatchingScheme) -> None:
    g, gp = sp.g, sp.gprime
    need = {"full8": (gp > 0, "g' > 0"), "reduced4": (gp == 0, "g' = 0")}
    if scheme.topology not in need:
        raise SchemeMismatch(f"unknown topology {scheme.topology!r}")
    holds, text = need[scheme.topology]
    if not holds:
        raise SchemeMismatch(f"{scheme.topology} needs {text}")
    for z, *tags in _conditions(scheme):
        for tag in tags:
            if abs(z - _center(sp, tag)) >= _radius(sp, tag):
                raise OutsideDisk(
                    f"matching point {z} outside the disk around {_center(sp, tag)}")


def _block_eval(sp: ModelParams, sign: int, energies: np.ndarray, tag: str,
                zpoints: Sequence[float],
                ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Basis-column values at zpoints: list over z of (4, ncols, nE) arrays.

    The recurrence runs once, up to the hard cap at most, and is summed at all
    points in the same pass.
    """
    center = _center(sp, tag)
    inits = np.eye(4)[:, list(_slots(tag, sp.gprime))]
    rows, pole_ok = _tables(sp, sign, energies, tag, center, inits,
                            series.HARD_CAP)
    ts = np.array([(z - center) / _radius(sp, tag) for z in zpoints])
    sums, conv = series._kahan_eval(rows, ts)
    return ([v * math.exp(center * z) for v, z in zip(sums, zpoints)],
            pole_ok, conv)


def _gvalues(sp: ModelParams, sign: int, energies: np.ndarray,
             scheme: MatchingScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized determinant on an energy grid, and masks for poles and convergence.

    Entries on a recurrence pole or unconverged at the hard cap come back NaN.
    """
    n_e = energies.size
    conds = _conditions(scheme)
    cols, start = {}, 0
    for tag, slots in scheme.basis_columns.items():
        cols[tag] = slice(start, start + len(slots))
        start += len(slots)
    # Each center is evaluated once, at all of its points; values are keyed
    # by (center, condition index) as (nE, 4, ncols) arrays.
    at = {}
    pole_ok, conv = np.ones((2, n_e), dtype=bool)
    for tag in cols:
        ks = [k for k, cond in enumerate(conds) if tag in cond[1:]]
        vals, ok, cv = _block_eval(sp, sign, energies, tag,
                                   [conds[k][0] for k in ks])
        pole_ok &= ok
        conv &= cv
        at.update({(tag, k): np.moveaxis(v, -1, 0) for k, v in zip(ks, vals)})
    m = np.zeros((n_e, start, start))
    for k, (_, plus, minus) in enumerate(conds):
        m[:, 4 * k:4 * k + 4, cols[plus]] = at[plus, k]
        m[:, 4 * k:4 * k + 4, cols[minus]] = -at[minus, k]
    # Columns are scaled to unit max-norm; the discarded factors are positive,
    # so zeros and signs of the determinant are preserved.
    colmax = np.maximum(np.max(np.abs(m), axis=1, keepdims=True), 1e-300)
    with np.errstate(invalid="ignore"):
        vals = np.linalg.det(m / colmax)
    good = pole_ok & conv
    return np.where(good, vals, np.nan), pole_ok, good


def _prepare(params: ModelParams, scheme: Optional[MatchingScheme],
             ) -> tuple[ModelParams, MatchingScheme]:
    params.require_analytic()
    sp, _ = params.scaled().canonical()
    if scheme is None:
        scheme = default_scheme(sp)
    _validate_scheme(sp, scheme)
    return sp, scheme


def gvalue(params: ModelParams, parity: Parity, energy: float,
           scheme: Optional[MatchingScheme] = None) -> float:
    """Matching determinant at one energy (in the caller's units).

    Raises PoleAtBaseline within 1e-6 of a baseline, NoConvergence if the
    series tails stay above tolerance at the hard truncation cap.
    """
    sp, scheme = _prepare(params, scheme)
    e = energy / params.omega
    for b in baselines(sp, e - 1.0, e + 1.0):
        if abs(b.energy - e) < POLE_MARGIN:
            raise PoleAtBaseline(f"energy {energy} within {POLE_MARGIN} of a baseline")
    vals, pole_ok, conv_ok = _gvalues(sp, parity.sign, np.array([e]), scheme)
    if not pole_ok[0]:
        raise PoleAtBaseline(f"energy {energy} hits a recurrence pole")
    if not conv_ok[0]:
        raise NoConvergence("series tail above tolerance at the hard cap")
    return float(vals[0])


@dataclass(frozen=True)
class GTrace:
    """Determinant sampled on a uniform grid, NaN inside baseline pole margins."""

    parity: Parity
    energies: np.ndarray
    values: np.ndarray
    poles: tuple[Baseline, ...]


def trace(params: ModelParams, parity: Parity, e_min: float, e_max: float,
          step: Optional[float] = None) -> GTrace:
    """Sample the determinant across [e_min, e_max] for plotting or CSV export.

    step defaults to 0.01 in units of the photon frequency.
    """
    if step is None:
        step = DEFAULT_GRID_STEP * params.omega
    if step <= 0:
        raise ValueError("step must be positive")
    if not e_min < e_max:
        raise ValueError("empty energy window")
    sp, scheme = _prepare(params, None)
    w = params.omega
    lo, hi, h = e_min / w, e_max / w, step / w
    grid = np.arange(lo, hi + h / 2, h)
    poles = baselines(sp, lo - 1.0, hi + 1.0)
    mask = np.ones(grid.shape, dtype=bool)
    for b in poles:
        mask &= np.abs(grid - b.energy) >= POLE_MARGIN
    vals = np.full(grid.shape, np.nan)
    if mask.any():
        got, _, _ = _gvalues(sp, parity.sign, grid[mask], scheme)
        vals[mask] = got
    inwin = tuple(b for b in poles if lo <= b.energy <= hi)
    return GTrace(parity, grid * w,
                  vals, tuple(Baseline(b.kind, b.index, b.energy * w) for b in inwin))


def _refine_brackets(sp: ModelParams, sign: int, scheme: MatchingScheme,
                     lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
                     tol: float) -> np.ndarray:
    """Bisect sign-change brackets to width 2*tol.

    A non-finite midpoint leaves its bracket without a sign to follow; it
    raises NoConvergence rather than return the midpoint as a root.
    """
    lo = lo.astype(float)
    hi = hi.astype(float)
    flo = flo.copy()
    for _ in range(64):
        if not lo.size or np.max(hi - lo) <= 2 * tol:
            break
        mid = 0.5 * (lo + hi)
        fmid, _, _ = _gvalues(sp, sign, mid, scheme)
        bad = ~np.isfinite(fmid)
        if bad.any():
            raise NoConvergence(
                f"G is not finite at {bad.sum()} bracket midpoint(s), first at "
                f"E = {mid[bad][0]:.17g} (omega = 1 units)")
        take_lo = np.sign(fmid) == np.sign(flo)
        lo = np.where(take_lo, mid, lo)
        flo = np.where(take_lo, fmid, flo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


def find_roots(params: ModelParams, parity: Parity, e_min: float, e_max: float,
               step: Optional[float] = None,
               scheme: Optional[MatchingScheme] = None,
               verify: bool = True,
               verify_truncation: int = DEFAULT_VERIFY_TRUNCATION) -> SpectrumResult:
    """Zeros of the matching determinant in [e_min, e_max] for one parity sector.

    The window is partitioned at the baselines; each open interval is scanned
    on a uniform grid (step defaults to 0.01 in units of the photon
    frequency), sign changes are bisected to 1e-10, and dips of |G| inside one
    grid cell are probed for root pairs. With verify=True every root is
    checked against the diagonalization oracle (nearest same-parity level
    within 1e-6); unmatched roots are kept but flagged unverified. Exceptional
    eigenvalues sitting exactly on baselines are out of reach here by
    construction. A bracket whose midpoint G is not finite raises
    NoConvergence.
    """
    if not e_min < e_max:
        raise ValueError("empty energy window")
    if step is None:
        step = DEFAULT_GRID_STEP * params.omega
    if step <= 0:
        raise ValueError("step must be positive")
    sp, scheme = _prepare(params, scheme)
    w = params.omega
    lo_w, hi_w, h = e_min / w, e_max / w, step / w

    cuts = [lo_w, hi_w]
    cuts += [b.energy for b in baselines(sp, lo_w, hi_w)]
    cuts = sorted(set(cuts))
    roots: list[float] = []
    tangents: list[float] = []
    sign = parity.sign
    for a, b in zip(cuts[:-1], cuts[1:]):
        a += POLE_MARGIN
        b -= POLE_MARGIN
        if b - a <= h * 1e-6:
            continue
        npts = max(2, int(round((b - a) / h)) + 1)
        xs = np.linspace(a, b, npts)
        gs, _, _ = _gvalues(sp, sign, xs, scheme)
        finite = np.isfinite(gs)
        blo, bhi, bflo = [], [], []
        for i in range(npts - 1):
            if not (finite[i] and finite[i + 1]):
                continue
            if gs[i] == 0.0:
                roots.append(float(xs[i]))
                continue
            if np.sign(gs[i]) != np.sign(gs[i + 1]) and gs[i + 1] != 0.0:
                blo.append(xs[i])
                bhi.append(xs[i + 1])
                bflo.append(gs[i])
        if gs[-1] == 0.0:
            roots.append(float(xs[-1]))
        if blo:
            refined = _refine_brackets(sp, sign, scheme, np.array(blo),
                                       np.array(bhi), np.array(bflo), ROOT_TOL)
            roots.extend(float(x) for x in refined)
        # |G| dips without a sign change: either two roots inside one cell or
        # a tangency (even multiplicity).
        for i in range(1, npts - 1):
            if not (finite[i - 1] and finite[i] and finite[i + 1]):
                continue
            if np.sign(gs[i - 1]) != np.sign(gs[i + 1]):
                continue
            if not (abs(gs[i]) < abs(gs[i - 1]) and abs(gs[i]) < abs(gs[i + 1])):
                continue
            xa, xb = xs[i - 1], xs[i + 1]
            for _ in range(48):
                m1 = xa + (xb - xa) / 3
                m2 = xb - (xb - xa) / 3
                f12, _, _ = _gvalues(sp, sign, np.array([m1, m2]), scheme)
                if not np.all(np.isfinite(f12)):
                    break
                if abs(f12[0]) < abs(f12[1]):
                    xb = m2
                else:
                    xa = m1
            xstar = 0.5 * (xa + xb)
            fstar, _, _ = _gvalues(sp, sign, np.array([xstar]), scheme)
            if not np.isfinite(fstar[0]):
                continue
            if np.sign(fstar[0]) != np.sign(gs[i - 1]) and fstar[0] != 0.0:
                pair = _refine_brackets(
                    sp, sign, scheme,
                    np.array([xs[i - 1], xstar]), np.array([xstar, xs[i + 1]]),
                    np.array([gs[i - 1], fstar[0]]), ROOT_TOL)
                roots.extend(float(x) for x in pair)
            elif abs(fstar[0]) < TANGENT_GTOL:
                tangents.append(float(xstar))

    roots.sort()
    dedup: list[float] = []
    for x in roots:
        if not dedup or x - dedup[-1] > 1e-9:
            dedup.append(x)

    ed_levels = None
    if verify:
        ed_levels = np.array(oracle.window(params, verify_truncation, hi_w * w,
                                           (parity,)).energies())

    # A tangent is kept only when ED confirms it or, without ED, when |G| < 1e-12.
    candidates = [(x, False) for x in dedup]
    candidates += [(x, True) for x in tangents
                   if all(abs(x - r) > 1e-9 for r in dedup)]
    records = []
    for x, tangent in candidates:
        e_raw = x * w
        if ed_levels is not None and ed_levels.size:
            residual = float(np.min(np.abs(ed_levels - e_raw)))
            verified = residual < VERIFY_TOL * w
            keep = verified or not tangent
        else:
            gmag, _, _ = _gvalues(sp, sign, np.array([x]), scheme)
            residual, verified = float(abs(gmag[0])), None
            keep = residual < 1e-12 or not tangent
        if keep:
            records.append(SpectrumRecord(e_raw, parity, "gfunction", residual,
                                          verified=verified))
    result = SpectrumResult.from_records(records)
    relabeled = [SpectrumRecord(r.energy, r.parity, r.method, r.residual, i,
                                r.verified) for i, r in enumerate(result)]
    return SpectrumResult(tuple(relabeled))


def write_spectrum_csv(records, path_or_file, comments: Sequence[str] = ()) -> None:
    """Spectrum CSV: columns E, parity, method, residual."""
    write_csv(path_or_file, "E,parity,method,residual",
              ((fmt(r.energy), str(r.parity.sign), r.method, fmt(r.residual))
               for r in records), comments)


def write_trace_csv(traces: Sequence[GTrace], path_or_file,
                    comments: Sequence[str] = ()) -> None:
    """Trace CSV: columns E, G_plus, G_minus with empty cells in pole margins."""
    by_parity = {t.parity: t for t in traces}
    grid = next(iter(by_parity.values())).energies
    for t in by_parity.values():
        if t.energies.shape != grid.shape or not np.allclose(t.energies, grid):
            raise ValueError("traces must share one energy grid")
    poles = next(iter(by_parity.values())).poles
    if poles:
        comments = [*comments, "baselines: " + " ".join(
            f"{b.kind}:{b.index}@{fmt(b.energy)}" for b in poles)]
    empty = [math.nan] * grid.size
    columns = [by_parity[p].values.tolist() if p in by_parity else empty
               for p in (Parity.PLUS, Parity.MINUS)]
    write_csv(path_or_file, "E,G_plus,G_minus",
              ([fmt(e)] + [fmt(v) if math.isfinite(v) else "" for v in vals]
               for e, *vals in zip(grid.tolist(), *columns)), comments)
