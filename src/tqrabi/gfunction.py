"""Pole-free analyticity-matching determinant G(E) and its eigenvalue search.

The series expansions around the admissible centers must describe one entire
function, which forces their values to agree at points inside overlapping
convergence disks. Stacking those conditions over the free leading
coefficients gives a square matrix whose determinant vanishes exactly at the
regular eigenvalues of the chosen parity sector. With unit columns and its
baseline poles cancelled by a factor of E, it is G(E), finite and continuous
through every baseline. The model fixes the matching chain: centers g, g'
and 0 joined at two points (an 8x8 system) when g' > 0, and g and 0 joined
at one point (4x4) when g' = 0, where center g' drops out. One function,
_chain, lists the conditions, and the column order is read off them. Each
energy's series are summed only as far as its own tail test needs, up to
the hard cap, so G(E) is a function of E alone.
Only the expansion around 0 depends on the parity; the sums around g and g'
serve both parities from one pass, mirrored by D = diag(1, 1, -1, -1).
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
]

DEFAULT_GRID_STEP = 0.01
ROOT_TOL = 1e-10
VERIFY_TOL = 1e-6
DEFAULT_VERIFY_TRUNCATION = 300
TANGENT_GTOL = 1e-10
# Pass budget of the bracket refinement and the dip probe: with a midpoint
# every third pass it holds the 64 halvings of the bisection it replaced.
_MAX_PASSES = 3 * 64
# Energies per series pass in _gvalues. A block stops on its own slowest
# energy instead of the batch's, and its work arrays stay near 2 MB, inside
# the CPU caches, however long the batch, so a long trace is bound by
# arithmetic rather than by memory traffic. Sizes 512 to 2048 run alike.
_BLOCK = 1024
_PARITY_D = np.array([1.0, 1.0, -1.0, -1.0])  # the D of the parity mirror


@dataclass(frozen=True)
class MatchingScheme:
    """Points where the expansions along the matching chain are compared.

    z0 joins the disks around g and the next center of the chain, g' or, when
    g' = 0, 0; z0prime joins the disks around g' and 0, and is given exactly
    when g' > 0. Points are in omega = 1 units like the couplings themselves.
    """

    z0: float
    z0prime: Optional[float] = None


def _chain(sp: ModelParams, scheme: MatchingScheme) -> list[tuple[float, str, str]]:
    """Matching conditions (point, + center, - center) along g -> g' -> 0.

    Center g' takes part exactly when g' > 0; the centers' column order is
    that of their first appearance, g, g', 0.
    """
    if (scheme.z0prime is None) != (sp.gprime == 0):
        raise SchemeMismatch(f"z0prime is given exactly when g' > 0 (g' = {sp.gprime})")
    if sp.gprime == 0:
        return [(scheme.z0, _CENTER_G, _CENTER_ZERO)]
    return [(scheme.z0, _CENTER_G, _CENTER_GPRIME),
            (scheme.z0prime, _CENTER_GPRIME, _CENTER_ZERO)]


def default_scheme(params: ModelParams) -> MatchingScheme:
    """Matching points balanced between the two disks they join.

    For g' > 0, z0' = g'^2/g, and z0 weighs g' and g by the other center's
    radius, which gives z0 = (g' + g)/2 for g' >= g/3. For g' = 0, z0 = g/2.
    """
    sp, _ = params.scaled().canonical()
    g, gp = sp.g, sp.gprime
    if gp == 0:
        return MatchingScheme(g / 2)
    r2 = _radius(sp, _CENTER_GPRIME)
    r4 = _radius(sp, _CENTER_G)
    return MatchingScheme((gp * r4 + g * r2) / (r2 + r4), gp * gp / g)


def _validate_scheme(sp: ModelParams, scheme: MatchingScheme) -> None:
    for z, *tags in _chain(sp, scheme):
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


def _gvalues(sp: ModelParams, signs: int | tuple[int, ...], energies: np.ndarray,
             scheme: MatchingScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized determinant on an energy grid, and masks for poles and convergence.

    signs is one sign, or a tuple that gives each result a leading sign axis.
    Entries on a recurrence pole or unconverged at the hard cap come back NaN.
    The energies are taken in blocks of _BLOCK, each with its own series
    stop, and every energy's value is the same whatever block it falls in.
    """
    many = isinstance(signs, tuple)
    signs = signs if many else (signs,)
    vals = np.empty((len(signs), energies.size))
    pole_ok, good = np.empty((2,) + vals.shape, dtype=bool)
    for i in range(0, energies.size, _BLOCK):
        part = slice(i, i + _BLOCK)
        vals[:, part], pole_ok[:, part], good[:, part] = _gvalues_once(
            sp, signs, energies[part], scheme)
    return (vals, pole_ok, good) if many else (vals[0], pole_ok[0], good[0])


def _gvalues_once(sp: ModelParams, signs: tuple[int, ...], energies: np.ndarray,
                  scheme: MatchingScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gvalues on one block of energies: every center, then per sign the matrix and det.

    Centers g and g' are summed once, at sign +1, and mirrored by D for -1
    (see series); center 0 carries the parity and is summed once per sign.
    """
    n_e = energies.size
    conds = _chain(sp, scheme)
    cols, start = {}, 0
    mirror, rows_d = np.ones((4 * len(conds),) * 2), np.tile(_PARITY_D, len(conds))
    for tag in dict.fromkeys(t for _, *tags in conds for t in tags):
        slots = _slots(tag, sp.gprime)
        cols[tag] = slice(start, start + len(slots))
        if tag != _CENTER_ZERO:  # sign -1 takes D[row] * D[slot] times the +1 sums
            mirror[:, cols[tag]] = np.outer(rows_d, _PARITY_D[list(slots)])
        start += len(slots)

    def center(tag, sign):
        # Each center is evaluated once, at all of its points; values are
        # keyed by (center, condition index) as (nE, 4, ncols) arrays.
        ks = [k for k, cond in enumerate(conds) if tag in cond[1:]]
        vals, ok, cv = _block_eval(sp, sign, energies, tag, [conds[k][0] for k in ks])
        return {(tag, k): np.moveaxis(v, -1, 0) for k, v in zip(ks, vals)}, ok, ok & cv

    shared = [center(tag, 1) for tag in cols if tag != _CENTER_ZERO]
    vals = np.empty((len(signs), n_e))
    pole_ok, good = np.empty((2, len(signs), n_e), dtype=bool)
    for i, sign in enumerate(signs):
        at, pole_ok[i], good[i] = center(_CENTER_ZERO, sign)
        for part, ok, gd in shared:
            at, pole_ok[i], good[i] = at | part, pole_ok[i] & ok, good[i] & gd
        m = np.zeros((n_e, start, start))
        for k, (_, plus, minus) in enumerate(conds):
            m[:, 4 * k:4 * k + 4, cols[plus]] = at[plus, k]
            m[:, 4 * k:4 * k + 4, cols[minus]] = -at[minus, k]
        if sign < 0:
            m *= mirror
        # Columns are scaled to unit 2-norm, smooth in E, by positive factors;
        # hypot folds the rows in order at every batch size and cannot overflow.
        norm = np.maximum(np.hypot.reduce(m, axis=1, keepdims=True), 1e-300)
        with np.errstate(invalid="ignore"):
            det = np.linalg.det(m / norm)
        vals[i] = np.where(good[i], det, np.nan) * _pole_factor(sp, sign, cols, energies)
    return vals, pole_ok, good


def _pole_factor(sp: ModelParams, sign: int, tags: Sequence[str],
                 energies: np.ndarray) -> np.ndarray:
    """Factor that cancels the baseline poles of the column-scaled determinant.

    The k unit columns that carry a pole b (series._slaving) turn parallel,
    so the determinant goes as sign(d) |d|^(k-1), d = E - b. Each pole below E
    flips the sign; each with |d| < 1 multiplies by 1 + (|d|^(1-k) - 1)(1 -
    d^2)^2, smooth into 1 at the next pole of its family, |d| = 1. The poles
    act in a fixed order, so the factor is a function of E alone.
    """
    poles = [(b, k) for tag in tags
             for _, b, k in series._slaving(sp, sign, tag, energies.max())[3] if k]
    b, k = np.array(poles).reshape(-1, 2).T
    d = energies[:, None] - b
    with np.errstate(divide="ignore"):  # d = 0 only on a pole, where G is NaN
        bump = 1.0 + (np.abs(d) ** (1 - k) - 1.0) * (1.0 - d * d) ** 2
    near = np.where(np.abs(d) < 1.0, bump, 1.0)
    return (-1.0) ** np.count_nonzero(d > 0, axis=1) * np.prod(near, axis=1)


def _prepare(params: ModelParams, scheme: Optional[MatchingScheme],
             ) -> tuple[ModelParams, MatchingScheme]:
    params.require_analytic()
    sp, _ = params.scaled().canonical()
    if scheme is None:
        scheme = default_scheme(sp)
    _validate_scheme(sp, scheme)
    return sp, scheme


def _window(params: ModelParams, e_min: float, e_max: float,
            step: Optional[float]) -> tuple[float, float, float]:
    """Checked window ends and grid step (default 0.01 omega), in omega = 1 units."""
    if not e_min < e_max:
        raise ValueError("empty energy window")
    if step is None:
        step = DEFAULT_GRID_STEP * params.omega
    if step <= 0:
        raise ValueError("step must be positive")
    w = params.omega
    return e_min / w, e_max / w, step / w


def gvalue(params: ModelParams, parity: Parity, energy: float,
           scheme: Optional[MatchingScheme] = None) -> float:
    """Pole-free matching determinant at one energy (in the caller's units).

    Raises PoleAtBaseline within 1e-12 of a baseline, NoConvergence if the
    series tails stay above tolerance at the hard truncation cap.
    """
    sp, scheme = _prepare(params, scheme)
    vals, pole_ok, conv_ok = _gvalues(sp, parity.sign,
                                      np.array([energy / params.omega]), scheme)
    if not pole_ok[0]:
        raise PoleAtBaseline(f"energy {energy} hits a recurrence pole")
    if not conv_ok[0]:
        raise NoConvergence("series tail above tolerance at the hard cap")
    return float(vals[0])


@dataclass(frozen=True)
class GTrace:
    """Pole-free determinant on a uniform grid; NaN on a pole hit or unconverged."""

    parity: Parity
    energies: np.ndarray
    values: np.ndarray
    poles: tuple[Baseline, ...]


def trace(params: ModelParams, parity: Parity, e_min: float, e_max: float,
          step: Optional[float] = None) -> GTrace:
    """Sample the determinant across [e_min, e_max] for plotting or CSV export.

    step defaults to 0.01 in units of the photon frequency.
    """
    return _traces(params, (parity,), e_min, e_max, step)[0]


def _traces(params: ModelParams, parities: Sequence[Parity], e_min: float,
            e_max: float, step: Optional[float] = None) -> list[GTrace]:
    """trace for several parities on one grid, from one G pass."""
    lo, hi, h = _window(params, e_min, e_max, step)
    sp, scheme = _prepare(params, None)
    w = params.omega
    grid = np.arange(lo, hi + h / 2, h)
    vals, _, _ = _gvalues(sp, tuple(p.sign for p in parities), grid, scheme)
    poles = tuple(baselines(params, e_min, e_max))
    return [GTrace(p, grid * w, v, poles) for p, v in zip(parities, vals)]


def _refine_brackets(sp: ModelParams, sign: int, scheme: MatchingScheme,
                     lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
                     fhi: np.ndarray, tol: float) -> np.ndarray:
    """Shrink sign-change brackets to width 2*tol and return their midpoints.

    Illinois regula falsi on all brackets at once, one G call per pass over
    those still open: an end kept twice in a row has its G value halved,
    every third pass probes the midpoint, and every probe stays at least tol
    inside its bracket, so a bracket closes once a probe lands within tol of
    its root. A non-finite probe leaves its bracket without a sign to
    follow; it raises NoConvergence rather than return the midpoint as a
    root.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    flo, fhi = flo.astype(float), fhi.astype(float)
    kept = np.zeros(lo.shape, dtype=int)  # end kept by the last pass: -1 lo, +1 hi
    for k in range(_MAX_PASSES):
        todo = np.flatnonzero(hi - lo > 2 * tol)
        if not todo.size:
            break
        a, b, fa, fb = lo[todo], hi[todo], flo[todo], fhi[todo]
        if k % 3 == 2:
            x = 0.5 * (a + b)
        else:
            x = np.clip(a - fa * (b - a) / (fb - fa), a + tol, b - tol)
        fx, ok, _ = _gvalues(sp, sign, x, scheme)
        if not ok.all():  # no value exactly on a pole: probe just beside it
            x[~ok] += 4 * series.POLE_EPS
            fx[~ok] = _gvalues(sp, sign, x[~ok], scheme)[0]
        bad = ~np.isfinite(fx)
        if bad.any():
            raise NoConvergence(
                f"G is not finite at {bad.sum()} bracket probe(s), first at "
                f"E = {x[bad][0]:.17g} (omega = 1 units)")
        exact = fx == 0.0
        to_lo = (np.sign(fx) == np.sign(fa)) & ~exact
        to_hi = ~to_lo & ~exact
        last = kept[todo]
        lo[todo] = np.where(to_hi, a, x)
        hi[todo] = np.where(to_lo, b, x)
        flo[todo] = np.where(to_lo, fx, np.where(to_hi & (last == -1), 0.5 * fa, fa))
        fhi[todo] = np.where(to_hi, fx, np.where(to_lo & (last == 1), 0.5 * fb, fb))
        kept[todo] = np.where(to_lo, 1, np.where(to_hi, -1, 0))
    return 0.5 * (lo + hi)


def _probe_dips(sp: ModelParams, sign: int, scheme: MatchingScheme,
                x: np.ndarray, f: np.ndarray, tol: float,
                ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Split |G| dips into sign-change brackets, or name them tangent candidates.

    x, f are (n, 3) grid triples of one sign whose middle |G| is below both
    ends. Each pass probes every open triple in one G call, at the vertex of
    the parabola through its three |G| values (every third pass at the
    midpoint of its longer half), kept tol inside the triple and moved off
    its middle point, and narrows the triple around the smallest |G|. A probe
    of the other sign turns its triple into two brackets, returned as (lo,
    hi, G(lo), G(hi)). A triple narrowed to 2*tol is a tangent candidate if
    |G| at its middle is below TANGENT_GTOL, and so is an exact zero. A
    non-finite probe drops its dip, and so does a probe whose |G| agrees
    with the middle's to 1e-12 relative, both above TANGENT_GTOL: such a
    flat dip holds neither a root pair nor a tangency.
    """
    x, f = x.astype(float), f.astype(float)
    live = np.ones(len(x), dtype=bool)
    pairs, tangents = [(np.empty(0),) * 4], []
    for k in range(_MAX_PASSES):
        todo = np.flatnonzero(live & (x[:, 2] - x[:, 0] > 2 * tol))
        if not todo.size:
            break
        (x0, x1, x2), (f0, f1, f2) = x[todo].T, f[todo].T
        a0, a1, a2 = np.abs(f0), np.abs(f1), np.abs(f2)
        d0, d2 = x1 - x0, x2 - x1
        mid = np.where(d2 > d0, x1 + 0.5 * d2, x1 - 0.5 * d0)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = x1 - 0.5 * ((d0 * d0 * (a1 - a2) - d2 * d2 * (a1 - a0))
                            / (d0 * (a1 - a2) + d2 * (a1 - a0)))
        u = np.where((k % 3 == 2) | ~np.isfinite(u), mid, u)
        u = np.clip(u, x0 + tol, x2 - tol)
        step = np.minimum(tol, 0.5 * np.maximum(d0, d2))
        u = np.where(np.abs(u - x1) < tol, np.where(d2 > d0, x1 + step, x1 - step), u)
        fu, _, _ = _gvalues(sp, sign, u, scheme)
        tangents.append(u[fu == 0.0])
        flip = np.sign(fu) == -np.sign(f1)
        pairs.append((np.concatenate([x0[flip], u[flip]]),
                      np.concatenate([u[flip], x2[flip]]),
                      np.concatenate([f0[flip], fu[flip]]),
                      np.concatenate([fu[flip], f2[flip]])))
        same = np.sign(fu) == np.sign(f1)
        flat = (np.abs(fu - f1) <= 1e-12 * a1) & (np.fmin(np.abs(fu), a1) > TANGENT_GTOL)
        live[todo[~same | flat]] = False
        # Keep the lower of the two inner points among the four, with its
        # neighbours.
        px = np.stack([x0, x1, x2, u], 1)
        pf = np.stack([f0, f1, f2, fu], 1)
        order = np.argsort(px, axis=1)
        px = np.take_along_axis(px, order, 1)
        pf = np.take_along_axis(pf, order, 1)
        c = 1 + (np.abs(pf[:, 2]) < np.abs(pf[:, 1]))
        pick = (np.arange(todo.size)[:, None], c[:, None] + np.arange(-1, 2))
        x[todo[same]] = px[pick][same]
        f[todo[same]] = pf[pick][same]
    rest = live & (np.abs(f[:, 1]) < TANGENT_GTOL)
    tangents.append(x[rest, 1])
    return tuple(np.concatenate(c) for c in zip(*pairs)), np.concatenate(tangents)


def find_roots(params: ModelParams, parity: Parity, e_min: float, e_max: float,
               step: Optional[float] = None,
               scheme: Optional[MatchingScheme] = None,
               verify: bool = True,
               verify_truncation: int = DEFAULT_VERIFY_TRUNCATION) -> SpectrumResult:
    """Zeros of the matching determinant in [e_min, e_max] for one parity sector.

    The pole-free G is scanned across the window on one uniform grid (step
    defaults to 0.01 in units of the photon frequency) in one batch, less
    any grid point exactly on a baseline. Dips of |G| without a sign change
    are probed for a root pair inside one grid cell, or a tangency. All
    sign-change brackets of the sector are then refined together by
    Illinois regula falsi to width 2e-10; a root is the midpoint of its
    bracket. A cutoff state on a one-column (center-0) baseline comes out as
    a root; dark states, on baselines without a pole, do not. With
    verify=True every root is checked against the diagonalization oracle
    (nearest same-parity level within 1e-6); unmatched roots are kept but
    flagged unverified. A bracket probe where G is not finite raises
    NoConvergence.
    """
    lo_w, hi_w, h = _window(params, e_min, e_max, step)
    sp, scheme = _prepare(params, scheme)
    w = params.omega
    sign = parity.sign

    xs = np.linspace(lo_w, hi_w, max(2, int(round((hi_w - lo_w) / h)) + 1))
    gs, pole_ok, _ = _gvalues(sp, sign, xs, scheme)
    # No value exactly on a pole: the grid points beside it bracket across it.
    xs, gs = xs[pole_ok], gs[pole_ok]
    s, mag = np.sign(gs), np.abs(gs)
    roots = xs[gs == 0.0]
    # A |G| dip of one sign holds either two roots in one grid cell or a
    # tangency (a root of even multiplicity).
    i = 1 + np.flatnonzero((s[:-2] == s[1:-1]) & (s[1:-1] == s[2:])
                           & (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))
    pairs, tangents = _probe_dips(sp, sign, scheme,
                                  np.stack([xs[i - 1], xs[i], xs[i + 1]], 1),
                                  np.stack([gs[i - 1], gs[i], gs[i + 1]], 1), ROOT_TOL)
    i = np.flatnonzero(s[:-1] * s[1:] < 0)
    lo, hi, flo, fhi = (np.concatenate(c) for c in
                        zip((xs[i], xs[i + 1], gs[i], gs[i + 1]), pairs))
    if lo.size:
        roots = np.append(roots, _refine_brackets(sp, sign, scheme, lo, hi,
                                                  flo, fhi, ROOT_TOL))

    dedup: list[float] = []
    for x in np.sort(roots).tolist():
        if not dedup or x - dedup[-1] > 1e-9:
            dedup.append(x)

    ed_levels = None
    if verify:
        ed_levels = np.array(oracle.window(params, verify_truncation, hi_w * w,
                                           (parity,)).energies())

    # A tangent is kept only when ED confirms it or, without ED, when |G| < 1e-12.
    candidates = [(x, False) for x in dedup]
    candidates += [(x, True) for x in tangents.tolist()
                   if all(abs(x - r) > 1e-9 for r in dedup)]
    use_ed = ed_levels is not None and ed_levels.size > 0
    if candidates and not use_ed:
        gmag, _, _ = _gvalues(sp, sign, np.array([x for x, _ in candidates]), scheme)
    records = []
    for j, (x, tangent) in enumerate(candidates):
        e_raw = x * w
        if use_ed:
            residual = float(np.min(np.abs(ed_levels - e_raw)))
            verified = residual < VERIFY_TOL * w
            keep = verified or not tangent
        else:
            residual, verified = float(abs(gmag[j])), None
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
    """Trace CSV: columns E, G_plus, G_minus, empty where G is not finite."""
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
