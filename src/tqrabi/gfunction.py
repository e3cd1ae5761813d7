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
_chain, pairs the matching points with the center records of
series._centers; the column order, the parity mirror and the pole factor
read those records. Each energy's series are summed only as far as its own
tail test needs, up to the hard cap, so G(E) is a function of E alone.
Only the expansion around 0 depends on the parity; the sums around every
other center serve both parities from one pass, mirrored by
D = diag(1, 1, -1, -1).
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
    fmt,
    write_csv,
)
from .series import _Center, _centers, _tables, baselines

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


def _chain(sp: ModelParams, scheme: MatchingScheme,
           ) -> list[tuple[float, _Center, _Center]]:
    """Matching conditions (point, + center, - center) along series._centers.

    Center g' takes part exactly when g' > 0; the centers' column order is
    that of their first appearance, g, g', 0.
    """
    if (scheme.z0prime is None) != (sp.gprime == 0):
        raise SchemeMismatch(f"z0prime is given exactly when g' > 0 (g' = {sp.gprime})")
    points = [scheme.z0] if sp.gprime == 0 else [scheme.z0, scheme.z0prime]
    cs = _centers(sp)
    return list(zip(points, cs, cs[1:]))


def default_scheme(params: ModelParams) -> MatchingScheme:
    """Matching points balanced between the two disks they join.

    For g' > 0, z0' = g'^2/g, and z0 weighs g' and g by the other center's
    radius, which gives z0 = (g' + g)/2 for g' >= g/3. For g' = 0, z0 = g/2.
    """
    sp, _ = params.scaled().canonical()
    g, gp = sp.g, sp.gprime
    if gp == 0:
        return MatchingScheme(g / 2)
    r4, r2 = (c.radius for c in _centers(sp)[:2])
    return MatchingScheme((gp * r4 + g * r2) / (r2 + r4), gp * gp / g)


def _validate_scheme(sp: ModelParams, scheme: MatchingScheme) -> None:
    for z, *cs in _chain(sp, scheme):
        for c in cs:
            if abs(z - c.position) >= c.radius:
                raise OutsideDisk(
                    f"matching point {z} outside the disk around {c.position}")


def _block_eval(sp: ModelParams, sign: int, energies: np.ndarray, c: _Center,
                zpoints: Sequence[float],
                ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Basis-column values at zpoints: list over z of (4, ncols, nE) arrays.

    The recurrence runs once, up to the hard cap at most, and is summed at all
    points in the same pass.
    """
    inits = np.eye(4)[:, list(c.slots)]
    rows, pole_ok = _tables(sp, sign, energies, c, inits, series.HARD_CAP)
    ts = np.array([(z - c.position) / c.radius for z in zpoints])
    sums, conv = series._kahan_eval(rows, ts)
    return ([v * math.exp(c.position * z) for v, z in zip(sums, zpoints)],
            pole_ok, conv)


def _gvalues(sp: ModelParams, signs: int | tuple | np.ndarray, energies: np.ndarray,
             scheme: MatchingScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized determinant on an energy grid, and masks for poles and convergence.

    signs is one sign, a tuple that gives each result a leading sign axis, or
    an array of one sign per energy. Entries on a recurrence pole or
    unconverged at the hard cap come back NaN. The energies are taken in
    blocks of _BLOCK, each with its own series stop, and every energy's value
    is the same whatever block, or signs beside it, it falls in.
    """
    s = np.asarray(signs)[:, None] if isinstance(signs, tuple) else np.asarray(signs)
    shape = np.broadcast_shapes(s.shape, energies.shape)
    s = np.atleast_2d(np.broadcast_to(s, shape))
    vals = np.empty(s.shape)
    pole_ok, good = np.empty((2,) + s.shape, dtype=bool)
    for i in range(0, energies.size, _BLOCK):
        part = slice(i, i + _BLOCK)
        vals[:, part], pole_ok[:, part], good[:, part] = _gvalues_once(
            sp, s[:, part], energies[part], scheme)
    return vals.reshape(shape), pole_ok.reshape(shape), good.reshape(shape)


def _gvalues_once(sp: ModelParams, signs: np.ndarray, energies: np.ndarray,
                  scheme: MatchingScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gvalues on one block: every center, then per sign the matrix and det.

    signs has one row per result and a column per energy. Every center but
    0 is summed once, at sign +1, and mirrored by D for -1 (see series);
    center 0 carries the parity and is summed once per sign, at the energies
    that take it.
    """
    conds = _chain(sp, scheme)
    *mirrored, origin = dict.fromkeys(c for _, *cs in conds for c in cs)
    cols, start = {}, 0
    mirror, rows_d = np.ones((4 * len(conds),) * 2), np.tile(_PARITY_D, len(conds))
    for c in (*mirrored, origin):
        cols[c] = slice(start, start + len(c.slots))
        if c is not origin:  # sign -1 takes D[row] * D[slot] times the +1 sums
            mirror[:, cols[c]] = np.outer(rows_d, _PARITY_D[list(c.slots)])
        start += len(c.slots)

    def center(c, sign, es):
        # Each center is evaluated once, at all of its points; values are
        # keyed by (center, condition index) as (nE, 4, ncols) arrays.
        ks = [k for k, cond in enumerate(conds) if c in cond[1:]]
        vals, ok, cv = _block_eval(sp, sign, es, c, [conds[k][0] for k in ks])
        return {(c, k): np.moveaxis(v, -1, 0) for k, v in zip(ks, vals)}, ok, ok & cv

    shared = [center(c, 1, energies) for c in mirrored]
    vals = np.empty(signs.shape)
    pole_ok, good = np.empty((2,) + signs.shape, dtype=bool)
    for sign in (1, -1):
        on = (signs == sign).any(axis=0)
        if not on.any():
            continue
        es = energies[on]
        at, ok, gd = center(origin, sign, es)
        for part, p_ok, p_gd in shared:
            at = at | {key: v[on] for key, v in part.items()}
            ok, gd = ok & p_ok[on], gd & p_gd[on]
        m = np.zeros((es.size, start, start))
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
        det = np.where(gd, det, np.nan) * _pole_factor(sp, sign, cols, es)
        hit = signs[:, on] == sign
        for out, v in ((vals, det), (pole_ok, ok), (good, gd)):
            out[:, on] = np.where(hit, v, out[:, on])
    return vals, pole_ok, good


def _poles(sp: ModelParams, sign: int, centers: Sequence[_Center],
           e_max: float) -> list[tuple[float, int]]:
    """(baseline, k) of the centers' divisors to past e_max + 1; G has no value there."""
    return [(b, k) for c in centers for _, b, k in series._slaving(sp, sign, c, e_max)[2]]


def _pole_factor(sp: ModelParams, sign: int, centers: Sequence[_Center],
                 energies: np.ndarray) -> np.ndarray:
    """Factor that cancels the baseline poles of the column-scaled determinant.

    The k unit columns that carry a pole b (series._slaving) turn parallel,
    so the determinant goes as sign(d) |d|^(k-1), d = E - b. Each pole below E
    flips the sign; each with |d| < 1 multiplies by 1 + (|d|^(1-k) - 1)(1 -
    d^2)^2, smooth into 1 at the next pole of its family, |d| = 1. The poles
    act in a fixed order, so the factor is a function of E alone.
    """
    poles = [(b, k) for b, k in _poles(sp, sign, centers, energies.max()) if k]
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


def _dip_vertex(x: np.ndarray, f: np.ndarray, midpoint: np.ndarray,
                tol: float) -> np.ndarray:
    """Probe of each (n, 3) triple: the vertex of the parabola through its |G|, or
    where midpoint is set, the midpoint of its longer half; tol inside, off x[:, 1]."""
    (x0, x1, x2), (f0, f1, f2) = x.T, f.T
    a0, a1, a2 = np.abs(f0), np.abs(f1), np.abs(f2)
    d0, d2 = x1 - x0, x2 - x1
    mid = np.where(d2 > d0, x1 + 0.5 * d2, x1 - 0.5 * d0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = x1 - 0.5 * ((d0 * d0 * (a1 - a2) - d2 * d2 * (a1 - a0))
                        / (d0 * (a1 - a2) + d2 * (a1 - a0)))
    u = np.clip(np.where(midpoint | ~np.isfinite(u), mid, u), x0 + tol, x2 - tol)
    step = np.minimum(tol, 0.5 * np.maximum(d0, d2))
    return np.where(np.abs(u - x1) < tol, np.where(d2 > d0, x1 + step, x1 - step), u)


def _probe_dips(s: np.ndarray, x: np.ndarray, f: np.ndarray, u: np.ndarray,
                fu: np.ndarray) -> tuple[np.ndarray, ...]:
    """Narrow (n, 3) dip triples of signs s around their probes u, where G is fu.

    Returns the narrowed triples, which stay open, the brackets (signs, lo,
    hi, G(lo), G(hi)) split off by probes of the other sign than the middle,
    and the (signs, energies) of exact zeros. A non-finite probe closes its
    triple, and so does one whose |G| agrees with the middle's to 1e-12
    relative, both above TANGENT_GTOL: a flat dip, no root pair nor tangency.
    """
    (x0, x1, x2), (f0, f1, f2) = x.T, f.T
    flip = np.sign(fu) == -np.sign(f1)
    pairs = (np.tile(s[flip], 2), np.concatenate([x0[flip], u[flip]]),
             np.concatenate([u[flip], x2[flip]]), np.concatenate([f0[flip], fu[flip]]),
             np.concatenate([fu[flip], f2[flip]]))
    a1 = np.abs(f1)
    flat = (np.abs(fu - f1) <= 1e-12 * a1) & (np.fmin(np.abs(fu), a1) > TANGENT_GTOL)
    # Keep the lower of the two inner points among the four, with its
    # neighbours.
    px, pf = np.stack([x0, x1, x2, u], 1), np.stack([f0, f1, f2, fu], 1)
    order = np.argsort(px, axis=1)
    px, pf = np.take_along_axis(px, order, 1), np.take_along_axis(pf, order, 1)
    c = 1 + (np.abs(pf[:, 2]) < np.abs(pf[:, 1]))
    pick = (np.arange(len(x))[:, None], c[:, None] + np.arange(-1, 2))
    return (px[pick], pf[pick], (np.sign(fu) == np.sign(f1)) & ~flat, pairs,
            (s[fu == 0.0], u[fu == 0.0]))


def _refine_brackets(sp: ModelParams, scheme: MatchingScheme,
                     poles: dict[int, Sequence[float]], brackets: tuple[np.ndarray, ...],
                     dips: tuple[np.ndarray, ...], tol: float,
                     ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Settle sign-change brackets and |G| dips of any parities in shared passes.

    brackets is (signs, lo, hi, G(lo), G(hi)); dips is (signs, x, G(x)) for
    (n, 3) grid triples whose middle |G| is below both ends; poles maps a
    sign to the energies where G has no value. Each pass sends the probes of
    all open work through one G call; every bracket and triple counts its
    own passes, up to _MAX_PASSES, so it takes the iterates it takes alone.

    Brackets follow Illinois regula falsi: an end kept twice in a row has
    its G value halved, every third pass probes the midpoint, and every
    probe stays tol inside, so a bracket closes at width 2*tol once a probe
    lands within tol of its root. A bracket's first pass also probes
    4*POLE_EPS either side of each pole inside it and keeps the side with
    the sign change: a cutoff state, a jump of G at a pole, settles there,
    and no later probe lands on a pole. A probe on a pole is passed over;
    any other non-finite one raises NoConvergence. Triples are probed at
    _dip_vertex and narrowed by _probe_dips; the brackets of a split join at
    the next pass. Returns the (signs, midpoints) of the brackets and the
    (signs, energies) of tangent candidates: exact zeros, and triples
    narrowed to 2*tol with |G| below TANGENT_GTOL at the middle.
    """
    sb, lo, hi, flo, fhi = (np.array(c) for c in brackets)
    kb, kept = np.zeros((2, lo.size), dtype=int)  # kept: end kept last pass, -1 lo, +1 hi
    sd, x, f = (np.array(c) for c in dips)
    kd, live = np.zeros(len(x), dtype=int), np.ones(len(x), dtype=bool)
    tangents = []
    while True:
        ob = np.flatnonzero((hi - lo > 2 * tol) & (kb < _MAX_PASSES))
        od = np.flatnonzero(live & (x[:, 2] - x[:, 0] > 2 * tol) & (kd < _MAX_PASSES))
        if not (ob.size or od.size):
            break
        a, b, fa, fb = lo[ob], hi[ob], flo[ob], fhi[ob]
        xb = np.where(kb[ob] % 3 == 2, 0.5 * (a + b),
                      np.clip(a - fa * (b - a) / (fb - fa), a + tol, b - tol))
        near = [(j, e + d) for j in ob[kb[ob] == 0] for e in poles[sb[j]]
                if lo[j] < e < hi[j] for d in (-4 * series.POLE_EPS, 4 * series.POLE_EPS)]
        pj, pe = np.array([j for j, _ in near], dtype=int), np.array([e for _, e in near])
        u = _dip_vertex(x[od], f[od], kd[od] % 3 == 2, tol)
        g, ok, _ = _gvalues(sp, np.concatenate([sb[ob], sb[pj], sd[od]]),
                            np.concatenate([xb, pe, u]), scheme)
        fx, fp, fu = np.split(g, [ob.size, ob.size + pe.size])
        bad = ok[:ob.size] & ~np.isfinite(fx)
        if bad.any():
            raise NoConvergence(
                f"G is not finite at {bad.sum()} bracket probe(s), first at "
                f"E = {xb[bad][0]:.17g} (omega = 1 units)")
        exact = fx == 0.0
        to_lo, to_hi = np.sign(fx) == np.sign(fa), np.sign(fx) == np.sign(fb)
        last = kept[ob]
        lo[ob], hi[ob] = np.where(to_lo | exact, xb, a), np.where(to_hi | exact, xb, b)
        flo[ob] = np.where(to_lo, fx, np.where(to_hi & (last == -1), 0.5 * fa, fa))
        fhi[ob] = np.where(to_hi, fx, np.where(to_lo & (last == 1), 0.5 * fb, fb))
        kept[ob] = np.where(to_lo, 1, np.where(to_hi, -1, 0))
        kb[ob] += 1
        for j, e, v in zip(pj, pe, fp):
            if lo[j] < e < hi[j] and np.isfinite(v):  # each narrows what the last left
                if np.sign(v) == np.sign(flo[j]):
                    lo[j], flo[j] = e, v
                else:
                    hi[j], fhi[j] = e, v
        if od.size:
            x[od], f[od], live[od], pairs, zeros = _probe_dips(sd[od], x[od], f[od], u, fu)
            kd[od] += 1
            tangents.append(zeros)
            sb, lo, hi, flo, fhi = (np.concatenate(c) for c in
                                    zip((sb, lo, hi, flo, fhi), pairs))
            kb, kept = (np.concatenate([k, np.zeros(pairs[0].size, dtype=int)])
                        for k in (kb, kept))
    rest = live & (np.abs(f[:, 1]) < TANGENT_GTOL)
    tangents.append((sd[rest], x[rest, 1]))
    return (sb, 0.5 * (lo + hi)), tuple(np.concatenate(c) for c in zip(*tangents))


def find_roots(params: ModelParams, parity: Parity, e_min: float, e_max: float,
               step: Optional[float] = None,
               scheme: Optional[MatchingScheme] = None,
               verify: bool = True,
               verify_truncation: int = DEFAULT_VERIFY_TRUNCATION) -> SpectrumResult:
    """Zeros of the matching determinant in [e_min, e_max] for one parity sector.

    The pole-free G is scanned across the window on one uniform grid (step
    defaults to 0.01 in units of the photon frequency) in one batch, less
    any grid point exactly on a baseline. Dips of |G| without a sign change
    are probed for a root pair inside one grid cell, or a tangency, in the
    passes that refine the sign-change brackets by Illinois regula falsi to
    width 2e-10 (_refine_brackets, shared by all parities in _find_roots); a
    root is its bracket's midpoint. A cutoff state on a one-column (center-0)
    baseline is a root, settled beside its pole in one pass; dark states, on
    baselines without a pole, are not. With verify=True every root is checked
    against the diagonalization oracle (nearest same-parity level within
    1e-6); unmatched roots are kept but flagged unverified. A bracket probe
    where G is not finite raises NoConvergence.
    """
    levels = oracle.window(params, verify_truncation, e_max, (parity,)) if verify else None
    return _find_roots(params, (parity,), e_min, e_max, step, scheme, levels)[0]


def _find_roots(params: ModelParams, parities: Sequence[Parity], e_min: float,
                e_max: float, step: Optional[float] = None,
                scheme: Optional[MatchingScheme] = None,
                levels: Optional[SpectrumResult] = None) -> list[SpectrumResult]:
    """find_roots for several parities from one scan and one set of passes, verified
    against levels, oracle records of those parities (oracle.window), unless None."""
    lo_w, hi_w, h = _window(params, e_min, e_max, step)
    sp, scheme = _prepare(params, scheme)
    w = params.omega
    signs = tuple(p.sign for p in parities)

    xs = np.linspace(lo_w, hi_w, max(2, int(round((hi_w - lo_w) / h)) + 1))
    scan, scan_ok, _ = _gvalues(sp, signs, xs, scheme)
    brackets, dips = [], []
    for sign, gs, pole_ok in zip(signs, scan, scan_ok):
        # No value exactly on a pole: the grid points beside it bracket across it.
        x, gs = xs[pole_ok], gs[pole_ok]
        s, mag = np.sign(gs), np.abs(gs)
        # A |G| dip of one sign holds either two roots in one grid cell or a
        # tangency (a root of even multiplicity).
        i = 1 + np.flatnonzero((s[:-2] == s[1:-1]) & (s[1:-1] == s[2:])
                               & (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))
        dips.append((np.full(i.size, sign), np.stack([x[i - 1], x[i], x[i + 1]], 1),
                     np.stack([gs[i - 1], gs[i], gs[i + 1]], 1)))
        # Sign changes, and exact zeros on the grid as closed brackets.
        i, j = (np.append(np.flatnonzero(s == 0), np.flatnonzero(s[:-1] * s[1:] < 0) + d)
                for d in (0, 1))
        brackets.append((np.full(i.size, sign), x[i], x[j], gs[i], gs[j]))
    poles = {s: [b for b, _ in _poles(sp, s, _centers(sp), hi_w)] for s in signs}
    found, tangents = _refine_brackets(
        sp, scheme, poles, *(tuple(np.concatenate(c) for c in zip(*parts))
                             for parts in (brackets, dips)), ROOT_TOL)

    # A tangent is kept only when ED confirms it or, without ED, when |G| < 1e-12.
    ed_levels = {p: np.array([] if levels is None else levels.filtered(p).energies())
                 for p in parities}
    candidates = []
    for parity in parities:
        dedup: list[float] = []
        for x in np.sort(found[1][found[0] == parity.sign]).tolist():
            if not dedup or x - dedup[-1] > 1e-9:
                dedup.append(x)
        candidates += [(parity, x, False) for x in dedup]
        candidates += [(parity, x, True) for x in
                       tangents[1][tangents[0] == parity.sign].tolist()
                       if all(abs(x - r) > 1e-9 for r in dedup)]
    if any(not ed_levels[p].size for p, _, _ in candidates):
        gmag, _, _ = _gvalues(sp, np.array([p.sign for p, _, _ in candidates]),
                              np.array([x for _, x, _ in candidates]), scheme)
    records = []
    for j, (parity, x, tangent) in enumerate(candidates):
        e_raw, ed = x * w, ed_levels[parity]
        if ed.size:
            residual = float(np.min(np.abs(ed - e_raw)))
            verified = residual < VERIFY_TOL * w
            keep = verified or not tangent
        else:
            residual, verified = float(abs(gmag[j])), None
            keep = residual < 1e-12 or not tangent
        if keep:
            records.append(SpectrumRecord(e_raw, parity, "gfunction", residual,
                                          verified=verified))
    result = SpectrumResult.from_records(records)
    return [SpectrumResult(tuple(
        SpectrumRecord(r.energy, r.parity, r.method, r.residual, i, r.verified)
        for i, r in enumerate(result.filtered(p)))) for p in parities]


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
