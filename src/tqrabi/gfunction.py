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
_chain, pairs the model's matching points (default_scheme) with the center
records of series._centers; the column order, the determinant's parity sign
and the pole factor read those records. Each energy's series are summed only
as far as its own tail test needs, up to the hard cap, so G(E) is a function
of E alone. Each center runs once per block for both parities, and a -1
determinant is a fixed sign times that of one assembly (_gvalues_once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import series
from .model import (
    Baseline,
    ModelParams,
    NoConvergence,
    OutsideDisk,
    Parity,
    PoleAtBaseline,
    SpectrumRecord,
    SpectrumResult,
    _distinct,
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
TANGENT_GTOL = 1e-10
# Pass budget of the bracket refinement and the dip probe: with a midpoint
# in every pass it holds the 64 halvings of a bisection.
_MAX_PASSES = 64
# Ratio of the probe offsets around a bracket's interpolated point or a
# dip's vertex, from the tolerance up to half the width.
_LADDER = 100.0
# Energies per series pass in _gvalues. A block stops on its own slowest
# energy instead of the batch's, and its work arrays stay near 4 MB, inside
# the CPU caches, however long the batch, so a long trace is bound by
# arithmetic rather than by memory traffic. 2048 ran faster than 1024 and
# 4096 on 4,001-energy traces.
_BLOCK = 2048
_PARITY_D = np.array([1.0, 1.0, -1.0, -1.0])  # D, with mix(-s) = D mix(s) D (see series)


@dataclass(frozen=True)
class MatchingScheme:
    """Points where the expansions along the matching chain are compared.

    z0 joins the disks around g and the next center of the chain, g' or, when
    g' = 0, 0; z0prime joins the disks around g' and 0, and is None when
    g' = 0. Points are in omega = 1 units like the couplings themselves.
    """

    z0: float
    z0prime: Optional[float] = None


def _chain(sp: ModelParams) -> list[tuple[float, _Center, _Center]]:
    """Matching conditions (point, + center, - center) along series._centers,
    at the model's points, one per hop (default_scheme). Center g' takes part
    exactly when g' > 0; the column order is that of first appearance."""
    s, cs = default_scheme(sp), _centers(sp)
    return list(zip((s.z0, s.z0prime), cs, cs[1:]))


def default_scheme(params: ModelParams) -> MatchingScheme:
    """The model's matching points, balanced between the two disks they join.

    For g' > 0, z0' = g'^2/g, and z0 weighs g' and g by the other center's
    radius, which gives z0 = (g' + g)/2 for g' >= g/3. For g' = 0, z0 = g/2.
    Couplings the series solver cannot take raise RequiresValidCouplings.
    """
    params.require_analytic()
    sp, _ = params.scaled().canonical()
    g, gp = sp.g, sp.gprime
    if gp == 0:
        return MatchingScheme(g / 2)
    r4, r2 = (c.radius for c in _centers(sp)[:2])
    return MatchingScheme((gp * r4 + g * r2) / (r2 + r4), gp * gp / g)


def _validate_chain(sp: ModelParams) -> None:
    for z, *cs in _chain(sp):
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
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
            sp, s[:, part], energies[part])
    return vals.reshape(shape), pole_ok.reshape(shape), good.reshape(shape)


def _gvalues_once(sp: ModelParams, signs: np.ndarray, energies: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gvalues on one block: every center once, one assembly, a det per sign.

    signs has one row per result and a column per energy. Every center but 0 is
    summed at sign +1 and written once, as unit columns, into the block's
    matrices; center 0 is summed at each (sign, energy) pair taken, the -1 pairs
    in the D frame, and each sign writes only its columns, at its energies. A -1
    matrix is D[row] * D[slot] times that assembly, and LU with partial pivoting
    is sign-symmetric in IEEE arithmetic, so its det is the assembly's times the
    fixed sign prod D[rows] * prod D[slots]: +1 when g' > 0, -1 when g' = 0.
    Center 0's -1 columns carry it, as det reads +0.0 when exactly singular.
    """
    conds = _chain(sp)
    *displaced, origin = dict.fromkeys(c for _, *cs in conds for c in cs)
    cols, start = {}, 0
    for c in (*displaced, origin):
        cols[c] = slice(start, start + len(c.slots))
        start += len(c.slots)
    flip = np.prod(_PARITY_D[[j for c in cols for j in c.slots]])  # prod D[rows] is 1

    def center(c, sign, es):
        # Each center is evaluated once, at all of its points; its unit columns
        # are keyed by condition index as (4, ncols, nE) arrays. hypot folds
        # the center's rows in chain order and cannot overflow; other
        # conditions' zero rows would not change it.
        ks = [k for k, cond in enumerate(conds) if c in cond[1:]]
        vals, ok, cv = _block_eval(sp, sign, es, c, [conds[k][0] for k in ks])
        norm = np.maximum(np.hypot.reduce(np.concatenate(vals), axis=0), 1e-300)
        with np.errstate(invalid="ignore"):
            return {k: v / norm for k, v in zip(ks, vals)}, ok, ok & cv

    shared = {c: center(c, 1, energies) for c in displaced}
    # Center 0 at the (sign, energy) pairs taken, the +1 ones first.
    on = [(signs == sign).any(axis=0) for sign in (1, -1)]
    n = np.count_nonzero(on[0])
    unit, ok0, gd0 = center(origin, np.repeat([1.0, -1.0], [n, np.count_nonzero(on[1])]),
                            np.concatenate([energies[o] for o in on]))
    m = np.zeros((start, start, energies.size))  # once the series buffers are freed
    shared_ok = shared_gd = True
    for c, (cunit, ok, gd) in shared.items():
        shared_ok, shared_gd = shared_ok & ok, shared_gd & gd
        for k, v in cunit.items():  # negated on the minus side of a condition
            side = np.positive if c == conds[k][1] else np.negative
            side(v, out=m[4 * k:4 * k + 4, cols[c]])
    vals = np.empty(signs.shape)
    pole_ok, good = np.empty((2,) + signs.shape, dtype=bool)
    for sign, o, part in zip((1, -1), on, (slice(None, n), slice(n, None))):
        if not o.any():
            continue
        o = slice(None) if o.all() else o  # a sign on every energy writes in place
        mo = m[..., o]
        # Center 0 ends the chain, a minus side, and carries the -1 matrix's sign.
        side = np.negative if sign > 0 or flip > 0 else np.positive
        for k, v in unit.items():
            side(v[..., part], out=mo[4 * k:4 * k + 4, cols[origin]])
        ok, gd = ok0[part] & shared_ok[o], gd0[part] & shared_gd[o]
        with np.errstate(invalid="ignore"):
            det = np.linalg.det(mo.transpose(2, 0, 1))
        det = np.where(gd, det, np.nan) * _pole_factor(sp, sign, energies[o])
        hit = signs[:, o] == sign
        for out, v in ((vals, det), (pole_ok, ok), (good, gd)):
            out[:, o] = np.where(hit, v, out[:, o])
    return vals, pole_ok, good


def _poles(sp: ModelParams, sign: int, e_max: float) -> list[tuple[float, int]]:
    """(baseline, k) of the chain's divisors to past e_max + 1; G has no value there."""
    return [(b, k) for c in _centers(sp) for _, b, k in series._slaving(sp, sign, c, e_max)[2]]


def _pole_factor(sp: ModelParams, sign: int, energies: np.ndarray) -> np.ndarray:
    """Factor that cancels the baseline poles of the column-scaled determinant.

    The k unit columns that carry a pole b (series._slaving) turn parallel,
    so the determinant goes as sign(d) |d|^(k-1), d = E - b. Each pole below E
    flips the sign; each with |d| < 1 multiplies by 1 + (|d|^(1-k) - 1)(1 -
    d^2)^2, smooth into 1 at the next pole of its family, |d| = 1. The poles
    act in a fixed order, so the factor is a function of E alone.
    """
    poles = [(b, k) for b, k in _poles(sp, sign, energies.max()) if k]
    b, k = np.array(poles).reshape(-1, 2).T
    d = energies[:, None] - b
    with np.errstate(divide="ignore"):  # d = 0 only on a pole, where G is NaN
        bump = 1.0 + (np.abs(d) ** (1 - k) - 1.0) * (1.0 - d * d) ** 2
    near = np.where(np.abs(d) < 1.0, bump, 1.0)
    return (-1.0) ** np.count_nonzero(d > 0, axis=1) * np.prod(near, axis=1)


def _prepare(params: ModelParams) -> ModelParams:
    """The model in omega = 1 units, canonical, its couplings and points checked."""
    params.require_analytic()
    sp, _ = params.scaled().canonical()
    _validate_chain(sp)
    return sp


def _window(params: ModelParams, e_min: float, e_max: float,
            step: Optional[float]) -> tuple[float, float, float]:
    """Checked, finite window ends and step (default 0.01 omega), in omega = 1 units."""
    if not e_min < e_max:
        raise ValueError("empty energy window")
    if step is None:
        step = DEFAULT_GRID_STEP * params.omega
    if step <= 0:
        raise ValueError("step must be positive")
    if not all(map(math.isfinite, (e_min, e_max, step))):
        raise ValueError("energy window and step must be finite")
    w = params.omega
    return e_min / w, e_max / w, step / w


def gvalue(params: ModelParams, parity: Parity, energy: float) -> float:
    """Pole-free matching determinant at one energy (in the caller's units),
    matched at the model's points (default_scheme).

    Raises OutsideDisk where rounding puts a point outside its disk,
    PoleAtBaseline within 1e-12 of a baseline, NoConvergence if the series
    tails stay above tolerance at the hard truncation cap.
    """
    sp = _prepare(params)
    vals, pole_ok, conv_ok = _gvalues(sp, parity.sign, np.array([energy / params.omega]))
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


def trace(params: ModelParams, parities: Sequence[Parity], e_min: float,
          e_max: float, step: Optional[float] = None) -> list[GTrace]:
    """Sample the determinant of each parity across [e_min, e_max] on one grid.

    Returns one GTrace per distinct parity, in the given order, from one G
    pass; step defaults to 0.01 in units of the photon frequency. A grid
    point exactly on a baseline keeps its NaN (an empty CSV cell).
    """
    parities = _distinct(parities)
    lo, hi, h = _window(params, e_min, e_max, step)
    sp = _prepare(params)
    w = params.omega
    grid = np.arange(lo, hi + h / 2, h)
    vals, _, _ = _gvalues(sp, tuple(p.sign for p in parities), grid)
    poles = tuple(baselines(params, e_min, e_max))
    return [GTrace(p, grid * w, v, poles) for p, v in zip(parities, vals)]


def _ladder(u: np.ndarray, lo: np.ndarray, hi: np.ndarray, mid: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(interval, energy) of the probes of intervals (lo, hi) around points u:
    u first, then u -/+ tol * _LADDER**k up to half the width, and mid; those
    strictly inside, in order of interval."""
    half = 0.5 * (hi - lo)
    off = tol * _LADDER ** np.arange(64)
    off = off[off <= half.max(initial=0.0)]
    off = np.where(off <= half[:, None], off, np.nan)
    pts = np.column_stack([u, u[:, None] - off, u[:, None] + off, mid])
    i, k = np.nonzero((pts > lo[:, None]) & (pts < hi[:, None]))
    return i, pts[i, k]


def _interpolate(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                 x3: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """Root of the Moebius map through (a, fa), (b, fb) and (x3, f3): the point
    whose cross-ratio with a, b, x3 is that of 0 with fa, fb, f3. Where that is
    not inside (a, b), or x3 is NaN, the regula-falsi point of (a, b)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m = fb / fa * (fa - f3) * (b - x3) / ((fb - f3) * (a - x3))
        u = a + (a - b) / (m - 1.0)
    return np.where((u > a) & (u < b), u, a - fa * (b - a) / (fb - fa))


def _in_order(j: np.ndarray, e: np.ndarray, v: np.ndarray):
    """Points (group j, energy e, G v) sorted by group, then energy, and the
    first index of each sign change between neighbours of one group."""
    order = np.lexsort((e, j))
    j, e, v = j[order], e[order], v[order]
    change = np.sign(v[:-1]) * np.sign(v[1:]) < 0
    return j, e, v, np.flatnonzero(change & (j[:-1] == j[1:]))


def _dip_vertex(x: np.ndarray, f: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertex of the parabola through each (n, 3) triple's |G|, tol inside and off
    x[:, 1], and the midpoint of its longer half (also the vertex where none)."""
    (x0, x1, x2), (f0, f1, f2) = x.T, f.T
    a0, a1, a2 = np.abs(f0), np.abs(f1), np.abs(f2)
    d0, d2 = x1 - x0, x2 - x1
    mid = np.where(d2 > d0, x1 + 0.5 * d2, x1 - 0.5 * d0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = x1 - 0.5 * ((d0 * d0 * (a1 - a2) - d2 * d2 * (a1 - a0))
                        / (d0 * (a1 - a2) + d2 * (a1 - a0)))
    u = np.clip(np.where(np.isfinite(u), u, mid), x0 + tol, x2 - tol)
    step = np.minimum(tol, 0.5 * np.maximum(d0, d2))
    return np.where(np.abs(u - x1) < tol, np.where(d2 > d0, x1 + step, x1 - step), u), mid


def _probe_dips(s: np.ndarray, x: np.ndarray, f: np.ndarray, j: np.ndarray,
                e: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Narrow (n, 3) dip triples of signs s by probes (triple j, energy e, G v),
    each triple's vertex first, to their lowest |G| point and its neighbours.

    Returns those triples, open while every point keeps the middle's sign,
    the brackets (signs, lo, hi, G(lo), G(hi)) of each sign change between
    neighbours, and the (signs, energies) of exact zeros. A vertex whose |G|
    agrees with the middle's to 1e-12 relative, both above TANGENT_GTOL, is a
    flat dip, no root pair nor tangency: it closes the triple.
    """
    n = np.arange(len(x))
    (first, k), fu = np.unique(j, return_index=True), np.full(len(x), np.nan)
    fu[first], a1 = v[k], np.abs(f[:, 1])
    flat = (np.abs(fu - f[:, 1]) <= 1e-12 * a1) & (np.fmin(np.abs(fu), a1) > TANGENT_GTOL)
    j, e, v, i = _in_order(np.concatenate([n, n, n, j]), np.concatenate([*x.T, e]),
                           np.concatenate([*f.T, v]))
    start = np.flatnonzero(np.diff(j, prepend=-1))
    live = np.logical_and.reduceat(np.sign(v) == np.sign(f[j, 1]), start) & ~flat
    end = np.append(start[1:], j.size) - 2
    c = np.clip(np.lexsort((np.abs(v), j))[start], start + 1, end)
    near = c[:, None] + np.arange(-1, 2)
    return (e[near], v[near], live, (s[j[i]], e[i], e[i + 1], v[i], v[i + 1]),
            (s[j[v == 0.0]], e[v == 0.0]))


def _refine_brackets(sp: ModelParams, poles: dict[int, Sequence[float]],
                     brackets: tuple[np.ndarray, ...], dips: tuple[np.ndarray, ...],
                     tol: float) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Settle sign-change brackets and |G| dips of any parities in shared passes.

    brackets is (signs, lo, hi, G(lo), G(hi)); dips is (signs, x, G(x)) for
    (n, 3) grid triples whose middle |G| is below both ends; poles maps a sign
    to the one-column poles, where G has no value and can jump. Each pass
    sends the probes of all open work through one G call, up to _MAX_PASSES
    per bracket or triple. A bracket is probed at _interpolate of its ends and
    its last interpolant, a _ladder around that and its midpoint, and keeps
    the first pair that changes sign: it at least halves, and closes at width
    2*tol once the interpolant is within tol of its root. Its first pass also
    probes 4*POLE_EPS beside each pole inside it, which settles a cutoff state
    (a jump of G). A probe on a pole is passed over, an exact zero closes its
    bracket, and any other non-finite probe raises NoConvergence (closes a
    triple). Triples are probed alike around _dip_vertex and narrowed by
    _probe_dips. Returns the (signs, midpoints) of the brackets and the
    (signs, energies) of tangent candidates: exact zeros, and triples narrowed
    to 2*tol with |G| below TANGENT_GTOL at the middle.
    """
    sb, lo, hi, flo, fhi = (np.array(c) for c in brackets)
    kb, (x3, f3) = np.zeros(lo.size, dtype=int), np.full((2, lo.size), np.nan)
    sd, x, f = (np.array(c) for c in dips)
    kd, live = np.zeros(len(x), dtype=int), np.ones(len(x), dtype=bool)
    tangents = []
    while True:
        ob = np.flatnonzero((hi - lo > 2 * tol) & (kb < _MAX_PASSES))
        od = np.flatnonzero(live & (x[:, 2] - x[:, 0] > 2 * tol) & (kd < _MAX_PASSES))
        if not (ob.size or od.size):
            break
        a, b, fa, fb = lo[ob], hi[ob], flo[ob], fhi[ob]
        rf = np.clip(_interpolate(a, b, fa, fb, x3[ob], f3[ob]), a + tol, b - tol)
        jb, eb = _ladder(rf, a, b, 0.5 * (a + b), tol)
        d = 4 * series.POLE_EPS
        near = np.reshape([(j, e + t) for j in np.flatnonzero(kb[ob] == 0) for e in
                           poles[sb[ob[j]]] if a[j] < e < b[j] for t in (-d, d)], (-1, 2))
        jb, eb = np.append(jb, near[:, 0]).astype(int), np.append(eb, near[:, 1])
        u, mid = _dip_vertex(x[od], f[od], tol)
        jd, ed = _ladder(u, x[od, 0], x[od, 2], mid, tol)
        g, ok, _ = _gvalues(sp, np.concatenate([sb[ob][jb], sd[od][jd]]),
                            np.concatenate([eb, ed]))
        gb, gd = g[:eb.size], g[eb.size:]
        if (bad := ok[:eb.size] & ~np.isfinite(gb)).any():
            raise NoConvergence(
                f"G is not finite at {bad.sum()} bracket probe(s), first at "
                f"E = {eb[bad][0]:.17g} (omega = 1 units)")
        keep, n = np.isfinite(gb), np.arange(ob.size)
        j, e, v, i = _in_order(np.concatenate([n, n, jb[keep]]),
                               np.concatenate([a, b, eb[keep]]),
                               np.concatenate([fa, fb, gb[keep]]))
        i = i[np.unique(j[i], return_index=True)[1]]
        at = ob[j[i]]
        lo[at], hi[at], flo[at], fhi[at] = e[i], e[i + 1], v[i], v[i + 1]
        x3[ob], f3[ob] = rf, gb[np.unique(jb, return_index=True)[1]]  # rf: first probe
        z = v == 0.0
        lo[ob[j[z]]] = hi[ob[j[z]]] = e[z]
        kb[ob] += 1
        if od.size:
            on = ok[eb.size:]  # probes on a pole are passed over
            x[od], f[od], live[od], pairs, zeros = _probe_dips(
                sd[od], x[od], f[od], jd[on], ed[on], gd[on])
            kd[od] += 1
            tangents.append(zeros)
            nan = np.full((2, pairs[0].size), np.nan)
            sb, lo, hi, flo, fhi, x3, f3 = (np.concatenate(c) for c in zip(
                (sb, lo, hi, flo, fhi, x3, f3), (*pairs, *nan)))
            kb = np.append(kb, np.zeros(pairs[0].size, dtype=int))
    rest = live & (np.abs(f[:, 1]) < TANGENT_GTOL)
    tangents.append((sd[rest], x[rest, 1]))
    return (sb, 0.5 * (lo + hi)), tuple(np.concatenate(c) for c in zip(*tangents))


def _level_probes(levels: SpectrumResult, signs: Sequence[int], w: float,
                  lo: float, hi: float, poles: dict[int, Sequence[float]], tol: float,
                  ) -> tuple[np.ndarray, ...]:
    """(sign, E_k, r_k, a, b, probed) of each level of these signs, in omega = 1
    units: the probe pair (a, b) is E_k -/+ tol/2, or b -/+ 4*POLE_EPS around a
    one-column pole b within tol of E_k, where a cutoff state sits. A level
    is probed when its tail bound r_k puts a true eigenvalue inside E_k -/+
    tol/2 (2 r_k <= tol) and the pair lies in the window [lo, hi]. A pair
    that changes sign holds a root within tol/2 of its midpoint."""
    recs = [r for r in levels if r.parity.sign in signs]
    s = np.array([r.parity.sign for r in recs], dtype=int)
    e, r = (np.array([getattr(x, f) for x in recs]) / w for f in ("energy", "residual"))
    a, b = e - 0.5 * tol, e + 0.5 * tol
    for sign in signs:
        for p in poles[sign]:
            at = (s == sign) & (np.abs(e - p) <= tol)
            a[at], b[at] = p - 4 * series.POLE_EPS, p + 4 * series.POLE_EPS
    return s, e, r, a, b, (2 * r <= tol) & (e - tol >= lo) & (e + tol <= hi)


def _scan_grid(lo: float, hi: float, h: float) -> np.ndarray:
    """find_roots' grid on [lo, hi] at a step near h. Each end is also taken
    4*POLE_EPS inside, as a bracket probe is stepped off a pole: an end on a
    pole has no grid point beyond it to bracket across."""
    xs = np.linspace(lo, hi, max(2, int(round((hi - lo) / h)) + 1))
    d = 4 * series.POLE_EPS
    return np.concatenate([xs[:1], xs[:1] + d, xs[1:-1], xs[-1:] - d, xs[-1:]])


def find_roots(params: ModelParams, parities: Sequence[Parity], e_min: float,
               e_max: float, step: Optional[float] = None,
               levels: Optional[SpectrumResult] = None) -> SpectrumResult:
    """Zeros of the matching determinant in [e_min, e_max] for the given parities.

    One search serves every parity; a parity given twice is searched once.
    G, matched at the model's points (default_scheme), is scanned across the
    window on one uniform grid (step defaults to 0.01 in units of the photon
    frequency) in one batch; an inner grid point exactly on a baseline is
    dropped, and a window end on one is taken 4*POLE_EPS inside. Dips of |G|
    without a sign change are probed for a root pair inside one grid cell,
    or a tangency, in the passes that narrow the sign-change brackets to
    width 2e-10, each at an interpolated point, a ladder of points around it
    and its midpoint (_refine_brackets); a root is its bracket's midpoint.
    Roots are never merged: scan cells are disjoint, a dip's brackets lie
    inside its triple and probes inside their bracket, so each closed
    bracket is one root, however close to the next. A cutoff state on a
    one-column (center-0) baseline is a root, settled beside its pole in one
    pass; dark states, on baselines without a pole, are not. levels, oracle
    records of these parities such as oracle.window(params, None, e_max,
    parities), verifies every root (nearest same-parity level within 1e-6):
    unmatched roots are kept but flagged unverified (residual inf where
    levels lacks their parity); with levels None roots are unchecked.
    levels also settles roots in the scan: a level E_k whose tail bound r_k
    (its residual) has 2 r_k <= ROOT_TOL holds a true eigenvalue inside the
    pair E_k -/+ ROOT_TOL/2, or 4*POLE_EPS either side of a one-column pole
    within ROOT_TOL of E_k (_level_probes). G at the pair is evaluated in the
    scan's own call, and a pair that changes sign joins its parity's grid: a
    bracket at most ROOT_TOL wide, closed as it stands, whose midpoint is
    within ROOT_TOL/2 of the root (0 or 1 ulp from E_k off a pole). Levels of
    a parity must be complete up to the highest given, as the lowest ones
    from oracle.window or oracle.diagonalize are. So a sign change with one
    end on a pair, and a dip below the highest level of its parity, are not
    refined unless they hold a level (E_k -/+ r_k meets them): they are
    rounding beside a settled root, or hold no zero of G. When every root
    settles, the scan is the search's only G call. Labels count the roots
    within each parity. A bracket probe where G is not finite raises
    NoConvergence, and a point that rounding puts outside its disk OutsideDisk.
    """
    parities = _distinct(parities)
    lo_w, hi_w, h = _window(params, e_min, e_max, step)
    sp = _prepare(params)
    w = params.omega
    signs = tuple(p.sign for p in parities)

    xs = _scan_grid(lo_w, hi_w, h)
    # G can jump only at a one-column pole; beside others rounding is magnified.
    poles = {s: [b for b, k in _poles(sp, s, hi_w) if k == 1] for s in signs}
    # Each probed level's pair rides in the scan's call, at its own sign in
    # every row, and joins that sign's grid when it changes sign: a closed
    # bracket. A pair without a sign change would only split its scan cell.
    ls, le, lr, la, lb, probed = _level_probes(levels or SpectrumResult(), signs, w,
                                               lo_w, hi_w, poles, ROOT_TOL)
    k = np.flatnonzero(probed)
    es = np.concatenate([xs, la[k], lb[k]])
    cols = np.concatenate([np.repeat(np.array(signs)[:, None], xs.size, 1),
                           np.tile(ls[k], (len(signs), 2))], axis=1)
    g, ok, _ = _gvalues(sp, cols, es)
    ga, gb = g[0, xs.size:].reshape(2, -1)
    joins = np.append(np.ones(xs.size, dtype=bool), np.tile(np.sign(ga) * np.sign(gb) < 0, 2))

    def holds(sign, lo, hi):  # whether a level's E_k -/+ r_k meets [lo, hi]
        return ((ls == sign) & (le - lr <= hi[:, None]) & (le + lr >= lo[:, None])).any(axis=1)

    brackets, dips = [], []
    for sign, gs, pole_ok, col in zip(signs, g, ok, cols):
        # No value exactly on a pole: the grid points beside it bracket across it.
        take = pole_ok & (col == sign) & joins
        take[[1, xs.size - 2]] &= ~pole_ok[[0, xs.size - 1]]
        x, at = np.unique(es[take], return_index=True)
        gs, paired = gs[take][at], (np.flatnonzero(take) >= xs.size)[at]
        s, mag = np.sign(gs), np.abs(gs)
        # A |G| dip of one sign holds either two roots in one grid cell or a
        # tangency (a root of even multiplicity); not one that holds no level
        # below a level of its sign, as levels are complete up to the highest.
        i = 1 + np.flatnonzero((s[:-2] == s[1:-1]) & (s[1:-1] == s[2:])
                               & (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))
        top = le[ls == sign].max(initial=-np.inf)
        i = i[holds(sign, x[i - 1], x[i + 1]) | (x[i + 1] > top)]
        dips.append((np.full(i.size, sign), np.stack([x[i - 1], x[i], x[i + 1]], 1),
                     np.stack([gs[i - 1], gs[i], gs[i + 1]], 1)))
        # Sign changes, and exact zeros on the grid as closed brackets; not one
        # with one end on a pair that holds no level, rounding beside a root.
        i, j = (np.append(np.flatnonzero(s == 0), np.flatnonzero(s[:-1] * s[1:] < 0) + d)
                for d in (0, 1))
        keep = holds(sign, x[i], x[j]) | (paired[i] == paired[j])
        i, j = i[keep], j[keep]
        brackets.append((np.full(i.size, sign), x[i], x[j], gs[i], gs[j]))
    brackets, dips = (tuple(np.concatenate(c) for c in zip(*parts))
                      for parts in (brackets, dips))
    found, tangents = _refine_brackets(sp, poles, brackets, dips, ROOT_TOL)

    # A tangent is kept only when ED confirms it or, without ED, when |G| < 1e-12.
    if levels is not None:  # a parity without levels verifies none of its roots
        ed = {p: np.array(levels.filtered(p).energies()) for p in parities}
    candidates = []
    for parity in parities:
        roots = found[1][found[0] == parity.sign]
        apart = [(x, True) for x in tangents[1][tangents[0] == parity.sign].tolist()
                 if np.all(np.abs(x - roots) > 1e-9)]
        candidates += [(parity, x, tangent) for x, tangent in
                       sorted([(x, False) for x in roots.tolist()] + apart)]
    if levels is None and candidates:
        gmag, _, _ = _gvalues(sp, np.array([p.sign for p, _, _ in candidates]),
                              np.array([x for _, x, _ in candidates]))
    records, count = [], dict.fromkeys(parities, 0)
    for j, (parity, x, tangent) in enumerate(candidates):
        if levels is not None:
            residual = float(np.min(np.abs(ed[parity] - x * w), initial=np.inf))
            verified = residual < VERIFY_TOL * w
            keep = verified or not tangent
        else:
            residual, verified = float(abs(gmag[j])), None
            keep = residual < 1e-12 or not tangent
        if keep:
            records.append(SpectrumRecord(x * w, parity, "gfunction", residual,
                                          count[parity], verified))
            count[parity] += 1
    return SpectrumResult.from_records(records)


def write_spectrum_csv(records, path_or_file, comments: Sequence[str] = ()) -> None:
    """Spectrum CSV: columns E, parity, method, residual."""
    write_csv(path_or_file, "E,parity,method,residual",
              ((fmt(r.energy), str(r.parity.sign), r.method, fmt(r.residual))
               for r in records), comments)


def write_trace_csv(traces: Sequence[GTrace], path_or_file,
                    comments: Sequence[str] = ()) -> None:
    """Trace CSV: columns E, G_plus, G_minus, empty where G is not finite."""
    if not (by_parity := {t.parity: t for t in traces}):
        raise ValueError("no trace given")
    grid = next(iter(by_parity.values())).energies
    for t in by_parity.values():
        if t.energies.shape != grid.shape or not np.allclose(t.energies, grid):
            raise ValueError("traces must share one energy grid")
    poles = next(iter(by_parity.values())).poles
    if poles:
        comments = [*comments, "baselines: " + " ".join(
            f"{b.kind}:{b.index}@{fmt(b.energy)}" for b in poles)]
    columns = [by_parity[p].values if p in by_parity else np.full(grid.size, np.nan)
               for p in (Parity.PLUS, Parity.MINUS)]
    # A row of finite cells in one format call: the bytes of fmt on each.
    finite = np.isfinite(columns).all(axis=0).tolist()
    rows = zip(grid.tolist(), *(c.tolist() for c in columns))
    write_csv(path_or_file, "E,G_plus,G_minus",
              (["%.17g,%.17g,%.17g" % row] if ok else
               [fmt(row[0])] + [fmt(v) if math.isfinite(v) else "" for v in row[1:]]
               for ok, row in zip(finite, rows)), comments)
