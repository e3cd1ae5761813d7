"""Displaced-basis power series for the sector wavefunctions.

The four coupled first-order equations of each parity sector are solved by
power series around the centers alpha in {0, g', g} (g = g1+g2, g' = g1-g2).
Around alpha = g the third component carries a vanishing leading coefficient
and is slaved to the others through a division by (E - n + g^2 - Jx); around
alpha = g' the fourth component divides by (E - n + g'^2 + Jx); around
alpha = 0 the reflection z -> -z ties components 3, 4 to 1, 2. Those divisors
are exactly the baseline energies where the matching determinant has poles.
Each center is one _Center record (position, radius, free slots, slaved
component, baseline kind), and _centers lists them in chain order. The
recurrence, gfunction's chain and pole factor, baselines() and exceptional.levels
read those records, and every divisor energy comes from _divisor.

Coefficients are kept in radius units: coeffs[n] = c_n * R^n, so the series
reads sum_n coeffs[n] * t^n with t = (z - alpha)/R, |t| < 1. This keeps them
inside double range even for extreme couplings. Each order is a few
whole-array steps over the recurring components, all columns and
energies: one constant 4x4 coupling matrix applied by einsum, one broadcast
update of the free components, one weighted contraction for the slaved
one, and a pole guard only at the orders whose divisor can vanish. The
recurrence hands each order to one plain summation, which sums all of a
center's matching points in the same pass and freezes each energy's sums
once its tail is small. No order is kept: G(E) sums as it recurses, up to
the hard cap of 512 orders. Both loops write
into buffers allocated once per call and rotated from order to order, with
the same operations on the same operands as fresh arrays would take, so a
yielded order is valid only until the next one. gfunction runs them on
fixed blocks of 2048 energies, and each block stops once its own
slowest energy has converged.

Around g and g' the parity sign s enters only as mix(-s) = D mix(s) D with
D = diag(1, 1, -1, -1), and IEEE rounding is sign-symmetric, so the -s rows
and sums are D (+s values) d_j bit for bit but for the sign of zeros, where
d_j = D at column j's free slot. Around 0 the reflection tie (g' > 0), or the
slaved divisor and weights (g' = 0), also carry the parity. There a -1 energy
runs in the D frame (mix of +1, reflection sign flipped, its own divisors),
which is D times its -1 run: one pass serves both signs, with d_j = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Baseline, ModelParams

__all__ = ["baselines", "HARD_CAP"]

POLE_EPS = 1e-12        # |divisor| below this means E sits on a baseline
TAIL_RTOL = 1e-14       # relative size of the last term accepted as converged
HARD_CAP = 512
BASELINE_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class _Center:
    """One series center of the matching chain, in omega = 1 units.

    radius is the distance to the nearest singular point; slots are the
    zero-based components whose leading coefficients are free; slave is the
    component divided by a vanishing divisor (None: nothing is slaved), and
    kind names the Baseline family of those divisors.
    """

    position: float
    radius: float
    slots: tuple[int, ...]
    slave: Optional[int]
    kind: Optional[str]


def _centers(sp: ModelParams) -> tuple[_Center, ...]:
    """The centers in chain order: g, then g' when g' != 0, then 0."""
    g, gp = sp.g, abs(sp.gprime)
    if gp == 0:
        kind = "second" if sp.jy + sp.jz == 0.0 else "exchange"
        return (_Center(g, g, (0, 1, 3), 2, "first"), _Center(0.0, g, (0,), 1, kind))
    return (_Center(g, g - gp, (0, 1, 3), 2, "first"),
            _Center(sp.gprime, min(2 * gp, g - gp), (0, 1, 2), 3, "second"),
            _Center(0.0, gp, (0, 1), None, None))


def _slaving(sp: ModelParams, sign: int, c: _Center, e_max: float):
    """(shift, weights, divisors) of a center; weights is None if nothing is slaved.

    Order n of component c.slave is weights[n % 2] @ cur / (E - c^2 +
    shift[n % 2] - n). divisors lists (n, _divisor, k) by n to past e_max + 1
    (none for e_max = -inf); k, the columns that carry the pole, is the slots
    with a nonzero weight at n = 0 and all above once a weight is nonzero (0:
    no pole). It is structural: a cutoff state, whose numerator is 0, keeps it.
    """
    g, gp, s = sp.g, sp.gprime, float(sign)
    d1, d2, jx, jy, jz = sp.delta1, sp.delta2, sp.jx, sp.jy, sp.jz
    a, b = s * (jz - jy), s * (jy + jz)
    if c.slave == 2:
        shift, weights = (2 * g * g - jx,) * 2, [(a, s * d1, 0, d2)] * 2
    elif c.slave == 3:
        shift, weights = (2 * gp * gp + jx,) * 2, [(s * d1, b, d2, 0)] * 2
    elif c.slave == 1:  # center zero with identical couplings
        shift = (jx - b, jx + b)
        weights = [(d2 + s * d1, 0, 0, 0), (d2 - s * d1, 0, 0, 0)]
    else:
        return (), None, []
    weights = np.array(weights, dtype=float)
    c2, slots = c.position ** 2, list(c.slots)
    divisors = []
    for n in range(math.floor(max(-1.0, e_max + 1.0 - c2 + max(shift))) + 1):
        k = (len(slots) * bool(weights[n % 2].any()) if n
             else int(np.count_nonzero(weights[0, slots])))
        divisors.append((n, _divisor(c, shift, n), k))
    return shift, weights, divisors


def _divisor(c: _Center, shift, n: int) -> float:
    """Where order n's divisor at c vanishes (omega = 1): every baseline's energy."""
    return n + c.position ** 2 - shift[n % 2]


def baselines(params: ModelParams, e_min: float, e_max: float) -> list[Baseline]:
    """Enumerate baseline energies inside [e_min, e_max], sorted ascending.

    They are the divisor energies of the series recurrences of both parity
    signs (_slaving), deduplicated (within 1e-12) inside each kind with the
    lowest index kept; coincidences across kinds are distinct families.
    e_min may be -inf; e_max must be finite and within the photon cap
    (ModelParams.require_reach).
    """
    if math.isnan(e_min) or not math.isfinite(e_max):
        raise ValueError("e_max must be finite and e_min not NaN")
    if not e_min < e_max:
        raise ValueError("baselines needs e_min < e_max")
    params.require_reach(e_max)
    sp = params.scaled()
    w = params.omega
    lo, hi = e_min / w, e_max / w
    out: list[Baseline] = []
    for c in _centers(sp):  # one center per kind
        # By energy, a divisor within 1e-12 omega of the one below joins its run,
        # which keeps its lowest index; at most two families tie, n - jx -/+ (jy + jz).
        runs: list[list[tuple[int, float]]] = []
        for e, n in sorted((e * w, n) for s in (1, -1) for n, e, _ in _slaving(sp, s, c, hi)[2]
                           if lo - 1e-12 <= e <= hi + 1e-12):
            if runs and e - runs[-1][-1][1] < BASELINE_DEDUP_TOL * w:
                runs[-1].append((n, e))
            else:
                runs.append([(n, e)])
        out += (Baseline(c.kind, *min(run)) for run in runs)
    out.sort(key=lambda b: (b.energy, b.kind, b.index))
    return out


def _tables(sp: ModelParams, sign, energies: np.ndarray, center: _Center,
            inits: np.ndarray, n_max: int):
    """Scaled coefficients u[n], shape (4, ncols, nE), one order at a time to n_max.

    Returns (rows, pole_ok): rows is a generator of the orders, and pole_ok
    marks the energies off baselines in every order yielded so far. The rows
    live in buffers reused from order to order: a yielded row is valid until
    the next one is requested, so a caller that keeps rows must copy them.
    inits has shape (4, ncols); entries on non-free slots are ignored. sign
    is one sign, or at center 0 one per energy, each run in its D frame: the
    rows of a -1 energy are D times its sign -1 rows (see the module docstring).
    """
    g, gp, c = sp.g, sp.gprime, center.position
    d1, d2, jx, jy, jz = sp.delta1, sp.delta2, sp.jx, sp.jy, sp.jz
    radius, slave = center.radius, center.slave
    ok = np.ones(energies.size, dtype=bool)
    frame = np.ndim(sign) > 0
    s, refl = (1.0, np.asarray(sign, dtype=float)) if frame else (float(sign), 1.0)

    # Only the rows before a slave that follows the free slots are advanced (at
    # g', and at 0 when g' = 0); the rest are rewritten before they are read.
    r = slice(None, slave if slave == len(center.slots) else 4)
    # Cross couplings: order n + 1 of component j takes sum_k mix[k, j] cur[k]
    # (mix is symmetric). With "kj", unlike "jk" or matmul, einsum adds the
    # terms in k order at every batch size, so G(E) depends on E alone; a
    # contiguous mix[:, :1] would not, as one energy's one column takes a dot.
    a, b = s * (jz - jy), s * (jy + jz)
    mix = (-np.array([[0, d2, a, s * d1], [d2, 0, s * d1, b],
                      [a, s * d1, 0, d2], [s * d1, b, d2, 0]]))[:, r]
    # Reflection at the origin ties components 3, 4 to 1, 2; all four advance.
    tied = c == 0.0 and slave is None
    active = np.array([tied or j in center.slots for j in range(4)])
    pref = np.array([c + g, c + gp, c - g, c - gp])
    rp = np.where(active, radius / np.where(active, pref, 1.0), 0.0)[r, None, None]
    aoff = np.array([-2 * c * g - jx, -2 * c * gp + jx, 2 * c * g - jx, 2 * c * gp + jx])
    # A position whose square overflows raises in _slaving, before inf - inf here.
    shift, weights, divisors = _slaving(sp, s, center, energies.max())
    base = energies - c * c
    diag = (base + aoff[r, None])[:, None, :]
    shift, contract = np.reshape(shift, (-1, 1)), "k,kcn->cn"
    if frame and slave is not None:  # center 0, g' = 0: each sign its own slaving
        minus = _slaving(sp, -1, center, energies.max())
        shift = np.where(refl < 0, np.reshape(minus[0], (-1, 1)), shift)
        weights = np.where(refl < 0, minus[1][..., None], weights[..., None])
        # A lone column has one nonzero weight: no sum order to keep.
        divisors, contract = divisors + minus[2], "kn,kcn->cn"
    dbase, ties = base + shift, (refl, -refl)  # ties: reflection of each order's parity
    poles = {n for n, _, _ in divisors}  # the orders whose divisor can vanish

    def rows():
        # Three rotating coefficient buffers and one for the cross terms; each
        # order runs the same operations on the same operands as a fresh
        # expression would, so the bits do not depend on the reuse.
        cur = np.repeat(inits[:, :, None], energies.size, axis=2)
        prev, nxt = np.zeros((2,) + cur.shape)
        cross, dn = np.empty_like(cur[r]), np.empty(diag.shape)
        if slave is not None:
            den, slaved = np.empty(energies.size), np.empty(cur.shape[1:])
        if tied:
            np.multiply(refl, cur[:2], out=cur[2:])
        for n in range(n_max + 1):
            if slave is not None:
                np.subtract(dbase[n % 2], n, out=den)
                if n in poles:  # mark energies on a baseline, keep their rows finite
                    bad = np.abs(den) < POLE_EPS
                    ok[bad] = False
                    den[bad] = 1.0
                np.einsum(contract, weights[n % 2], cur, out=slaved)
                np.divide(slaved, den, out=cur[slave])
                if slave == 1:
                    np.multiply(ties[n % 2], cur[:2], out=cur[2:])
            yield cur
            if n == n_max:
                return
            # nxt = ((diag - n) * cur + mix^T cur) * rp/(n+1) - radius^2/(n+1) * prev
            head = nxt[r]
            np.multiply(np.subtract(diag, n, out=dn), cur[r], out=head)
            head += np.einsum("kj,kcn->jcn", mix, cur, out=cross)
            head *= rp / (n + 1)
            head -= np.multiply(radius * radius / (n + 1), prev[r], out=cross)
            prev, cur, nxt = cur, nxt, prev

    return rows(), ok


def _kahan_eval(rows, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain sums of rows[n] * t^n at every t, and which energies converged.

    rows yields at least two orders n = 0, 1, ... of shape (4, ncols, nE); the
    sums have a leading t axis, (nt, 4, ncols, nE). An energy converges at the
    first order, checked every 4 orders and at the last one, where at every t
    its last two terms are at most 1e-14 of its largest sum (maxima over
    components and columns). Its sums are frozen there, so they depend on that
    energy alone, and no more rows are taken once every energy has converged.
    Each row is read before the next is requested, so rows may reuse buffers.
    One add per order. The sums cancel more as E grows: at center g's matching
    point of (omega, d1, d2, g1, g2) = (1, 0.6, 0.4, 0.15, 0.15), sum |term| /
    |sum| over the unit columns reads up to 10 at E = 2.3, 432 at 5.3, 8.4e4 at
    10.3 and 1.4e9 at 20.3. So the tail sets their error only at low E; above
    E ~ 10-20 omega rounding does, and G's sign can be noise. G magnifies the
    error by about 1/|E - b| near a pole b of k >= 2 columns, so find_roots sets
    no probes beside those. Tracing wraps it by name.
    """

    def tail_ok():
        # y is free between orders and serves as scratch for the magnitudes.
        tail = np.maximum(np.maximum.reduce(np.abs(last, out=y), axis=(1, 2)),
                          np.maximum.reduce(np.abs(term, out=y), axis=(1, 2)))
        scale = np.maximum(np.maximum.reduce(np.abs(sums, out=y), axis=(1, 2)), 1e-300)
        return np.logical_and.reduce(tail <= TAIL_RTOL * scale, axis=0)

    ts = np.reshape(ts, (-1, 1, 1, 1))
    tpow = np.ones_like(ts)
    for n, row in enumerate(rows):
        if n == 0:
            # Buffers for the whole pass; zero sums give the same bits at
            # order 0 as starting from the scalar 0.0.
            shape = (len(ts),) + row.shape
            sums, y, term, last = np.zeros((4,) + shape)
            out = np.empty(shape)
            frozen = np.zeros(shape[-1], dtype=bool)
        last, term = term, last
        sums += np.multiply(row, tpow, out=term)
        tpow *= ts
        if n % 4 == 0 and n:
            new = tail_ok() & ~frozen
            np.copyto(out, sums, where=new)
            frozen |= new
            if frozen.all():
                return out, frozen
    np.copyto(out, sums, where=~frozen)
    return out, frozen | tail_ok()

