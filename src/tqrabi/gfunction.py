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
_chain, places the points and pairs them with the center records of
series._centers; the column order, the determinant's parity sign and the
pole factor read those records. The roots do not depend on the points. Each
energy's series are summed only as far as its own tail test needs, up to the
hard cap, so G(E) is a function of E alone. Each center runs once per block
for both parities, and a -1 determinant is a fixed sign times that of one
assembly (_gvalues_once). Work spreads over the CPUs the process may run on
in one way (_shares): one share per CPU, the first run here and each other
one in a worker process forked at the first such call and kept for later
ones (_hire). A G call longer than one block, such as a trace or a fine-step
scan, runs in contiguous shares of its energies (_block_shares), as do the
CSV rows of such a trace (cli), and a sweep (cli), whatever its solver, in
shares of its points; there is no setting for it, and the values are the
bits of one process.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional, Sequence

import numpy as np

from . import series
from .model import (
    Baseline,
    ModelParams,
    NoConvergence,
    OutsideDisk,
    Parity,
    SpectrumRecord,
    SpectrumResult,
    _distinct,
)
from .series import _Center, _centers, _tables, baselines

__all__ = [
    "GTrace",
    "find_roots",
    "trace",
    "DEFAULT_GRID_STEP",
]

DEFAULT_GRID_STEP = 0.01
ROOT_TOL = 1e-10
VERIFY_TOL = 1e-6
# Pass budget of the bracket refinement: with a midpoint in every pass it
# holds the 64 halvings of a bisection.
_MAX_PASSES = 64
# Ratio of the probe offsets around a bracket's interpolated point, from the
# tolerance up to half the width.
_LADDER = 100.0
# Energies per series pass in _gvalues. A block stops on its own slowest
# energy instead of the batch's, and its work arrays stay near 4 MB, inside
# the CPU caches, however long the batch, so a long trace is bound by
# arithmetic rather than by memory traffic. 2048 ran faster than 1024 and
# 4096 on 4,001-energy traces. A call of more than one block runs in one
# share per CPU, at most one per block: one worker per extra CPU (_hire).
_BLOCK = 2048
_PARITY_D = np.array([1.0, 1.0, -1.0, -1.0])  # D, with mix(-s) = D mix(s) D (see series)
# Grid points of a window (_window): a trace of both parities costs about
# 280 bytes an energy at its peak, near 0.6 GB at the limit.
MAX_GRID_POINTS = 2 ** 21


def _chain(sp: ModelParams) -> list[tuple[float, _Center, _Center]]:
    """Matching conditions (point, + center, - center) along series._centers,
    one per hop, each point balanced between the two disks it joins. For
    g' > 0, z0 weighs g' and g by the other center's radius, which gives
    z0 = (g' + g)/2 for g' >= g/3, and z0' = g'^2/g; for g' = 0, z0 = g/2.
    Center g' takes part exactly when g' > 0; the column order is that of
    first appearance. Raises OutsideDisk where rounding puts a point outside
    a disk it joins."""
    cs, g, gp = _centers(sp), sp.g, sp.gprime
    rg, rgp = cs[0].radius, cs[1].radius
    points = [g / 2] if gp == 0 else [(gp * rg + g * rgp) / (rgp + rg), gp * gp / g]
    conds = list(zip(points, cs, cs[1:]))
    for z, *ends in conds:
        for c in ends:
            if abs(z - c.position) >= c.radius:
                raise OutsideDisk(f"matching point {z} outside the disk around {c.position}")
    return conds


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


def _gvalues(sp: ModelParams, signs: int | np.ndarray, energies: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized determinant on an energy grid, and masks for poles and convergence.

    signs is an array broadcast against energies, such as one sign, a column
    of one sign per result row, or one sign per energy. Entries on a
    recurrence pole or unconverged at the hard cap come back NaN. The
    energies are taken in blocks of _BLOCK, each with its own series stop,
    and every energy's value is the same whatever block, share, or signs
    beside it, it falls in. A call of more than one block runs in contiguous
    shares (_block_shares).
    """
    shape = np.broadcast_shapes(np.shape(signs), energies.shape)
    s = np.atleast_2d(np.broadcast_to(signs, shape))
    parts = _block_shares(energies.size, lambda r: (_blocks, (sp, s[:, r], energies[r])))
    return tuple(np.concatenate(c, axis=-1).reshape(shape) for c in zip(*parts))


def _blocks(sp: ModelParams, signs: np.ndarray, energies: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gvalues_once on consecutive blocks of _BLOCK energies, joined."""
    out = np.empty(signs.shape), *np.empty((2,) + signs.shape, dtype=bool)
    for i in range(0, energies.size, _BLOCK):
        part = slice(i, i + _BLOCK)
        for a, b in zip(out, _gvalues_once(sp, signs[:, part], energies[part])):
            a[:, part] = b
    return out


def _block_shares(n: int, call: Callable[[slice], tuple[Callable, tuple]]) -> list:
    """Results of the calls call(r) (_shares), r contiguous slices of range(n)
    of nearly equal size, in order: one per CPU, at most one per block of
    _BLOCK items."""
    def split(k):
        ends = [n * i // k for i in range(k + 1)]
        return [call(slice(a, b)) for a, b in zip(ends, ends[1:])]

    return _shares(-(-n // _BLOCK), split)


def _shares(most: int, split: Callable[[int], list[tuple[Callable, tuple]]]) -> list:
    """Results of the calls (fn, args) of split(k), k the CPUs this process may
    run on, at most `most`: the first run here, each other one in a worker
    (_hire), and one whose worker fails here too, to the same result. While
    workers hold shares, this process's own calls run alone; if a call
    raises here, every worker is killed."""
    global _alone
    workers = _hire(most - 1)
    calls, alone = split(len(workers) + 1), _alone
    try:
        asked = [_ask(w, call) for w, call in zip(workers, calls[1:])]
        _alone = alone or bool(workers)
        fn, args = calls[0]
        return [fn(*args)] + [_answer(w, call) for w, call in zip(asked, calls[1:])]
    except BaseException:
        _stop_workers(kill=True)
        raise
    finally:
        _alone = alone


# A worker: (pid, request pipe, reply pipe).
_Worker = tuple[int, BinaryIO, BinaryIO]
# Forked at the first call that needs them and kept for later calls, so that
# each pays for its fork and its copied pages once; stopped at exit.
_workers: list[_Worker] = []
# Set in any process forked from this one, such as a worker, and in this one
# while its workers hold shares: its calls run alone, as the other CPUs are
# taken.
_alone = False


def _hire(extra: int) -> list[_Worker]:
    """Workers for at most `extra` shares beside this process's own, one per
    CPU it may run on but the one it runs on now, each pinned to its CPU for
    this call. None while calls run alone (_alone), where os.fork is missing,
    or while another thread lives, as a fork copies only the calling thread."""
    if extra < 1 or _alone or not hasattr(os, "fork") or threading.active_count() > 1:
        return []
    try:
        cpus = os.sched_getaffinity(0)
        with open("/proc/self/stat", "rb") as f:
            here = int(f.read().rpartition(b")")[2].split()[36])  # field 39, processor
    except (AttributeError, OSError, ValueError, IndexError):
        return []
    # The CPUs after this one first, so that processes on different CPUs
    # pin their workers apart. Pinned, a worker runs beside this process: an
    # unpinned one was woken on this process's CPU and stayed there.
    others = sorted(cpus - {here}, key=lambda c: (c < here, c))[:min(extra, len(cpus) - 1)]
    while len(_workers) < len(others) and (worker := _fork_worker()):
        _workers.append(worker)
    for (pid, _, _), cpu in zip(_workers, others):
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            pass
    return _workers[:len(others)]


def _fork_worker() -> Optional[_Worker]:
    """A new worker, or None when none starts. It replies to each request
    (fn, args) with fn(*args) until its request pipe closes, and ends in
    os._exit, so it flushes none of this process's buffers."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    ask_r, ask_w, reply_r, reply_w = fds
    if pid == 0:
        code = 1
        try:
            os.close(ask_w)
            os.close(reply_r)
            with open(ask_r, "rb") as requests, open(reply_w, "wb") as replies:
                while True:
                    try:
                        fn, args = pickle.load(requests)
                    except EOFError:
                        break
                    pickle.dump(fn(*args), replies, pickle.HIGHEST_PROTOCOL)
                    replies.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(ask_r)
    os.close(reply_w)
    return pid, open(ask_w, "wb"), open(reply_r, "rb")


def _ask(worker: _Worker, call: tuple[Callable, tuple]) -> Optional[_Worker]:
    """Send a worker its call; the worker, or None if it is gone."""
    try:
        pickle.dump(call, worker[1], pickle.HIGHEST_PROTOCOL)
        worker[1].flush()
        return worker
    except OSError:
        _retire(worker, kill=True)
        return None


def _answer(worker: Optional[_Worker], call: tuple[Callable, tuple]):
    """A worker's reply to call, or, where it does not come whole, call run here."""
    if worker is not None:
        try:
            return pickle.load(worker[2])
        except (EOFError, OSError, ValueError, TypeError, pickle.UnpicklingError):
            _retire(worker, kill=True)
    fn, args = call
    return fn(*args)


def _retire(worker: _Worker, kill: bool) -> None:
    """Close a worker's pipes, which ends it when idle, and wait for it."""
    pid, requests, replies = worker
    if worker in _workers:
        _workers.remove(worker)
    if kill:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for f in (requests, replies):
        try:
            f.close()
        except OSError:
            pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _stop_workers(kill: bool = False) -> None:
    """Retire every worker, killing it first when it may be busy."""
    while _workers:
        _retire(_workers[-1], kill)


def _forget_workers() -> None:
    """In a forked child: its parent's workers are not its own."""
    global _alone
    _alone = True
    for _, requests, replies in _workers:
        requests.close()  # nothing is left unsent in it
        replies.close()
    _workers.clear()


atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


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
    d = energies - b[:, None]  # a row per pole: the reductions over poles add rows
    near = np.abs(d) < 1.0  # about a third of the pairs on a trace
    x, bump = d[near], np.ones_like(d)
    # |d| < POLE_EPS only on a pole, where G is NaN and |d|**(1-k) may overflow.
    with np.errstate(divide="ignore", over="ignore"):
        bump[near] = 1.0 + ((np.abs(x) ** np.repeat(1 - k, np.count_nonzero(near, axis=1))
                             - 1.0) * (1.0 - x * x) ** 2)
    return (-1.0) ** np.count_nonzero(d > 0, axis=0) * np.prod(bump, axis=0)


def _prepare(params: ModelParams) -> ModelParams:
    """The model in omega = 1 units, canonical, its couplings and points checked."""
    params.require_analytic()
    sp = params.scaled().canonical()
    _chain(sp)
    return sp


def _window(params: ModelParams, e_min: float, e_max: float,
            step: Optional[float]) -> tuple[float, float, float]:
    """Checked, finite window ends and step (default 0.01 omega), in omega = 1
    units: e_max within the photon cap (ModelParams.require_reach) and at
    most MAX_GRID_POINTS grid points."""
    if not e_min < e_max:
        raise ValueError("empty energy window")
    if step is None:
        step = DEFAULT_GRID_STEP * params.omega
    if step <= 0:
        raise ValueError("step must be positive")
    if not all(map(math.isfinite, (e_min, e_max, step))):
        raise ValueError("energy window and step must be finite")
    params.require_reach(e_max)
    if (points := (e_max - e_min) / step + 1) > MAX_GRID_POINTS:
        raise ValueError(f"step {step:g} puts {points:.3g} grid points in the window, "
                         f"past the limit of {MAX_GRID_POINTS}")
    w = params.omega
    return e_min / w, e_max / w, step / w


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
    vals, _, _ = _gvalues(sp, np.array([[p.sign] for p in parities]), grid)
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


def _refine_brackets(sp: ModelParams, brackets: tuple[np.ndarray, ...], tol: float,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Settle sign-change brackets of any parities in shared passes.

    brackets is (signs, lo, hi, G(lo), G(hi)). Each pass sends the probes of
    all open brackets through one G call, up to _MAX_PASSES per bracket. A
    bracket is probed at _interpolate of its ends and its last interpolant, a
    _ladder around that and its midpoint, and keeps the first pair that
    changes sign: it at least halves, and closes at width 2*tol once the
    interpolant is within tol of its root. A probe on a pole is passed over,
    an exact zero closes its bracket, and any other non-finite probe raises
    NoConvergence. Returns the signs and midpoints of the brackets.
    """
    sb, lo, hi, flo, fhi = (np.array(c) for c in brackets)
    kb, (x3, f3) = np.zeros(lo.size, dtype=int), np.full((2, lo.size), np.nan)
    while (ob := np.flatnonzero((hi - lo > 2 * tol) & (kb < _MAX_PASSES))).size:
        a, b, fa, fb = lo[ob], hi[ob], flo[ob], fhi[ob]
        rf = np.clip(_interpolate(a, b, fa, fb, x3[ob], f3[ob]), a + tol, b - tol)
        jb, eb = _ladder(rf, a, b, 0.5 * (a + b), tol)
        gb, ok, _ = _gvalues(sp, sb[ob][jb], eb)
        if (bad := ok & ~np.isfinite(gb)).any():
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
    return sb, 0.5 * (lo + hi)


def _level_probes(levels: SpectrumResult, signs: Sequence[int], w: float,
                  lo: float, hi: float, poles: dict[int, Sequence[float]], tol: float,
                  ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(sign, E_k, r_k) of each level of these signs, in omega = 1 units, and
    (sign, a, b) of each level's probe pair E_k -/+ h, h = max(tol/2, r_k),
    which holds a true eigenvalue as r_k bounds the level's distance from
    one. A level is probed when E_k -/+ 2h lies in the window [lo, hi] and no
    one-column pole is within 2h of E_k, whose own pair covers it. A pair that
    changes sign holds a root within h of its midpoint: within tol/2 when the
    level settles (2 r_k <= tol), and within tol while r_k <= tol."""
    recs = [r for r in levels if r.parity.sign in signs]
    s = np.array([r.parity.sign for r in recs], dtype=int)
    e, r = (np.array([getattr(x, f) for x in recs]) / w for f in ("energy", "residual"))
    h = np.maximum(0.5 * tol, r)
    free = np.array([all(abs(x - p) > 2 * d for p in poles[c]) for c, x, d in zip(s, e, h)],
                    dtype=bool)
    k = np.flatnonzero(free & (e - 2 * h >= lo) & (e + 2 * h <= hi))
    return (s, e, r), (s[k], e[k] - h[k], e[k] + h[k])


def _scan_grid(sp: ModelParams, lo: float, hi: float, h: float) -> np.ndarray:
    """find_roots' grid on [lo, hi]: a step near h, and b -/+ delta beside each
    baseline b of either sign in the window. delta is 4*POLE_EPS beside a
    one-column pole, where G jumps at a cutoff state, and min(1e-3, g^2/10)
    beside any other: at weak coupling two regular levels of one parity can
    sit within about g^2 of a baseline, one on either side, inside one cell,
    and the points give each a sign change of its own. delta depends on the
    model alone, so a root's bracket does not depend on the window or the
    parities searched. Each end is also taken 4*POLE_EPS inside, at indices 1
    and size - 2, as a bracket probe is stepped off a pole: an end on a pole
    has no grid point beyond it to bracket across."""
    xs = np.linspace(lo, hi, max(2, int(round((hi - lo) / h)) + 1))
    d, wide = 4 * series.POLE_EPS, min(1e-3, 0.1 * sp.g ** 2)
    beside = np.array([b + t * (d if k == 1 else wide) for sign in (1, -1)
                       for b, k in _poles(sp, sign, hi) if lo <= b <= hi for t in (-1, 1)])
    inner = np.append(xs[1:-1], beside[(beside > lo + d) & (beside < hi - d)])
    return np.concatenate([xs[:1], xs[:1] + d, np.unique(inner), xs[-1:] - d, xs[-1:]])


def find_roots(params: ModelParams, parities: Sequence[Parity], e_min: float,
               e_max: float, step: Optional[float] = None,
               levels: Optional[SpectrumResult] = None) -> SpectrumResult:
    """Zeros of the matching determinant in [e_min, e_max] for the given parities.

    One search serves every parity; a parity given twice is searched once.
    G, matched at the model's points (_chain), is scanned across the
    window in one batch (_scan_grid): a uniform grid (step defaults to 0.01
    in units of the photon frequency) and two points beside every baseline,
    4*POLE_EPS from a one-column (center-0) pole and min(1e-3, g^2/10) from
    any other. A grid point exactly on a baseline is dropped, and a window end
    on one is taken 4*POLE_EPS inside. Each sign change is narrowed to width
    2e-10 in shared passes, each at an interpolated point, a ladder of points
    around it and its midpoint (_refine_brackets); a root is its bracket's
    midpoint. Roots are never merged: scan cells are disjoint and probes stay
    inside their bracket, so each closed bracket is one root, however close
    to the next. A one-column pole's pair is where G jumps at a cutoff state:
    a root at b, beside any regular one; dark states, on baselines without a
    pole, are no roots. A root pair in one cell away from every baseline,
    as near a same-parity crossing, shows no sign change and is not found
    without levels. levels, oracle
    records of these parities such as oracle.window(params, None, e_max,
    parities), verifies every root (nearest same-parity level within 1e-6):
    unmatched roots are kept but flagged unverified (residual inf where
    levels lacks their parity); with levels None roots are unchecked, and a
    root's residual is |G| there. levels also settles roots in the scan: each
    level E_k off the poles, with tail bound r_k (its residual), is probed at
    E_k -/+ max(ROOT_TOL/2, r_k) in the scan's own call (_level_probes), and
    a pair that changes sign joins its parity's grid as a bracket around a
    true eigenvalue. When 2 r_k <= ROOT_TOL its midpoint is within
    ROOT_TOL/2 of the root (0 or 1 ulp from E_k); a looser pair wider than
    2*ROOT_TOL is refined. Levels of a parity must be complete up to the
    highest given, as the lowest ones from oracle.window or
    oracle.diagonalize are. So a sign change with one end on a level's pair
    is not refined unless it holds a level (E_k -/+ r_k meets it): it is
    rounding beside a settled root. When every root settles, the scan is the
    search's only G call. A bracket probe where G is not finite raises
    NoConvergence, and a point rounded outside its disk OutsideDisk.
    """
    parities = _distinct(parities)
    lo_w, hi_w, h = _window(params, e_min, e_max, step)
    sp = _prepare(params)
    w = params.omega
    signs = tuple(p.sign for p in parities)

    xs = _scan_grid(sp, lo_w, hi_w, h)
    # G can jump only at a one-column pole; beside others rounding is magnified.
    poles = {s: [b for b, k in _poles(sp, s, hi_w) if k == 1] for s in signs}
    # Probe pairs ride in the scan's call, at their own sign in every row. One
    # that changes sign joins its sign's grid; others would only split a cell.
    (ls, le, lr), (ps, pa, pb) = _level_probes(levels or SpectrumResult(), signs, w,
                                               lo_w, hi_w, poles, ROOT_TOL)
    es = np.concatenate([xs, pa, pb])
    cols = np.concatenate([np.repeat(np.array(signs)[:, None], xs.size, 1),
                           np.tile(ps, (len(signs), 2))], axis=1)
    g, ok, _ = _gvalues(sp, cols, es)
    ga, gb = g[0, xs.size:].reshape(2, -1)
    joins = np.append(np.ones(xs.size, dtype=bool), np.tile(np.sign(ga) * np.sign(gb) < 0, 2))
    on_pair = np.arange(es.size) >= xs.size

    brackets = []
    for sign, gs, pole_ok, col in zip(signs, g, ok, cols):
        # No value exactly on a pole: the grid points beside it bracket across it.
        take = pole_ok & (col == sign) & joins
        take[[1, xs.size - 2]] &= ~pole_ok[[0, xs.size - 1]]
        x, at = np.unique(es[take], return_index=True)
        gs, paired = gs[take][at], on_pair[take][at]
        s = np.sign(gs)
        # Sign changes, and exact zeros on the grid as closed brackets; not one
        # with one end on a level's pair and no level: rounding beside a root.
        i, j = (np.append(np.flatnonzero(s == 0), np.flatnonzero(s[:-1] * s[1:] < 0) + d)
                for d in (0, 1))
        mine = ls == sign
        holds = ((le[mine] - lr[mine] <= x[j, None])
                 & (le[mine] + lr[mine] >= x[i, None])).any(axis=1)
        keep = holds | (paired[i] == paired[j])
        i, j = i[keep], j[keep]
        brackets.append((np.full(i.size, sign), x[i], x[j], gs[i], gs[j]))
    found = _refine_brackets(sp, tuple(map(np.concatenate, zip(*brackets))), ROOT_TOL)

    roots = [(p, x) for p in parities for x in np.sort(found[1][found[0] == p.sign]).tolist()]
    if levels is not None:  # a parity without levels verifies none of its roots
        ed = {p: np.array(levels.filtered(p).energies()) for p in parities}
    elif roots:
        mag = np.abs(_gvalues(sp, np.array([p.sign for p, _ in roots]),
                              np.array([x for _, x in roots]))[0])
    records = []
    for n, (parity, x) in enumerate(roots):
        if levels is not None:
            residual = float(np.min(np.abs(ed[parity] - x * w), initial=np.inf))
            verified = residual < VERIFY_TOL * w
        else:
            residual, verified = float(mag[n]), None
        records.append(SpectrumRecord(x * w, parity, "gfunction", residual, verified))
    return SpectrumResult.from_records(records)
