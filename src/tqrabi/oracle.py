"""Truncated-Fock-space diagonalization, the independent cross-check solver.

H commutes with the parity (-1)^n sigma1_z sigma2_z. Each parity block holds
two states per photon number; ordered by photon number it is a symmetric band
matrix with three superdiagonals. The blocks are written straight into LAPACK
band storage and only the levels a caller needs are computed, so every level
carries its parity by construction. They are solved by the LAPACK routines
scipy ships (dsbevx, dsbevd), called as scipy.linalg.eig_banded calls them
but without importing scipy.linalg.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .model import (
    DEFAULT_TRUNCATION_CAP,
    ModelParams,
    NotConverged,
    Parity,
    SpectrumRecord,
    SpectrumResult,
    SupportOverflow,
    _distinct,
)

__all__ = [
    "apply_hamiltonian",
    "diagonalize",
    "certified_spectrum",
    "level_truncation",
    "start_truncation",
    "window",
    "residual",
]

# Diagonal of sigma1_z, sigma2_z and their product over the pair order (ee, eg, ge, gg).
_Z1 = np.array([1.0, 1.0, -1.0, -1.0])
_Z2 = np.array([1.0, -1.0, 1.0, -1.0])
_Z1Z2 = _Z1 * _Z2

BOUND_TOL = 1e-8
_STEP = 50
_BANDS = 3
_SIGNS = (1, -1)


def _block_states(truncation: int, sign: int) -> np.ndarray:
    """Full-basis indices (4*n + q) of one parity block, in block order.

    Photon numbers with (-1)^n equal to the sign carry (ee, gg), the others (eg, ge).
    """
    n = np.arange(truncation + 1)
    even = (n % 2 == 0) == (sign > 0)
    pairs = np.where(even[:, None], [0, 3], [1, 2])
    return (4 * n[:, None] + pairs).ravel()


def _band(params: ModelParams, truncation: int, sign: int) -> np.ndarray:
    """Upper band storage of one parity block: row 3 - d holds superdiagonal d.

    Block state 2n + r is the r-th pair of photon number n. Coupling n to n + 1
    (factor sqrt(n + 1)) puts g2 on the pairs (2n, 2n+2), (2n+1, 2n+3) and g1 on
    (2n, 2n+3), (2n+1, 2n+2); the exchange mixes the two pairs of one n.
    """
    p = params
    q = _block_states(truncation, sign) % 4
    root = np.sqrt(np.arange(1.0, truncation + 1))
    band = np.zeros((_BANDS + 1, q.size))
    band[3] = (p.omega * (np.arange(q.size) // 2) + p.delta1 * _Z1[q]
               + p.delta2 * _Z2[q] + p.jz * _Z1Z2[q])
    band[2, 1::2] = np.where(q[0::2] == 0, p.jx - p.jy, p.jx + p.jy)
    band[2, 2::2] = p.g1 * root
    band[1, 2::2] = p.g2 * root
    band[1, 3::2] = p.g2 * root
    band[0, 3::2] = p.g1 * root
    return band


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    band = band[(...,) + (None,) * (x.ndim - 1)]
    y = band[_BANDS] * x
    for d in range(1, _BANDS + 1):
        off = band[_BANDS - d, d:]
        y[:-d] += off * x[d:]
        y[d:] += off * x[:-d]
    return y


def apply_hamiltonian(params: ModelParams, truncation: int,
                      vec: np.ndarray) -> np.ndarray:
    """H @ vec on the basis of photon numbers 0..truncation, one parity band at a time.

    vec may carry further axes after the basis axis (columns of a matrix).
    """
    out = np.empty(vec.shape)
    for sign in _SIGNS:
        idx = _block_states(truncation, sign)
        out[idx] = _band_matvec(_band(params, truncation, sign), vec[idx])
    return out


@functools.cache
def _lapack():
    """scipy's f2py LAPACK module, which scipy.linalg.lapack re-exports, loaded
    without running scipy/__init__.py, scipy/linalg/__init__.py and the
    latter's slow array-API imports."""
    import os
    from importlib import machinery, util
    where = os.path.join(util.find_spec("scipy").submodule_search_locations[0], "linalg")
    finder = machinery.FileFinder(where, (machinery.ExtensionFileLoader,
                                          machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack in {where}")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _eig_banded(band: np.ndarray, select: str = "a", select_range: tuple = (0, 0),
                ) -> tuple[np.ndarray, np.ndarray]:
    """scipy.linalg.eig_banded(band, select=..., select_range=...) on upper band
    storage, by the LAPACK call it makes with the same arguments: dsbevd for
    every level ("a"), dsbevx for an index ("i") or value ("v") range."""
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    lapack = _lapack()
    if select == "a":
        w, v, info = lapack.dsbevd(band, compute_v=1, lower=0, overwrite_ab=0)
    else:
        lo, hi = select_range
        index = select == "i"
        w, v, m, _, info = lapack.dsbevx(
            band, *((0.0, 1.0, lo + 1, hi + 1) if index else (lo, hi, 1, 1)),
            range=2 if index else 1, mmax=hi - lo + 1 if index else band.shape[1],
            lower=0, overwrite_ab=0, abstol=2 * lapack.dlamch("s"))
        w, v = w[:m], v[:, :m]
    if info:
        raise NotConverged(f"LAPACK band eigensolver failed with info = {info}")
    return w, v


def _solve(band: np.ndarray, k: int | None = None, cut: float | None = None,
           width: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of one block (vectors as columns), each LAPACK
    call made through _eig_banded: every level, the lowest k, or those <= cut
    and the four above it.

    For a cut, one value-selected solve reaches width past the cut (or past
    the Gershgorin floor when that lies higher), and the reach doubles until
    it holds four levels above the cut or the whole block.
    """
    if cut is not None:
        # Gershgorin: every level lies between this floor and this ceiling.
        spread = 2 * _BANDS * float(np.max(np.abs(band[:_BANDS])))
        floor = float(np.min(band[_BANDS])) - spread - 1.0
        ceiling = float(np.max(band[_BANDS])) + spread + 1.0
        base = max(cut, floor)
        while True:
            upto = min(base + width, ceiling)
            evals, vecs = _eig_banded(band, "v", (floor, upto))
            keep = int(np.count_nonzero(evals <= cut)) + 4
            if evals.size >= keep or upto == ceiling:
                return evals[:keep], vecs[:, :keep]
            width *= 2
    if k is None or k >= band.shape[1]:
        return _eig_banded(band)
    return _eig_banded(band, "i", (0, k - 1))


def _eig(params: ModelParams, truncation: int, signs: Sequence[int] = _SIGNS,
         k: int | None = None, cut: float | None = None,
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels of the given parity blocks merged in ascending order, with their
    signs and tail bounds.

    Each block gives its levels as _solve selects them by k or cut, reaching
    4 omega past a cut. By default every level of both blocks is computed.

    A block eigenvector v solves the untruncated H but for what H adds at
    photon truncation + 1: sqrt(truncation + 1) [[g2, g1], [g1, g2]] applied
    to v's two components at photon truncation. The norm of that is v's
    exact residual, its tail bound: some level of H lies within it of the
    truncated one (Kato, J. Phys. Soc. Jpn. 4, 334 (1949)).
    """
    p = params
    parts = []
    for s in signs:
        evals, vecs = _solve(_band(p, truncation, s), k, cut, 4 * p.omega)
        a, b = vecs[-2], vecs[-1]
        bounds = math.sqrt(truncation + 1) * np.hypot(p.g2 * a + p.g1 * b,
                                                      p.g1 * a + p.g2 * b)
        parts.append((evals, np.full(evals.size, s), bounds))
    evals, signs, bounds = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(evals, kind="stable")
    return evals[order], signs[order], bounds[order]


def _log_displaced(alpha: float, n: np.ndarray, j_max: int) -> np.ndarray:
    """log |<n|D(alpha)|j>| for j = 0..j_max (rows) at photon numbers n >= j.

    <n|D(alpha)|j> = sqrt(j!/n!) alpha**(n-j) exp(-alpha**2/2) L_j^(n-j)(alpha**2)
    for real alpha > 0, built up from the coherent row j = 0 by the
    three-term recurrence in j that D^dagger a^dagger a D = a^dagger a + alpha
    (a + a^dagger) + alpha**2 gives. For n >= j the elements grow with j or
    oscillate, so the forward recurrence keeps its relative accuracy; each
    photon number carries its own log scale, so no value over- or underflows.
    Elements with n < j follow from |<n|D|j>| = |<j|D|n>|.
    """
    logfact = np.cumsum(np.log(np.maximum(np.arange(n[-1] + 1.0), 1.0)))
    row = n * math.log(alpha) - 0.5 * logfact[n] - 0.5 * alpha * alpha   # log <n|D|0>
    j = np.arange(1.0, j_max + 1.0)[:, None]
    coef = (n - (j - 1 + alpha * alpha)) / (alpha * np.sqrt(j))
    back = np.sqrt((j[:, 0] - 1) / j[:, 0])
    vals, logs = np.ones((j_max + 1, n.size)), np.zeros((j_max + 1, n.size))
    for k in range(1, j_max + 1):
        np.multiply(coef[k - 1], vals[k - 1], out=vals[k])
        if k > 1:
            vals[k] -= back[k - 1] * vals[k - 2]
        if k % 4 == 0:
            # A step grows an element at most (n + k + alpha**2)/alpha + 1
            # times: at any alpha start_truncation scans, four stay far
            # inside the float range.
            big = np.maximum(np.abs(vals[k]), np.abs(vals[k - 1]))
            vals[k - 1:k + 1] /= big
            logs[k - 1:] = logs[k - 1] + np.log(big)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals)) + logs + row


def start_truncation(params: ModelParams, photons: float) -> int:
    """Starting truncation for levels of up to `photons` displaced photons.

    window passes the photons of its highest level, level_truncation half
    its level count; the qubit and exchange energies are added here, giving
    m. In the displaced-oscillator picture of the source paper such a level
    is built from displaced Fock states D(alpha)|j>, j <= m, alpha =
    g/omega, and the tail bound of its eigenvector at truncation T is about
    omega sqrt(T + 1) alpha max_j |<T|D(alpha)|j>|. The start is the first
    T past m beyond which that estimate stays below BOUND_TOL/100: the last
    crossing, since the estimate dips through the zeros of the Laguerre
    polynomials before its tail falls for good. A start past
    DEFAULT_TRUNCATION_CAP is returned as soon as it is seen.
    """
    p = params
    m = photons + (abs(p.delta1) + abs(p.delta2) + abs(p.jx) + abs(p.jy) + abs(p.jz)) / p.omega
    j_max = math.floor(max(m, 0.0))
    alpha = p.g / p.omega
    lo = j_max + 1
    # A matrix element of the unitary D is at most 1 in modulus.
    tiny = alpha * math.sqrt(DEFAULT_TRUNCATION_CAP + 2) < BOUND_TOL / 100
    if tiny or lo > DEFAULT_TRUNCATION_CAP:
        return lo
    # About past this photon number every |<T|D|j>|, j <= m, falls as T grows.
    turn = (alpha + math.sqrt(j_max + 1)) ** 2
    target = math.log(BOUND_TOL / 100 / alpha)
    last, first, hi = lo - 1, lo, lo + math.ceil(2 * turn) + 16
    while True:
        n = np.arange(first, min(hi, DEFAULT_TRUNCATION_CAP + 1) + 1)
        est = 0.5 * np.log(n + 1.0) + _log_displaced(alpha, n, j_max).max(axis=0)
        above = n[est >= target]
        if above.size:
            last = int(above[-1])
        if n[-1] > turn and est[-1] < min(target, est[-2]):
            return last + 1
        if n[-1] > DEFAULT_TRUNCATION_CAP:
            return int(n[-1])
        first, hi = int(n[-1]), 2 * hi   # one photon number shared: est[-2] exists


def level_truncation(params: ModelParams, k_levels: int,
                     truncation: Optional[int] = None) -> int:
    """Truncation for the lowest k_levels levels of one or both parities, at
    least k_levels/2 + 10 (a given one below that is a ValueError). None
    starts from start_truncation of k_levels/2 photons, as a parity block
    holds two states per photon number; both parities together reach about
    half as far from the same start.
    """
    floor = math.ceil(k_levels / 2 + 10)
    if truncation is None:
        return max(start_truncation(params, k_levels / 2), floor)
    if truncation < floor:
        raise ValueError("truncation too small for the requested level count")
    return truncation


def certified_spectrum(params: ModelParams, truncation: int, signs: Sequence[int],
                       k: int | None = None, cut: float | None = None,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Lowest k levels of the given parity signs (None for all), each with a
    tail bound below BOUND_TOL (1e-8).

    k and cut select the levels of each parity as in _eig, in one solve per
    parity and truncation. From a start sized by start_truncation the bounds
    read below BOUND_TOL, mostly far below (a one-parity count of 8 levels
    on the sweep templates reached 1.2e-9), so one truncation is solved. The
    truncation grows by 50, as a backstop, while a bound is >= BOUND_TOL or,
    with a cut, while every level of a parity lies at or below the cut: a
    truncated level lies above the true one, so that parity may be
    undercounted. NotConverged is raised before any solve past
    DEFAULT_TRUNCATION_CAP. Returns (energies, parity signs, bounds,
    truncation used).
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    if not signs:
        raise ValueError("no parity given")
    t = truncation
    while t <= DEFAULT_TRUNCATION_CAP:
        evals, got, bounds = _eig(params, t, signs, k, cut)
        counted = cut is None or all(np.any(evals[got == s] > cut) for s in signs)
        if counted and np.all(bounds[:k] < BOUND_TOL):
            return evals[:k], got[:k], bounds[:k], t
        t += _STEP
    raise NotConverged(f"truncation {t} passes the cap {DEFAULT_TRUNCATION_CAP} "
                       f"before every tail bound is below {BOUND_TOL:g}")


def _request(params: ModelParams, truncation: int, parities: Sequence[Parity],
             k: int | None = None, cut: float | None = None) -> SpectrumResult:
    """certified_spectrum's levels of the parities as 'oracle' records."""
    signs = tuple(p.sign for p in _distinct(parities))
    evals, got, bounds, _ = certified_spectrum(params, truncation, signs, k, cut)
    return SpectrumResult.from_records(
        SpectrumRecord(float(e), Parity.PLUS if s > 0 else Parity.MINUS, "oracle", float(b))
        for e, s, b in zip(evals, got, bounds))


def diagonalize(params: ModelParams, truncation: Optional[int], k_levels: int,
                parities: Sequence[Parity] = (Parity.PLUS, Parity.MINUS),
                ) -> SpectrumResult:
    """Lowest k_levels eigenpairs of the given parities, counted together, as
    'oracle' records (residual = tail bound).

    Only the blocks of the given parities are solved, from level_truncation
    (truncation None sizes the start from the model).
    """
    if k_levels < 1:
        raise ValueError("k_levels must be >= 1")
    return _request(params, level_truncation(params, k_levels, truncation), parities,
                    k=k_levels)


def window(params: ModelParams, truncation: Optional[int], e_max: float,
           parities: Sequence[Parity] = (Parity.PLUS, Parity.MINUS),
           ) -> SpectrumResult:
    """Certified 'oracle' records of the given parities up to e_max and beyond.

    Every level at or below the cut e_max + omega/2 and the next four above
    them, per parity, one cut for all, with their tail bounds (residual) from
    certified_spectrum; callers filter to their own window. truncation None
    starts from the model and e_max alone (start_truncation): the highest
    level lies about two photons past the cut plus g**2/omega, since a
    parity block holds two states per photon number. A parity whose levels
    all lie at or below the cut is counted again at a larger truncation.
    e_max must be finite and within the photon cap (ModelParams.require_reach).
    """
    params.require_reach(e_max)
    w = params.omega
    cut = e_max + 0.5 * w
    if truncation is None:
        truncation = start_truncation(params, (cut + params.g ** 2 / w) / w + 2)
    return _request(params, truncation, parities, cut=cut)


def residual(params: ModelParams, truncation: int, state, energy: float | None = None,
             ) -> float:
    """Relative eigen-residual ||H v - E v|| / ||v|| for a vector or finite state."""
    if hasattr(state, "vector"):
        vec = state.vector(truncation)
        if energy is None:
            energy = state.energy
    else:
        vec = np.asarray(state, dtype=float)
        if energy is None:
            raise ValueError("energy is required for a raw vector")
        if vec.shape != (4 * (truncation + 1),):
            raise SupportOverflow(
                f"vector length {vec.size} does not match truncation {truncation}")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("zero state")
    hv = apply_hamiltonian(params, truncation, vec)
    return float(np.linalg.norm(hv - energy * vec) / norm)
