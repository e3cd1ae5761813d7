"""Independent reference spectrum for the benchmark's output checks.

Nothing here imports tqrabi. The Hamiltonian

    H = omega a'a + (g1 s1x + g2 s2x)(a + a') + d1 s1z + d2 s2z
        + jx s1x s2x + jy s1y s2y + jz s1z s2z

is assembled from Kronecker products of Pauli matrices and a truncated
photon ladder, split into the two exact blocks of the parity
P = (-1)^(a'a) s1z s2z, and diagonalised densely. A level counts as
converged when two truncations agree on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Single-qubit basis (e, g) with s_z e = +e; two-qubit order ee, eg, ge, gg.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_I2 = np.eye(2)

CONVERGENCE_TOL = 1e-11
_START_TRUNCATION = 40
_MAX_TRUNCATION = 1600


@dataclass(frozen=True)
class Model:
    """Model couplings; the field order matches a tqrabi parameter file."""

    omega: float
    delta1: float
    delta2: float
    g1: float
    g2: float
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0

    def config_text(self) -> str:
        return "".join(f"{k} = {getattr(self, k)!r}\n"
                       for k in ("omega", "delta1", "delta2", "g1", "g2",
                                 "jx", "jy", "jz"))

    def with_g(self, g_total: float) -> "Model":
        f = g_total / (self.g1 + self.g2)
        return Model(self.omega, self.delta1, self.delta2, self.g1 * f,
                     self.g2 * f, self.jx, self.jy, self.jz)


def parity_blocks(m: Model, truncation: int) -> dict[int, np.ndarray]:
    """The two parity blocks of H on photon numbers 0..truncation, keyed +1/-1."""
    npts = truncation + 1
    a = np.diag(np.sqrt(np.arange(1.0, npts)), 1)
    x = a + a.T
    num = np.diag(np.arange(float(npts)))
    sx1, sx2 = np.kron(_SX, _I2), np.kron(_I2, _SX)
    sz1, sz2 = np.kron(_SZ, _I2), np.kron(_I2, _SZ)
    yy = np.kron(_SY, _SY).real  # s1y s2y is real: i * i = -1
    qubit = (m.delta1 * sz1 + m.delta2 * sz2 + m.jx * sx1 @ sx2 + m.jy * yy
             + m.jz * sz1 @ sz2)
    h = (m.omega * np.kron(np.eye(4), num)
         + np.kron(m.g1 * sx1 + m.g2 * sx2, x)
         + np.kron(qubit, np.eye(npts)))
    photon_sign = np.where(np.arange(npts) % 2 == 0, 1.0, -1.0)
    pdiag = np.kron(np.diag(sz1 @ sz2), photon_sign)
    out = {}
    for sign in (1, -1):
        idx = np.flatnonzero(pdiag == sign)
        out[sign] = h[np.ix_(idx, idx)]
    return out


def _start_truncation(m: Model, e_max: float) -> int:
    # A level at energy E in a displaced oscillator spreads over photon
    # numbers up to about (E - E_ground)/omega + (g/omega)^2 plus its width.
    g = (m.g1 + m.g2) / m.omega
    span = (e_max + abs(m.delta1) + abs(m.delta2) + abs(m.jx) + abs(m.jy)
            + abs(m.jz)) / m.omega + g * g
    return max(_START_TRUNCATION, int(2 * span + 8 * g + 30))


def levels(m: Model, e_max: float, tol: float = CONVERGENCE_TOL,
           ) -> dict[int, np.ndarray]:
    """Converged eigenvalues below e_max for each parity, as {+1: ..., -1: ...}.

    Two truncations T and T + max(20, T/4) must agree within tol on every
    level up to e_max; otherwise T grows by half and the test repeats.
    """
    t = _start_truncation(m, e_max)
    cut = e_max + 1e-6
    while True:
        t_hi = t + max(20, t // 4)
        low, high = ({s: np.linalg.eigvalsh(b)
                      for s, b in parity_blocks(m, n).items()} for n in (t, t_hi))
        worst = 0.0
        for s in (1, -1):
            k = int(np.searchsorted(high[s], cut))
            worst = max(worst, float(np.max(np.abs(high[s][:k] - low[s][:k]),
                                            initial=0.0)))
        if worst < tol:
            return {s: high[s][high[s] <= e_max + 1e-9] for s in (1, -1)}
        if t_hi > _MAX_TRUNCATION:
            raise RuntimeError(f"reference not converged: drift {worst:.3e} "
                               f"at truncation {t_hi}")
        t = int(t_hi * 1.5)


def baselines(m: Model, e_min: float, e_max: float) -> list[float]:
    """Energies where a slaving divisor of the series solution vanishes.

    First kind n*omega - g^2/omega + jx; second kind n*omega - g'^2/omega - jx
    for g' = g1 - g2 != 0, and n*omega - jx +/- (jy + jz) for g' = 0.
    """
    w = m.omega
    g, gp = m.g1 + m.g2, m.g1 - m.g2
    offsets = [-g * g / w + m.jx]
    if gp != 0.0:
        offsets.append(-gp * gp / w - m.jx)
    else:
        offsets.extend({-m.jx + m.jy + m.jz, -m.jx - m.jy - m.jz})
    out = []
    for off in offsets:
        n0 = max(0, math.ceil((e_min - off) / w - 1e-9))
        n1 = math.floor((e_max - off) / w + 1e-9)
        out.extend(n * w + off for n in range(n0, n1 + 1))
    return sorted(out)


def dark_state_energies(m: Model, e_min: float, e_max: float,
                        ) -> list[tuple[float, int]]:
    """Analytic dark states (n*omega, parity -(-1)^n) for d1 = d2, g1 = g2, no exchange.

    The antisymmetric qubit pair (eg - ge)/sqrt(2) is annihilated by the
    collective coupling and by d (s1z + s2z), so each photon number n
    carries an eigenstate at n*omega whatever the coupling.
    """
    if not (m.delta1 == m.delta2 and m.g1 == m.g2
            and m.jx == m.jy == m.jz == 0.0):
        return []
    n0 = max(0, math.ceil(e_min / m.omega - 1e-9))
    n1 = math.floor(e_max / m.omega + 1e-9)
    return [(n * m.omega, -(-1) ** n) for n in range(n0, n1 + 1)]
