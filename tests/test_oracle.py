import math
import types
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from tqrabi import (
    ModelParams,
    NotConverged,
    Parity,
    SupportOverflow,
    diagonalize,
    residual,
)
from tqrabi import oracle


def test_decoupled_limit_levels_and_parities():
    p = ModelParams(1.0, 0.6, 0.2, 0.0, 0.0)
    res = diagonalize(p, 40, 8)
    got = [(round(r.energy, 10), r.parity.sign) for r in res]
    expected = [(-0.8, 1), (-0.4, -1), (0.2, -1), (0.4, -1),
                (0.6, 1), (0.8, 1), (1.2, 1), (1.4, 1)]
    for (e, s), (ee, ss) in zip(got, expected):
        assert e == pytest.approx(ee, abs=1e-10)
        assert s == ss


def test_dark_levels_exact_at_integer_energy(equal_qubits):
    p = equal_qubits.with_g(1.5)
    evals, pars, _ = oracle._eig(p, 48)
    for n in (0, 1, 2):
        k = int(np.argmin(np.abs(evals - n)))
        assert abs(evals[k] - n) < 5e-13
        assert pars[k] == (-1) ** (n + 1)
        vec = np.zeros(4 * 49)
        vec[4 * n + 2] = 1 / math.sqrt(2)   # |n, g, e>
        vec[4 * n + 1] = -1 / math.sqrt(2)  # |n, e, g>
        assert residual(p, 48, vec, float(n)) < 1e-14


def test_flat_exchange_levels_present(xyz_double):
    p = xyz_double.with_g(2.0)
    evals, pars, _ = oracle._eig(p, 90)
    even = evals[pars == 1]
    assert min(abs(even - (-0.5))) < 1e-11
    assert min(abs(even - 1.5)) < 1e-11


def test_residual_of_flat_state_closed_form(flat):
    # Amplitudes (2(d1-d2)/g, -1, +1)/norm on (|0ee>, |1eg>, |1ge>) solve
    # H psi = psi when d1 + d2 = 1; assembled by hand as an independent check.
    p = flat.with_g(0.7)
    a = 2 * (p.delta1 - p.delta2) / p.g
    vec = np.zeros(4 * 41)
    vec[0] = a
    vec[4 + 1] = -1.0
    vec[4 + 2] = 1.0
    vec /= np.linalg.norm(vec)
    assert residual(p, 40, vec, 1.0) < 1e-13


def test_residual_of_random_vector_is_large(asym):
    rng = np.random.default_rng(7)
    vec = rng.normal(size=4 * 31)
    assert residual(asym, 30, vec, 0.3) > 0.1


def test_parity_blocks_exact(asym):
    # H column by column; the parity (-1)^n s1z s2z on the basis 4n + q.
    t = 25
    h = oracle.apply_hamiltonian(asym.with_g(1.1), t, np.eye(4 * (t + 1)))
    parity = np.kron((-1.0) ** np.arange(t + 1), [1.0, -1.0, -1.0, 1.0])
    assert np.max(np.abs(h[np.ix_(parity > 0, parity < 0)])) == 0.0
    comm = h * parity[None, :] - parity[:, None] * h
    assert np.max(np.abs(comm)) == 0.0


def test_ground_state_monotone_in_truncation(asym):
    p = asym.with_g(1.5)
    e0 = [oracle._eig(p, t)[0][0] for t in (10, 20, 40, 80)]
    assert all(b <= a + 1e-14 for a, b in zip(e0, e0[1:]))


def test_relabeling_invariance():
    a = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jx=0.1, jy=0.2, jz=0.3)
    b = ModelParams(1.0, 0.2, 0.6, 0.06, 0.24, jx=0.1, jy=0.2, jz=0.3)
    ea, _, _ = oracle._eig(a, 60)
    eb, _, _ = oracle._eig(b, 60)
    assert np.max(np.abs(ea - eb)) < 1e-12


def test_diagonalize_preconditions(asym):
    with pytest.raises(ValueError):
        diagonalize(asym, 12, 10)  # truncation below k/2 + 10
    with pytest.raises(ValueError):
        diagonalize(asym, 40, 0)


def test_window_needs_a_finite_cut(asym):
    with pytest.raises(ValueError, match="must be finite"):
        oracle.window(asym, None, math.inf)


def test_window_without_parities_is_a_value_error(asym):
    # The parities are deduplicated as find_roots and trace do, so none is
    # an error of its own, not a failed unpacking inside the solve.
    with pytest.raises(ValueError, match="no parity given"):
        oracle.window(asym, None, 2.5, ())
    assert oracle.window(asym, None, 2.5, (Parity.PLUS,) * 2) == \
        oracle.window(asym, None, 2.5, (Parity.PLUS,))


def test_certified_spectrum_without_signs_is_a_value_error(asym):
    with pytest.raises(ValueError, match="no parity given"):
        oracle.certified_spectrum(asym, 40, ())


def test_negative_truncation_is_a_value_error(asym):
    for solve in (lambda: oracle.window(asym, -1, 2.5),
                  lambda: oracle.certified_spectrum(asym, -1, (1, -1), 3)):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            solve()


def test_not_converged_at_cap(monkeypatch):
    p = ModelParams(1.0, 0.6, 0.2, 2.0, 0.5)
    monkeypatch.setattr(oracle, "DEFAULT_TRUNCATION_CAP", 30)
    with pytest.raises(NotConverged):
        diagonalize(p, 15, 10)


def test_support_overflow():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    with pytest.raises(SupportOverflow):
        residual(p, 10, np.ones(4 * 12), 0.0)


def test_degenerate_cross_parity_levels_classified():
    # At g = 0 with d1 = 0.75, d2 = 0.25 the level E = 0.5 is doubly
    # degenerate with one state in each parity sector.
    p = ModelParams(1.0, 0.75, 0.25, 0.0, 0.0)
    evals, pars, _ = oracle._eig(p, 30)
    hits = np.flatnonzero(np.abs(evals - 0.5) < 1e-12)
    assert len(hits) == 2
    assert sorted(pars[hits]) == [-1, 1]


# Independent assembly for the property tests below: Kronecker products of
# Pauli matrices (qubit basis e, g with s_z e = +e) and a truncated ladder.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.diag([1.0, -1.0])
_SYSY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], float)


def _kronecker_hamiltonian(p, truncation):
    """Dense H and its parity diagonal on the basis q * (truncation + 1) + n."""
    npts = truncation + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, npts)), 1)
    sx1, sx2 = np.kron(_SX, np.eye(2)), np.kron(np.eye(2), _SX)
    sz1, sz2 = np.kron(_SZ, np.eye(2)), np.kron(np.eye(2), _SZ)
    qubits = (p.delta1 * sz1 + p.delta2 * sz2 + p.jx * sx1 @ sx2
              + p.jy * _SYSY + p.jz * sz1 @ sz2)
    h = (p.omega * np.kron(np.eye(4), np.diag(np.arange(float(npts))))
         + np.kron(p.g1 * sx1 + p.g2 * sx2, ladder + ladder.T)
         + np.kron(qubits, np.eye(npts)))
    parity = np.kron(np.diag(sz1 @ sz2), (-1.0) ** np.arange(npts))
    return h, parity


def _independent_levels(p, truncation):
    """Eigenvalues of the two exact parity blocks, keyed by parity sign."""
    h, parity = _kronecker_hamiltonian(p, truncation)
    out = {}
    for sign in (1, -1):
        idx = np.flatnonzero(parity == sign)
        assert np.max(np.abs(h[np.ix_(idx, np.flatnonzero(parity != sign))])) == 0
        out[sign] = np.linalg.eigvalsh(h[np.ix_(idx, idx)])
    return out


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 0.6, 0.2, 0.9, 0.4, jx=0.1, jy=0.2, jz=0.3),  # XYZ
    ModelParams(0.5, 0.35, 0.15, 0.45, 0.2, jx=0.05, jz=-0.1),     # omega != 1
], ids=["xyz", "omega-half"])
def test_apply_hamiltonian_matches_kronecker_matrix(p):
    # The Kronecker H commutes exactly with the parity, and H applied one
    # parity band at a time equals it entry by entry: Kronecker index
    # q (t + 1) + n is basis state 4n + q.
    t = 25
    h, parity = _kronecker_hamiltonian(p, t)
    assert np.max(np.abs(h * parity[None, :] - parity[:, None] * h)) == 0.0
    moved = (4 * np.arange(t + 1) + np.arange(4)[:, None]).ravel()
    got = oracle.apply_hamiltonian(p, t, np.eye(4 * (t + 1)))[np.ix_(moved, moved)]
    assert np.max(np.abs(got - h)) <= 1e-14 * np.max(np.abs(h))


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),                        # full8
    ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0),              # reduced6
    ModelParams(1.0, 0.7, 0.3, 0.4, 0.4),                          # reduced4
    ModelParams(1.0, 0.6, 0.2, 0.9, 0.4, jx=0.1, jy=0.2, jz=0.3),  # XYZ
    ModelParams(1.0, 0.2, 0.6, 0.4, 0.9, jx=0.1, jy=0.2, jz=0.3),  # swapped
    ModelParams(0.5, 0.35, 0.15, 0.45, 0.2, jx=0.05, jz=-0.1),     # omega != 1
    ModelParams(1.0, 0.75, 0.25, 0.0, 0.0),                        # degenerate
], ids=["full8", "reduced6", "reduced4", "xyz", "xyz-swapped", "omega-half",
        "decoupled"])
def test_levels_and_parities_match_independent_blocks(p):
    tol = 1e-12 * p.omega
    full, full_signs, _ = oracle._eig(p, 30)
    ref = _independent_levels(p, 30)
    for s in (1, -1):
        assert np.max(np.abs(full[full_signs == s] - ref[s])) < tol

    evals, signs, _, used = oracle.certified_spectrum(p, 40, (1, -1), 12)
    ref = _independent_levels(p, used)
    merged = sorted((e, s) for s in (1, -1) for e in ref[s])[:12]
    assert np.max(np.abs(evals - [e for e, _ in merged])) < tol
    for s in (1, -1):
        mine = evals[signs == s]
        assert np.max(np.abs(mine - ref[s][:mine.size]), initial=0.0) < tol

    e_max = 1.5 * p.omega
    records = oracle.window(p, 40, e_max)
    got = np.array(records.energies())
    got_signs = np.array([r.parity.sign for r in records])
    cut = e_max + 0.5 * p.omega
    for s in (1, -1):
        want = ref[s][ref[s] <= cut - 1e-9 * p.omega]
        mine = got[got_signs == s]
        assert mine.size >= want.size
        assert np.max(np.abs(mine[:want.size] - want), initial=0.0) < 1e-8 * p.omega
    assert got.size >= sum(np.sum(ref[s] <= cut) for s in (1, -1)) + 4


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),                        # asym
    ModelParams(1.0, 0.6, 0.2, 0.9, 0.4, jx=0.1, jy=0.2, jz=0.3),  # XYZ
    ModelParams(0.5, 0.35, 0.15, 0.45, 0.2, jx=0.05, jz=-0.1),     # omega != 1
], ids=["asym", "xyz", "omega-half"])
def test_tail_bound_is_the_residual_of_the_padded_eigenvector(p):
    # A block eigenvector zero-padded into the full basis one photon further
    # has, as its residual there, the bound reported with its level. At so
    # small a truncation the bounds lie far above the rounding of H v - E v.
    t = 8
    for s in (1, -1):
        evals, vecs = oracle._solve(oracle._band(p, t, s))
        got, _, bounds = oracle._eig(p, t, (s,))
        assert np.array_equal(got, evals)
        assert np.min(bounds) > 1e-8
        for e, v, bound in zip(evals, vecs.T, bounds):
            padded = np.zeros(4 * (t + 2))
            padded[oracle._block_states(t, s)] = v
            assert residual(p, t + 1, padded, e) == pytest.approx(bound, rel=1e-12)


def test_one_solve_per_parity(monkeypatch):
    # The levels and their bounds come from one solve per parity: the window
    # on the spectrum anchors and eight levels at a sweep point need no
    # second truncation.
    calls = []
    eig_banded = oracle._eig_banded
    monkeypatch.setattr(oracle, "_eig_banded",
                        lambda *a, **k: calls.append(1) or eig_banded(*a, **k))
    for p in (ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
              ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0),
              ModelParams(1.0, 0.7, 0.3, 0.4, 0.4)):
        calls.clear()
        assert all(r.residual < 1e-8 for r in oracle.window(p, None, 2.5))
        assert len(calls) == 2
    calls.clear()
    assert all(r.residual < 1e-8
               for r in diagonalize(ModelParams(1.0, 0.6, 0.4, 0.65, 0.65), None, 8))
    assert len(calls) == 2


def test_window_recounts_at_the_certified_truncation():
    # At truncation 100 every level counted up to the cut of e_max = 2.5
    # lies at or below E = 1.0, since a truncated level lies above the true
    # one; counted again at the certified truncation, the window holds the
    # levels that truncation 300 gives.
    p = ModelParams(1.0, 0.6, 0.4, 3.0, 3.0)
    small, ref = (oracle.window(p, t, 2.5) for t in (100, 300))
    total = 0
    for parity in (Parity.PLUS, Parity.MINUS):
        a, b = (np.array([e for e in r.filtered(parity).energies() if e <= 2.5])
                for r in (small, ref))
        assert a.size == b.size
        assert np.max(np.abs(a - b)) < 1e-8
        total += a.size
    assert total == 84


def test_records_sorted_with_drift(asym):
    res = diagonalize(asym, 120, 6)
    energies = res.energies()
    assert energies == sorted(energies)
    assert all(r.method == "oracle" and r.residual < 1e-8 for r in res)


def _same_levels(a, b, omega):
    # Same count per parity and energies within 1e-8 omega.
    for parity in (Parity.PLUS, Parity.MINUS):
        ea, eb = (np.array(r.filtered(parity).energies()) for r in (a, b))
        assert ea.size == eb.size
        assert np.max(np.abs(ea - eb), initial=0.0) < 1e-8 * omega


SWEEP_TEMPLATES = {
    "unit-sum": ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
    "xyz": ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, 0.5, 0.5, 0.5),
    "dark-half": ModelParams(0.5, 0.25, 0.25, 0.3, 0.3),
}
SWEEP_G = np.linspace(0.05, 2.5, 16)
WINDOW_MODELS = {
    "full8": ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
    "reduced6": ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0),
    "reduced4": ModelParams(1.0, 0.7, 0.3, 0.4, 0.4),
    "flat-g6": ModelParams(1.0, 0.6, 0.4, 3.0, 3.0),
    "asym-g5": ModelParams(1.0, 0.6, 0.2, 4.0, 1.0),
}


@pytest.mark.parametrize("template", SWEEP_TEMPLATES.values(), ids=SWEEP_TEMPLATES.keys())
def test_diagonalize_start_sized_from_the_model(template):
    # The start depends on the model and k_levels alone; at every point of
    # the sweep grid it certifies the levels that truncation 300 gives.
    for g in SWEEP_G:
        p = template.with_g(g)
        _same_levels(diagonalize(p, None, 8), diagonalize(p, 300, 8), p.omega)


@pytest.mark.parametrize("template", [ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
                                      ModelParams(1.0, 0.6, 0.2, 0.8, 0.2)],
                         ids=["flat", "asym"])
def test_diagonalize_counts_the_given_parities(template):
    # A one-parity request counts that parity's lowest levels alone: cell
    # for cell the lowest levels of window on the same model, within the
    # tail bounds and the eigensolver's rounding.
    p = template.with_g(1.5)
    for parity in (Parity.PLUS, Parity.MINUS):
        got = diagonalize(p, None, 8, (parity,)).records
        want = oracle.window(p, None, 3.0, (parity,)).records[:8]
        assert len(got) == len(want) == 8
        for a, b in zip(got, want):
            assert a.parity is b.parity is parity
            assert abs(a.energy - b.energy) <= a.residual + b.residual + 1e-12


# Sweep templates for one-parity count requests, the last two with g' > 0.
COUNT_TEMPLATES = {
    "flat": ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
    "xyz": ModelParams(1.0, 0.55, 0.45, 0.375, 0.375, 0.5, 0.5, 0.5),
    "dark-half": ModelParams(0.5, 0.25, 0.25, 0.3, 0.3),
    "asym": ModelParams(1.0, 0.6, 0.2, 0.8, 0.2),
    "asym-xyz": ModelParams(1.0, 0.6, 0.2, 0.8, 0.2, 0.1, 0.2, -0.1),
}


@pytest.mark.parametrize("template", COUNT_TEMPLATES.values(), ids=COUNT_TEMPLATES.keys())
def test_one_parity_count_certifies_at_its_start(template, monkeypatch):
    # level_truncation sizes k levels of one parity, which reach about k/2
    # photons, so a one-parity request certifies its start: one solve.
    certified, used = oracle.certified_spectrum, []

    def recorded(*args):
        out = certified(*args)
        used.append(out[3])
        return out

    monkeypatch.setattr(oracle, "certified_spectrum", recorded)
    for g in SWEEP_G:
        p = template.with_g(g)
        for parity in (Parity.PLUS, Parity.MINUS):
            used.clear()
            diagonalize(p, None, 8, (parity,))
            assert used == [oracle.level_truncation(p, 8)]


@pytest.mark.parametrize("p", WINDOW_MODELS.values(), ids=WINDOW_MODELS.keys())
def test_window_start_sized_from_the_model(p):
    _same_levels(oracle.window(p, None, 2.5), oracle.window(p, 300, 2.5), p.omega)


def _margin_start(p, photons):
    # The start rule the displaced-Fock estimate replaced: r = sqrt(m) + g/omega
    # photons of reach, with m as start_truncation counts it, and
    # T = ceil(r**2 + 6r + 10).
    m = photons + (abs(p.delta1) + abs(p.delta2) + abs(p.jx) + abs(p.jy) + abs(p.jz)) / p.omega
    r = math.sqrt(m) + p.g / p.omega
    return math.ceil(r * r + 6 * r + 10)


def test_starts_from_the_displaced_tail_solve_once_below_the_margin_rule(monkeypatch):
    # On the sweep grids and the window models each start certifies every
    # level in one LAPACK call per parity, and none lies above the old
    # margin rule's; on the sweep grids they sum to at least 25 % below it.
    # The margin rule sized diagonalize from k_levels photons and window
    # from the cut plus g**2/omega.
    calls, starts = [], []
    eig_banded, eig = oracle._eig_banded, oracle._eig
    monkeypatch.setattr(oracle, "_eig_banded",
                        lambda *a, **k: calls.append(1) or eig_banded(*a, **k))
    monkeypatch.setattr(oracle, "_eig", lambda p, t, *a: starts.append(t) or eig(p, t, *a))
    total = margin_total = 0
    for template in SWEEP_TEMPLATES.values():
        for g in SWEEP_G:
            p = template.with_g(g)
            calls.clear(), starts.clear()
            assert all(r.residual < oracle.BOUND_TOL for r in diagonalize(p, None, 8))
            assert len(calls) == 2 and len(set(starts)) == 1
            assert starts[0] <= _margin_start(p, 8)
            total, margin_total = total + starts[0], margin_total + _margin_start(p, 8)
    assert total <= 0.75 * margin_total
    for p in WINDOW_MODELS.values():
        calls.clear(), starts.clear()
        assert all(r.residual < oracle.BOUND_TOL for r in oracle.window(p, None, 2.5))
        assert len(calls) == 2 and len(set(starts)) == 1
        cut = 2.5 + 0.5 * p.omega
        assert starts[0] <= _margin_start(p, (cut + p.g ** 2 / p.omega) / p.omega)


def _exact_log_displaced(alpha, n, j):
    # log |<n|D(alpha)|j>| for rational alpha from the closed form
    # sqrt(j!/n!) alpha**(n-j) exp(-alpha**2/2) L_j^(n-j)(alpha**2), n >= j,
    # with the Laguerre sum taken in integers; also the sign of L.
    num, den = alpha.numerator, alpha.denominator
    lag = sum((-1) ** i * math.comb(n, j - i) * num ** (2 * i) * den ** (2 * (j - i))
              * (math.factorial(j) // math.factorial(i)) for i in range(j + 1))
    if lag == 0:
        return -math.inf, 0
    a = float(alpha)
    value = (0.5 * (math.lgamma(j + 1) - math.lgamma(n + 1)) + (n - j) * math.log(a)
             - 0.5 * a * a + math.log(abs(lag)) - 2 * j * math.log(den)
             - math.lgamma(j + 1))
    return value, (lag > 0) - (lag < 0)


@pytest.mark.parametrize("alpha", ["1/10", "1", "3", "6", "12"])
def test_displaced_fock_elements_match_exact_sums(alpha):
    # Every |<n|D(alpha)|j>|, n <= 400, j <= 20, above 1e-200 matches the
    # closed form summed exactly to 1e-10 relative, also beside the zeros of
    # the Laguerre polynomials (where L changes sign between n and n + 1);
    # elements with n < j come from |<n|D|j>| = |<j|D|n>|. A dense
    # exp(alpha (a^dagger - a)) on 401 photons agrees to 1e-12 absolute
    # on photons its own truncation leaves exact.
    exact_alpha = Fraction(alpha)
    a = float(exact_alpha)
    table = oracle._log_displaced(a, np.arange(401), 20)
    got = np.array([[table[min(m, j), max(m, j)] for j in range(21)] for m in range(401)])
    beside_zero = 0
    for j in range(21):
        signs = []
        for m in range(401):
            want, sign = _exact_log_displaced(exact_alpha, max(m, j), min(m, j))
            signs.append(sign)
            if want > math.log(1e-200):
                assert abs(math.expm1(got[m, j] - want)) < 1e-10, (m, j)
        beside_zero += sum(s * t < 0 for s, t in zip(signs[j:], signs[j + 1:]))
    assert beside_zero > 0 or a < 1
    ladder = np.diag(np.sqrt(np.arange(1.0, 401)), 1)
    dense = np.abs(scipy.linalg.expm(a * (ladder.T - ladder)))[:300, :21]
    assert np.max(np.abs(np.exp(got[:300]) - dense)) < 1e-12


def test_auto_start_meets_the_level_count_precondition():
    # truncation >= k/2 + 10 holds for the start sized from k_levels, even
    # without couplings or qubit terms, where the tail estimate is 0.
    p = ModelParams(1.0, 0.0, 0.0, 0.0, 0.0)
    for k in (1, 8, 40, 200):
        assert oracle.level_truncation(p, k) >= k / 2 + 10
        assert len(diagonalize(p, None, k)) == k


def test_start_past_the_cap_raises_before_any_solve(monkeypatch):
    # At g = 30 the start sized from the model lies past the cap of 1,200
    # photons; at g = 2.5 it lies at 55 (diagonalize, 8 levels) and 70
    # (window to 2.5), past a cap lowered to 50. Neither solves anything.
    monkeypatch.setattr(oracle, "_eig_banded", lambda *a, **k: pytest.fail("solved"))
    for g, cap in ((30.0, oracle.DEFAULT_TRUNCATION_CAP), (2.5, 50)):
        monkeypatch.setattr(oracle, "DEFAULT_TRUNCATION_CAP", cap)
        p = ModelParams(1.0, 0.6, 0.2, 0.5 * g, 0.5 * g)
        with pytest.raises(NotConverged):
            oracle.window(p, None, 2.5)
        with pytest.raises(NotConverged):
            diagonalize(p, None, 8)


def test_cut_solve_widens_to_four_levels_past_the_cut(asym):
    # One value-selected solve returns the levels at or below the cut and
    # the four above it; a reach too short for them doubles until it holds
    # them, and a block with fewer levels is returned whole.
    band = oracle._band(asym.with_g(1.2), 60, 1)
    every, _ = oracle._solve(band)
    for cut in (-5.0, 0.3, 2.5):
        want = every[:np.count_nonzero(every <= cut) + 4]
        for width in (4.0, 1e-3):
            got, _ = oracle._solve(band, cut=cut, width=width)
            assert got.size == want.size
            assert np.max(np.abs(got - want)) < 1e-12
    small = oracle._band(asym, 1, -1)
    assert oracle._solve(small, cut=0.0, width=1e-3)[0].size == 4
    assert oracle._solve(small, cut=1e3)[0].size == 4


# The three spectrum anchors (full8, reduced6, and reduced4 with g' = 0), the
# permutation-symmetric g' = 0 model with its dark levels, and an anisotropic
# exchange model.
REFERENCE_MODELS = {
    **{name: WINDOW_MODELS[name] for name in ("full8", "reduced6", "reduced4")},
    "dark": ModelParams(1.0, 0.5, 0.5, 0.75, 0.75),
    "xyz": ModelParams(1.0, 0.1, 0.7, 0.75, 0.75, jx=0.7, jy=0.1, jz=0.3),
}


@pytest.mark.parametrize("p", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
def test_band_solves_are_scipy_eig_banded_bit_for_bit(monkeypatch, p):
    # Every LAPACK call of the oracle returns the bytes scipy.linalg.eig_banded
    # returns for the same band and selection: the lowest 8 levels, the
    # window's cut, a cut whose reach doubles, and every level, on both
    # parities.
    calls = []
    direct = oracle._eig_banded

    def compared(band, select="a", select_range=(0, 0)):
        w, v = direct(band, select, select_range)
        kw = {} if select == "a" else {"select": select, "select_range": select_range}
        ref_w, ref_v = scipy.linalg.eig_banded(band, **kw)
        assert w.dtype == ref_w.dtype and v.dtype == ref_v.dtype
        assert w.shape == ref_w.shape and v.shape == ref_v.shape
        assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
        calls.append(select)
        return w, v

    monkeypatch.setattr(oracle, "_eig_banded", compared)
    assert len(diagonalize(p, None, 8)) == 8
    assert len(oracle.window(p, None, 2.5)) > 8
    assert calls.count("i") == 2 and calls.count("v") >= 2
    for s in (1, -1):
        band = oracle._band(p, 40, s)
        calls.clear()
        assert oracle._solve(band, cut=2.5, width=1e-3)[0].size > 4
        assert calls.count("v") > 1
        assert oracle._solve(band)[0].size == band.shape[1]
        assert calls[-1] == "a"


def test_band_solver_is_scipys_lapack_wrapper(monkeypatch):
    # The module loaded in place of scipy.linalg is the one scipy.linalg.lapack
    # re-exports: the f2py signatures match. A nonzero LAPACK info is a
    # typed solver error, and a band with a NaN or inf is a ValueError.
    lapack = oracle._lapack()
    for name in ("dsbevx", "dsbevd", "dlamch"):
        assert getattr(lapack, name).__doc__ == getattr(scipy.linalg.lapack, name).__doc__
    band = oracle._band(REFERENCE_MODELS["full8"], 10, 1)
    for bad in (math.nan, math.inf):
        broken = band.copy()
        broken[3, 5] = bad
        for select, select_range in (("a", (0, 0)), ("i", (0, 7)), ("v", (-5.0, 2.5))):
            with pytest.raises(ValueError):
                oracle._eig_banded(broken, select, select_range)
    n = band.shape[1]
    fake = types.SimpleNamespace(
        dlamch=lapack.dlamch,
        dsbevd=lambda ab, **kw: (np.zeros(n), np.eye(n), 1),
        dsbevx=lambda ab, *a, **kw: (np.zeros(n), np.eye(n), n, np.zeros(n, int), 1))
    monkeypatch.setattr(oracle, "_lapack", lambda: fake)
    for select, select_range in (("a", (0, 0)), ("i", (0, 7)), ("v", (-5.0, 2.5))):
        with pytest.raises(NotConverged):
            oracle._eig_banded(band, select, select_range)
