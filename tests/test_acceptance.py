"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `pytest` alone runs the same checks silently.
"""

import math
import time

import numpy as np

from tqrabi import (
    MatchingScheme,
    ModelParams,
    Parity,
    build_hamiltonian,
    build_state,
    condition,
    find_roots,
    recur,
)
from tqrabi import gfunction, oracle


def _finish(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _ed(params, truncation):
    return oracle._eig(params, truncation)[:2]


def test_criterion_1_asymmetric_reference_roots_match_ed():
    # d1=0.6, d2=0.2, g=0.3, g'=0.18: every determinant zero in [-1, 2.5]
    # matches a same-parity ED level (truncation 300) within 1e-6 and the
    # per-parity counts agree; wall time below 30 s.
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    t0 = time.perf_counter()
    results = {par: find_roots(p, (par,), -1.0, 2.5,
                               levels=oracle.window(p, 300, 2.5, (par,)))
               for par in (Parity.PLUS, Parity.MINUS)}
    elapsed = time.perf_counter() - t0
    evals, pars = _ed(p, 300)
    ok = elapsed < 30.0
    detail = [f"runtime {elapsed:.1f}s"]
    for par, res in results.items():
        ed = np.array([e for e, s in zip(evals, pars)
                       if s == par.sign and -1.0 <= e <= 2.5])
        roots = np.array(res.energies())
        worst = (np.max(np.abs(roots - ed))
                 if roots.size == ed.size else math.inf)
        ok &= roots.size == ed.size and worst < 1e-6
        detail.append(f"{par}: {roots.size}/{ed.size} roots, worst {worst:.2e}")
    _finish(1, ok, "; ".join(detail))


def test_criterion_2_decoupled_limit():
    # g = 1e-6 (ratio 4:1): six lowest roots reach the bare-qubit levels
    # {+-d1 +- d2, 1 - d1 - d2, 1 - d1 + d2} within 1e-5.
    p = ModelParams(1.0, 0.6, 0.2, 0.8e-6, 0.2e-6)
    roots = []
    for par in (Parity.PLUS, Parity.MINUS):
        roots += find_roots(p, (par,), -0.95, 0.95).energies()
    roots = sorted(roots)[:6]
    expected = [-0.8, -0.4, 0.2, 0.4, 0.6, 0.8]
    worst = max(abs(a - b) for a, b in zip(roots, expected))
    _finish(2, len(roots) == 6 and worst < 1e-5,
            f"six lowest {np.round(roots, 6)}, worst dev {worst:.2e}")


def test_criterion_3_permutation_symmetric_flat_lines():
    # d1 = d2 = 0.5, g1 = g2: E = 0, 1, 2 present in ED and as cutoff states
    # (residual < 1e-12) at 25 couplings across (0, 2.5].
    worst_ed, worst_res = 0.0, 0.0
    for g in np.linspace(0.1, 2.5, 25):
        p = ModelParams(1.0, 0.5, 0.5, g / 2, g / 2)
        evals, pars = _ed(p, 64)
        for n in (0, 1, 2):
            parity = Parity.PLUS if n % 2 else Parity.MINUS
            sector = evals[pars == parity.sign]
            worst_ed = max(worst_ed, float(np.min(np.abs(sector - n))))
            state = build_state(p, parity, n)
            worst_res = max(worst_res, oracle.residual(p, 64, state))
    _finish(3, worst_ed < 1e-12 and worst_res < 1e-12,
            f"worst ED offset {worst_ed:.2e}, worst state residual "
            f"{worst_res:.2e} over 25 couplings")


def test_criterion_4_flat_line_for_unit_splitting_sum():
    # d1 = 0.6, d2 = 0.4 (sum 1), g1 = g2: even-parity E = 1 present at every
    # sweep point; the one-photon closed-form state has residual < 1e-12 at
    # g in {0.2, 1.0, 2.4}.
    base = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
    worst_ed = 0.0
    for g in np.linspace(0.1, 2.5, 25):
        evals, pars = _ed(base.with_g(g), 64)
        even = evals[pars == 1]
        worst_ed = max(worst_ed, float(np.min(np.abs(even - 1.0))))
    worst_res = max(oracle.residual(base.with_g(g), 40,
                                    build_state(base.with_g(g), Parity.PLUS, 1))
                    for g in (0.2, 1.0, 2.4))
    _finish(4, worst_ed < 1e-12 and worst_res < 1e-12,
            f"worst even-sector offset from E=1: {worst_ed:.2e}, "
            f"worst state residual {worst_res:.2e}")


def test_criterion_5_fine_tuned_two_photon_state():
    # d1 = 0.6, d2 = 0.4: the two-photon cutoff exists at g^2 = 1.44 only.
    p = ModelParams(1.0, 0.6, 0.4, 0.6, 0.6)  # g = 1.2
    evals, _, _, _ = oracle.certified_spectrum(p, 120, (1, -1), 16)
    ed_offset = float(np.min(np.abs(evals - 2.0)))
    state = build_state(p, Parity.PLUS, 2)
    resid = oracle.residual(p, 60, state)
    perturbed = p.with_g(1.25)
    evals2, _, _, _ = oracle.certified_spectrum(perturbed, 120, (1, -1), 16)
    gap = float(np.min(np.abs(evals2 - 2.0)))
    _finish(5, ed_offset < 1e-8 and resid < 1e-10 and gap > 1e-3,
            f"|E-2| = {ed_offset:.2e} at g=1.2, state residual {resid:.2e}, "
            f"nearest level {gap:.2e} away at g=1.25")


def test_criterion_6_exchange_odd_flat_line():
    # d1=0.1, d2=0.7, J = (0.7, 0.1, 0.3): odd cutoff condition vanishes and
    # ED keeps an odd level at E = 1 - jx + jy + jz = 0.7 for all couplings.
    base = ModelParams(1.0, 0.1, 0.7, 0.5, 0.5, jx=0.7, jy=0.1, jz=0.3)
    worst_cond, worst_ed = 0.0, 0.0
    for g in (0.5, 1.5, 2.5):
        p = base.with_g(g)
        worst_cond = max(worst_cond, abs(condition(p, Parity.MINUS, 1)))
        evals, pars = _ed(p, 100)
        odd = evals[pars == -1]
        worst_ed = max(worst_ed, float(np.min(np.abs(odd - 0.7))))
    _finish(6, worst_cond < 1e-12 and worst_ed < 1e-10,
            f"|condition| <= {worst_cond:.2e}, worst odd-sector offset "
            f"from 0.7: {worst_ed:.2e}")


def test_criterion_7_double_flat_lines_with_isotropic_exchange():
    # J = (0.5, 0.5, 0.5), d1+d2 = 1 (so jx + jy + 2 jz = 2): even flat levels
    # at -0.5 and 1.5, and the three-photon state matches its closed form.
    base = ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, jx=0.5, jy=0.5, jz=0.5)
    worst_ed = 0.0
    for g in (0.5, 1.5, 2.5):
        evals, pars = _ed(base.with_g(g), 100)
        even = evals[pars == 1]
        for target in (-0.5, 1.5):
            worst_ed = max(worst_ed, float(np.min(np.abs(even - target))))
    # Independent closed-form amplitudes at g = 1.5 (beta = jy + jz = 1).
    g = 1.5
    p = base.with_g(g)
    raw = {(0, "ee"): 2.0,
           (2, "gg"): -math.sqrt(2.0),
           (3, "ge"): -math.sqrt(6.0) * g / (2 * 0.2),
           (3, "eg"): math.sqrt(6.0) * g / (2 * 0.2)}
    norm = math.sqrt(sum(a * a for a in raw.values()))
    built = {(n, pair): a for n, pair, a in build_state(p, Parity.PLUS, 3).coeffs}
    anchor = built[(3, "ge")] * raw[(3, "ge")]
    sign = 1.0 if anchor > 0 else -1.0
    worst_amp = max(abs(sign * built.get(k, 0.0) - raw.get(k, 0.0) / norm)
                    for k in set(built) | set(raw))
    _finish(7, worst_ed < 1e-10 and worst_amp < 1e-12,
            f"worst flat-level offset {worst_ed:.2e}, worst amplitude "
            f"deviation from closed form {worst_amp:.2e}")


def test_criterion_8a_parity_blocks_exact():
    fh = build_hamiltonian(ModelParams(1.0, 0.6, 0.2, 0.9, 0.4, jx=0.1,
                                       jy=0.2, jz=0.3), 40)
    plus = np.flatnonzero(fh.parity_diag > 0)
    minus = np.flatnonzero(fh.parity_diag < 0)
    off = float(np.max(np.abs(fh.matrix[np.ix_(plus, minus)])))
    _finish(8, off == 0.0, f"(a) parity off-blocks max |entry| = {off}")


def test_criterion_8b_coefficient_reflection_symmetry():
    p = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
    blk = recur(p, Parity.PLUS, 0.43, 0.0, (1.0, 0.0, 0.0, 0.0), 64)
    signs = np.where(np.arange(65) % 2 == 0, 1.0, -1.0)
    dev = float(np.max(np.abs(blk.coeffs[:, 2] - signs * blk.coeffs[:, 0])))
    _finish(8, dev == 0.0, f"(b) reflection symmetry deviation = {dev}")


def test_criterion_8c_roots_invariant_under_matching_points(monkeypatch):
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    ra = np.array(find_roots(p, (Parity.MINUS,), -1.0, 1.0).energies())
    monkeypatch.setattr(gfunction, "default_scheme", lambda sp: MatchingScheme(0.21, 0.08))
    rb = np.array(find_roots(p, (Parity.MINUS,), -1.0, 1.0).energies())
    worst = float(np.max(np.abs(ra - rb))) if ra.size == rb.size else math.inf
    _finish(8, ra.size == rb.size and worst < 1e-9,
            f"(c) root drift across matching points {worst:.2e}")


def test_criterion_8d_first_six_levels_on_coupling_grid():
    # d1 = 0.6, d2 = 0.2 with ratios 4:1, 2:1, 3:1 (and 4:1 with jx = 0.2),
    # g in {0.4, 1.0, 1.8}: first six levels from find_roots match ED to 1e-6.
    # With g' != 0 there are no cutoff states, so no level is skipped, not
    # even one next to a baseline.
    families = [(4.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.2)]
    worst = 0.0
    checked = 0
    for ratio, jx in families:
        for g in (0.4, 1.0, 1.8):
            p = ModelParams(1.0, 0.6, 0.2, g * ratio / (ratio + 1),
                            g / (ratio + 1), jx=jx)
            evals, pars, _, _ = oracle.certified_spectrum(p, 140, (1, -1), 10)
            lo, hi = evals[0] - 0.05, evals[5] + 0.05
            roots = {par: np.array(find_roots(
                         p, (par,), lo, hi,
                         levels=oracle.window(p, 140, hi, (par,))).energies())
                     for par in (Parity.PLUS, Parity.MINUS)}
            for e, s in zip(evals[:6], pars[:6]):
                par = Parity.PLUS if s > 0 else Parity.MINUS
                dev = float(np.min(np.abs(roots[par] - e)))
                worst = max(worst, dev)
                checked += 1
    _finish(8, worst < 1e-6,
            f"(d) {checked} levels on 12 grid points, worst |E - E_ed| "
            f"= {worst:.2e}")


def test_criterion_8e_singlet_exchange_identity():
    p = ModelParams(1.0, 0.0, 0.0, 0.0, 0.0, jx=0.7, jy=0.1, jz=0.3)
    h = build_hamiltonian(p, 5).matrix
    worst = 0.0
    for n in (0, 2, 5):
        v = np.zeros(4 * 6)
        v[4 * n + 1] = 1 / math.sqrt(2)
        v[4 * n + 2] = -1 / math.sqrt(2)
        worst = max(worst, float(np.max(np.abs(
            h @ v - (n - (p.jx + p.jy + p.jz)) * v))))
    _finish(8, worst < 1e-13, f"(e) singlet exchange identity deviation "
                              f"{worst:.2e}")


def test_criterion_9_same_parity_crossings_of_a_cutoff_state():
    # Flat template (d1 + d2 = 1, g1 = g2): the even cutoff state stays at
    # E = 1 while a regular even level crosses it at g_c = 1.0264649577 and
    # 1.4301945870. The oracle's gap, regular level minus 1, changes sign
    # through each g_c with one slope on both sides: a true crossing, not an
    # avoided one, which would push both levels off E = 1. find_roots
    # returns both levels, one root each, at g_c and beside it, with levels
    # and without them.
    flat = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
    detail, ok = [], True
    for g_c in (1.026464957717759, 1.430194586995103):
        slopes, cutoff_dev = [], 0.0
        for offset in (-1e-6, -1e-7, 1e-7, 1e-6):
            even = np.array(oracle.window(flat.with_g(g_c + offset), None, 2.5,
                                          (Parity.PLUS,)).energies())
            pair = even[np.argsort(np.abs(even - 1.0))[:2]] - 1.0
            cutoff_dev = max(cutoff_dev, abs(pair[0]))
            slopes.append(pair[1] / offset)
        # One sign of gap/offset on both sides: the gap changes sign.
        ok &= cutoff_dev < 1e-12 and min(slopes) * max(slopes) > 0
        ok &= max(slopes) - min(slopes) < 1e-3 * min(np.abs(slopes))
        counted = []
        for offset in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6):
            p = flat.with_g(g_c + offset)
            levels = oracle.window(p, None, 2.5, (Parity.PLUS,))
            inside = sum(-1.0 <= e <= 2.5 for e in levels.energies())
            for given in (levels, None):
                res = find_roots(p, (Parity.PLUS,), -1.0, 2.5, levels=given)
                near = sorted(abs(e - 1.0) for e in res.energies())[:2]
                ok &= len(res) == inside and all(r.verified or given is None for r in res)
                ok &= near[1] < max(2.5 * abs(offset), 1e-10)
                counted.append(f"{len(res)}/{inside}")
        detail.append(f"g_c {g_c}: gap slope {min(slopes):.6f}..{max(slopes):.6f}, "
                      f"cutoff state within {cutoff_dev:.1e} of 1, "
                      f"even roots/levels with and without levels {' '.join(counted)}")
    _finish(9, ok, "; ".join(detail))
