import dataclasses
import math

import numpy as np
import pytest

from tqrabi import ModelParams, Parity
from tqrabi import exceptional, gfunction, oracle, series
from tqrabi.model import DEFAULT_TRUNCATION_CAP


def column(p, parity, energy, position, init, n_max, zs=()):
    """(table, radius, values at zs) of one column around the center at position.

    G(E)'s radius-scaled table with only the center's free init slots set, and
    its converged _kahan_eval sums times exp(position * z), in omega = 1 units.
    """
    sp = p.scaled()
    c = center_at(sp, position)
    iv = np.where(np.isin(range(4), c.slots), init, 0.0)[:, None]
    rows, ok = series._tables(sp, parity.sign, np.array([energy], float), c, iv, n_max)
    coeffs = np.stack([row[:, 0, 0].copy() for row in rows])
    assert ok[0]
    ts = (np.array(zs, float) - c.position) / c.radius
    sums, conv = series._kahan_eval(coeffs[:, :, None, None], ts)
    assert conv.all()
    values = [v * math.exp(c.position * z) for v, z in zip(sums[:, :, 0, 0], zs)]
    return coeffs, c.radius, values


def test_first_recurrence_step_center_zero():
    # g1 = 0.2, g2 = 0.1: g = 0.3, g' = 0.1. With unit weight on the first
    # slot the n = 0 row gives c_{1,1} = (E c10 - d1 c40 - d2 c20) / g,
    # and the reflection tie fixes c30 = c10, c40 = c20.
    p = ModelParams(1.0, 0.6, 0.2, 0.2, 0.1)
    e = 0.5
    coeffs, radius, _ = column(p, Parity.PLUS, e, 0.0, (1.0, 0.0, 0.0, 0.0), 8)
    c0 = coeffs[0]
    assert c0[0] == 1.0 and c0[1] == 0.0
    assert c0[2] == c0[0] and c0[3] == c0[1]
    expected_c11 = (e * 1.0 - 0.6 * c0[3] - 0.2 * c0[1]) / p.g
    assert coeffs[1][0] / radius == pytest.approx(expected_c11, rel=1e-14)


def loop_recurrence(p, sign, e, tag, init, n_max):
    """Per-component reference of the scaled recurrence, one scalar at a time."""
    g, gp, d1, d2, jx, jy, jz = p.g, p.gprime, p.delta1, p.delta2, p.jx, p.jy, p.jz
    s = float(sign)
    c = {"zero": 0.0, "gprime": gp, "g": g}[tag]
    r, free = center_at(p, c).radius, center_at(p, c).slots
    pref = (c + g, c + gp, c - g, c - gp)
    aoff = (-2 * c * g - jx, -2 * c * gp + jx, 2 * c * g - jx, 2 * c * gp + jx)
    cur = [x if j in free else 0.0 for j, x in enumerate(init)]
    if tag == "zero" and gp != 0:
        cur[2], cur[3], free = cur[0], cur[1], range(4)
    prev, out = [0.0] * 4, []
    for n in range(n_max + 1):
        e0, sig = e - c * c - n, (-1) ** n
        if tag == "g":
            cur[2] = ((d2 * cur[3] + s * d1 * cur[1] + s * (jz - jy) * cur[0])
                      / (e0 + 2 * g * g - jx))
        elif tag == "gprime":
            cur[3] = ((d2 * cur[2] + s * d1 * cur[0] + s * (jy + jz) * cur[1])
                      / (e0 + 2 * gp * gp + jx))
        elif gp == 0:
            cur[1] = (d2 + s * sig * d1) * cur[0] / (e0 + jx - s * sig * (jy + jz))
            cur[2], cur[3] = sig * cur[0], sig * cur[1]
        out.append(list(cur))
        cross = (-d2 * cur[1] - s * d1 * cur[3] - s * (jz - jy) * cur[2],
                 -d2 * cur[0] - s * d1 * cur[2] - s * (jy + jz) * cur[3],
                 -d2 * cur[3] - s * d1 * cur[1] - s * (jz - jy) * cur[0],
                 -d2 * cur[2] - s * d1 * cur[0] - s * (jy + jz) * cur[1])
        nxt = [0.0] * 4
        for j in free:
            nxt[j] = (((e0 + aoff[j]) * cur[j] + cross[j]) * r / ((n + 1) * pref[j])
                      - r * r / (n + 1) * prev[j])
        prev, cur = cur, nxt
    return np.array(out)


@pytest.mark.parametrize("params,tags", [
    (ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, 0.3, 0.1, 0.2), ("zero", "gprime", "g")),
    (ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, 0.5, 0.5, 0.5), ("zero", "g")),
    (ModelParams(1.0, 0.1, 0.7, 0.75, 0.75, 0.7, 0.1, 0.3), ("zero", "g")),
])
def test_recurrence_matches_component_loop(params, tags):
    # The whole-array kernel adds the cross terms in another order than the
    # scalar loop, so each order agrees to 1e-12 of its largest coefficient.
    init = (1.0, -0.5, 0.25, 0.75)
    for tag in tags:
        c = {"zero": 0.0, "gprime": params.gprime, "g": params.g}[tag]
        for parity in (Parity.PLUS, Parity.MINUS):
            for e in (-0.6, 0.37, 1.13):
                ref = loop_recurrence(params, parity.sign, e, tag, init, 96)
                got = column(params, parity, e, c, init, 96)[0]
                scale = np.max(np.abs(ref), axis=1, keepdims=True)
                assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def test_explicit_zero_exchange_matches_default():
    p0 = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    pj = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jx=0.0, jy=0.0, jz=0.0)
    c0 = column(p0, Parity.MINUS, 0.7, p0.g, (1.0, 0.5, 0.0, -0.25), 64)[0]
    cj = column(pj, Parity.MINUS, 0.7, pj.g, (1.0, 0.5, 0.0, -0.25), 64)[0]
    assert np.array_equal(c0, cj)


@pytest.mark.parametrize("g1,g2", [(0.5, 0.5), (0.2, 0.1), (0.06, 0.24)])
def test_reflection_symmetry_center_zero(g1, g2):
    # c_{3,n} = (-1)^n c_{1,n} and c_{4,n} = (-1)^n c_{2,n}, exactly.
    p = ModelParams(1.0, 0.6, 0.2, g1, g2)
    coeffs = column(p, Parity.PLUS, 0.37, 0.0, (1.0, 0.0, 0.0, 0.0), 48)[0]
    signs = np.where(np.arange(49) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(coeffs[:, 2], signs * coeffs[:, 0])
    assert np.array_equal(coeffs[:, 3], signs * coeffs[:, 1])


def center_at(p, position):
    """The center of p's chain at a position, within 1e-12 * max(1, g)."""
    c, = (c for c in series._centers(p.scaled())
          if abs(position - c.position) <= 1e-12 * max(1.0, p.g))
    return c


def test_free_slots_per_center():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    assert center_at(p, 0.0).slots == (0, 1)
    assert center_at(p, p.gprime).slots == (0, 1, 2)
    assert center_at(p, p.g).slots == (0, 1, 3)
    q = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
    assert center_at(q, 0.0).slots == (0,)
    # g' = -0.18 < 0: the center at g' keeps its slots.
    r = ModelParams(1.0, 0.2, 0.6, 0.06, 0.24)
    assert center_at(r, r.gprime).slots == (0, 1, 2)


def test_radii():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    assert center_at(p, 0.0).radius == pytest.approx(0.18)
    assert center_at(p, 0.18).radius == pytest.approx(min(0.36, 0.12))
    assert center_at(p, 0.3).radius == pytest.approx(0.12)
    q = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
    assert center_at(q, 0.0).radius == pytest.approx(1.0)
    assert center_at(q, 1.0).radius == pytest.approx(1.0)
    # g' = -0.18 < 0: the singular points sit at +-0.18 and +-0.3.
    r = ModelParams(1.0, 0.2, 0.6, 0.06, 0.24)
    assert center_at(r, r.gprime).radius == pytest.approx(0.12)
    assert center_at(r, 0.0).radius == pytest.approx(0.18)
    assert center_at(r, r.g).radius == pytest.approx(0.12)


def test_linearity_in_initial_conditions():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    a, b = 0.6, -1.7
    x = (1.0, 0.0, 0.0, 0.0)
    y = (0.0, 1.0, 0.0, 0.0)
    combo = tuple(a * xi + b * yi for xi, yi in zip(x, y))
    cx, cy, cc = (column(p, Parity.PLUS, 0.45, 0.0, v, 48)[0] for v in (x, y, combo))
    lin = a * cx + b * cy
    scale = np.max(np.abs(lin))
    assert np.max(np.abs(cc - lin)) < 1e-13 * scale


def test_tail_insensitive_to_order():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    z = p.g - 0.5 * center_at(p, p.g).radius
    (v1,), (v2,) = (column(p, Parity.PLUS, 0.45, p.g, (1.0, 0.5, 0.0, 0.2), n, [z])[2]
                     for n in (96, 256))
    assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-13)


def test_reflection_identity_of_center_zero_values():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    # |t| = 0.89 at z = 0.16 takes more than 64 orders: the table runs to the cap.
    coeffs, radius, _ = column(p, Parity.MINUS, 0.37, 0.0, (0.8, -0.3, 0.0, 0.0), 64)
    assert not series._kahan_eval(coeffs[:, :, None, None], np.array([0.16 / radius]))[1][0]
    for z in (0.05, -0.11, 0.16):
        _, _, (v_plus, v_minus) = column(p, Parity.MINUS, 0.37, 0.0,
                                         (0.8, -0.3, 0.0, 0.0), series.HARD_CAP, [z, -z])
        assert v_plus[0] == pytest.approx(v_minus[2], rel=1e-12)
        assert v_plus[1] == pytest.approx(v_minus[3], rel=1e-12)


def test_unit_column_tables_match_determinant_columns(asym, ratio2, flat):
    # G(E) runs one recurrence and one summation: the unit-init tables built
    # one column at a time, up to the hard cap, and summed by _kahan_eval at a
    # center's matching points, equal that center's block of the determinant
    # bit for bit, at every point of both chain shapes. The last model has
    # g'/g = 0.47, just below g/2.
    switch = ModelParams(1.0, 0.55, 0.25, 0.441, 0.159)
    energy = 0.45
    walked = set()
    for params in (asym, ratio2, flat, switch):
        sp = params.scaled().canonical()
        conds = gfunction._chain(sp)
        for parity in Parity:
            for i, c in enumerate(dict.fromkeys(c for _, *cs in conds for c in cs)):
                zs = [z for z, *cs in conds if c in cs]
                center = c.position
                vals, _, conv = gfunction._block_eval(sp, parity.sign,
                                                      np.array([energy]), c, zs)
                assert conv[0]
                tables = [column(sp, parity, energy, center,
                                 tuple(float(k == j) for k in range(4)), series.HARD_CAP)
                          for j in c.slots]
                rows = np.stack([coeffs for coeffs, _, _ in tables], axis=2)[..., None]
                ts = np.array([(z - center) / tables[0][1] for z in zs])
                sums, conv = series._kahan_eval(rows, ts)
                assert conv[0]
                for z, v, ref in zip(zs, vals, sums):
                    assert np.array_equal(v, ref * math.exp(center * z))
                    walked.add((len(conds), i, center, z))
    # Chains of one condition (g, 0) and of two (g, g', 0), by place in the chain.
    assert {(n, i) for n, i, _, _ in walked} == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert {center for n, i, center, _ in walked if i == n} == {0.0}
    assert (2, 2, 0.0, gfunction._chain(gfunction._prepare(ratio2))[1][0]) in walked


@pytest.mark.parametrize("params", [
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, 0.3, 0.1, 0.2),
    ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, jx=0.5, jy=0.5, jz=0.5),
    ModelParams(1.0, 0.1, 0.7, 0.75, 0.75, jx=0.7, jy=0.1, jz=0.3),
    ModelParams(0.5, 0.3, 0.1, 0.12, 0.03, 0.1, 0.05, 0.02),
], ids=["full8", "xyz_double", "xyz_odd", "omega_half_xyz"])
def test_parity_mirror_of_displaced_centers(params):
    # With D = diag(1, 1, -1, -1), mix(-s) = D mix(s) D, and nothing else in
    # the recurrence around g or g' depends on s: every row of the -s
    # recurrence is D row(+s) d_j, d_j = D[slot of column j], bit for bit
    # but for the sign of zeros (+ 0.0 maps -0.0 to 0.0), and the pole masks
    # agree. Center 0 carries the parity and must not satisfy it.
    sp = params.scaled()
    d = np.array([1.0, 1.0, -1.0, -1.0])
    centers = series._centers(sp)
    assert [c.position for c in centers] == [sp.g] + ([sp.gprime] if sp.gprime else []) + [0.0]
    for c in centers:
        slots = list(c.slots)
        # Two ordinary energies and one on an order-2 baseline of center g
        # or g' (an ordinary one at center 0).
        pole = {2: 2 - sp.g ** 2 + sp.jx, 3: 2 - sp.gprime ** 2 - sp.jx}.get(c.slave, 2.5)
        es = np.array([-0.37, 0.81, pole])
        got = {}
        for s in (1, -1):
            rows, ok = series._tables(sp, s, es, c, np.eye(4)[:, slots], 60)
            got[s] = [row + 0.0 for row in rows], ok
        flip = d[:, None, None] * d[slots][None, :, None]
        mirrored = all((flip * a + 0.0).tobytes() == b.tobytes()
                       for a, b in zip(got[1][0], got[-1][0]))
        assert mirrored == (c.position != 0.0), c
        assert got[1][1].tolist() == got[-1][1].tolist()
        if c.position != 0.0:
            assert got[1][1].tolist() == [True, True, False]


@pytest.mark.parametrize("params", [
    None,
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
    ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
    ModelParams(1.0, 0.6, 0.4, 0.6, 0.2, 0.1, -0.2, 0.3),
    ModelParams(1.0, 0.1, 0.7, 0.75, 0.75, jx=0.7, jy=0.1, jz=0.3),
], ids=["random", "full8", "flat", "xyz", "xyz_odd"])
def test_einsum_adds_in_k_order_from_zero(params):
    # _tables takes its cross terms and slaved rows from einsum on its own
    # layouts: a strided mix[:, r] of 1, 3 or 4 recurring rows against a
    # contiguous (4, ncols, nE) order, and the slave weights of one sign or
    # of one per energy. G(E) is a function of E alone only while each sum
    # runs from zero in k order, whatever ncols * nE; a contiguous (4, 1) mix
    # sent one-energy, one-column batches to a dot kernel that adds in
    # another order. Each result must equal that explicit sum, byte for byte.
    rng = np.random.default_rng(11)
    if params is None:
        mixes = [rng.standard_normal((4, 4))]
        weights = [rng.standard_normal(4), rng.standard_normal(4) * [1, 0, 0, 1]]
    else:
        p = params.scaled()
        mixes, weights = [], []
        for s in (1.0, -1.0):
            d1, d2, a, b = s * p.delta1, p.delta2, s * (p.jz - p.jy), s * (p.jy + p.jz)
            mixes.append(-np.array([[0, d2, a, d1], [d2, 0, d1, b],
                                    [a, d1, 0, d2], [d1, b, d2, 0]]))
            for c in series._centers(p):
                w = series._slaving(p, s, c, 3.0)[1]
                weights += [] if w is None else list(w)
    for ncols, ne in ((1, 1), (3, 1), (1, 3), (3, 2048), (2, 3072)):
        cur = rng.standard_normal((4, ncols, ne)) * 10.0 ** rng.integers(-4, 5, (4, 1, ne))
        cur[:, :, ::5] = 0.0
        for mix in mixes:
            for nr in (1, 3, 4):
                got = np.einsum("kj,kcn->jcn", mix[:, :nr], cur,
                                out=np.empty((nr, ncols, ne)))
                ref = np.zeros((nr, ncols, ne))
                for k in range(4):
                    ref += mix[k, :nr, None, None] * cur[k]
                assert got.tobytes() == ref.tobytes()
        for w in weights:
            per_energy = np.repeat(w[:, None], ne, axis=1) * rng.choice([1.0, -1.0], ne)
            for spec, wk in (("k,kcn->cn", w), ("kn,kcn->cn", per_energy)):
                got = np.einsum(spec, wk, cur, out=np.empty((ncols, ne)))
                ref = np.zeros((ncols, ne))
                for k in range(4):
                    ref += wk[k] * cur[k]
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", ["asym", "flat", "xyz_odd"])
def test_center_zero_runs_both_signs_in_the_d_frame(request, model):
    # Center 0 runs both signs in one pass, a -1 energy in the D frame: the
    # mix of sign +1, the reflection sign flipped and its own divisors. Its
    # rows are D times the rows of the sign -1 recurrence, bit for bit but
    # for the sign of zeros, and a +1 energy keeps the bits of the one-sign
    # run. asym ties the reflection (g' > 0); flat and xyz_odd slave it
    # (g' = 0), and there each sign's batch holds one of its own baselines.
    sp = request.getfixturevalue(model).scaled()
    c = series._centers(sp)[-1]
    assert c.position == 0.0 and (c.slave is None) == (sp.gprime != 0)
    d = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
    inits = np.eye(4)[:, list(c.slots)]
    es = {s: np.array([-0.37, 0.81] + [e for _, e, _ in series._slaving(sp, s, c, 2.0)[2]
                                        if 0 < e < 2][:1]) for s in (1, -1)}
    assert len(es[1]) == len(es[-1]) == (2 if c.slave is None else 3)
    signs = np.repeat([1.0, -1.0], [len(es[1]), len(es[-1])])
    rows, ok = series._tables(sp, signs, np.concatenate([es[1], es[-1]]), c, inits, 60)
    both = [row.copy() for row in rows]
    for s, part in ((1, signs > 0), (-1, signs < 0)):
        rows, ok_s = series._tables(sp, s, es[s], c, inits, 60)
        flip = d if s < 0 else 1.0
        assert all((flip * a[..., part] + 0.0).tobytes() == (b + 0.0).tobytes()
                   for a, b in zip(both, rows))
        assert ok[part].tolist() == ok_s.tolist()
        assert ok_s.tolist() == [True, True] + [False] * (c.slave is not None)


def test_matched_solution_agrees_between_centers(asym):
    # At a true eigenvalue the nullspace combination of the matching matrix
    # makes the center-g' and center-g expansions agree at the joint point.
    # The eigenvalue is taken from the independent diagonalization.
    evals, pars, _ = oracle._eig(asym, 300)
    estar = float(evals[np.flatnonzero(pars == 1)[0]])
    z0, z0p = (z for z, _, _ in gfunction._chain(gfunction._prepare(asym)))
    # Values of each unit column at (z0, z0'), around g, g' and 0.
    psi = [column(asym, Parity.PLUS, estar, asym.g, iv, 200, [z0])[2]
           for iv in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))]
    phi = [column(asym, Parity.PLUS, estar, asym.gprime, iv, 200, [z0, z0p])[2]
           for iv in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))]
    big = [column(asym, Parity.PLUS, estar, 0.0, iv, 200, [z0p])[2]
           for iv in ((1, 0, 0, 0), (0, 1, 0, 0))]
    m = np.zeros((8, 8))
    for j in range(4):
        for c, vals in enumerate(psi):
            m[j, c] = vals[0][j]
        for c, vals in enumerate(phi):
            m[j, 3 + c] = -vals[0][j]
            m[4 + j, 3 + c] = vals[1][j]
        for c, vals in enumerate(big):
            m[4 + j, 6 + c] = -vals[0][j]
    _, _, vt = np.linalg.svd(m)
    v = vt[-1]
    psi_vals = sum(v[c] * vals[0] for c, vals in enumerate(psi))
    phi_vals = sum(v[3 + c] * vals[0] for c, vals in enumerate(phi))
    scale = np.max(np.abs(psi_vals))
    assert np.max(np.abs(psi_vals - phi_vals)) < 1e-8 * scale


# The spectrum and trace anchors of the benchmark, and a strong-coupling model.
@pytest.mark.parametrize("p", [
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
    ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0),
    ModelParams(1.0, 0.7, 0.3, 0.4, 0.4),
    ModelParams(1.0, 0.5, 0.3, 1.6, 0.4),
    ModelParams(1.0, 0.6, 0.2, 1.2, 0.8),
    ModelParams(1.0, 0.7, 0.3, 1.25, 1.25),
    ModelParams(1.0, 0.6, 0.2, 2.4, 0.6),
])
def test_sums_match_an_exact_reference(p):
    # The summation of G(E) against math.fsum over all HARD_CAP + 1 terms of
    # each unit column, at |t| = 0.5 and 0.9 on both sides of every center.
    ts = np.array([-0.9, -0.5, 0.5, 0.9])
    for c in series._centers(p):
        for parity in (Parity.PLUS, Parity.MINUS):
            for energy in (-0.63, 2.37):
                for slot in c.slots:
                    init = tuple(float(j == slot) for j in range(4))
                    coeffs = column(p, parity, energy, c.position, init,
                                    series.HARD_CAP)[0]
                    sums, converged = series._kahan_eval(coeffs[:, :, None, None], ts)
                    assert converged.all()
                    for t, got in zip(ts.tolist(), sums[:, :, 0, 0]):
                        terms = coeffs * t ** np.arange(coeffs.shape[0])[:, None]
                        exact = np.array([math.fsum(col) for col in terms.T.tolist()])
                        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jx=-1e5),      # center g: jx - g^2
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jx=-1e300),
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jx=1e5),       # center g': -g'^2 - jx
    ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, jx=-1e5),
    ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, jy=700.0, jz=600.0),  # center 0: -(jx + |jy + jz|)
    ModelParams(1.0, 0.6, 0.2, 24.0, 12.0),               # -g^2 = -1296
    ModelParams(10.0, 6.0, 2.0, 2.4, 0.6, jx=-12000.0),   # -1200.09 in omega units
])
def test_lowest_baseline_past_the_cap_is_rejected(p):
    # A lowest baseline (order 0 of a center, either sign) more than the
    # photon cap below zero would make every divisor walk up to a window
    # that long: each entry point that walks them rejects the model first.
    with pytest.raises(ValueError, match="1200-photon cap below zero"):
        gfunction._prepare(p)
    for call in (lambda: series.baselines(p, -1.0, 1.0),
                 lambda: gfunction.trace(p, (Parity.PLUS,), -1.0, 1.0),
                 lambda: gfunction.find_roots(p, (Parity.PLUS, Parity.MINUS), -1.0, 1.0)):
        with pytest.raises(ValueError, match="1200-photon cap below zero"):
            call()


def test_cutoff_states_check_the_floor_of_center_zero(flat):
    # exceptional.levels walks center 0 alone, whose lowest baseline is
    # -(jx + |jy + jz|): past the cap below zero it is rejected, whatever
    # the parity.
    for p in (dataclasses.replace(flat, jx=1e5), dataclasses.replace(flat, jy=700.0, jz=600.0)):
        for parity in Parity:
            with pytest.raises(ValueError, match="1200-photon cap below zero"):
                exceptional.levels(p, parity, -1.0, 1.0)
    # Center g's baseline -g^2 = -1225 is past the cap, but no cutoff state
    # walks it: the flat state E = 1 is listed at g = 35 as at any coupling.
    assert [e for _, e, _, _ in exceptional.levels(flat.with_g(35.0), Parity.PLUS,
                                                     -1.0, 3.0)] == [1.0]


@pytest.mark.parametrize("p", [
    ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
    ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, jx=-1199.0),     # jx - g^2 = -1200
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jx=1199.9),    # -g'^2 - jx > -1200
    ModelParams(2.0, 1.2, 0.8, 1.0, 1.0, jy=1199.0, jz=1199.0),  # -(jy + jz)/omega
])
def test_walks_to_the_cap_stay_bounded(p):
    # Lowest baselines up to the cap below zero are accepted, and a walk to
    # a window end at the cap then lists at most twice the cap and two.
    sp = gfunction._prepare(p)
    for c in series._centers(sp):
        for s in (1, -1):
            assert len(series._slaving(sp, s, c, DEFAULT_TRUNCATION_CAP)[2]) \
                <= 2 * DEFAULT_TRUNCATION_CAP + 2
    w = p.omega
    assert series.baselines(p, -math.inf, DEFAULT_TRUNCATION_CAP * w)[0].energy \
        >= -DEFAULT_TRUNCATION_CAP * w
