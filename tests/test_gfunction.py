import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from tqrabi import (
    ModelParams,
    NoConvergence,
    OutsideDisk,
    Parity,
    RequiresValidCouplings,
    SpectrumRecord,
    SpectrumResult,
    find_roots,
    trace,
)
from tqrabi import exceptional, gfunction, oracle, series
from tqrabi.cli import _write_spectrum_csv, _write_trace_csv


def ed_levels(params, parity, e_min, e_max, truncation=200):
    evals, pars, _ = oracle._eig(params, truncation)
    return np.array([e for e, s in zip(evals, pars)
                     if s == parity.sign and e_min <= e <= e_max])


def chain_columns(sp):
    """Free slots of each center record of the matching chain, in column order."""
    return {c: c.slots for _, *cs in gfunction._chain(sp) for c in cs}


def test_chain_points(asym, ratio2, flat):
    def points(p):
        return [z for z, _, _ in gfunction._chain(gfunction._prepare(p))]

    assert points(asym) == pytest.approx([(asym.g + asym.gprime) / 2,
                                          asym.gprime ** 2 / asym.g])
    assert points(ratio2)[1] == pytest.approx(ratio2.gprime ** 2 / ratio2.g)
    assert points(flat) == pytest.approx([flat.g / 2])


def test_matching_chain_columns(asym, ratio2, flat):
    # g -> g' -> 0 when g' > 0, g -> 0 when g' = 0; the columns follow the
    # centers in the order they first appear.
    # Each record also names the slaved component and its baseline kind.
    def positions(sp):
        return [(a.position, b.position) for _, a, b in gfunction._chain(sp)]

    def columns(sp):
        return [(c.position, slots, c.slave, c.kind)
                for c, slots in chain_columns(sp).items()]

    for p in (asym, ratio2):
        sp = gfunction._prepare(p)
        assert positions(sp) == [(sp.g, sp.gprime), (sp.gprime, 0.0)]
        assert columns(sp) == [(sp.g, (0, 1, 3), 2, "first"),
                               (sp.gprime, (0, 1, 2), 3, "second"),
                               (0.0, (0, 1), None, None)]
    sp = gfunction._prepare(flat)
    assert positions(sp) == [(sp.g, 0.0)]
    assert columns(sp) == [(sp.g, (0, 1, 3), 2, "first"), (0.0, (0,), 1, "second")]


@pytest.mark.parametrize("ratio", [0.0, 1e-6, 0.02, 1 / 3, 0.5, 0.9, 0.999, 1 - 1e-8])
def test_default_points_inside_both_disks(ratio):
    # The model fixes the points, one per hop, each strictly inside the disks
    # of both centers it joins, from g' = 0 up to g'/g = 1 - 1e-8.
    g = 1.2
    sp = ModelParams(1.0, 0.6, 0.2, g * (1 + ratio) / 2, g * (1 - ratio) / 2)
    conds = gfunction._chain(sp)
    assert len(conds) == (1 if ratio == 0 else 2)
    assert max(abs(z - c.position) / c.radius for z, *cs in conds for c in cs) < 1.0


def test_matching_point_outside_disk():
    # At g'/g = 1 - 2e-9 rounding puts z0' = g'^2/g outside the disk around g'.
    p = ModelParams(1.0, 0.5, 0.3, 1.0, 1e-9)
    with pytest.raises(OutsideDisk):
        find_roots(p, (Parity.PLUS,), -1.0, 1.0)
    with pytest.raises(OutsideDisk):
        trace(p, (Parity.PLUS,), -1.0, 1.0)


def test_requires_valid_couplings():
    p = ModelParams(1.0, 0.6, 0.2, 0.0, 0.3)
    with pytest.raises(RequiresValidCouplings):
        trace(p, (Parity.PLUS,), -1.0, 1.0)


@pytest.mark.parametrize("g2", [1e-17, 1e-300])
def test_coupling_lost_in_rounding_requires_valid_couplings(g2):
    # g2 > 0, but below 1.1e-16 of g1 it drops out of g and g', so g' == g.
    p = ModelParams(1.0, 0.5, 0.3, 1.0, g2)
    assert p.gprime == p.g
    with pytest.raises(RequiresValidCouplings):
        trace(p, (Parity.PLUS,), -1.0, 1.0)
    with pytest.raises(RequiresValidCouplings):
        find_roots(p, (Parity.PLUS, Parity.MINUS), -1.0, 1.0)


def test_pole_mask_at_baseline():
    # E = 1 is a baseline energy for identical couplings: G's pole mask is
    # False there, and G is finite 1e-9 above it, as trace and find_roots take it.
    sp = gfunction._prepare(ModelParams(1.0, 0.5, 0.5, 0.35, 0.35))
    assert not gfunction._gvalues(sp, 1, np.array([1.0]))[1][0]
    assert np.isfinite(gfunction._gvalues(sp, 1, np.array([1.0 + 1e-9]))[0][0])
    # A pole at E = 0 (g = 1) of three columns: 1e-200 from it, the pole
    # factor's |d|**-2 overflows to inf, as on the pole itself, silently.
    sp = gfunction._prepare(ModelParams(1.0, 0.6, 0.4, 0.5, 0.5))
    assert not gfunction._gvalues(sp, 1, np.array([1e-200]))[1][0]


@pytest.mark.parametrize("model, sign, b, k", [
    ("asym", 1, -0.09, 2),     # center g at n = 0 with J = 0: one slot has no weight
    ("asym", 1, 0.91, 3),      # center g at n = 1: every column
    ("xyz_odd", 1, -0.3, 1),   # center 0 with g' = 0: one column
    ("xyz_odd", 1, 0.7, 0),    # an exchange baseline of the other parity: no pole
])
def test_pole_free_across_baselines(request, model, sign, b, k):
    # The k unit columns that carry a pole turn parallel, so the scaled
    # determinant goes as sign(d) |d|^(k-1); the factor cancels that, and G
    # is finite, of one sign and nearly constant through the baseline.
    p = request.getfixturevalue(model)
    sp = gfunction._prepare(p)
    ks = {round(e, 12): kk for c in chain_columns(sp)
          for _, e, kk in series._slaving(sp, sign, c, 2.5)[2] if kk}
    assert ks.get(round(b, 12), 0) == k
    d = np.array([-1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5])
    vals, pole_ok = gfunction._gvalues(sp, sign, b + d)
    assert np.isfinite(vals).all()
    assert np.all(np.sign(vals) == np.sign(vals[0]))
    assert np.max(np.abs(vals)) < 1.01 * np.min(np.abs(vals))


def test_gvalue_finite_and_deterministic(asym):
    v1, v2 = (trace(asym, (Parity.MINUS,), 0.25, 0.3)[0].values for _ in range(2))
    assert np.isfinite(v1).all() and v1.tobytes() == v2.tobytes()


def test_root_positions_independent_of_matching_points(asym, move_points):
    res_a = find_roots(asym, (Parity.PLUS,), -1.0, 1.0)
    move_points(asym)
    res_b = find_roots(asym, (Parity.PLUS,), -1.0, 1.0)
    ra, rb = res_a.energies(), res_b.energies()
    assert len(ra) == len(rb)
    assert np.max(np.abs(np.array(ra) - np.array(rb))) < 1e-9


def test_roots_match_diagonalization_full8(asym):
    for parity in (Parity.PLUS, Parity.MINUS):
        res = find_roots(asym, (parity,), -1.0, 1.0,
                         levels=oracle.window(asym, 200, 1.0, (parity,)))
        ed = ed_levels(asym, parity, -1.0, 1.0)
        assert len(res) == len(ed)
        assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
        assert all(r.verified for r in res)


def test_parity_missing_from_levels_is_unverified(asym):
    # Levels of one parity check the other parity's roots too: with none to
    # match, they fail the check instead of coming back unchecked.
    res = find_roots(asym, (Parity.PLUS, Parity.MINUS), -1.0, 2.5,
                     levels=oracle.window(asym, None, 2.5, (Parity.PLUS,)))
    plus, minus = res.filtered(Parity.PLUS), res.filtered(Parity.MINUS)
    assert len(plus) and all(r.verified for r in plus)
    assert len(minus) and all(r.verified is False and r.residual == np.inf for r in minus)


@pytest.mark.parametrize("p, parity, window, level, baseline", [
    # Grid templates rescaled to one g; each level lies within 3e-3 of a
    # baseline whose pole three columns carry.
    (ModelParams(1.0, 0.5208490668393886, 0.28394825953920066, 0.3043231341622808,
                 0.2956768658377191), Parity.MINUS, (2.5, 2.8), 2.6424256216, 2.64),
    (ModelParams(1.0, 0.9367573667992322, 0.9809982523794525, 0.17196910316105696,
                 0.028030896838943043, 0.11661852343905099, -0.38511093178947564,
                 -0.18401151987636943), Parity.PLUS, (2.8, 2.9), 2.8627318150,
     2.8626632693217218),
    (ModelParams(1.0, 0.1601015746429004, 0.9780457981960519, 2.058179606598787,
                 0.3418203934012126, -0.4217467941943177, 0.30884044375444486,
                 -0.3479996761221634), Parity.PLUS, (1.4, 1.5), 1.4766157461,
     1.4758578454661206),
    (ModelParams(1.0, 0.4092487943350124, 0.3795065097904814, 0.10085443260027639,
                 0.09914556739972362), Parity.PLUS, (2.9, 3.0), 2.9596511724, 2.96),
])
def test_no_false_root_beside_a_baseline(p, parity, window, level, baseline):
    # G is continuous through a pole that k >= 2 columns carry, but its relative
    # error grows about as 1/|E - b| beside it, so a probe 4*POLE_EPS from the
    # pole reads rounding noise. Such probes made a false root on the baseline in
    # place of the level, with compensated sums (2nd and 3rd model) and with
    # plain ones (all four).
    res = find_roots(p, (Parity.PLUS, Parity.MINUS), *window,
                     levels=oracle.window(p, None, window[1]))
    assert all(r.verified for r in res)
    assert all(abs(r.energy - baseline) > 1e-9 for r in res)
    assert min(abs(e - level) for e in res.filtered(parity).energies()) < 1e-6


def test_roots_match_diagonalization_ratio2(ratio2):
    # All roots below E = 2 for the 2:1 coupling ratio at g = 0.5.
    for parity in (Parity.PLUS, Parity.MINUS):
        res = find_roots(ratio2, (parity,), -1.0, 2.0,
                         levels=oracle.window(ratio2, 200, 2.0, (parity,)))
        ed = ed_levels(ratio2, parity, -1.0, 2.0)
        assert len(res) == len(ed)
        assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6


@pytest.mark.parametrize("ratio", [0.49, 0.4975, 0.5])
def test_roots_match_diagonalization_near_half_asymmetry(ratio):
    # g = 0.6 with g'/g just below and at 1/2, where 0.3 * 1.5 rounds g'
    # just below g/2. A 6x6 reduction without the center-0 block does not
    # converge here (it finds 5 + 4, 0 + 0 and 0 + 0 of the 7 even and 6 odd
    # levels), so full8 must serve every g' > 0.
    p = ModelParams(1.0, 0.55, 0.25, 0.3 * (1 + ratio), 0.3 * (1 - ratio))
    for parity, count in ((Parity.PLUS, 7), (Parity.MINUS, 6)):
        res = find_roots(p, (parity,), -1.0, 2.5,
                         levels=oracle.window(p, 300, 2.5, (parity,)))
        ed = ed_levels(p, parity, -1.0, 2.5)
        assert len(ed) == count
        assert len(res) == count
        assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
        assert all(r.verified for r in res)


def test_gvalue_depends_on_energy_alone(xyz_double, xyz_odd):
    # Each energy's series stop on its own tail test, and every sum runs in
    # one order at every batch size, so G at one energy is the same bits
    # whether it is computed alone, in a small batch or in a batch of 351.
    p = ModelParams(1.0, 0.55, 0.25, 0.3 * 1.4975, 0.3 * 0.5025)
    sp = gfunction._prepare(p)
    for parity in (Parity.PLUS, Parity.MINUS):
        tr, = trace(p, (parity,), -1.0, 2.5)
        cells = np.flatnonzero(np.isfinite(tr.values))[::37]
        assert cells.size > 5
        for i in cells:
            alone, _ = gfunction._gvalues(sp, parity.sign, np.array([tr.energies[i]]))
            assert alone[0] == tr.values[i]
    # Small batches, as root refinement makes them, on exchange models:
    # reduced4 has a one-column center-0 block, full8 three columns, and
    # xyz_odd couples every component to every other one.
    full8 = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, 0.3, 0.1, 0.2)
    for p in (xyz_double, full8, xyz_odd):
        sp = gfunction._prepare(p)
        for parity in (Parity.PLUS, Parity.MINUS):
            tr, = trace(p, (parity,), -1.0, 2.5)
            cells = np.flatnonzero(np.isfinite(tr.values))
            for size in (1, 2, 3, 5, 7):
                for k in range(0, cells.size - size, 23):
                    e = tr.energies[cells[k:k + size]]
                    got, _ = gfunction._gvalues(sp, parity.sign, e)
                    assert got.tobytes() == tr.values[cells[k:k + size]].tobytes()
    # One batch longer than two blocks, with an energy on a center-g baseline
    # of order 2 as the last of the first block (and its order 1 and 3
    # neighbours 1000 cells away in the other two): its values and pole_ok
    # masks equal those of small batches of the same energies, and so
    # do those of one batch with a sign per energy, as root refinement mixes
    # the two parities.
    b = gfunction._BLOCK
    for p in (full8, xyz_odd):
        sp = gfunction._prepare(p)
        es = (2 - p.g ** 2 + p.jx) + 1e-3 * (np.arange(2 * b + 200) - (b - 1))
        mixed = np.random.default_rng(7).choice([1, -1], es.size)
        mixed[[b - 1001, b - 1, b + 999]] = [1, -1, 1]
        one_sign = {}
        for parity in (Parity.PLUS, Parity.MINUS):
            big = one_sign[parity.sign] = gfunction._gvalues(sp, parity.sign, es)
            poles = np.flatnonzero(~big[1]).tolist()
            assert {b - 1001, b - 1, b + 999} <= set(poles)
            assert b - 2 not in poles and b not in poles
            assert np.isnan(big[0][poles]).all()
            small = [np.concatenate(c) for c in zip(*(
                gfunction._gvalues(sp, parity.sign, es[k:k + 61])
                for k in range(0, es.size, 61)))]
            for got, ref in zip(big, small):
                assert got.tobytes() == ref.tobytes()
        for got, plus, minus in zip(gfunction._gvalues(sp, mixed, es),
                                    one_sign[1], one_sign[-1]):
            assert got.tobytes() == np.where(mixed > 0, plus, minus).tobytes()
    # g = 2 over four blocks: the factor of an energy takes every pole below
    # it, from n = 0 on, however low the batch ends.
    p = ModelParams(1.0, 0.6, 0.2, 1.2, 0.8)
    sp = gfunction._prepare(p)
    for parity in (Parity.PLUS, Parity.MINUS):
        tr, = trace(p, (parity,), -1.0, 2.5, 1.0 / b)  # 3.5 blocks and a cell
        assert tr.energies.size > 3 * gfunction._BLOCK
        cells = np.flatnonzero(np.isfinite(tr.values))[::101]
        for k in range(0, cells.size - 3, 3):
            got, _ = gfunction._gvalues(sp, parity.sign, tr.energies[cells[k:k + 3]])
            assert got.tobytes() == tr.values[cells[k:k + 3]].tobytes()


def unshared_gvalues(sp, sign, energies):
    """G with every center summed at its own sign, in blocks as _gvalues runs."""
    conds = gfunction._chain(sp)
    columns = chain_columns(sp)
    width = sum(len(s) for s in columns.values())
    parts = []
    for i in range(0, energies.size, gfunction._BLOCK):
        es = energies[i:i + gfunction._BLOCK]
        m = np.zeros((es.size, width, width))
        pole_ok, conv = np.ones((2, es.size), dtype=bool)
        start = 0
        for c, slots in columns.items():
            ks = [k for k, cond in enumerate(conds) if c in cond[1:]]
            vals, ok, cv = gfunction._block_eval(sp, sign, es, c,
                                                 [conds[k][0] for k in ks])
            pole_ok &= ok
            conv &= cv
            for k, v in zip(ks, vals):
                v = np.moveaxis(v, -1, 0)
                m[:, 4 * k:4 * k + 4, start:start + len(slots)] = (
                    v if conds[k][1] == c else -v)
            start += len(slots)
        norm = np.maximum(np.hypot.reduce(m, axis=1, keepdims=True), 1e-300)
        with np.errstate(invalid="ignore"):
            det = np.linalg.det(m / norm)
        factor = gfunction._pole_factor(sp, sign, es)
        parts.append((np.where(pole_ok & conv, det * factor, np.nan), pole_ok))
    return [np.concatenate(c) for c in zip(*parts)]


def test_shared_centers_match_unshared_assembly(xyz_odd, flat):
    # _gvalues sums centers g and g' once, at sign +1, and takes sign -1 from
    # them by the parity mirror; values and pole masks must keep
    # the bits of an assembly that sums every center at its own sign, for
    # two signs in one call, for -1 alone and for the one-sign form. The long
    # batch has a center-g baseline as the last energy of its first block.
    # flat has g' = 0: a 4x4 chain whose center 0 recurs on one row.
    b = gfunction._BLOCK
    full8 = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, 0.3, 0.1, 0.2)
    for p in (full8, xyz_odd, flat):
        sp = gfunction._prepare(p)
        es = (2 - p.g ** 2 + p.jx) + 1e-3 * (np.arange(2 * b + 200) - (b - 1))
        ref = {s: unshared_gvalues(sp, s, es) for s in (1, -1)}
        assert not ref[1][1][b - 1] and np.isfinite(ref[-1][0]).sum() > b
        for part in (slice(b + 7, b + 8), slice(b - 2, b + 1), slice(None)):
            for signs in ((1, -1), (-1, 1), (-1,)):
                got = gfunction._gvalues(sp, np.array(signs)[:, None], es[part])
                for i, s in enumerate(signs):
                    for g, r in zip(got, ref[s]):
                        assert g[i].tobytes() == r[part].tobytes()
            got = gfunction._gvalues(sp, -1, es[part])
            for g, r in zip(got, ref[-1]):
                assert g.tobytes() == r[part].tobytes()


@pytest.mark.parametrize("count", [1, 7, 2048])
def test_det_of_the_parity_flip_is_a_fixed_sign_times_det(asym, flat, count):
    # A -1 matrix of G is D[row] * D[slot] times its assembly, and
    # _gvalues_once takes its determinant as the assembly's times the fixed
    # sign prod D[rows] * prod D[slots]: +1 on the 8x8 chain, -1 on the 4x4.
    # LU with partial pivoting picks the same pivots and rounds each flipped
    # operation to the flipped result, so det keeps its bits but for that
    # sign. An exactly singular matrix reads +0.0 at either sign, so the sign
    # is written into center 0's columns, not onto det.
    rng = np.random.default_rng(count)
    d = gfunction._PARITY_D
    for p, size, sign in ((asym, 8, 1.0), (flat, 4, -1.0)):
        sp = gfunction._prepare(p)
        columns = chain_columns(sp)
        rows = np.tile(d, len(gfunction._chain(sp)))
        slots = np.concatenate([d[list(s)] for s in columns.values()])
        assert rows.size == slots.size == size
        assert np.prod(rows) * np.prod(slots) == sign
        m = rng.standard_normal((count, size, size)) * 10.0 ** rng.integers(-6, 7, size)
        m[1::2, rng.integers(size)] = 0.0  # a row of exact zeros
        det = np.linalg.det(m)
        singular = np.arange(count) % 2 == 1
        assert np.array_equal(det == 0, singular)
        flipped = np.linalg.det(rows[:, None] * m * slots)
        assert flipped.tobytes() == np.where(singular, det, sign * det).tobytes()
        *_, zero_slots = columns.values()  # center 0 ends the chain
        m[..., size - len(zero_slots):] *= sign
        assert flipped.tobytes() == np.linalg.det(m).tobytes()


@pytest.mark.parametrize("model, runs", [("asym", 3), ("flat", 2), ("xyz_odd", 2)])
def test_one_series_run_per_center_and_block(request, monkeypatch, model, runs):
    # Each block runs every center once for both signs, center 0 included.
    sp = gfunction._prepare(request.getfixturevalue(model))
    tables, centers = series._tables, []
    monkeypatch.setattr(gfunction, "_tables",
                        lambda *a: centers.append(a[3].position) or tables(*a))
    # On two CPUs this process runs the first of two one-block shares.
    es = np.linspace(-1.0, 2.5, gfunction._BLOCK + 10)
    for cpus, blocks in ((1, 2), (2, 1)):
        fake_cpus(monkeypatch, cpus)
        for signs in (np.array([[1], [-1]]), np.where(es < 1.0, 1, -1)):
            centers.clear()
            gfunction._gvalues(sp, signs, es)
            assert len(centers) == blocks * runs and centers.count(0.0) == blocks


def test_gvalues_working_set_flat_in_batch_size(asym, monkeypatch):
    # The series run in fixed energy blocks with buffers reused from order to
    # order, so a long batch needs about the memory of one block. One CPU:
    # this process runs every block itself.
    fake_cpus(monkeypatch, 1)
    sp = gfunction._prepare(asym)
    peaks = []
    for n in (gfunction._BLOCK, 8 * gfunction._BLOCK):
        es = np.linspace(-1.0, 3.0, n)
        tracemalloc.start()
        try:
            gfunction._gvalues(sp, 1, es)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def fake_cpus(monkeypatch, n):
    """Let _hire see CPUs 0 to n - 1, and record the (pid, mask) pins it
    makes instead of setting them."""
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: pins.append((pid, set(cpus))))
    return pins


def count_forks(monkeypatch, fork=os.fork):
    """List that grows by one at each os.fork, which then calls fork."""
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def one_process(sp, signs, energies):
    """_gvalues_once over consecutive _BLOCK energies, all in this process."""
    b = gfunction._BLOCK
    parts = [gfunction._gvalues_once(sp, signs[:, i:i + b], energies[i:i + b])
             for i in range(0, energies.size, b)]
    return [np.concatenate(c, axis=-1) for c in zip(*parts)]


def children_left():
    """Whether this process has a child, live or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.mark.parametrize("model", ["asym", "flat"])
def test_split_keeps_the_bytes_of_one_process(request, monkeypatch, model):
    # Three blocks on two CPUs run as two shares, one here and one in a
    # worker, and their boundary falls inside the second block. Each share
    # takes its own blocks, and every energy keeps the bits of value and pole
    # mask that one process gives, on both chain shapes
    # (asym 8x8, flat 4x4), for one sign per row and for mixed rows, with
    # baselines (NaN, pole_ok false) on both sides of the boundary. One
    # worker serves both calls, pinned at each to one CPU.
    sp = gfunction._prepare(request.getfixturevalue(model))
    b = gfunction._BLOCK
    es = np.linspace(-1.0, 3.0, 2 * b + 500)
    cut = es.size // 2
    assert b < cut < 2 * b
    plus, minus = ([p for p, _ in gfunction._poles(sp, s, 3.0) if -1.0 < p < 3.0]
                   for s in (1, -1))
    at, at_sign = [cut - 4, cut - 3, cut + 2, cut + 3], np.array([1, -1, 1, -1])
    es[at] = plus[0], minus[0], plus[-1], minus[-1]
    mixed = np.random.default_rng(3).choice([1, -1], (2, es.size))
    mixed[:, at] = at_sign
    pins, forks = fake_cpus(monkeypatch, 2), count_forks(monkeypatch)
    for signs, rows in ((np.array([[1], [-1]]), np.repeat([[1], [-1]], es.size, axis=1)),
                        (mixed, mixed)):
        got = gfunction._gvalues(sp, signs, es)
        for g, r in zip(got, one_process(sp, rows, es)):
            assert g.tobytes() == r.tobytes()
        hit = rows[:, at] == at_sign
        assert hit[:, :2].any() and hit[:, 2:].any()
        assert np.isnan(got[0][:, at][hit]).all() and not got[1][:, at][hit].any()
    (pid, _, _), = gfunction._workers
    assert len(forks) == 1 and len(pins) == 2
    assert all(p == pid and len(cpus) == 1 and cpus <= {0, 1} for p, cpus in pins)


def test_worker_is_kept_and_stopped(asym, monkeypatch):
    # The worker outlives its call and serves the next; _stop_workers ends
    # and reaps it, as it does at exit. When this process's own share
    # raises, the worker is killed and reaped at once: a worker 20 s from
    # done is not waited for.
    sp = gfunction._prepare(asym)
    es = np.linspace(-1.0, 3.0, 2 * gfunction._BLOCK)
    fake_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    gfunction._gvalues(sp, 1, es)
    gfunction._gvalues(sp, -1, es)
    assert len(forks) == 1 and len(gfunction._workers) == 1 and children_left()
    gfunction._stop_workers()
    assert gfunction._workers == [] and not children_left()
    parent, once = os.getpid(), gfunction._gvalues_once

    def fail_here(*args):
        if os.getpid() == parent:
            raise RuntimeError("share failed")
        time.sleep(20.0)
        return once(*args)

    monkeypatch.setattr(gfunction, "_gvalues_once", fail_here)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="share failed"):
        gfunction._gvalues(sp, 1, es)
    assert time.monotonic() - start < 10.0
    assert len(forks) == 2 and gfunction._workers == [] and not children_left()


def test_workers_stop_at_exit(tmp_path):
    # A process that split a call has no child left once its exit hooks ran.
    script = tmp_path / "run.py"
    script.write_text(
        "import atexit, os\n"
        "import numpy as np\n"
        "from tqrabi import ModelParams, gfunction\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "os.sched_setaffinity = lambda pid, cpus: None\n"
        "sp = gfunction._prepare(ModelParams(1.0, 0.5, 0.3, 1.6, 0.4))\n"
        "gfunction._gvalues(sp, np.array([[1], [-1]]), np.linspace(-1.0, 3.0, 4001))\n"
        "assert len(gfunction._workers) == 1\n"
        "atexit._run_exitfuncs()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child')\n")
    src = os.path.dirname(os.path.dirname(gfunction.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no child"


def test_failed_share_runs_here(asym, monkeypatch):
    # A share whose fork raises OSError, whose worker fails in it, or whose
    # worker was killed since the last call, is run by this process, to the
    # same bytes; a failed worker is reaped and the next call forks anew.
    sp = gfunction._prepare(asym)
    es = np.linspace(-1.0, 3.0, 2 * gfunction._BLOCK + 300)
    ref = one_process(sp, np.repeat([[1], [-1]], es.size, axis=1), es)
    fake_cpus(monkeypatch, 2)
    parent, once, fork = os.getpid(), gfunction._gvalues_once, os.fork

    def same_bytes():
        for g, r in zip(gfunction._gvalues(sp, np.array([[1], [-1]]), es), ref):
            assert g.tobytes() == r.tobytes()

    def no_fork():
        raise OSError("no fork")

    def fail_there(*args):
        if os.getpid() != parent:
            raise RuntimeError("share failed")
        return once(*args)

    monkeypatch.setattr(os, "fork", no_fork)
    same_bytes()
    assert gfunction._workers == []
    forks = count_forks(monkeypatch, fork)
    monkeypatch.setattr(gfunction, "_gvalues_once", fail_there)
    same_bytes()
    assert len(forks) == 1 and gfunction._workers == [] and not children_left()
    monkeypatch.setattr(gfunction, "_gvalues_once", once)
    same_bytes()
    (pid, _, _), = gfunction._workers
    os.kill(pid, signal.SIGKILL)
    same_bytes()
    assert len(forks) == 2 and gfunction._workers == [] and not children_left()
    same_bytes()
    assert len(forks) == 3 and len(gfunction._workers) == 1


def test_no_fork_beside_a_thread_on_one_cpu_or_in_one_block(asym, monkeypatch):
    # A fork copies only its calling thread, so none happens while another
    # thread lives; nor with one CPU, be it the one this process runs on or
    # another, nor for a call of one block, as the scan and refinement of a
    # spectrum at the default step make them.
    sp = gfunction._prepare(asym)
    b = gfunction._BLOCK
    es = np.linspace(-1.0, 3.0, 2 * b)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", fork)
    fake_cpus(monkeypatch, 1)
    gfunction._gvalues(sp, 1, es)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {os.cpu_count() + 1})
    gfunction._gvalues(sp, 1, es)
    fake_cpus(monkeypatch, 2)
    gfunction._gvalues(sp, 1, es[:b])
    both = (Parity.PLUS, Parity.MINUS)
    find_roots(asym, both, -1.0, 3.0, levels=oracle.window(asym, None, 3.0, both))
    find_roots(asym, both, -1.0, 3.0)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(60,))
    waiter.start()
    try:
        gfunction._gvalues(sp, 1, es)
    finally:
        stop.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert forks == []
    gfunction._gvalues(sp, 1, es)  # and the stand-in is reached
    assert forks == [1]


def test_forked_process_runs_alone(asym, monkeypatch):
    # A process forked from one with workers, as a worker is, drops its copy
    # of them and forks none: its siblings hold the other CPUs. The parent's
    # worker serves on.
    sp = gfunction._prepare(asym)
    es = np.linspace(-1.0, 3.0, 2 * gfunction._BLOCK)
    fake_cpus(monkeypatch, 2)
    fork, forks = os.fork, count_forks(monkeypatch)
    gfunction._gvalues(sp, 1, es)
    assert len(forks) == 1
    pid = fork()
    if pid == 0:
        ok = False
        try:
            assert gfunction._alone and gfunction._workers == []
            gfunction._gvalues(sp, 1, es)
            ok = len(forks) == 1 and not gfunction._workers
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert not gfunction._alone
    (worker, _, _), = gfunction._workers
    gfunction._gvalues(sp, 1, es)
    assert len(forks) == 1 and gfunction._workers[0][0] == worker


def test_calls_run_alone_while_workers_hold_shares(asym, monkeypatch):
    # Each share of a sweep may make a G call of two blocks. The one here
    # runs it alone: it neither hands a block to the worker that holds the
    # other share nor forks another, and both calls keep the bytes of one
    # process. Once the shares are back, calls here split again.
    sp = gfunction._prepare(asym)
    es = np.linspace(-1.0, 3.0, 2 * gfunction._BLOCK)
    ref = one_process(sp, np.ones((1, es.size), dtype=int), es)
    fake_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    got = gfunction._shares(2, lambda k: [(gfunction._gvalues, (sp, 1, es))] * k)
    assert len(got) == 2 and len(forks) == 1 and not gfunction._alone
    for values in got:
        for g, r in zip(values, ref):
            assert g.tobytes() == r.tobytes()
    gfunction._gvalues(sp, 1, es)
    assert len(forks) == 1 and len(gfunction._workers) == 1


def test_pole_factor_equals_the_dense_form(asym, flat, xyz_odd):
    # _pole_factor takes the bump only where |E - b| < 1, with the poles as
    # rows; the dense form on every (energy, pole) pair keeps its bits.
    def dense(sp, sign, energies):
        poles = [(b, k) for b, k in gfunction._poles(sp, sign, energies.max()) if k]
        b, k = np.array(poles).reshape(-1, 2).T
        d = energies[:, None] - b
        with np.errstate(divide="ignore"):
            bump = 1.0 + (np.abs(d) ** (1 - k) - 1.0) * (1.0 - d * d) ** 2
        near = np.where(np.abs(d) < 1.0, bump, 1.0)
        return (-1.0) ** np.count_nonzero(d > 0, axis=1) * np.prod(near, axis=1)

    rng = np.random.default_rng(11)
    for p in (asym, flat, xyz_odd, ModelParams(1.0, 0.6, 0.2, 1.2, 0.8)):
        sp = gfunction._prepare(p)
        for sign in (1, -1):
            poles = np.array([b for b, k in gfunction._poles(sp, sign, 6.0) if k])
            es = np.concatenate([rng.uniform(-2.0, 6.0, 3000), poles,
                                 poles + 1e-13, poles + rng.uniform(-1.0, 1.0, poles.size)])
            for part in (es, es[:1]):
                got = gfunction._pole_factor(sp, sign, part)
                assert got.tobytes() == dense(sp, sign, part).tobytes()


@pytest.mark.parametrize("center", ["g", "gprime", "zero"])
@pytest.mark.parametrize("n", [2, 3])
def test_pole_guard_marks_one_energy(center, n):
    # An energy on a baseline of order n sits in one batch with ordinary
    # energies: only it is marked and NaN, and the others keep the bits
    # they have alone.
    if center == "zero":  # g' = 0: the divisor is E - n + Jx -+ (Jy + Jz)
        p = ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, 0.5, 0.5, 0.5)
    else:
        p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, 0.3, 0.1, 0.2)
    sp = gfunction._prepare(p)
    for parity in (Parity.PLUS, Parity.MINUS):
        s = parity.sign
        e0 = {"g": n - p.g ** 2 + p.jx, "gprime": n - p.gprime ** 2 - p.jx,
              "zero": n - p.jx + s * (-1) ** n * (p.jy + p.jz)}[center]
        es = e0 + np.array([-0.031, -0.012, 0.0, 0.017, 0.026])
        vals, pole_ok = gfunction._gvalues(sp, s, es)
        assert pole_ok.tolist() == [True, True, False, True, True]
        assert np.isnan(vals[2])
        for k in (0, 1, 3, 4):
            alone, _ = gfunction._gvalues(sp, s, es[k:k + 1])
            assert np.isfinite(alone[0])
            assert alone.tobytes() == vals[k:k + 1].tobytes()


def test_roots_match_diagonalization_exchange_reduced4():
    p = ModelParams(1.0, 0.6, 0.2, 0.4, 0.4, jx=0.7, jy=0.1, jz=0.3)
    for parity in (Parity.PLUS, Parity.MINUS):
        res = find_roots(p, (parity,), -1.0, 1.5,
                         levels=oracle.window(p, 200, 1.5, (parity,)))
        ed = ed_levels(p, parity, -1.0, 1.5)
        assert len(res) == len(ed)
        assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6


def test_roots_rescale_with_photon_frequency(asym):
    scaled_up = ModelParams(2.0, 1.2, 0.4, 0.48, 0.12)
    r1 = find_roots(asym, (Parity.MINUS,), -1.0, 0.6).energies()
    r2 = find_roots(scaled_up, (Parity.MINUS,), -2.0, 1.2).energies()
    assert len(r1) == len(r2)
    assert np.max(np.abs(np.array(r2) - 2 * np.array(r1))) < 1e-9


def test_near_decoupled_limit_levels():
    # g -> 0: levels approach n + s1*d1 + s2*d2 with the parity (-1)^n s1 s2.
    p = ModelParams(1.0, 0.6, 0.2, 0.8e-3, 0.2e-3)
    plus = find_roots(p, (Parity.PLUS,), -0.95, 0.95)
    minus = find_roots(p, (Parity.MINUS,), -0.95, 0.95)
    assert np.allclose(plus.energies(), [-0.8, 0.6, 0.8], atol=1e-4)
    assert np.allclose(minus.energies(), [-0.4, 0.2, 0.4], atol=1e-4)


def test_window_with_baseline_but_no_root(asym):
    res = find_roots(asym, (Parity.PLUS,), -0.12, -0.05)
    assert len(res) == 0


def test_window_validation(asym):
    with pytest.raises(ValueError):
        find_roots(asym, (Parity.PLUS,), 1.0, -1.0)
    with pytest.raises(ValueError):
        find_roots(asym, (Parity.PLUS,), -1.0, 1.0, step=0.0)
    with pytest.raises(ValueError):
        trace(asym, (Parity.PLUS,), -1.0, 1.0, step=-0.1)


def test_trace_sign_changes_count_roots(asym):
    # G is pole-free, so it changes sign at the levels only, baselines
    # included in the count.
    for parity in (Parity.PLUS, Parity.MINUS):
        tr, = trace(asym, (parity,), -1.0, 2.5, 0.002)
        assert len(tr.poles) == 6
        vals = tr.values[np.isfinite(tr.values)]
        crossings = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
        ed = ed_levels(asym, parity, -1.0, 2.5, truncation=300)
        assert crossings == len(ed)


def test_trace_constant_sign_between_adjacent_roots(asym):
    # Adjacent odd-parity levels sit at -0.4346 and 0.0067; the window between
    # them (clear of baselines) must keep one sign.
    tr, = trace(asym, (Parity.MINUS,), -0.42, -0.10, 0.005)
    vals = tr.values[np.isfinite(tr.values)]
    assert vals.size > 30
    assert np.all(np.sign(vals) == np.sign(vals[0]))


def test_gvalue_continuous_between_baselines(asym):
    # Column normalization keeps the determinant continuous inside one
    # inter-baseline interval.
    tr, = trace(asym, (Parity.PLUS,), -0.03, 0.89, 0.002)
    vals = tr.values[np.isfinite(tr.values)]
    diffs = np.abs(np.diff(vals))
    assert np.max(diffs) < 0.05 * np.max(np.abs(vals))


def test_trace_empty_only_at_pole_hits(flat):
    # E = 1 is a baseline of centers g and 0; only the grid point on it has
    # no value. It is also the even cutoff state, where G changes sign.
    tr, = trace(flat, (Parity.PLUS,), 0.999999, 1.000001, 2.0e-7)
    assert np.flatnonzero(~np.isfinite(tr.values)).tolist() == [5]
    assert tr.energies[5] == 1.0
    assert tr.values[4] * tr.values[6] < 0
    assert any(b.energy == pytest.approx(1.0) for b in tr.poles)


def test_spectrum_csv_format(tmp_path, asym):
    res = find_roots(asym, (Parity.PLUS,), -1.0, 0.5)
    out = tmp_path / "spectrum.csv"
    _write_spectrum_csv(res, str(out), ["header line"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# header line"
    assert lines[1] == "E,parity,method,residual"
    assert len(lines) == 2 + len(res)
    assert lines[2].split(",")[1:3] == ["1", "gfunction"]


def test_trace_csv_empty_cells_at_pole_hits(tmp_path, flat):
    traces = trace(flat, (Parity.PLUS, Parity.MINUS), 0.999999, 1.000001, 2.0e-7)
    out = tmp_path / "trace.csv"
    _write_trace_csv(traces, str(out), ())
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "E,G_plus,G_minus"
    assert [ln for ln in body[1:] if "" in ln.split(",")] == ["1,,"]


def fake_gvalues(g, ok=None):
    """A stand-in for _gvalues with G(E) = g(E) at every sign, and pole_ok = ok(E)."""
    def fake(sp, signs, energies):
        shape = np.broadcast_shapes(np.shape(signs), energies.shape)
        good = np.ones(energies.shape, dtype=bool) if ok is None else ok(energies)
        return tuple(np.broadcast_to(v, shape)
                     for v in (np.where(good, g(energies), np.nan), good))
    return fake


def refine(lo, hi, flo, fhi, tol=1e-10):
    """_refine_brackets on sign-+1 brackets alone: their midpoints."""
    signs, roots = gfunction._refine_brackets(
        None, (np.ones(len(lo), dtype=int), lo, hi, flo, fhi), tol)
    assert (signs == 1).all()
    return roots


def test_refine_brackets_nan_midpoint_raises(monkeypatch):
    # Two brackets around the zeros of E - 0.3 and E - 0.7; G is NaN on an
    # open sub-interval of the second one, where its probes land. The bracket
    # must not spin there and come back as a root.
    def g(energies):
        vals = np.where(energies < 0.5, energies - 0.3, energies - 0.7)
        if nan_on is not None:
            vals = np.where((nan_on[0] < energies) & (energies < nan_on[1]),
                            np.nan, vals)
        return vals

    monkeypatch.setattr(gfunction, "_gvalues", fake_gvalues(g))
    lo, hi = np.array([0.0, 0.5]), np.array([0.5, 1.0])
    flo, fhi = np.array([-0.3, -0.2]), np.array([0.2, 0.3])
    nan_on = None
    roots = refine(lo, hi, flo, fhi)
    assert np.max(np.abs(roots - [0.3, 0.7])) < 1e-10
    nan_on = (0.55, 0.95)
    with pytest.raises(NoConvergence):
        refine(lo, hi, flo, fhi)


def test_cutoff_state_settles_in_one_pass(flat, monkeypatch):
    # A cutoff state is a jump of G at a known one-column pole, which regula
    # falsi would close on at bisection speed (26-28 passes). The scan's
    # points 4*POLE_EPS either side of the pole bracket it closed, so it
    # settles in the scan call, with levels or without. With levels, flat's
    # other even roots settle there too, where the search made 34 G calls.
    (_, energy, _, _), = exceptional.levels(flat, Parity.PLUS, 0.9, 1.1)
    sp = gfunction._prepare(flat)
    assert energy in [b for b, k in gfunction._poles(sp, 1, 2.0) if k == 1]
    calls, refined = [], []
    gvalues, refine_brackets = gfunction._gvalues, gfunction._refine_brackets
    monkeypatch.setattr(gfunction, "_gvalues", lambda *a: calls.append(1) or gvalues(*a))
    monkeypatch.setattr(gfunction, "_refine_brackets",
                        lambda *a: refined.append(a[1]) or refine_brackets(*a))
    for levels in (None, oracle.window(flat, 300, 2.5, (Parity.PLUS,))):
        calls.clear()
        refined.clear()
        res = find_roots(flat, (Parity.PLUS,), -1.0, 2.5, levels=levels)
        assert min(abs(x - energy) for x in res.energies()) < 1e-11
        (_, lo, hi, _, _), = refined
        at = (lo < energy) & (energy < hi)
        assert at.sum() == 1 and (hi - lo)[at] <= 2 * gfunction.ROOT_TOL
    assert len(calls) == 1


@pytest.mark.parametrize("params", [
    ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
    ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0),
    ModelParams(1.0, 0.7, 0.3, 0.4, 0.4),
    ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
    ModelParams(1.0, 0.6, 0.4, 0.6 + 5e-8, 0.6 + 5e-8),
], ids=["asym", "ratio2", "reduced4", "flat", "pole_margin"])
def test_two_parity_search_in_seven_g_calls(params, monkeypatch):
    # One scan and at most six passes settle every bracket of both
    # parities, the pole-margin level 3.4e-8 above its pole included: each
    # pass probes a ladder around a three-point interpolant and a midpoint.
    both = (Parity.PLUS, Parity.MINUS)
    levels = oracle.window(params, 300, 2.5, both)
    calls = []
    gvalues = gfunction._gvalues
    monkeypatch.setattr(gfunction, "_gvalues", lambda *a: calls.append(1) or gvalues(*a))
    found = find_roots(params, both, -1.0, 2.5, levels=levels)
    assert len(calls) <= 7
    assert all(r.verified for r in found)
    assert len(found) >= 10


def _count_refine_passes(monkeypatch, g, lo, hi):
    calls = []
    fake = fake_gvalues(g)
    monkeypatch.setattr(gfunction, "_gvalues", lambda *a: calls.append(1) or fake(*a))
    lo, hi = np.array([lo]), np.array([hi])
    root = refine(lo, hi, g(lo), g(hi), tol=gfunction.ROOT_TOL)
    return root[0], len(calls)


def test_refine_brackets_flat_side(monkeypatch):
    # G(1) is e^28 times |G(0)|: plain regula falsi keeps the steep end and
    # creeps in from the flat one. The refinement must stay within the 64
    # passes of the bisection it replaced.
    root, passes = _count_refine_passes(
        monkeypatch, lambda e: np.expm1(40 * (e - 0.3)), 0.0, 1.0)
    assert abs(root - 0.3) <= gfunction.ROOT_TOL
    assert passes <= 64


def test_refine_brackets_multiple_root_worst_case(monkeypatch):
    # A ninth-order zero is flat on both sides, so the interpolation steps
    # gain little and the midpoint probed in every pass does the work: at
    # most one pass per halving of [0, 1] down to 2 * ROOT_TOL, inside this
    # bound of three.
    root, passes = _count_refine_passes(monkeypatch, lambda e: (e - 0.3) ** 9, 0.0, 1.0)
    assert abs(root - 0.3) <= gfunction.ROOT_TOL
    assert passes <= 3 * np.ceil(np.log2(1.0 / (2 * gfunction.ROOT_TOL)))


@pytest.mark.parametrize("model", ["asym", "ratio2", "xyz_odd", "flat"])
def test_two_parity_search_matches_single_parity(request, model):
    # Both parities share the scan and every refinement pass, yet each root
    # takes the iterates of its own sector's search: same bits, verified or
    # not, and from one oracle window of both parities.
    p = request.getfixturevalue(model)
    both = (Parity.PLUS, Parity.MINUS)
    levels = oracle.window(p, 300, 2.5, both)
    for verify in (False, True):
        found = find_roots(p, both, -1.0, 2.5, levels=levels if verify else None)
        for parity in both:
            res = found.filtered(parity)
            alone = find_roots(p, (parity,), -1.0, 2.5, levels=oracle.window(
                p, 300, 2.5, (parity,)) if verify else None)
            assert len(res) >= 5 and all(r.parity is parity for r in res)
            assert (np.array([(r.energy, r.residual) for r in res]).tobytes()
                    == np.array([(r.energy, r.residual) for r in alone]).tobytes())
            assert [r.verified for r in res] == [r.verified for r in alone]


def test_repeated_parity_is_searched_once(asym):
    # A parity given twice gives each root once, as in a search of the
    # parity alone, with and without levels; trace gives one trace.
    plus = (Parity.PLUS,)
    for levels in (None, oracle.window(asym, 300, 1.0, plus)):
        twice = find_roots(asym, plus * 2, -1.0, 1.0, levels=levels)
        assert twice == find_roots(asym, plus, -1.0, 1.0, levels=levels)
    traces = trace(asym, plus * 2, -1.0, 1.0)
    assert len(traces) == 1
    assert traces[0].values.tobytes() == trace(asym, plus, -1.0, 1.0)[0].values.tobytes()
    for search in (find_roots, trace):
        with pytest.raises(ValueError, match="no parity given"):
            search(asym, (), -1.0, 1.0)


def test_roots_hold_a_sign_change(asym):
    tol, sp = gfunction.ROOT_TOL, gfunction._prepare(asym)
    for parity in (Parity.PLUS, Parity.MINUS):
        roots = find_roots(asym, (parity,), -1.0, 2.5).energies()
        assert len(roots) == 6
        for x in roots:
            lo, hi = (gfunction._gvalues(sp, parity.sign, np.array([e]))[0][0]
                      for e in (x - tol, x + tol))
            assert lo * hi < 0


def test_level_beside_a_pole_on_the_grid():
    # The even level 2.0000000339 lies 3.4e-8 above the center-0 baseline
    # E = 2, and this window puts a grid point exactly on that baseline: the
    # scan skips it and brackets the level across the pole.
    p = ModelParams(1.0, 0.6, 0.4, 0.6 + 5e-8, 0.6 + 5e-8)
    sp = gfunction._prepare(p)
    assert not gfunction._gvalues(sp, 1, np.array([2.0]))[1][0]
    res = find_roots(p, (Parity.PLUS,), 1.9, 2.1,
                     levels=oracle.window(p, 300, 2.1, (Parity.PLUS,)))
    assert res.energies() == pytest.approx([2.0000000339], abs=1e-9)
    assert all(r.verified for r in res)


@pytest.mark.parametrize("p, parity, level", [
    (ModelParams(1.0, 0.6, 0.4, 0.225, 0.225), Parity.MINUS, 2.9920851014555447),
    (ModelParams(1.0, 0.6, 0.4, 0.445, 0.445), Parity.PLUS, 2.9994122360975033),
    (ModelParams(1.0, 0.6, 0.2, 2.4, 0.6), Parity.PLUS, 2.9959545245376495),
], ids=["flat-0.45", "flat-0.89", "asym-3"])
def test_level_beside_a_window_end_on_a_pole(p, parity, level):
    # The window end E = 3 is a baseline, so the scan's last grid point has
    # no value, and no grid point lies beyond it to bracket the level in the
    # last cell across the pole: the scan takes that end 4*POLE_EPS inside.
    sp = gfunction._prepare(p)
    assert not gfunction._gvalues(sp, parity.sign, np.array([3.0]))[1][0]
    res = find_roots(p, (parity,), -1.0, 3.0, levels=oracle.window(p, 300, 3.0, (parity,)))
    assert min(abs(x - level) for x in res.energies()) < 1e-9
    assert all(r.verified for r in res)


def test_root_pair_in_a_narrow_gap_between_baselines():
    # g = 0.153, g'/g = 0.51: the even levels 0.99115489 and 0.99311088 sit
    # inside the 0.017 wide gap between the baselines 0.9766 and 0.9939.
    p = ModelParams(1.0, 0.15, 0.86, 0.1155, 0.0375)
    res = find_roots(p, (Parity.PLUS,), -1.0, 2.5,
                     levels=oracle.window(p, 300, 2.5, (Parity.PLUS,)))
    ed = ed_levels(p, Parity.PLUS, -1.0, 2.5, truncation=300)
    assert len(res) == len(ed) == 5
    assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
    assert all(r.verified for r in res)
    assert np.sum(np.abs(ed - 0.9921) < 2e-3) == 2


@pytest.mark.parametrize("delta2, g, pair", [
    (0.86, 0.1, (2.9957114, 2.9975680)),
    (0.851, 0.03, (2.99954593, 2.99986436)),
], ids=["narrow_gap", "narrow_gap_g0.03"])
def test_root_pair_straddling_a_baseline_without_levels(delta2, g, pair):
    # Two even levels straddle a three-column baseline, 3 - g'^2, inside one
    # scan cell: at g = 0.1 the grid point 2.99 also sits on a baseline, so G
    # keeps its sign from 2.98 to 3. The points min(1e-3, g^2/10) either side
    # of each baseline give each level a sign change of its own, so the
    # search without levels finds both. At g = 0.03 the pair lies 2.1e-4
    # below and 9.8e-5 above the baseline: a fixed 1e-3 would hold both.
    p = ModelParams(1.0, 0.15, delta2, 0.1155, 0.0375).with_g(g)
    res = find_roots(p, (Parity.PLUS,), -1.0, 3.0)
    ed = ed_levels(p, Parity.PLUS, -1.0, 3.0, truncation=300)
    assert len(res) == len(ed) == 7
    assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
    assert ed[-2:] == pytest.approx(pair, abs=1e-7)


@pytest.mark.parametrize("g", [0.1, 0.02])
def test_odd_pair_beside_a_baseline_without_levels(g):
    # On flat at weak coupling two odd levels sit within g^2 of the pole
    # E = 2, one on either side, inside the scan cell around it (7.7e-3
    # below and 2.0e-3 above at g = 0.1; 4.0e-4 and 1.0e-4 at g = 0.02).
    # The points 4*POLE_EPS beside the pole, always in the scan grid, split
    # the cell between them.
    p = ModelParams(1.0, 0.6, 0.4, g / 2, g / 2)
    res = find_roots(p, (Parity.MINUS,), -1.0, 3.0)
    ed = ed_levels(p, Parity.MINUS, -1.0, 3.0, truncation=300)
    assert len(res) == len(ed)
    assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
    assert np.sum(np.abs(ed - 2.0) < 2 * g * g) == 2


def test_roots_keep_their_bits_across_windows_and_parities():
    # The points beside each baseline depend on the model alone, and the
    # baselines of both signs are taken whatever the parities searched: two
    # windows on one 0.25 grid give the roots they share the same bits, and
    # so does a parity searched alone or beside the other. The exchange
    # terms put the center-0 baselines of the two signs apart.
    p = ModelParams(1.0, 0.5, 0.3, 0.06, 0.02, 0.1, 0.2, -0.1)
    both = (Parity.PLUS, Parity.MINUS)
    wide = find_roots(p, both, -1.0, 3.0, step=0.25)
    narrow = find_roots(p, both, 1.0, 2.5, step=0.25)
    shared = [np.array([r.energy for r in res if 1.25 < r.energy < 2.25])
              for res in (wide, narrow)]
    assert shared[0].size == 4 and shared[0].tobytes() == shared[1].tobytes()
    assert len(wide) == len(ed_levels(p, Parity.PLUS, -1.0, 3.0)) + len(
        ed_levels(p, Parity.MINUS, -1.0, 3.0))
    for parity in both:
        alone = find_roots(p, (parity,), -1.0, 3.0, step=0.25)
        assert (np.array(alone.energies()).tobytes()
                == np.array(wide.filtered(parity).energies()).tobytes())


@pytest.mark.parametrize("bound", [0.6, 4.0])
def test_loose_level_sharing_a_cell_with_a_settled_one_is_claimed_once(bound, monkeypatch):
    # The even levels 0.6 and 0.8 share the cell (0.56, 0.9) of a 0.34 grid,
    # where G keeps its sign. 0.6 settles; 0.8, its tail bound loosened to
    # bound * ROOT_TOL, is probed at 0.8 -/+ that bound: the pair closes in
    # the scan when it is no wider than 2 * ROOT_TOL, and is refined
    # otherwise. Each level is claimed once, within ROOT_TOL of its root.
    p = ModelParams(1.0, 0.6, 0.2, 0.8e-3, 0.2e-3)
    levels = oracle.window(p, 300, 0.9, (Parity.PLUS,))
    calls = counted_gvalues(monkeypatch)
    found = find_roots(p, (Parity.PLUS,), 0.22, 0.9, step=0.34, levels=loosened(
        levels, bound * gfunction.ROOT_TOL, keep=lambda r: abs(r.energy - 0.8) > 0.01))
    assert (len(calls) == 1) == (bound <= 1)
    ed = ed_levels(p, Parity.PLUS, 0.22, 0.9, truncation=300)
    assert len(ed) == len(found) == 2 and all(r.verified for r in found)
    assert np.max(np.abs(np.array(found.energies()) - ed)) <= gfunction.ROOT_TOL


@pytest.mark.parametrize("model, parity, levels", [
    ("flat", Parity.PLUS, [1.0]),
    ("xyz_odd", Parity.MINUS, [0.7]),
    ("xyz_double", Parity.PLUS, [-0.5, 1.5]),
])
def test_cutoff_states_are_roots(request, model, parity, levels):
    # A cutoff state on a one-column (center-0) baseline is a sign change of
    # the pole-free G, so the two solvers cross-check each other there.
    p = request.getfixturevalue(model)
    cutoff = [e for _, e, _, _ in exceptional.levels(p, parity, -1.0, 2.5)]
    assert cutoff == pytest.approx(levels, abs=1e-12)
    res = find_roots(p, (parity,), -1.0, 2.5, levels=oracle.window(p, 300, 2.5, (parity,)))
    assert all(r.verified for r in res)
    for e in cutoff:
        assert min(abs(x - e) for x in res.energies()) < 1e-9


@pytest.mark.parametrize("g_c", [1.026464957717759, 1.430194586995103])
@pytest.mark.parametrize("offset", [-1e-9, -3e-10, 0.0, 3e-10, 1e-9])
def test_level_crossing_a_cutoff_state_is_a_root_of_its_own(flat, g_c, offset):
    # At g_c a regular even level of flat crosses its even cutoff state at
    # E = 1, and the gap opens linearly in g - g_c: 4e-10 to 2e-9 apart here,
    # under the grid step, and about 1e-11 at g_c itself. There both levels
    # probe the pair around the pole E = 1, which closes on the cutoff
    # state, and G changes sign again in the cell above it. Each closed
    # bracket is its own root, so both levels come back, one root per
    # oracle level, at g_c the refined one within ROOT_TOL of E = 1.
    p = flat.with_g(g_c + offset)
    levels = oracle.window(p, None, 2.5, (Parity.PLUS,))
    res = find_roots(p, (Parity.PLUS,), -1.0, 2.5, levels=levels)
    ed = [e for e in levels.energies() if -1.0 <= e <= 2.5]
    assert len(res) == len(ed) == 6
    assert all(r.verified for r in res)
    assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
    near = sorted(abs(e - 1.0) for e in res.energies())[:2]
    assert near[0] < 1e-11 and near[1] < max(2.5 * abs(offset), gfunction.ROOT_TOL)


def test_root_pair_inside_one_grid_cell():
    # Near the decoupled limit the even levels 0.6 and 0.8 share the cell
    # (0.56, 0.9) of a 0.34 grid on [0.22, 0.9], with no baseline between
    # them: G keeps its sign across the cell, and only the levels' probe
    # pairs split it. (The asym levels of one parity are too far apart for
    # this between adjacent baselines.)
    p = ModelParams(1.0, 0.6, 0.2, 0.8e-3, 0.2e-3)
    res = find_roots(p, (Parity.PLUS,), 0.22, 0.9, step=0.34,
                     levels=oracle.window(p, 300, 0.9, (Parity.PLUS,)))
    ed = ed_levels(p, Parity.PLUS, 0.22, 0.9)
    assert len(ed) == 2
    assert len(res) == 2
    assert np.max(np.abs(np.array(res.energies()) - ed)) < 1e-6
    assert all(r.verified for r in res)


def test_level_and_cutoff_state_in_one_cell_around_a_pole(xyz_odd):
    # At g = 0.2 the odd level 0.69575 and the cutoff state 0.7 share the
    # cell (0.69, 0.71) around the pole at 0.7, whose grid point has no
    # value: the pole's pair in the grid splits the cell, and each is a
    # root of its own.
    p = xyz_odd.with_g(0.2)
    res = find_roots(p, (Parity.MINUS,), -1.0, 3.0,
                     levels=oracle.window(p, 300, 3.0, (Parity.MINUS,)))
    assert all(r.verified for r in res)
    assert res.energies()[1:3] == pytest.approx([0.6957463915, 0.7], abs=1e-9)


PROBE_MODELS = {
    "full8": ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
    "reduced6": ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0),
    "reduced4": ModelParams(1.0, 0.7, 0.3, 0.4, 0.4),
    "asym_g1": ModelParams(1.0, 0.6, 0.2, 0.8, 0.2),
    "isotropic": ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, 0.5, 0.5, 0.5),
    "xyz_half": ModelParams(0.5, 0.35, 0.15, 0.45, 0.2, jx=0.05, jz=-0.1),
}


def counted_gvalues(monkeypatch):
    calls = []
    gvalues = gfunction._gvalues
    monkeypatch.setattr(gfunction, "_gvalues", lambda *a: calls.append(1) or gvalues(*a))
    return calls


def loosened(levels, bound, keep=lambda r: False):
    """levels with the tail bound of each record that keep rejects set to bound."""
    return SpectrumResult(tuple(r if keep(r) else dataclasses.replace(r, residual=bound)
                                for r in levels))


@pytest.mark.parametrize("model", PROBE_MODELS)
def test_levels_settle_every_root_in_the_scan_call(model, monkeypatch):
    # Each level's tail bound holds a true eigenvalue within ROOT_TOL/2 of
    # it, so G's sign change across E_k -/+ ROOT_TOL/2, evaluated in the
    # scan's own call, settles its root: no refinement pass. The roots are
    # those of the search without levels and of refinement with them.
    p = PROBE_MODELS[model]
    both, w, tol = (Parity.PLUS, Parity.MINUS), p.omega, gfunction.ROOT_TOL * p.omega
    levels = oracle.window(p, None, 2.5 * w, both)
    calls = counted_gvalues(monkeypatch)
    found = find_roots(p, both, -w, 2.5 * w, levels=levels)
    assert len(calls) == 1
    calls.clear()
    refined = find_roots(p, both, -w, 2.5 * w, levels=loosened(levels, tol))
    assert 1 < len(calls) <= 7
    plain = find_roots(p, both, -w, 2.5 * w)
    for ref in (plain, refined):
        assert [r.parity for r in found] == [r.parity for r in ref]
        assert np.max(np.abs(np.array(found.energies()) - ref.energies())) <= tol
    assert [r.verified for r in found] == [r.verified for r in refined]
    assert len(found) >= 12 and all(r.verified for r in found)
    assert max(r.residual for r in found) < 1e-12 * w


def test_loose_tail_bound_goes_through_refinement(asym, monkeypatch):
    # A level whose tail bound r_k exceeds ROOT_TOL may have its eigenvalue
    # anywhere in E_k -/+ r_k, its probe pair, wider than a closed bracket:
    # the pair is refined to within ROOT_TOL of the root, while the others
    # settle in the scan.
    both = (Parity.PLUS, Parity.MINUS)
    levels = oracle.window(asym, None, 2.5, both)
    loose = levels.filtered(Parity.MINUS).records[2]
    calls = counted_gvalues(monkeypatch)
    found = find_roots(asym, both, -1.0, 2.5, levels=loosened(
        levels, 4 * gfunction.ROOT_TOL, keep=lambda r: r is not loose))
    assert len(calls) > 1
    far = [r for r in found if r.residual > 1e-12]
    assert [(r.parity, r.verified) for r in far] == [(Parity.MINUS, True)]
    assert abs(far[0].energy - loose.energy) <= gfunction.ROOT_TOL
    assert len(found) == 12


def test_loose_pair_within_root_tol_closes_in_the_scan(asym, monkeypatch):
    # A tail bound r_k in (ROOT_TOL/2, ROOT_TOL] is too loose to settle the
    # level at E_k -/+ ROOT_TOL/2, but its pair E_k -/+ r_k is no wider than a
    # closed bracket: the scan closes it, and its midpoint E_k is within r_k
    # of the eigenvalue, as a refined root is within ROOT_TOL of its root.
    both = (Parity.PLUS, Parity.MINUS)
    levels = oracle.window(asym, None, 2.5, both)
    loose = levels.filtered(Parity.MINUS).records[2]
    calls = counted_gvalues(monkeypatch)
    found = find_roots(asym, both, -1.0, 2.5, levels=loosened(
        levels, 0.6 * gfunction.ROOT_TOL, keep=lambda r: r is not loose))
    assert len(calls) == 1
    assert len(found) == 12 and all(r.verified and r.residual < 1e-12 for r in found)
    plain = find_roots(asym, (Parity.MINUS,), -1.0, 2.5).energies()
    assert min(abs(x - loose.energy) for x in plain) <= gfunction.ROOT_TOL


def test_dark_states_are_no_roots(equal_qubits):
    # On [-1, 3.2] the window holds 15 levels: 11 regular ones and the 4
    # dark cutoff states E = 0, 1, 2, 3, on baselines without a pole. G
    # does not change sign across a dark state, so its probes settle
    # nothing there and no root is reported at it.
    both = (Parity.PLUS, Parity.MINUS)
    levels = oracle.window(equal_qubits, None, 3.2, both)
    found = find_roots(equal_qubits, both, -1.0, 3.2, levels=levels)
    dark = [(parity, e) for parity in both
            for _, e, _, k in exceptional.levels(equal_qubits, parity, -1.0, 3.2) if k == 0]
    assert sorted(e for _, e in dark) == pytest.approx([0.0, 1.0, 2.0, 3.0], abs=1e-12)
    assert sum(-1.0 <= r.energy <= 3.2 for r in levels) == 15
    assert len(found) == 11 and all(r.verified for r in found)
    for parity, e in dark:
        assert min(abs(x - e) for x in found.filtered(parity).energies()) > 1e-6


@pytest.mark.parametrize("g, root", [
    (lambda d: np.where(np.abs(d) > 1e-9, d, -d), 0.0),
    (lambda d: d - 1e-9, 1e-9),
], ids=["noise_beside_a_settled_pair", "pair_without_a_sign_change"])
def test_sign_noise_near_a_level_gives_it_one_root(asym, monkeypatch, g, root):
    # G = g(E - E0) beside one even level E0 with a zero tail bound, as where
    # G's sign is rounding near a root. With its sign flipped within 1e-9 of
    # E0, the pair E0 -/+ ROOT_TOL/2 changes sign, and so do the grid cells
    # beside it: those hold no level and are dropped, so E0 is claimed once.
    # With G's root 1e-9 above E0, the pair does not change sign and stays
    # out of the grid: the scan cell is refined whole, to that root.
    e0 = 0.5234
    monkeypatch.setattr(gfunction, "_gvalues", fake_gvalues(lambda e: g(e - e0)))
    level = SpectrumResult((SpectrumRecord(e0, Parity.PLUS, "oracle", 0.0),))
    res = find_roots(asym, (Parity.PLUS,), 0.0, 1.0, step=0.1, levels=level)
    assert len(res) == 1 and res.records[0].verified
    assert abs(res.energies()[0] - e0 - root) <= gfunction.ROOT_TOL
