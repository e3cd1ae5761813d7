import dataclasses
import math
import warnings

import numpy as np
import pytest

from tqrabi import (
    ConditionNotMet,
    DegenerateDenominator,
    ModelParams,
    Parity,
    RequiresEqualCouplings,
    RequiresValidCouplings,
    baselines,
    build_state,
    condition,
    exceptional_energy,
    scan_flat_lines,
)
from tqrabi import exceptional, gfunction, oracle


def amp_map(state):
    return {(n, pair): a for n, pair, a in state.coeffs}


def test_condition_n1_even_matches_formula():
    # f(-1, 1) = (d1 - d2) [1 - (d1 + d2)^2] / g^2 for the even branch.
    for d1, d2, g in [(0.6, 0.3, 1.0), (0.8, 0.1, 0.7), (0.6, 0.4, 2.0)]:
        p = ModelParams(1.0, d1, d2, g / 2, g / 2)
        expected = (d1 - d2) * (1 - (d1 + d2) ** 2) / g ** 2
        assert condition(p, Parity.PLUS, 1) == pytest.approx(expected, rel=1e-13)


def test_condition_n1_even_zero_on_manifold(flat):
    assert condition(flat, Parity.PLUS, 1) == 0.0


def test_condition_n2_matches_formula():
    # f(-1, 2) = [(2 - (d1+d2)^2/2)(1 - (d1-d2)^2) - g^2] (-d1-d2) / g^3.
    d1, d2 = 0.6, 0.4
    for g in (1.0, 1.2, 1.7):
        p = ModelParams(1.0, d1, d2, g / 2, g / 2)
        expected = ((2 - (d1 + d2) ** 2 / 2) * (1 - (d1 - d2) ** 2) - g ** 2) \
            * (-d1 - d2) / g ** 3
        assert condition(p, Parity.PLUS, 2) == pytest.approx(expected, rel=1e-12,
                                                             abs=1e-14)
    # Zero exactly when g^2 = (2 - (d1+d2)^2/2)(1 - (d1-d2)^2) = 1.44.
    p = ModelParams(1.0, d1, d2, 0.6, 0.6)
    assert abs(condition(p, Parity.PLUS, 2)) < 1e-14


def test_condition_xyz_odd_matches_bracket(xyz_odd):
    # m(-1, 1) vanishes iff (jx-jy-2jz-1)^2 - (jx+jy)^2 - (d2-d1)^2 does.
    assert abs(condition(xyz_odd, Parity.MINUS, 1)) < 1e-12
    shifted = ModelParams(1.0, 0.1, 0.6, 0.75, 0.75, jx=0.7, jy=0.1, jz=0.3)
    bracket = (0.7 - 0.1 - 0.6 - 1) ** 2 - (0.7 + 0.1) ** 2 - (0.6 - 0.1) ** 2
    got = condition(shifted, Parity.MINUS, 1)
    expected = (-0.1 - 0.6) * bracket / (1.5 ** 2 * (1 + 2 * (0.1 + 0.3)))
    assert got == pytest.approx(expected, rel=1e-12)


def test_condition_preconditions(asym):
    with pytest.raises(RequiresEqualCouplings):
        condition(asym, Parity.PLUS, 1)
    p = ModelParams(1.0, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        condition(p, Parity.PLUS, -1)


def test_zero_coupling_is_a_solver_error():
    # The cutoff recurrence and the closed forms divide by g.
    p = ModelParams(1.0, 0.6, 0.4, 0.0, 0.0)
    for call in (lambda: condition(p, Parity.PLUS, 1),
                 lambda: build_state(p, Parity.PLUS, 1),
                 lambda: exceptional.levels(p, Parity.PLUS, -1.0, 2.0)):
        with pytest.raises(RequiresValidCouplings):
            call()


def test_recurrence_past_the_double_range_is_no_state(flat):
    # On a flat line the cutoff recurrence leaves the double range near
    # N = 170: the condition is not finite there, silently, and no state.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exceptional.levels(flat, Parity.PLUS, -1.0, 200.0) == [(1, 1.0, 0.0, 1)]
        assert not math.isfinite(condition(flat, Parity.PLUS, 180))
        with pytest.raises(ConditionNotMet):
            build_state(flat, Parity.PLUS, 180)


def test_window_past_the_photon_cap(flat):
    # e_max/omega = 1202 passes the oracle's cap of 1200 photons: no window
    # reaches there, whichever list it asks for.
    p = dataclasses.replace(flat, omega=0.5)
    for call in (lambda: baselines(p, -1.0, 601.0),
                 lambda: exceptional.levels(p, Parity.PLUS, -1.0, 601.0),
                 lambda: oracle.window(p, None, 601.0),
                 lambda: gfunction._window(p, -1.0, 601.0, None)):
        with pytest.raises(ValueError, match="1200-photon cap"):
            call()


def test_degenerate_denominator():
    p = ModelParams(1.0, 0.6, 0.2, 0.5, 0.5, jy=-0.5)
    with pytest.raises(DegenerateDenominator):
        condition(p, Parity.PLUS, 2)


def test_dark_state_any_couplings():
    p = ModelParams(1.0, 0.5, 0.5, 0.9, 0.9, jx=0.1, jy=0.2, jz=0.3)
    for n in (0, 1, 2):
        parity = Parity.PLUS if n % 2 else Parity.MINUS
        st = build_state(p, parity, n)
        assert st.energy == pytest.approx(n - 0.6)
        assert amp_map(st)[(n, "ge")] == pytest.approx(1 / math.sqrt(2))
        assert amp_map(st)[(n, "eg")] == pytest.approx(-1 / math.sqrt(2))
        assert oracle.residual(p, n + 10, st) < 1e-14


def test_flat_state_amplitudes_and_norm(flat):
    # At d1 = 0.6, d2 = 0.4, g = 1 the state is (0.4, -1, 1)/norm on
    # (|0ee>, |1eg>, |1ge>) with norm sqrt(4 (d1-d2)^2 + 2 g^2)/g.
    p = flat.with_g(1.0)
    st = build_state(p, Parity.PLUS, 1)
    norm = math.sqrt(4 * 0.2 ** 2 + 2.0)
    m = amp_map(st)
    assert m[(0, "ee")] == pytest.approx(0.4 / norm, rel=1e-13)
    assert m[(1, "eg")] == pytest.approx(-1 / norm, rel=1e-13)
    assert m[(1, "ge")] == pytest.approx(1 / norm, rel=1e-13)
    assert st.energy == pytest.approx(1.0)


def test_flat_state_odd_branches():
    pa = ModelParams(1.0, 1.2, 0.2, 0.5, 0.5)   # d1 - d2 = 1
    st = build_state(pa, Parity.MINUS, 1)
    m = amp_map(st)
    assert set(m) == {(0, "eg"), (1, "gg"), (1, "ee")}
    assert m[(1, "gg")] == pytest.approx(-m[(1, "ee")])
    pb = ModelParams(1.0, 0.2, 1.2, 0.5, 0.5)   # d2 - d1 = 1
    st = build_state(pb, Parity.MINUS, 1)
    assert set(amp_map(st)) == {(0, "ge"), (1, "gg"), (1, "ee")}
    assert oracle.residual(pb, 30, st) < 1e-14


def test_condition_not_met():
    p = ModelParams(1.0, 0.6, 0.3, 0.5, 0.5)
    with pytest.raises(ConditionNotMet):
        build_state(p, Parity.PLUS, 1)


def test_xyz_even_and_double_states(xyz_double):
    st1 = build_state(xyz_double, Parity.PLUS, 1)
    st3 = build_state(xyz_double, Parity.PLUS, 3)
    assert st1.energy == pytest.approx(-0.5)
    assert st3.energy == pytest.approx(1.5)
    assert oracle.residual(xyz_double, 40, st1) < 1e-13
    assert oracle.residual(xyz_double, 40, st3) < 1e-13
    # A closed form is known for both, so build_state checked each state
    # against it componentwise within 1e-12.
    for n in (1, 3):
        assert exceptional._closed_form_amps(xyz_double.scaled(), Parity.PLUS, n) is not None


def test_xyz_odd_state_matches_parity_flip_form(xyz_odd):
    st = build_state(xyz_odd, Parity.MINUS, 1)
    # build_state checked the state against this closed form within 1e-12.
    assert exceptional._closed_form_amps(xyz_odd.scaled(), Parity.MINUS, 1) is not None
    assert oracle.residual(xyz_odd, 30, st) < 1e-13


def test_residual_truncation_independent(flat):
    p = flat.with_g(0.9)
    st = build_state(p, Parity.PLUS, 1)
    for extra in (1, 5, 50):
        assert oracle.residual(p, st.max_photon + extra, st) < 1e-12


def test_energy_g_independent_amplitudes_not(flat):
    states = [build_state(flat.with_g(g), Parity.PLUS, 1)
              for g in (0.1, 1.0, 2.5)]
    assert len({s.energy for s in states}) == 1
    a = [amp_map(s)[(0, "ee")] for s in states]
    assert a[0] != a[1] and a[1] != a[2]


def test_singlet_exchange_identity():
    # Applying the exchange term alone multiplies any |n, singlet> by
    # -(jx + jy + jz), exactly.
    p = ModelParams(1.0, 0.0, 0.0, 0.0, 0.0, jx=0.7, jy=0.1, jz=0.3)
    h = oracle.apply_hamiltonian(p, 6, np.eye(4 * 7))
    for n in (0, 3, 6):
        v = np.zeros(4 * 7)
        v[4 * n + 1] = 1 / math.sqrt(2)
        v[4 * n + 2] = -1 / math.sqrt(2)
        expected = (n - (p.jx + p.jy + p.jz)) * v
        assert np.max(np.abs(h @ v - expected)) < 1e-13


def test_scan_finds_flat_manifold():
    tpl = ModelParams(1.0, 0.3, 0.4, 0.5, 0.5)
    hits = scan_flat_lines(tpl, {"delta1": np.linspace(0.2, 1.1, 19)}, n_max=2)
    flat_hits = [h for h in hits if h.manifold == "delta1+delta2=omega"]
    assert len(flat_hits) == 1
    h = flat_hits[0]
    assert h.candidate.g_independent
    assert h.candidate.n_index == 1 and h.candidate.parity is Parity.PLUS
    assert h.params.delta1 == pytest.approx(0.6, abs=1e-10)
    dark_hits = [h for h in hits if h.manifold == "delta1=delta2"]
    assert all(h.params.delta1 == pytest.approx(0.4, abs=1e-10)
               for h in dark_hits)
    tuned = [h for h in hits if not h.candidate.g_independent]
    assert all(h.manifold == "numeric" for h in tuned)


@pytest.mark.parametrize("template, axis, grid, n_index, at, label", [
    (ModelParams(1.0, 1.0, 0.2, 0.35, 0.35), "delta1", np.linspace(1.0, 1.4, 9),
     1, 1.2, "delta1-delta2=omega"),
    (ModelParams(1.0, 0.2, 1.0, 0.35, 0.35), "delta2", np.linspace(1.0, 1.4, 9),
     1, 1.2, "delta2-delta1=omega"),
    (ModelParams(1.0, 1.0, 0.4, 0.75, 0.75, jx=0.5, jy=-0.5, jz=-0.5), "delta1",
     np.linspace(0.05, 1.95, 39), 3, 1.4, "jx-jy-2jz=2omega"),
])
def test_scan_labels_odd_flat_lines(template, axis, grid, n_index, at, label):
    # Each odd manifold carries one g-independent zero on its line.
    hits = [h for h in scan_flat_lines(template, {axis: grid}) if h.manifold == label]
    assert len(hits) == 1
    h = hits[0]
    assert h.candidate.g_independent
    assert h.candidate.n_index == n_index and h.candidate.parity is Parity.MINUS
    assert getattr(h.params, axis) == pytest.approx(at, abs=1e-10)


def test_scan_finds_double_exchange_candidates():
    tpl = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, jx=0.5, jy=0.5, jz=0.2)
    hits = scan_flat_lines(tpl, {"jz": np.linspace(0.2, 0.8, 13)}, n_max=3)
    flat_ns = sorted(h.candidate.n_index for h in hits
                     if h.candidate.g_independent
                     and abs(h.params.jz - 0.5) < 1e-8
                     and h.candidate.parity is Parity.PLUS)
    assert flat_ns == [1, 3]
    labels = {h.candidate.n_index: h.manifold for h in hits
              if h.candidate.g_independent and h.candidate.parity is Parity.PLUS}
    assert labels[3] == "jx+jy+2jz=2omega"


def test_scan_far_from_manifolds_is_empty():
    tpl = ModelParams(1.0, 0.1, 0.5, 0.5, 0.5)
    hits = scan_flat_lines(tpl, {"delta1": np.linspace(0.05, 0.18, 9)}, n_max=1)
    assert [h for h in hits if h.candidate.g_independent] == []


def test_scan_rejects_bad_input(asym):
    with pytest.raises(RequiresEqualCouplings):
        scan_flat_lines(asym, {"delta1": np.linspace(0.1, 0.9, 5)})
    tpl = ModelParams(1.0, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        scan_flat_lines(tpl, {"g1": np.linspace(0.1, 0.9, 5)})
    with pytest.raises(ValueError):
        scan_flat_lines(tpl, {})


def test_scan_equal_probe_couplings_is_a_value_error(flat):
    # The second coupling tests g-independence: the first one again would flag
    # every hit g-independent, this scan's fine-tuned N = 2 hit too.
    grid = {"delta1": np.linspace(0.2, 1.1, 19)}
    hits = scan_flat_lines(flat, grid, n_max=2)
    assert [h.candidate.n_index for h in hits if not h.candidate.g_independent] == [2]
    with pytest.raises(ValueError, match="g_probe couplings must differ"):
        scan_flat_lines(flat, grid, n_max=2, g_probe=(0.8, 0.8))


def test_scan_steps_over_condition_poles(flat):
    # The N = 1 odd condition has a pole at jz = -1/2, where 1 + 2(jy + jz)
    # vanishes, and zeros where (2 jz + 1)^2 = (d2 - d1)^2, at jz = -0.6, -0.4.
    hits = scan_flat_lines(flat, {"jz": np.linspace(-1, 0, 8)}, n_max=1)
    assert all(abs(condition(h.params.with_g(0.8), h.candidate.parity,
                             h.candidate.n_index)) < 1e-10 for h in hits)
    odd = sorted(h.params.jz for h in hits
                 if h.candidate.parity is Parity.MINUS and h.candidate.n_index == 1)
    assert odd == pytest.approx([-0.6, -0.4], abs=1e-9)
    assert all(abs(h.params.jz + 0.5) > 1e-6 for h in hits)


def test_exceptional_energy_with_exchange(xyz_odd, xyz_double):
    assert exceptional_energy(xyz_odd, Parity.MINUS, 1) == pytest.approx(0.7)
    assert exceptional_energy(xyz_double, Parity.PLUS, 1) == pytest.approx(-0.5)
    assert exceptional_energy(xyz_double, Parity.PLUS, 3) == pytest.approx(1.5)


def test_energies_rescale_with_photon_frequency():
    p = ModelParams(3.0, 1.8, 1.2, 1.5, 1.5, jx=0.6, jy=0.3, jz=0.9)
    # In units of omega this is d=0.6/0.4, j=(0.2, 0.1, 0.3).
    assert exceptional_energy(p, Parity.PLUS, 1) == pytest.approx(
        3.0 * (1 - 0.2 - (0.1 + 0.3)))
    ref = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, jx=0.2, jy=0.1, jz=0.3)
    assert condition(p.with_g(3.0), Parity.PLUS, 1) == pytest.approx(
        condition(ref, Parity.PLUS, 1), rel=1e-12)


@pytest.mark.parametrize("model", ["flat", "xyz_odd", "xyz_double", "dark_half"])
def test_levels_sit_on_baselines(request, model):
    # Cutoff states and baselines come from the same center-0 divisors, so
    # every cutoff energy is a listed baseline, at any photon frequency.
    p = (ModelParams(0.5, 0.25, 0.25, 0.3, 0.3) if model == "dark_half"
         else request.getfixturevalue(model))
    lines = np.array([b.energy for b in baselines(p, -1.0, 3.0)])
    found = [e for parity in Parity for _, e, _, _ in exceptional.levels(p, parity, -1.0, 3.0)]
    assert found
    for e in found:
        assert np.min(np.abs(lines - e)) <= 1e-12 * p.omega, e


def test_cutoff_energies_are_baselines_bit_for_bit():
    # Dark models (d1 = d2) with exchange terms and omega != 1 hold a cutoff
    # state at every index. Its energy is omega times the center-0 divisor
    # energy that baselines lists, the same float, and so is
    # exceptional_energy's; a closed form N - Jx +/- (Jy + Jz) of its own
    # would miss the list by an ulp on 4 of 7 states of the first model.
    rng = np.random.default_rng(2011)
    models = [ModelParams(0.82, 0.78, 0.78, 1.36, 1.36, 0.28, -0.09, -0.01)]
    for w, d, g, *j in rng.uniform([0.2, 0, 0.05, -0.5, -0.5, -0.5],
                                   [2, 1, 1.5, 0.5, 0.5, 0.5], (40, 6)):
        models.append(ModelParams(w, d * w, d * w, g * w / 2, g * w / 2,
                                  *(x * w for x in j)))
    for p in models:
        lines = {b.energy for b in baselines(p, -1.0, 6 * p.omega)}
        found = [(parity, n, e) for parity in Parity
                 for n, e, _, _ in exceptional.levels(p, parity, -1.0, 6 * p.omega)]
        assert len(found) >= 4
        for parity, n, e in found:
            assert e in lines, (p, n, e)
            assert exceptional_energy(p, parity, n) == e


def test_dark_state_past_the_factorial_range():
    # The photon weights sqrt(m!/2) leave the double range past m = 170;
    # the dark state at N = 200 is built from weights relative to the
    # largest, and is the closed form (|200 ge> - |200 eg>)/sqrt(2).
    p = ModelParams(1.0, 0.5, 0.5, 0.5, 0.5)
    assert exceptional.levels(p, Parity.MINUS, 199.5, 200.0) == [(200, 200.0, 0.0, 0)]
    st = build_state(p, Parity.MINUS, 200)
    assert st.energy == 200.0
    assert [(n, pair) for n, pair, _ in st.coeffs] == [(200, "eg"), (200, "ge")]
    assert amp_map(st)[(200, "ge")] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert amp_map(st)[(200, "eg")] == pytest.approx(-1 / math.sqrt(2), rel=1e-15)
    assert oracle.residual(p, 202, st) < 1e-10


def test_scan_with_outer_axis():
    tpl = ModelParams(1.0, 0.3, 0.3, 0.5, 0.5)
    hits = scan_flat_lines(tpl, {"delta2": np.array([0.3, 0.45]),
                                 "delta1": np.linspace(0.4, 0.8, 9)}, n_max=1)
    flats = [(round(h.params.delta2, 6), round(h.params.delta1, 6))
             for h in hits if h.manifold == "delta1+delta2=omega"]
    assert (0.3, 0.7) in flats and (0.45, 0.55) in flats


def test_state_vector_and_support(flat):
    st = build_state(flat.with_g(0.8), Parity.PLUS, 1)
    v = st.vector(5)
    assert v.shape == (24,)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    with pytest.raises(Exception):
        st.vector(0)


def test_levels_bound_photon_number_in_units_of_omega():
    # Dark states sit at E = N omega with parity -(-1)^N; with omega = 0.5 the
    # window [1.9, 3] holds N = 4, 5 and 6.
    p = ModelParams(0.5, 0.25, 0.25, 0.3, 0.3)
    found = sorted((n, par.sign, e) for par in (Parity.PLUS, Parity.MINUS)
                   for n, e, _, _ in exceptional.levels(p, par, 1.9, 3.0))
    assert found == [(4, -1, 2.0), (5, 1, 2.5), (6, -1, 3.0)]
    assert exceptional.levels(ModelParams(1.0, 0.6, 0.2, 0.24, 0.06),
                              Parity.PLUS, 0.0, 1.0) == []
