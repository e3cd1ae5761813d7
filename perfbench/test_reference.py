"""Tests of the benchmark's independent reference: python -m pytest perfbench"""

import numpy as np
import pytest

import reference
from reference import Model


@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_decoupled_limit(omega):
    """With g1 = g2 = 0 the levels are n*omega +/- d1 +/- d2, parity (-1)^n s1 s2."""
    m = Model(omega, 0.6, 0.2, 0.0, 0.0)
    got = reference.levels(m, 3.0)
    want = {1: [], -1: []}
    for n in range(12):
        for s1 in (1, -1):
            for s2 in (1, -1):
                e = n * omega + s1 * m.delta1 + s2 * m.delta2
                if e <= 3.0:
                    want[(-1) ** n * s1 * s2].append(e)
    for s in (1, -1):
        np.testing.assert_allclose(got[s], sorted(want[s]), atol=1e-12)


@pytest.mark.parametrize("g", [0.3, 1.0, 2.2])
def test_flat_level_at_omega_for_unit_splitting_sum(g):
    """d1 + d2 = omega with g1 = g2 puts an even level at E = omega for every g."""
    m = Model(1.0, 0.6, 0.4, g / 2, g / 2)
    even = reference.levels(m, 2.0)[1]
    assert np.min(np.abs(even - 1.0)) < 1e-11


def test_dark_states_are_levels():
    """For d1 = d2 and g1 = g2 each n*omega is a level of parity -(-1)^n."""
    m = Model(0.5, 0.25, 0.25, 0.9, 0.9)
    got = reference.levels(m, 3.0)
    dark = reference.dark_state_energies(m, -1.0, 3.0)
    assert [e for e, _ in dark] == [0.5 * n for n in range(7)]
    for e, s in dark:
        assert np.min(np.abs(got[s] - e)) < 1e-10


def test_two_truncations_agree():
    """The returned levels do not move when the photon basis grows further."""
    m = Model(1.0, 0.6, 0.2, 1.5, 0.7, jx=0.2, jy=-0.1, jz=0.3)
    got = reference.levels(m, 2.5)
    for s, block in reference.parity_blocks(m, 400).items():
        big = np.linalg.eigvalsh(block)[:got[s].size]
        np.testing.assert_allclose(got[s], big, atol=1e-10)


def test_parity_blocks_split_the_hamiltonian():
    """Both blocks are symmetric and together hold 4 (T + 1) states."""
    blocks = reference.parity_blocks(Model(1.0, 0.3, 0.5, 0.4, 0.2, 0.1, 0.2, 0.3), 9)
    assert sum(b.shape[0] for b in blocks.values()) == 40
    for b in blocks.values():
        np.testing.assert_array_equal(b, b.T)


def test_baselines_closed_form():
    m = Model(1.0, 0.6, 0.2, 0.24, 0.06)
    got = reference.baselines(m, -1.0, 2.0)
    want = sorted([n - 0.09 for n in range(3)] + [n - 0.0324 for n in range(3)])
    np.testing.assert_allclose(got, want, atol=1e-12)
