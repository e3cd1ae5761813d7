"""Shared parameter sets for the test suite (all in omega = 1 units)."""

import pytest

from tqrabi import ModelParams


@pytest.fixture(scope="session")
def asym():
    """Asymmetric couplings, g = 0.3, g' = 0.18 (chain g -> g' -> 0)."""
    return ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)


@pytest.fixture(scope="session")
def ratio2():
    """g1 = 2 g2, g = 0.5, g' = g/3 (chain g -> g' -> 0 with g' < g/2)."""
    return ModelParams(1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0)


@pytest.fixture(scope="session")
def flat():
    """Identical couplings with delta1 + delta2 = 1 (flat level at E = 1)."""
    return ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)


@pytest.fixture(scope="session")
def equal_qubits():
    """Fully permutation-symmetric qubits (dark states at every photon number)."""
    return ModelParams(1.0, 0.5, 0.5, 0.75, 0.75)


@pytest.fixture(scope="session")
def xyz_odd():
    """Exchange-coupled model with an odd-parity flat level at E = 0.7."""
    return ModelParams(1.0, 0.1, 0.7, 0.75, 0.75, jx=0.7, jy=0.1, jz=0.3)


@pytest.fixture(scope="session")
def xyz_double():
    """Isotropic exchange J = 0.5 with two flat levels (E = -0.5 and 1.5)."""
    return ModelParams(1.0, 0.6, 0.4, 0.75, 0.75, jx=0.5, jy=0.5, jz=0.5)
