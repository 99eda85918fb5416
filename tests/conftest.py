# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad import CutoffProfile, SpinSystem

import numpy as np
import pytest

from spinrad.fock import build_mode_grid
from spinrad.spin_algebra import spin_matrices


@pytest.fixture(scope="session")
def profile():
    return CutoffProfile("gaussian", 1.0)


@pytest.fixture(scope="session")
def two_spin_system():
    return SpinSystem(positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]],
                      moments=[0.8, -0.5], s=0.5)


@pytest.fixture(scope="session")
def default_grid(profile):
    return build_mode_grid(profile, 24, 12)


@pytest.fixture(scope="session")
def small_grid(profile):
    return build_mode_grid(profile, 6, 6)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def kron_embed(op, lam, P):
    """Dense I (x) ... (x) op (x) ... (x) I (op at 1-based slot lam) by np.kron."""
    d = np.shape(op)[0]
    return np.kron(np.kron(np.eye(d ** (lam - 1)), op), np.eye(d ** (P - lam)))


def kron_site_spins(s, P):
    """Dense sigma_m^[lam+1] as [lam][m], each an np.kron chain."""
    sig = spin_matrices(s)
    return [[kron_embed(sig[m], lam + 1, P) for m in range(3)]
            for lam in range(P)]
