# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad import CutoffProfile, SpinSystem

import math

import numpy as np
import pytest

from spinrad.cutoff import phi_eval
from spinrad.fock import build_mode_grid
from spinrad.spin_algebra import spin_matrices


@pytest.fixture(scope="session")
def profile():
    return CutoffProfile(1.0)


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


def grid_modes(grid):
    """Wavevectors k (N, 3) and weights w (N,) of the grid's modes.

    Mode (s, d), shell major, is k = radius[s] direction[d] with weight
    radial_weight[s] radius[s]^2 direction_weight[d] for int dk.
    """
    k = grid.radius[:, None, None] * grid.direction
    w = (grid.radial_weight * grid.radius * grid.radius)[:, None] \
        * grid.direction_weight
    return k.reshape(-1, 3), w.ravel()


def projector_kernel(profile, grid, d):
    """Mode-sum kernel (2 pi)^-3 sum_i w_i |phi|^2 e^{-i k_i.d} (I - khat khat).

    The transverse-projector form of the discrete kernel, one displacement
    at a time, on the complex plane waves of every mode: the reference for
    the shell factors that fock.discrete_am builds A_M from.  Its
    imaginary part cancels between the antipodal directions of the grid.
    """
    k, w = grid_modes(grid)
    r = np.linalg.norm(k, axis=1)
    khat = k / r[:, None]
    f = w * phi_eval(profile, r) ** 2 \
        * np.exp(-1j * k @ np.asarray(d, dtype=float))
    proj = np.eye(3)[None] - khat[:, :, None] * khat[:, None, :]
    out = np.einsum("n,nab->ab", f, proj) * (2.0 * math.pi) ** -3
    assert np.abs(out.imag).max() <= 1e-12 * max(1.0, np.abs(out.real).max())
    return out.real
