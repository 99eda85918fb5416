# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad import CutoffProfile, SpinSystem

import functools
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
    return build_mode_grid(profile, 24)


@pytest.fixture(scope="session")
def small_grid(profile):
    return build_mode_grid(profile, 6)


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


def weight_basis_matrix(op):
    """op.matrix rotated back to the weight basis by a dense Kronecker chain.

    W A W^H with W = V (x) ... (x) V for op's site basis V, so an operator
    in a time-reversal-real basis compares entry by entry with a
    weight-basis reference.
    """
    if op.site_basis is None:
        return op.matrix
    P = round(math.log(op.matrix.shape[0], len(op.site_basis)))
    W = functools.reduce(np.kron, [op.site_basis] * P)
    return W @ op.matrix @ W.conj().T


def product_modes(grid, n_angular):
    """Wavevectors k (N, 3) and weights w (N,) of a spherical-product rule.

    The grid's radial shells times n_angular / 2 Gauss-Legendre polar
    nodes and n_angular uniform azimuths, azimuth fastest; mode (s, d),
    shell major, is k = radius[s] u_d with weight radial_weight[s]
    radius[s]^2 w_d for int dk.  The rule is closed under u -> -u.  It is
    the tests' own angular quadrature, the reference for the exact
    shells of fock.shell_couplings.
    """
    cn, cw = np.polynomial.legendre.leggauss(n_angular // 2)
    C, F = np.meshgrid(cn, 2.0 * math.pi * np.arange(n_angular) / n_angular,
                       indexing="ij")
    S = np.sqrt(1.0 - C * C)
    u = np.stack([S * np.cos(F), S * np.sin(F), C], axis=-1).reshape(-1, 3)
    uw = np.repeat(cw * (2.0 * math.pi / n_angular), n_angular)
    k = grid.radius[:, None, None] * u
    w = (grid.radial_weight * grid.radius * grid.radius)[:, None] * uw
    return k.reshape(-1, 3), w.ravel()


def projector_kernel(profile, grid, d, n_angular=12):
    """Mode-sum kernel (2 pi)^-3 sum_i w_i |phi|^2 e^{-i k_i.d} (I - khat khat).

    The transverse-projector form of the discrete kernel, one displacement
    at a time, on the complex plane waves of every mode of product_modes.
    Its imaginary part cancels between the antipodal directions.
    """
    k, w = product_modes(grid, n_angular)
    r = np.linalg.norm(k, axis=1)
    khat = k / r[:, None]
    f = w * phi_eval(profile, r) ** 2 \
        * np.exp(-1j * k @ np.asarray(d, dtype=float))
    proj = np.eye(3)[None] - khat[:, :, None] * khat[:, None, :]
    out = np.einsum("n,nab->ab", f, proj) * (2.0 * math.pi) ** -3
    assert np.abs(out.imag).max() <= 1e-12 * max(1.0, np.abs(out.real).max())
    return out.real
