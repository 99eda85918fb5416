"""Fourier-space field energies of vector-valued and classical currents.

Energy = 1/2 (2 pi)^-3 int |jhat(xi)|^2 / |xi|^2 dxi, evaluated with a
spherical-product rule (Gauss radial nodes x Gauss-Legendre polar x uniform
azimuthal).  This module deliberately shares no integration code with the
kernel module: the equality of the field energy with -<A_M X, X> is used as
a cross-validation of two independent numerical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cutoff import CutoffProfile, phi_eval
from .kernel import a11_origin
from .spin_algebra import ProductState
from .spin_operator import SpinSystem, assemble_am, quadratic_form, \
    site_spin_operators
from .errors import DomainError

DEFAULT_N_RADIAL = 96
DEFAULT_N_THETA = 32
DEFAULT_N_PHI = 64
_BATCH_NODES = 2048  # per evaluator call: 1.5 MB of amplitudes at s=3/2, P=2


@dataclass
class FourierCurrent:
    """Transverse current in Fourier space.

    evaluator maps a batch of points xi (N, 3) to amplitudes of shape
    (N, 3) for a classical current or (N, 3, spin_dim) for a
    spin-valued one.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    profile: CutoffProfile


def _transverse_current(system: SpinSystem, profile: CutoffProfile, V):
    """Evaluator of jhat(xi) = i phi(|xi|) sum_lam e^{i xi.x_lam} xi x V_lam.

    V (P, 3, ...) holds the moment-weighted site vectors.  The cross product
    is folded into E[(lam, j), (m, e)] = sum_k eps_mjk V[lam, k, e], so N
    nodes cost one (N, 3P) @ (3P, 3d) product.
    """
    P = system.P
    V3 = np.asarray(V, dtype=complex).reshape(P, 3, -1)
    E = np.zeros((P, 3, 3, V3.shape[2]), dtype=complex)  # [lam, j, m, e]
    for m, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        E[:, j, m], E[:, k, m] = V3[:, k], -V3[:, j]
    # B @ E as a real product on (re, im) pairs: a complex one (zgemm,
    # OpenBLAS 0.3.31, AVX-512 Xeon) slowed the float code after it 3-20x.
    E_real = np.stack([E, 1j * E], axis=2).view(float).reshape(6 * P, -1)

    def evaluator(xi):
        xi = np.atleast_2d(xi)
        # real (N, P) product: exp right after a complex one ran ~10x slower
        phases = np.exp(1j * (xi @ system.positions.T))
        phases *= 1j * phi_eval(profile, np.linalg.norm(xi, axis=1))[:, None]
        B = (phases[:, :, None] * xi[:, None, :]).reshape(len(xi), 3 * P)
        amp = (B.view(float) @ E_real).view(complex)
        return amp.reshape((len(xi),) + np.shape(V)[1:])

    return evaluator


def vector_current(system: SpinSystem, profile: CutoffProfile, X) -> FourierCurrent:
    """Spin-space-valued current jhat(xi, X) of a spin state X."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (system.spin_dim,):
        raise DomainError(f"spin state needs {system.spin_dim} components")
    if abs(np.linalg.norm(X) - 1.0) > 1e-12:
        raise DomainError("vector current requires a normalized state")
    sigX = (site_spin_operators(system.s, system.P) @ X).reshape(
        system.P, 3, -1)  # (P, 3, dim)
    V = system.moments[:, None, None] * sigX
    return FourierCurrent(evaluator=_transverse_current(system, profile, V),
                          profile=profile)


def classical_current(system: SpinSystem, profile: CutoffProfile, S) -> FourierCurrent:
    """Classical current jhat(xi, S) of magnet orientations S in (S_2)^P."""
    S = np.asarray(S, dtype=float)
    if S.shape != (system.P, 3):
        raise DomainError("need one unit orientation per particle")
    if np.any(np.abs(np.linalg.norm(S, axis=1) - 1.0) > 1e-10):
        raise DomainError("orientations must be unit vectors")
    V = system.moments[:, None] * S  # (P, 3)
    return FourierCurrent(evaluator=_transverse_current(system, profile, V),
                          profile=profile)


def _spherical_nodes(profile, n_radial, n_theta, n_phi):
    r_far = profile.far_radius()
    rn, rw = np.polynomial.legendre.leggauss(n_radial)
    rn = 0.5 * r_far * (rn + 1.0)
    rw = 0.5 * r_far * rw
    cn, cw = np.polynomial.legendre.leggauss(n_theta)
    ph = 2.0 * math.pi * np.arange(n_phi) / n_phi
    pw = 2.0 * math.pi / n_phi
    st = np.sqrt(1.0 - cn * cn)
    dirs = np.stack([np.outer(st, np.cos(ph)).ravel(),
                     np.outer(st, np.sin(ph)).ravel(),
                     np.repeat(cn, n_phi)], axis=1)  # (n_theta*n_phi, 3)
    dw = np.repeat(cw, n_phi) * pw
    xi = (rn[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    w = (rw[:, None] * rn[:, None] ** 2 * dw[None, :]).ravel()
    return xi, w


def field_energy(current: FourierCurrent,
                 n_radial: int = DEFAULT_N_RADIAL,
                 n_theta: int = DEFAULT_N_THETA,
                 n_phi: int = DEFAULT_N_PHI) -> float:
    """Nonnegative energy 1/2 (2 pi)^-3 int |jhat|^2 / |xi|^2 dxi.

    Integrable at xi = 0 because jhat(xi) = O(|xi|); the radial Gauss rule
    keeps the origin off the node set.
    """
    if min(n_radial, n_theta, n_phi) < 1:
        raise DomainError("field energy needs at least one node per axis")
    xi, w = _spherical_nodes(current.profile, n_radial, n_theta, n_phi)
    mag2 = np.empty(len(xi))
    for a in range(0, len(xi), _BATCH_NODES):
        amp = np.ascontiguousarray(current.evaluator(xi[a:a + _BATCH_NODES]))
        parts = amp.reshape(len(amp), -1).view(amp.real.dtype)  # (re, im)
        mag2[a:a + _BATCH_NODES] = np.sum(parts * parts, axis=1)
    r2 = np.sum(xi * xi, axis=1)
    return 0.5 * (2.0 * math.pi) ** -3 * float(np.sum(w * mag2 / r2))


def higher_spin_constant(s) -> float:
    """Constant C(s) = 2 s (s+1) - 1/2 of the classical decomposition."""
    return 2.0 * s * (s + 1.0) - 0.5


def classical_decomposition_check(system: SpinSystem, profile: CutoffProfile,
                                  X: ProductState, **quad_sizes):
    """Compare <A_M X, X> against the magnet-energy decomposition.

    lhs = <A_M X, X>;
    rhs = -(classical field energy at S(X))
          - C(s) A_11(0) sum_lam M[lam]^2.
    Returns (lhs, rhs, |lhs - rhs|).
    """
    lhs = quadratic_form(assemble_am(system, profile), X.vector)
    e_class = field_energy(
        classical_current(system, profile, X.spin_vectors), **quad_sizes)
    rhs = -e_class - higher_spin_constant(system.s) * a11_origin(profile) \
        * float(np.sum(system.moments ** 2))
    return lhs, rhs, abs(lhs - rhs)
