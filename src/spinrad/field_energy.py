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


@dataclass
class FourierCurrent:
    """Transverse current in Fourier space.

    evaluator maps a batch of points xi (N, 3) to amplitudes of shape
    (N, 3) for the classical flavor or (N, 3, spin_dim) for the
    vector-valued flavor.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    flavor: str  # "vector" or "classical"
    profile: CutoffProfile


def _cross_batch(xi, V):
    """Cross product of xi (N, 3) with V (N, 3, ...) along the 3-axis."""
    out = np.empty_like(V)
    a, b, c = (xi[:, i] for i in range(3))
    sl = (slice(None),) + (None,) * (V.ndim - 2)
    a, b, c = a[sl], b[sl], c[sl]
    out[:, 0] = b * V[:, 2] - c * V[:, 1]
    out[:, 1] = c * V[:, 0] - a * V[:, 2]
    out[:, 2] = a * V[:, 1] - b * V[:, 0]
    return out


def vector_current(system: SpinSystem, profile: CutoffProfile, X) -> FourierCurrent:
    """Spin-space-valued current jhat(xi, X) of a spin state X."""
    X = np.asarray(X, dtype=complex)
    if abs(np.linalg.norm(X) - 1.0) > 1e-12:
        raise DomainError("vector current requires a normalized state")
    sigX = (site_spin_operators(system.s, system.P) @ X).reshape(
        system.P, 3, -1)  # (P, 3, dim)

    def evaluator(xi):
        xi = np.atleast_2d(xi)
        r = np.linalg.norm(xi, axis=1)
        phases = np.exp(1j * xi @ system.positions.T)  # (N, P)
        amp = np.einsum("l,nl,lmd->nmd", system.moments.astype(complex),
                        phases, sigX)
        out = 1j * phi_eval(profile, r)[:, None, None] * _cross_batch(xi, amp)
        return out

    return FourierCurrent(evaluator=evaluator, flavor="vector", profile=profile)


def classical_current(system: SpinSystem, profile: CutoffProfile, S) -> FourierCurrent:
    """Classical current jhat(xi, S) of magnet orientations S in (S_2)^P."""
    S = np.asarray(S, dtype=float)
    if S.shape != (system.P, 3):
        raise DomainError("need one unit orientation per particle")
    if np.any(np.abs(np.linalg.norm(S, axis=1) - 1.0) > 1e-10):
        raise DomainError("orientations must be unit vectors")
    MS = system.moments[:, None] * S  # (P, 3)

    def evaluator(xi):
        xi = np.atleast_2d(xi)
        r = np.linalg.norm(xi, axis=1)
        phases = np.exp(1j * xi @ system.positions.T)  # (N, P)
        amp = phases @ MS.astype(complex)  # (N, 3)
        return 1j * phi_eval(profile, r)[:, None] * _cross_batch(xi, amp)

    return FourierCurrent(evaluator=evaluator, flavor="classical", profile=profile)


def jvect_fourier(system, profile, X, xi) -> np.ndarray:
    """Vector-valued current amplitude at a single point xi; shape (3, dim)."""
    return vector_current(system, profile, X).evaluator(np.atleast_2d(xi))[0]


def jclass_fourier(system, profile, S, xi) -> np.ndarray:
    """Classical current amplitude at a single point xi; shape (3,)."""
    return classical_current(system, profile, S).evaluator(np.atleast_2d(xi))[0]


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
    xi, w = _spherical_nodes(current.profile, n_radial, n_theta, n_phi)
    amp = current.evaluator(xi)
    mag2 = np.sum(np.abs(amp) ** 2, axis=tuple(range(1, amp.ndim)))
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
