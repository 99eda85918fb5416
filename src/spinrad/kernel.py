"""Smeared transverse delta-function kernel.

A_jm(x) = (2 pi)^-3 int |phi(|k|)|^2 e^{-i k.x} (delta_jm - k_j k_m / |k|^2) dk.

The production path reduces the angular integral analytically:

    A(x) = a(|x|) I + b(|x|) xhat xhat^T,
    a(t) = (6 pi^2)^-1 int |phi(r)|^2 r^2 (2 j0(rt) - j2(rt)) dr,
    b(t) = (2 pi^2)^-1 int |phi(r)|^2 r^2 j2(rt) dr,

with j0, j2 spherical Bessel functions.  A brute-force 3D tensor-product
quadrature oracle is provided for cross-validation in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import CutoffProfile, phi_eval, _profile_fn, _radial_quad, j0, j2
from .errors import DomainError

# Absolute error target of the production kernel; downstream identity checks
# run at 1e-6 and need headroom.
KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class KernelMatrix:
    """Real symmetric 3x3 kernel evaluated at a displacement."""

    entries: np.ndarray
    displacement: np.ndarray


def a11_origin(profile: CutoffProfile, tol: float = KERNEL_TOL) -> float:
    """Diagonal kernel value at zero displacement.

    A_11(0) = (3 pi^2)^-1 int_0^inf |phi(r)|^2 r^2 dr; strictly positive.
    """
    r_far = profile.far_radius()
    phi = _profile_fn(profile)
    return _radial_quad(lambda r: phi(r) ** 2 * r * r, r_far, tol) \
        / (3.0 * math.pi ** 2)


def kernel_matrix(profile: CutoffProfile, x, tol: float = KERNEL_TOL) -> KernelMatrix:
    """Evaluate the transverse kernel matrix at displacement x."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t < 1e-12:
        return KernelMatrix(entries=a11_origin(profile, tol) * np.eye(3),
                            displacement=x.copy())
    r_far = profile.far_radius()
    phi = _profile_fn(profile)
    a = _radial_quad(
        lambda r: phi(r) ** 2 * r * r * (2.0 * j0(r * t) - j2(r * t)),
        r_far, tol) / (6.0 * math.pi ** 2)
    b = _radial_quad(lambda r: phi(r) ** 2 * r * r * j2(r * t),
                     r_far, tol) / (2.0 * math.pi ** 2)
    xhat = x / t
    return KernelMatrix(entries=a * np.eye(3) + b * np.outer(xhat, xhat),
                        displacement=x.copy())


def kernel_oracle_3d(profile: CutoffProfile, x, n: int = 128) -> KernelMatrix:
    """Brute-force 3D tensor-product quadrature of the defining integral.

    Gauss-Legendre nodes on a symmetric box, no radial reduction; intended
    for tests only.
    """
    m = kernel_oracle_3d_complex(profile, x, n)
    return KernelMatrix(entries=m.real, displacement=np.asarray(x, dtype=float))


def kernel_oracle_3d_complex(profile: CutoffProfile, x, n: int = 128) -> np.ndarray:
    """Complex raw sum of the 3D oracle (imaginary part cancels by symmetry)."""
    if n < 8:
        raise DomainError("oracle needs at least 8 nodes per axis")
    if n % 2:
        n += 1  # even count keeps k = 0 off the node set
    x = np.asarray(x, dtype=float)
    # |phi|^2 decays twice as fast as phi: half the usual log-threshold.
    half = profile.far_radius(1e-8)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes = nodes * half
    weights = weights * half
    kx, ky, kz = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    w = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :])
    k = np.stack([kx, ky, kz], axis=-1)
    k2 = kx * kx + ky * ky + kz * kz
    phase = np.exp(-1j * (k @ x))
    f = phi_eval(profile, np.sqrt(k2)) ** 2 * phase * w / k2
    out = np.empty((3, 3), dtype=complex)
    for j in range(3):
        for m_ in range(3):
            proj = (k2 if j == m_ else 0.0) - k[..., j] * k[..., m_]
            out[j, m_] = np.sum(f * proj)
    return out / (2.0 * math.pi) ** 3
