"""Smeared transverse delta-function kernel.

A_jm(x) = (2 pi)^-3 int |phi(|k|)|^2 e^{-i k.x} (delta_jm - k_j k_m / |k|^2) dk.

The production path reduces the angular integral analytically:

    A(x) = a(|x|) I + b(|x|) xhat xhat^T,
    a(t) = (6 pi^2)^-1 int |phi(r)|^2 r^2 (2 j0(rt) - j2(rt)) dr,
    b(t) = (2 pi^2)^-1 int |phi(r)|^2 r^2 j2(rt) dr,

with j0, j2 spherical Bessel functions.  Both radial integrals share the
nodes of one composite 16-node Gauss-Legendre rule on [0, r_far]
(cutoff._radial_quad), which starts at one panel per period of j0(rt) and
doubles until two panel counts agree.  Past |x| of about 1500 lam^-1 the
rule would need more than 4096 panels and raises QuadratureError.  A
brute-force 3D tensor-product quadrature oracle is provided for
cross-validation in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import CutoffProfile, phi_eval, _radial_quad, j0, j2
from .errors import DomainError

# Absolute error target of the production kernel; downstream identity checks
# run at 1e-6 and need headroom.
KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class KernelMatrix:
    """Real symmetric 3x3 kernel evaluated at a displacement."""

    entries: np.ndarray


def a11_origin(profile: CutoffProfile, tol: float = KERNEL_TOL) -> float:
    """Diagonal kernel value at zero displacement.

    A_11(0) = (3 pi^2)^-1 int_0^inf |phi(r)|^2 r^2 dr; strictly positive.
    """
    val = _radial_quad(lambda r: (phi_eval(profile, r) * r) ** 2,
                       profile.far_radius(), tol, 0.0)
    return float(val) / (3.0 * math.pi ** 2)


def kernel_matrix(profile: CutoffProfile, x, tol: float = KERNEL_TOL) -> KernelMatrix:
    """Evaluate the transverse kernel matrix at displacement x."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t < 1e-12:
        return KernelMatrix(entries=a11_origin(profile, tol) * np.eye(3))

    def integrands(r):
        j2r = j2(r * t)
        return (phi_eval(profile, r) * r) ** 2 \
            * np.stack([2.0 * j0(r * t) - j2r, j2r])

    a, b = _radial_quad(integrands, profile.far_radius(), tol, t) \
        / (6.0 * math.pi ** 2, 2.0 * math.pi ** 2)
    xhat = x / t
    return KernelMatrix(entries=a * np.eye(3) + b * np.outer(xhat, xhat))


def kernel_oracle_3d(profile: CutoffProfile, x, n: int = 128) -> KernelMatrix:
    """Brute-force 3D tensor-product quadrature of the defining integral.

    Gauss-Legendre nodes on a symmetric box, no radial reduction; intended
    for tests only.
    """
    m = kernel_oracle_3d_complex(profile, x, n)
    return KernelMatrix(entries=m.real)


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
    sq = nodes * nodes
    k2 = sq[:, None, None] + sq[:, None] + sq
    # e^{-i k.x} w factors into one weighted 1-D phase per axis
    ex, ey, ez = weights * np.exp(-1j * np.outer(x, nodes))
    f = phi_eval(profile, np.sqrt(k2)) ** 2 / k2 \
        * (ex[:, None, None] * np.outer(ey, ez))
    # S_jm = sum f k_j k_m from the three 2-D marginals of f
    fxy, fxz, fyz = f.sum(axis=2), f.sum(axis=1), f.sum(axis=0)
    S = np.empty((3, 3), dtype=complex)
    S[0, 0], S[1, 1], S[2, 2] = \
        sq @ fxy.sum(axis=1), sq @ fxy.sum(axis=0), sq @ fxz.sum(axis=0)
    S[0, 1] = S[1, 0] = nodes @ fxy @ nodes
    S[0, 2] = S[2, 0] = nodes @ fxz @ nodes
    S[1, 2] = S[2, 1] = nodes @ fyz @ nodes
    out = np.trace(S) * np.eye(3) - S
    return out / (2.0 * math.pi) ** 3
