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
rule would need more than 4096 panels and raises QuadratureError.

kernel_oracle_3d cross-checks that reduction with a brute-force 3D
tensor-product Gauss-Legendre rule on the defining integral; `spinrad
verify` and the tests run it.  It sums each symmetric node pair +-k_a in
closed form (cosines for even factors, sines for the odd k_a), so it
visits only the positive octant and returns a real matrix.
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


def a11_origin(profile: CutoffProfile) -> float:
    """Diagonal kernel value at zero displacement.

    A_11(0) = (3 pi^2)^-1 int_0^inf |phi(r)|^2 r^2 dr; strictly positive.
    """
    val = _radial_quad(lambda r: (phi_eval(profile, r) * r) ** 2,
                       profile.far_radius(), KERNEL_TOL, 0.0)
    return float(val) / (3.0 * math.pi ** 2)


def kernel_matrix(profile: CutoffProfile, x) -> KernelMatrix:
    """Evaluate the transverse kernel matrix at displacement x."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t < 1e-12:
        return KernelMatrix(entries=a11_origin(profile) * np.eye(3))

    def integrands(r):
        j2r = j2(r * t)
        return (phi_eval(profile, r) * r) ** 2 \
            * np.stack([2.0 * j0(r * t) - j2r, j2r])

    a, b = _radial_quad(integrands, profile.far_radius(), KERNEL_TOL, t) \
        / (6.0 * math.pi ** 2, 2.0 * math.pi ** 2)
    xhat = x / t
    return KernelMatrix(entries=a * np.eye(3) + b * np.outer(xhat, xhat))


def kernel_oracle_3d(profile: CutoffProfile, x, n: int = 128) -> KernelMatrix:
    """Brute-force 3D tensor-product quadrature of the defining integral.

    Gauss-Legendre nodes on a symmetric box, no radial reduction.  The
    nodes pair up as +-k_a on every axis with equal weights, and
    g(k) = |phi(|k|)|^2 / |k|^2 is even in each k_a, so each pair sums in
    closed form: e^{-i k_a x_a} becomes c_a = 2 w cos(k_a x_a) and the odd
    factor k_a e^{-i k_a x_a} becomes -i s_a, s_a = 2 w k_a sin(k_a x_a).
    Over the positive octant, (n/2)^3 real nodes,

        S_jj = sum g k_j^2 c_x c_y c_z,   S_jm = -sum g s_j s_m c_l,

    with l the third axis, and A = (tr S - S) / (2 pi)^3 is real exactly.
    """
    if n < 8:
        raise DomainError("oracle needs at least 8 nodes per axis")
    if n % 2:
        n += 1  # even count keeps k = 0 off the node set
    x = np.asarray(x, dtype=float)
    # |phi|^2 decays twice as fast as phi: half the usual log-threshold.
    half = profile.far_radius(1e-8)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    # leggauss returns exactly symmetric nodes and weights, ascending: keep
    # the positive half, its weights doubled for the +-k pair
    k = nodes[n // 2:] * half
    w = 2.0 * weights[n // 2:] * half
    phase = np.outer(x, k)
    cx, cy, cz = w * np.cos(phase)
    sx, sy, sz = w * k * np.sin(phase)
    sq = k * k
    k2 = sq[:, None, None] + sq[:, None] + sq
    g = phi_eval(profile, np.sqrt(k2)) ** 2 / k2
    # the three 2-D marginals of g, each weighted along the summed axis
    gxy, gxz, gyz = g @ cz, cy @ g, np.tensordot(cx, g, 1)
    S = np.empty((3, 3))
    S[0, 0] = (sq * cx) @ gxy @ cy
    S[1, 1] = cx @ gxy @ (sq * cy)
    S[2, 2] = cx @ gxz @ (sq * cz)
    S[0, 1] = S[1, 0] = -(sx @ gxy @ sy)
    S[0, 2] = S[2, 0] = -(sx @ gxz @ sz)
    S[1, 2] = S[2, 1] = -(sy @ gyz @ sz)
    out = np.trace(S) * np.eye(3) - S
    return KernelMatrix(entries=out / (2.0 * math.pi) ** 3)
