"""Smeared transverse delta-function kernel.

A_jm(x) = (2 pi)^-3 int |phi(|k|)|^2 e^{-i k.x} (delta_jm - k_j k_m / |k|^2) dk.

For the Gaussian cutoff, |phi(r)|^2 = exp(-r^2 / lam^2), the integral has a
closed form.  The delta_jm part is the transform g of |phi|^2, and the
k_j k_m / |k|^2 part is -d_j d_m u, where u is the transform of
|phi|^2 / |k|^2, the Gaussian-smeared Coulomb potential (-Laplacian u = g):

    A(x) = g I + grad grad u,
    g(r) = lam^3 e^{-z^2} / (8 pi^(3/2)),   u(r) = erf(z) / (4 pi r),

with r = |x| and z = lam r / 2.  So A(x) = a(r) I + b(r) xhat xhat^T with

    a = g + u'/r,   b = u'' - u'/r = -g - 3 u'/r,
    u'/r = lam^3 F(z) / (32 pi),
    F(z) = (2 z e^{-z^2} / sqrt(pi) - erf z) / z^3.

At the origin A(0) = (2/3) g(0) I = lam^3 / (12 pi^(3/2)) I, and beyond the
cutoff scale A approaches the point-dipole tail -(I - 3 xhat xhat^T) /
(4 pi r^3).  The numerator of F cancels as z -> 0 (F(0) = -4 / (3 sqrt pi)
from terms of order z), so below z = 1 its power series replaces it.
Beyond z = 5.6e102, where z^3 has no finite float, erf z = 1 and
e^{-z^2} = 0, so u'/r is the tail -1 / (4 pi r^3) itself; it is
subnormal beyond r = 1.5e102 and zero beyond r = 3.2e107.

kernel_oracle_3d cross-checks the closed form with a brute-force 3D
tensor-product Gauss-Legendre rule on the defining integral; `spinrad
verify` and the tests run it.  It sums each symmetric node pair +-k_a in
closed form (cosines for even factors, sines for the odd k_a), so it
visits only the positive octant and returns a real matrix.  Its 1-D
Gauss-Legendre factors and the table g = |phi|^2 / |k|^2 on the (n/2)^3
octant nodes do not depend on x: they are built once per process for each
key (profile, n), held read-only, and at most 4 keys are kept (2.1 MB per
table at n = 128, 16.8 MB at n = 256).  The table is the product of the
per-axis factors phi(k_a)^2 over |k|^2 (see _oracle_rule): on a 2-core
x86_64 box the rule builds in 5.5-6.6 ms at n = 128, of which leggauss
is 2.3 ms and the table 2.3 ms (5.1-5.4 ms when it took an exp of |k|
at each node).  A call then costs the cosines and sines of x and the
three marginals: 0.3 ms at n = 128.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cutoff import CutoffProfile, phi_eval
from .errors import DomainError, _integer

# F(z) = (2 / sqrt(pi)) sum_{n>=1} (-1)^n 2n z^(2n-2) / ((2n+1) n!) to 18
# terms, coefficients of z^(2n-2) highest power first; below z = 1 the
# truncation error is under 1e-17
_F_SERIES = [2.0 / math.sqrt(math.pi) * (-1) ** n * 2 * n
             / ((2 * n + 1) * math.factorial(n)) for n in range(18, 0, -1)]

# Largest z whose cube is a finite float, 5.6e102
_Z_CUBE_MAX = sys.float_info.max ** (1.0 / 3.0)


@dataclass(frozen=True)
class KernelMatrix:
    """Real symmetric 3x3 kernel evaluated at a displacement."""

    entries: np.ndarray


def a11_origin(profile: CutoffProfile) -> float:
    """Diagonal kernel value at zero displacement, lam^3 / (12 pi^(3/2))."""
    return profile.lam ** 3 * math.pi ** -1.5 / 12.0


def _dipole_factor(z: float) -> float:
    """F(z) = (2 z e^{-z^2} / sqrt(pi) - erf z) / z^3 for 0 < z <=
    _Z_CUBE_MAX."""
    if z < 1.0:
        z2, f = z * z, 0.0
        for c in _F_SERIES:
            f = f * z2 + c
        return f
    return (2.0 * z * math.exp(-z * z) / math.sqrt(math.pi)
            - math.erf(z)) / z ** 3


def _displacement(x) -> np.ndarray:
    """x as a float array of shape (3,); any other shape raises DomainError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DomainError(f"displacement must have shape (3,), not {x.shape}")
    return x


def kernel_matrix(profile: CutoffProfile, x) -> KernelMatrix:
    """Evaluate the transverse kernel matrix at displacement x."""
    x = _displacement(x)
    t = float(np.linalg.norm(x))
    if not math.isfinite(t):
        raise DomainError(f"displacement {x} has no finite length")
    if t == 0.0:
        return KernelMatrix(entries=a11_origin(profile) * np.eye(3))
    lam3 = profile.lam ** 3
    z = 0.5 * profile.lam * t
    g = lam3 * math.exp(-z * z) / (8.0 * math.pi ** 1.5)
    if z <= _Z_CUBE_MAX:
        du = lam3 * _dipole_factor(z) / (32.0 * math.pi)  # u'(r) / r
    else:  # the dipole tail, divided term by term so that t^3 is not formed
        du = -0.25 / math.pi / t / t / t
    xhat = x / t
    return KernelMatrix(entries=(g + du) * np.eye(3)
                        - (g + 3.0 * du) * np.outer(xhat, xhat))


@functools.lru_cache(maxsize=4)
def _oracle_rule(profile: CutoffProfile, n: int):
    """Positive-half axis nodes k, pair weights w and the table g of the rule.

    n is even; the box is [-half, half] with half = profile.far_radius(1e-8),
    since |phi|^2 decays twice as fast as phi.  g[a, b, c] = |phi(|k|)|^2 /
    |k|^2 at (k_a, k_b, k_c), (n/2)^3 values (2.1 MB at n = 128).  The
    cutoff is Gaussian, so |phi(|k|)|^2 = phi(k_a)^2 phi(k_b)^2 phi(k_c)^2
    exactly: g is one broadcast product of the n/2 axis factors, divided in
    place by the |k|^2 sum, with no sqrt or exp on the (n/2)^3 nodes.  All
    three arrays are read-only: every oracle call at (profile, n) shares
    them.
    """
    half = profile.far_radius(1e-8)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    # leggauss returns exactly symmetric nodes and weights, ascending: keep
    # the positive half, its weights doubled for the +-k pair
    k = nodes[n // 2:] * half
    w = 2.0 * weights[n // 2:] * half
    sq = k * k
    f = phi_eval(profile, k) ** 2
    g = f[:, None, None] * f[:, None] * f
    g /= sq[:, None, None] + sq[:, None] + sq
    for arr in (k, w, g):
        arr.flags.writeable = False
    return k, w, g


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
    n = _integer(n, "oracle node count")
    if n < 8:
        raise DomainError("oracle needs at least 8 nodes per axis")
    if n % 2:
        n += 1  # even count keeps k = 0 off the node set
    x = _displacement(x)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"displacement {x} is not finite")
    k, w, g = _oracle_rule(profile, n)
    phase = np.outer(x, k)
    cx, cy, cz = w * np.cos(phase)
    sx, sy, sz = w * k * np.sin(phase)
    sq = k * k
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
