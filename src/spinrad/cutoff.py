"""Gaussian ultraviolet cutoff and its real-space smearing.

The cutoff phi is a radial Gaussian weight on momentum space.  Its
inverse Fourier transform rho(x) = (2 pi)^-3 int phi(|k|) e^{ik.x} dk is the
smearing that enters every current density.  All 3D Fourier integrals of
radial functions are reduced to 1D radial quadratures against spherical
Bessel weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, QuadratureError

# Truncation threshold for the radial integration domain: r_far is chosen so
# that |phi(r_far)| < FAR_TOL, making the tail contribution negligible.
FAR_TOL = 1e-16

_QUAD_LIMIT = 200


def _gaussian_phi(r, lam):
    return np.exp(-(r * r) / (2.0 * lam * lam))


@dataclass(frozen=True)
class CutoffProfile:
    """Gaussian ultraviolet cutoff phi(r) = exp(-r^2 / (2 lam^2)).

    lam is a finite positive inverse length.  `kind` names the profile
    family; "gaussian" is the only one.
    """

    kind: str = "gaussian"
    lam: float = 1.0

    def __post_init__(self):
        if self.kind != "gaussian":
            raise DomainError(f"unknown cutoff profile kind {self.kind!r}")
        if not 0 < self.lam < math.inf:
            raise DomainError(
                f"cutoff scale must be positive and finite, got {self.lam}")

    def far_radius(self, tol: float = FAR_TOL) -> float:
        """Radius beyond which |phi| < tol."""
        return self.lam * math.sqrt(-2.0 * math.log(tol))


def phi_eval(profile: CutoffProfile, r):
    """Evaluate the radial cutoff phi at momentum radius r >= 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("phi_eval requires r >= 0")
    return _gaussian_phi(r, profile.lam)


def _profile_fn(profile: CutoffProfile):
    """Scalar phi(r) for quadrature integrands.

    Skips phi_eval's array conversion and sign check, which cost more than
    the profile itself on every node; quadrature nodes lie in [0, r_far].
    """
    lam = profile.lam
    return lambda r: _gaussian_phi(r, lam)


def _series_coefficients(n, terms=10):
    # j_n(z) = z^n sum_k (-1)^k z^(2k) / (2^k k! (2n + 2k + 1)!!)
    return tuple((-1) ** k / (2 ** k * math.factorial(k)
                              * math.prod(range(1, 2 * n + 2 * k + 2, 2)))
                 for k in range(terms))


_J0_SERIES = _series_coefficients(0)
_J1_SERIES = _series_coefficients(1)
_J2_SERIES = _series_coefficients(2)


def _series(coef, z2):
    acc = 0.0
    for c in reversed(coef):
        acc = acc * z2 + c
    return acc


# Scalar spherical Bessel functions j0, j1, j2 for quadrature integrands.
# Below z = 1 a power series replaces the closed forms, whose cancellation
# (j2 ~ z^2/15 from terms of order 1) would lose digits there.

def j0(z: float) -> float:
    """Spherical Bessel j0(z) = sin z / z for z >= 0."""
    if z < 1.0:
        return _series(_J0_SERIES, z * z)
    return math.sin(z) / z


def j1(z: float) -> float:
    """Spherical Bessel j1(z) = sin z / z^2 - cos z / z for z >= 0."""
    if z < 1.0:
        return z * _series(_J1_SERIES, z * z)
    return (math.sin(z) / z - math.cos(z)) / z


def j2(z: float) -> float:
    """Spherical Bessel j2(z) = (3/z^2 - 1) j0(z) - 3 cos z / z^2, z >= 0."""
    if z < 1.0:
        return z * z * _series(_J2_SERIES, z * z)
    z2 = z * z
    return (3.0 / z2 - 1.0) * math.sin(z) / z - 3.0 * math.cos(z) / z2


def _radial_quad(f, r_far, tol):
    """Adaptive quadrature of f on [0, r_far] with an error check."""
    val, err = integrate.quad(f, 0.0, r_far, epsabs=tol * 1e-2, epsrel=1e-12,
                              limit=_QUAD_LIMIT)
    if err > tol:
        raise QuadratureError(
            f"radial quadrature error estimate {err:.3e} exceeds {tol:.3e}",
            estimate=err)
    return val


def rho_eval(profile: CutoffProfile, x, tol: float = 1e-10) -> float:
    """Real-space smearing rho(x) = (2 pi)^-3 int phi(|k|) e^{ik.x} dk.

    Radial and real; for |x| > 0 computed as the 1D integral
    (2 pi^2 |x|)^-1 int_0^inf phi(r) r sin(r|x|) dr.
    """
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    r_far = profile.far_radius()
    phi = _profile_fn(profile)
    if t < 1e-12:
        return _radial_quad(
            lambda r: phi(r) * r * r, r_far, tol) / (2.0 * math.pi ** 2)
    val = _radial_quad(lambda r: phi(r) * r * math.sin(r * t), r_far, tol)
    return val / (2.0 * math.pi ** 2 * t)


def grad_rho(profile: CutoffProfile, x, tol: float = 1e-10) -> np.ndarray:
    """Gradient of rho at x.

    Uses d rho / d|x| = -(2 pi^2)^-1 int phi(r) r^3 j_1(r |x|) dr, which
    follows from j_0' = -j_1; vanishes at the origin by radial symmetry.
    """
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t < 1e-12:
        return np.zeros(3)
    r_far = profile.far_radius()
    phi = _profile_fn(profile)
    dval = -_radial_quad(lambda r: phi(r) * r ** 3 * j1(r * t),
                         r_far, tol) / (2.0 * math.pi ** 2)
    return dval * x / t
