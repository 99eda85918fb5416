"""Gaussian ultraviolet cutoff and the radial quadrature of its transforms.

The cutoff phi is a radial Gaussian weight on momentum space.  3D Fourier
integrals of radial functions reduce to 1D radial integrals against
spherical Bessel weights, evaluated by one composite Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

# Truncation threshold for the radial integration domain: r_far is chosen so
# that |phi(r_far)| < FAR_TOL, making the tail contribution negligible.
FAR_TOL = 1e-16

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_CAP = 4096


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
    return np.exp(-(r * r) / (2.0 * profile.lam * profile.lam))


# j2(z) = z^2 sum_k (-1)^k z^(2k) / (2^k k! (2k + 5)!!) to ten terms,
# highest power first for np.polyval
_J2_SERIES = [(-1) ** k / (2 ** k * math.factorial(k)
                           * math.prod(range(1, 2 * k + 6, 2)))
              for k in reversed(range(10))]


# Spherical Bessel functions j0 and j2 on arrays z >= 0.  Below z = 1 a
# power series replaces the j2 closed form, whose cancellation (j2 ~ z^2/15
# from terms of order 1) would lose digits there.

def j0(z):
    """Spherical Bessel j0(z) = sin z / z for z >= 0."""
    return np.sinc(np.asarray(z, dtype=float) / math.pi)


def j2(z):
    """Spherical Bessel j2(z) = (3/z^2 - 1) j0(z) - 3 cos z / z^2, z >= 0."""
    z = np.asarray(z, dtype=float)
    small = z < 1.0
    zc = np.where(small, 1.0, z)
    z2 = zc * zc
    closed = (3.0 / z2 - 1.0) * np.sin(zc) / zc - 3.0 * np.cos(zc) / z2
    return np.where(small, z * z * np.polyval(_J2_SERIES, z * z), closed)


def _panel_sum(f, r_far, n):
    """n-panel 16-node Gauss-Legendre sum of f over [0, r_far]."""
    h = r_far / n
    r = (h * np.arange(n)[:, None] + 0.5 * h * (_GL_NODES + 1.0)).ravel()
    return f(r) @ np.tile(0.5 * h * _GL_WEIGHTS, n)


def _radial_quad(f, r_far, tol, t):
    """Composite Gauss-Legendre quadrature of f on [0, r_far].

    f maps an array of radii to an array whose last axis runs over them,
    so one call integrates several integrands on the same nodes.  t is the
    frequency of their Bessel factors.  The rule starts at one panel per
    period, at least 4: fewer panels alias the oscillation, and two aliased
    counts can agree on a wrong value.  It doubles the count until two
    successive sums agree to max(tol 1e-2, 1e-12 |value|) and raises
    QuadratureError when that needs more than _PANEL_CAP panels.
    """
    periods = t * r_far / (2.0 * math.pi)
    n, err = 4, math.inf
    while n < periods and n <= _PANEL_CAP:
        n *= 2
    if 2 * n <= _PANEL_CAP:
        val = _panel_sum(f, r_far, n)
        while 2 * n <= _PANEL_CAP:
            n *= 2
            prev, val = val, _panel_sum(f, r_far, n)
            diff = np.abs(val - prev)
            if np.all(diff <= np.maximum(tol * 1e-2, 1e-12 * np.abs(val))):
                return val
            err = float(np.max(diff))
    raise QuadratureError(
        f"radial quadrature at frequency {t:.3e} did not settle within "
        f"{_PANEL_CAP} panels; error estimate {err:.3e}", estimate=err)
