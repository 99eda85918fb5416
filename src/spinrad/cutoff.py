"""Gaussian ultraviolet cutoff phi, a radial weight on momentum space."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Truncation threshold for radial integration domains: r_far is chosen so
# that |phi(r_far)| < FAR_TOL, making the tail contribution negligible.
FAR_TOL = 1e-16

# Largest cutoff scale: A_M scales as lam^3, and the lam^6 that its norms
# sum overflows above 2.4e51, with a margin for the moments.
MAX_LAMBDA = 1e50


@dataclass(frozen=True)
class CutoffProfile:
    """Gaussian ultraviolet cutoff phi(r) = exp(-r^2 / (2 lam^2)).

    lam is an inverse length, 0 < lam <= MAX_LAMBDA (1e50).
    """

    lam: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam <= MAX_LAMBDA:
            raise DomainError(f"cutoff scale must be positive and at most "
                              f"{MAX_LAMBDA:g}, got {self.lam}")

    def far_radius(self, tol: float = FAR_TOL) -> float:
        """Radius beyond which |phi| < tol."""
        return self.lam * math.sqrt(-2.0 * math.log(tol))


def phi_eval(profile: CutoffProfile, r):
    """Evaluate the radial cutoff phi at momentum radius r >= 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("phi_eval requires r >= 0")
    return np.exp(-(r * r) / (2.0 * profile.lam * profile.lam))
