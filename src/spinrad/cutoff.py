"""Gaussian ultraviolet cutoff.

The cutoff phi is a radial Gaussian weight on momentum space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Truncation threshold for radial integration domains: r_far is chosen so
# that |phi(r_far)| < FAR_TOL, making the tail contribution negligible.
FAR_TOL = 1e-16


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
