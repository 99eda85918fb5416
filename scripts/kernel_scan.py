#!/usr/bin/env python3
"""Tabulate the smeared transverse kernel along a ray and check its tail.

Prints the longitudinal and transverse entries A_11 and A_22 for
displacements r e_1 together with the point-dipole tail they approach
once r clears the cutoff scale, the relative deviation of A_11 from
that tail, and, for r <= 16, the largest entry of |K - O| against the
n = 128 3D oracle O.  The oracle's error grows about as r^2, so the
last column shows how far out it still checks the closed-form kernel.
The ray runs out to r = 1e4, where only the dipole tail is left.
"""

import math

# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad.cutoff import CutoffProfile
from spinrad.kernel import a11_origin, kernel_matrix, kernel_oracle_3d

import numpy as np


if __name__ == "__main__":
    profile = CutoffProfile("gaussian", 1.0)
    print(f"a11_origin = {a11_origin(profile):.12e}")
    print(f"{'r':>8} {'A_11':>15} {'A_22':>15} {'dipole tail':>15} "
          f"{'rel. dev.':>10} {'|K - O|':>10}")
    for r in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 80.0, 2000.0,
              1e4]:
        x = [r, 0.0, 0.0]
        K = kernel_matrix(profile, x).entries
        if r:
            tail = 1.0 / (2.0 * math.pi * r ** 3)
            dev = f"{abs(K[0, 0] - tail) / tail:10.2e}"
        else:
            tail, dev = float("inf"), f"{'-':>10}"
        if r <= 16.0:
            O = kernel_oracle_3d(profile, x).entries
            orc = f"{np.abs(K - O).max():10.2e}"
        else:
            orc = f"{'-':>10}"
        print(f"{r:8.2f} {K[0, 0]:15.6e} {K[1, 1]:15.6e} {tail:15.6e} "
              f"{dev} {orc}")
