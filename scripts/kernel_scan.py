#!/usr/bin/env python3
"""Tabulate the smeared transverse kernel along a ray and check its tail.

Prints the longitudinal and transverse entries A_11 and A_22 for
displacements r e_1 together with the point-dipole tail they approach
once r clears the cutoff scale, and the relative deviation of A_11 from
that tail.
"""

import math

from spinrad.cutoff import CutoffProfile
from spinrad.kernel import a11_origin, kernel_matrix


if __name__ == "__main__":
    profile = CutoffProfile("gaussian", 1.0)
    print(f"a11_origin = {a11_origin(profile):.12e}")
    print(f"{'r':>6} {'A_11':>15} {'A_22':>15} {'dipole tail':>15} "
          f"{'rel. dev.':>10}")
    for r in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 80.0]:
        K = kernel_matrix(profile, [r, 0.0, 0.0]).entries
        if r:
            tail = 1.0 / (2.0 * math.pi * r ** 3)
            dev = f"{abs(K[0, 0] - tail) / tail:10.2e}"
        else:
            tail, dev = float("inf"), f"{'-':>10}"
        print(f"{r:6.2f} {K[0, 0]:15.6e} {K[1, 1]:15.6e} {tail:15.6e} {dev}")
