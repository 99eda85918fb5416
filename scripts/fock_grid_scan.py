#!/usr/bin/env python3
"""Full against reduced Fock dimension, and the fit, as the mode grid grows.

For the bundled two-spin configuration, prints for each mode grid and
photon cap the dimension of H on all 2N (mode, polarization) oscillators,
the dimension build_hamiltonian assembles on the coupled oscillators only
(at most 3P per radial shell), the fitted c2 / a_disc_min, the
discrete-to-continuum gap lambda_min(A_disc) / lambda_min(A_M) - 1, and
the wall time of the quadratic fit: grid, H build, four ground-state
solves and the discrete A_M.  The full space is only counted, never
built; a full dimension past MAX_TOTAL_DIM is marked, as it could not be
assembled.  The reduced space grows with n_radial only, so angular
refinement is free.
"""

import math
import time
from pathlib import Path

from spinrad.config import parse_config
from spinrad.fock import MAX_TOTAL_DIM, build_hamiltonian, build_mode_grid, \
    quadratic_fit
from spinrad.spin_operator import assemble_am

ROOT = Path(__file__).resolve().parent.parent
CASES = [(24, 12, 1), (48, 24, 1), (96, 48, 1), (24, 12, 2)]
SCALES = [0.4, 0.2, 0.1, 0.05]


def fock_dim(n_osc, n_max):
    return sum(math.comb(n_osc + n - 1, n) for n in range(n_max + 1))


if __name__ == "__main__":
    cfg = parse_config((ROOT / "configs" / "two_spins.yaml").read_text())
    system, profile = cfg.system(), cfg.profile()
    a_min = assemble_am(system, profile).eigenvalues[0]
    print(f"{'grid':>8} {'n_max':>5} {'full dim':>12} {'reduced dim':>11} "
          f"{'c2/a_disc_min':>13} {'disc/cont - 1':>13} {'wall s':>7}")
    for n_radial, n_angular, n_max in CASES:
        start = time.perf_counter()
        grid = build_mode_grid(profile, n_radial, n_angular)
        fit = quadratic_fit(system, profile, grid, n_max, SCALES,
                            tol=cfg.tolerances["eigensolver"])
        wall = time.perf_counter() - start
        full = fock_dim(2 * grid.n_modes, n_max) * system.spin_dim
        mark = "*" if full > MAX_TOTAL_DIM else " "
        reduced = build_hamiltonian(system, profile, grid, n_max).dim
        print(f"{n_radial:>4}x{n_angular:<3} {n_max:>5} {full:>11,}{mark} "
              f"{reduced:>11,} {fit.c2 / fit.a_disc_min:>13.5f} "
              f"{fit.a_disc_min / a_min - 1.0:>13.2e} {wall:>7.2f}")
    print(f"* over MAX_TOTAL_DIM = {MAX_TOTAL_DIM:,}: the full space could "
          f"not be assembled")
