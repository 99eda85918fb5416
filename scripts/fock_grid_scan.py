#!/usr/bin/env python3
"""The reduced Fock dimension, and the fit, as the radial shells grow.

For the bundled two-spin configuration, and a three-spin system built
from it, prints for each number of radial shells and photon cap the
dimension build_hamiltonian assembles on the coupled oscillators (3P per
radial shell, each shell's directions integrated exactly), the fitted
c2 / a_disc_min, the discrete-to-continuum gap
lambda_min(A_disc) / lambda_min(A_M) - 1, and the cost of the quadratic
fit: the H build with its tracemalloc peak (the most memory the build's
own allocations held at once), the four ground-state solves with the
LOBPCG steps of each, and the wall time of the whole fit (grid, build,
solves and the discrete A_M).  Build and solve times come from recorders
put around fock.build_hamiltonian and fock.ground_state for the run;
only the build is traced, as tracing would slow the solves' many small
allocations.  At n_max = 1 the fit builds no H: the dimension is that of
the n_max = 1 H, the build is the stack of the spin blocks' squares
(fock._squared_blocks), the solves are fock._one_photon_ground's, and
no LOBPCG step is taken (steps -).
"""

import time
import tracemalloc
from pathlib import Path

import spinrad.fock as fock
from spinrad.config import parse_config
from spinrad.fock import build_mode_grid, quadratic_fit
from spinrad.spin_operator import SpinSystem, assemble_am

ROOT = Path(__file__).resolve().parent.parent
CASES = [(2, 24, 1), (2, 48, 1), (2, 96, 1), (2, 24, 2), (2, 48, 2),
         (3, 12, 2)]
SCALES = [0.4, 0.2, 0.1, 0.05]


def record(name, log, traced=False):
    """Route fock.<name> through a recorder of (seconds, tracemalloc peak
    in bytes, result) per call; the peak is None unless traced."""
    inner = getattr(fock, name)

    def recorded(*args, **kwargs):
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        out = inner(*args, **kwargs)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] if traced else None
        tracemalloc.stop()
        log.append((seconds, peak, out))
        return out
    setattr(fock, name, recorded)


if __name__ == "__main__":
    cfg = parse_config((ROOT / "configs" / "two_spins.yaml").read_text())
    profile = cfg.profile()
    pair = cfg.system()
    systems = {2: pair, 3: SpinSystem(
        positions=[*pair.positions, [-0.5, 0.6, 0.2]],
        moments=[*pair.moments, 0.6], s=pair.s)}
    a_min = {P: assemble_am(system, profile).eigenvalues[0]
             for P, system in systems.items()}
    builds, solves, iterations = [], [], []
    record("build_hamiltonian", builds, traced=True)
    record("_squared_blocks", builds, traced=True)
    record("ground_state", solves)
    record("_one_photon_ground", solves)
    record("_lobpcg", iterations)
    print(f"{'P':>2} {'shells':>6} {'n_max':>5} {'reduced dim':>11} "
          f"{'c2/a_disc_min':>13} {'disc/cont - 1':>13} {'build ms':>8} "
          f"{'build MB':>8} {'solve ms':>8} {'steps':>11} {'wall s':>6}")
    for P, n_radial, n_max in CASES:
        system = systems[P]
        for log in (builds, solves, iterations):
            log.clear()
        start = time.perf_counter()
        grid = build_mode_grid(profile, n_radial)
        fit = quadratic_fit(system, profile, grid, n_max, SCALES,
                            tol=cfg.tolerances["eigensolver"])
        wall = time.perf_counter() - start
        (build_s, build_peak, built), = builds
        dim = built.dim if n_max > 1 else (1 + len(built)) * system.spin_dim
        solve_ms = 1e3 * sum(s for s, _, _ in solves)
        steps = ",".join(str(out[1]) for _, _, out in iterations) or "-"
        print(f"{P:>2} {n_radial:>6} {n_max:>5} {dim:>11,} "
              f"{fit.c2 / fit.a_disc_min:>13.5f} "
              f"{fit.a_disc_min / a_min[P] - 1.0:>13.2e} "
              f"{1e3 * build_s:>8.1f} {build_peak / 1e6:>8.1f} "
              f"{solve_ms:>8.1f} {steps:>11} "
              f"{wall:>6.2f}")
