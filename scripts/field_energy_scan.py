#!/usr/bin/env python3
"""The th_egal residual and the field-energy cost as the quadrature grows.

For the bundled two-spin configuration, draws three normalized spin states
from the configuration's seed and prints, for each spherical-product rule
(n_radial, n_theta, n_phi), the largest verify residual
|<A_M X, X> + E_field(X)| / max(1, |<A_M X, X>|) over the states and two
wall times.  `field_energy` builds each rule once per process and reuses it,
and so it does the cosine sums of each site geometry.  The cold column is
the first quadrature after both caches are cleared, rule build included
(what one CLI command pays once per rule), and the "s / quadrature" column
is the median of the three quadratures that follow, on the built rule.  The
cosine cache is cleared before each of them too, so that column times a
whole quadrature, cosines included, and not a reuse of the first call's.
The ladder runs past verify's fixed 96 x 32 x 64 rule, marked *, so the
residual shows whether that rule has converged to the precision of the A_M
assembly.
"""

import statistics
import time
from pathlib import Path

# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad.config import parse_config
from spinrad.field_energy import DEFAULT_N_PHI, DEFAULT_N_RADIAL, \
    DEFAULT_N_THETA, _radial_cosines, _spherical_nodes, field_energy, \
    vector_current
from spinrad.spin_operator import assemble_am, quadratic_form

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RULES = [(12, 4, 8), (24, 8, 16), (48, 16, 32), (96, 16, 32), (96, 32, 64),
         (192, 32, 64), (192, 64, 128), (384, 128, 256)]


if __name__ == "__main__":
    cfg = parse_config((ROOT / "configs" / "two_spins.yaml").read_text())
    system, profile = cfg.system(), cfg.profile()
    A = assemble_am(system, profile)
    rng = np.random.default_rng(cfg.seed)
    states = rng.normal(size=(3, system.spin_dim)) \
        + 1j * rng.normal(size=(3, system.spin_dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    currents = [(quadratic_form(A, X), vector_current(system, profile, X))
                for X in states]
    default = (DEFAULT_N_RADIAL, DEFAULT_N_THETA, DEFAULT_N_PHI)
    print(f"tolerances.identity = {cfg.tolerances['identity']:.0e}")
    print(f"{'n_radial x n_theta x n_phi':>27} {'nodes':>11} "
          f"{'th_egal resid.':>14} {'s / cold call':>13} "
          f"{'s / quadrature':>14}")
    for rule in RULES:
        sizes = dict(zip(("n_radial", "n_theta", "n_phi"), rule))
        _spherical_nodes.cache_clear()
        _radial_cosines.cache_clear()
        start = time.perf_counter()
        field_energy(currents[0][1], **sizes)
        cold = time.perf_counter() - start
        resid, times = 0.0, []
        for qf, current in currents:
            _radial_cosines.cache_clear()
            start = time.perf_counter()
            energy = field_energy(current, **sizes)
            times.append(time.perf_counter() - start)
            resid = max(resid, abs(qf + energy) / max(1.0, abs(qf)))
        mark = "*" if rule == default else " "
        label = " x ".join(map(str, rule))
        print(f"{label:>26}{mark} {rule[0] * rule[1] * rule[2]:>11,} "
              f"{resid:>14.2e} {cold:>13.4f} "
              f"{statistics.median(times):>14.4f}")
    print("* the rule verify and classical use; cold = first call, rule "
          "build included")
