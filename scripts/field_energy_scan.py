#!/usr/bin/env python3
"""The sized field-energy rule against the old fixed 96 x 32 x 64 one.

Moves the second site of configs/two_spins.yaml along its own direction to
a distance D from the first, from 0.1/lam to 80/lam, draws three
normalized spin states from the configuration's seed, and prints for each
D the rule that `rule_sizes` picks, its node count, and for that rule and
for 96 x 32 x 64: the largest relative th_egal residual
|<A_M X, X> + E_field(X)| / |<A_M X, X>| over the states and two wall
times.  `field_energy` builds each rule once per process and reuses it,
and so it does the cosine sums of each site geometry.  The cold column is
the first quadrature after both caches are cleared, rule build included
(what one CLI command pays once per rule), and the warm column is the
median of the three quadratures that follow, on the built rule.  The
cosine cache is cleared before each of them too, so that column times a
whole quadrature, cosines included, and not a reuse of the first call's.
This table justifies the constants of the sizing law in the
`field_energy` docstring: the sized rule stays at the roundoff floor at
every D, and the fixed one loses digits from about 15/lam on.
"""

import statistics
import time
from pathlib import Path

# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad.config import parse_config
from spinrad.field_energy import _radial_cosines, _spherical_nodes, \
    field_energy, rule_sizes, vector_current
from spinrad.spin_operator import SpinSystem, assemble_am, quadratic_form

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DISTANCES = [0.1, 0.3, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0,
             60.0, 80.0]
FIXED = (96, 32, 64)


def measure(currents, rule):
    """Worst relative residual, cold and warm seconds per quadrature."""
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
        resid = max(resid, abs(qf + energy) / abs(qf))
    return resid, cold, statistics.median(times)


if __name__ == "__main__":
    cfg = parse_config((ROOT / "configs" / "two_spins.yaml").read_text())
    base, profile = cfg.system(), cfg.profile()
    rng = np.random.default_rng(cfg.seed)
    states = rng.normal(size=(3, base.spin_dim)) \
        + 1j * rng.normal(size=(3, base.spin_dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    step = base.positions[1] - base.positions[0]
    step /= np.linalg.norm(step)
    print(f"tolerances.identity = {cfg.tolerances['identity']:.0e}; "
          f"times in ms")
    print(f"{'D lam':>6} {'sized rule':>15} {'nodes':>11} {'resid.':>8} "
          f"{'cold':>7} {'warm':>7} | {'96x32x64 resid.':>15} "
          f"{'cold':>7} {'warm':>7}")
    for d in DISTANCES:
        positions = base.positions.copy()
        positions[1] = positions[0] + d / profile.lam * step
        system = SpinSystem(positions=positions, moments=base.moments,
                            s=base.s)
        A = assemble_am(system, profile)
        currents = [(quadratic_form(A, X), vector_current(system, profile, X))
                    for X in states]
        rule = rule_sizes(profile, positions)
        sized, fixed = measure(currents, rule), measure(currents, FIXED)
        label = " x ".join(map(str, rule))
        print(f"{d:>6g} {label:>15} {np.prod(rule):>11,} "
              f"{sized[0]:>8.1e} {1e3 * sized[1]:>7.2f} "
              f"{1e3 * sized[2]:>7.2f} | {fixed[0]:>15.1e} "
              f"{1e3 * fixed[1]:>7.2f} {1e3 * fixed[2]:>7.2f}")
    print("cold = first call, rule build included; warm = a whole "
          "quadrature on the built rule")
