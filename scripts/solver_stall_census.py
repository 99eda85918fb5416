#!/usr/bin/env python3
"""How often fock.ground_state stalls on small random Hermitian matrices.

ground_state's preconditioner 1/(d - d_min + 0.1) has an absolute shift,
tuned for Fock Hamiltonians, so matrices of other scales can run out of
LOBPCG steps and fail the residual gate.  This census draws 200 random
dense complex Hermitian matrices for each dimension 1-7 (1,400 in all):
X + X^H with standard normal X, scaled to a spectral norm drawn
log-uniformly from [1e-3, 1e4].  Each is solved at spin_dim 1 with the
tolerance DEFAULT_EIGENSOLVER_TOL x norm.  It prints, per dimension, the
failures (ConvergenceError) and the median and largest LOBPCG step count
of the solves that passed, then every failure with its norm.  The steps
come from a recorder put around fock._lobpcg for the run.

usage: python3 scripts/solver_stall_census.py [seed]
(seed defaults to 0; the same seed draws the same matrices).
"""

import sys

import spinrad.fock as fock  # first: spinrad pins BLAS to one thread
from spinrad.errors import ConvergenceError

import numpy as np

PER_DIM = 200
DIMS = range(1, 8)
NORMS = (1e-3, 1e4)


def census(seed):
    """(dim, norm, steps, passed) of every solve, in draw order."""
    rng = np.random.default_rng(seed)
    inner, steps = fock._lobpcg, []

    def recorded(*args):
        out = inner(*args)
        steps.append(out[1])
        return out
    fock._lobpcg = recorded
    rows = []
    try:
        for dim in DIMS:
            for _ in range(PER_DIM):
                X = rng.normal(size=(dim, dim)) \
                    + 1j * rng.normal(size=(dim, dim))
                A = X + X.conj().T
                norm = 10.0 ** rng.uniform(*np.log10(NORMS))
                A *= norm / np.abs(np.linalg.eigvalsh(A)).max()
                try:
                    fock.ground_state(A, tol=fock.DEFAULT_EIGENSOLVER_TOL
                                      * norm)
                    passed = True
                except ConvergenceError:
                    passed = False
                rows.append((dim, norm, steps[-1], passed))
    finally:
        fock._lobpcg = inner
    return rows


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rows = census(seed)
    failed = [r for r in rows if not r[3]]
    print(f"seed {seed}: {len(failed)} of {len(rows)} failed the residual "
          f"gate")
    print(f"{'dim':>3} {'cases':>5} {'failed':>6} {'median steps':>12} "
          f"{'max steps':>9}")
    for dim in DIMS:
        ok = [s for d, _, s, p in rows if d == dim and p]
        n = sum(d == dim for d, *_ in rows)
        print(f"{dim:>3} {n:>5} {n - len(ok):>6} "
              f"{np.median(ok) if ok else np.nan:>12.0f} "
              f"{max(ok, default=0):>9}")
    for dim, norm, steps, _ in failed:
        print(f"failed: dim {dim} norm {norm:.3g} after {steps} steps")
