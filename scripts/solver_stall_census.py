#!/usr/bin/env python3
"""Whether fock.ground_state solves small random Hermitian matrices of any
scale, and solves them right.

ground_state's scales come from H alone: the dressed start, and the
Jacobi preconditioner of H - E at the start's Feshbach energy E.  This
census checks that on matrices far from a Fock Hamiltonian.  It draws 200
random dense complex Hermitian matrices for each dimension 1-7 (1,400 in
all): X + X^H with standard normal X, scaled to a spectral norm drawn
log-uniformly from [1e-3, 1e4].  Each is solved at spin_dim 1 with the
tolerance DEFAULT_EIGENSOLVER_TOL x norm.  A solve fails when it raises
ConvergenceError, and is wrong when it passes the residual gate with an
energy more than WRONG_TOL x norm from eigvalsh's lowest.  It prints, per
dimension, the failed and the wrong solves and the median and largest
LOBPCG step count of the right ones, then every failed or wrong solve
with its norm.  The steps come from a recorder put around fock._lobpcg
for the run.

usage: python3 scripts/solver_stall_census.py [seed]
(seed defaults to 0; the same seed draws the same matrices.  Exits 1 if
any solve failed or was wrong.)
"""

import sys

import spinrad.fock as fock  # first: spinrad pins BLAS to one thread
from spinrad.errors import ConvergenceError

import numpy as np

PER_DIM = 200
DIMS = range(1, 8)
NORMS = (1e-3, 1e4)
WRONG_TOL = 1e-12


def draws(seed):
    """(dim, norm, A) of every census matrix, in draw order."""
    rng = np.random.default_rng(seed)
    for dim in DIMS:
        for _ in range(PER_DIM):
            X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            A = X + X.conj().T
            norm = 10.0 ** rng.uniform(*np.log10(NORMS))
            yield dim, norm, A * (norm / np.abs(np.linalg.eigvalsh(A)).max())


def census(seed):
    """(dim, norm, steps, error) of every solve, in draw order: error is
    |energy - eigvalsh's lowest| / norm, None for a ConvergenceError."""
    inner, steps = fock._lobpcg, []

    def recorded(*args):
        out = inner(*args)
        steps.append(out[1])
        return out
    fock._lobpcg = recorded
    rows = []
    try:
        for dim, norm, A in draws(seed):
            try:
                energy = fock.ground_state(
                    A, tol=fock.DEFAULT_EIGENSOLVER_TOL * norm)[0]
                error = abs(energy - np.linalg.eigvalsh(A)[0]) / norm
            except ConvergenceError:
                error = None
            rows.append((dim, norm, steps[-1], error))
    finally:
        fock._lobpcg = inner
    return rows


def right(error):
    """Whether a census solve passed the residual gate with the right
    energy (written so that a NaN error is wrong)."""
    return error is not None and error <= WRONG_TOL


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rows = census(seed)
    failed = [r for r in rows if r[3] is None]
    wrong = [r for r in rows if r[3] is not None and not right(r[3])]
    print(f"seed {seed}: of {len(rows)}, {len(failed)} failed the residual "
          f"gate and {len(wrong)} passed it with a wrong energy")
    print(f"{'dim':>3} {'cases':>5} {'failed':>6} {'wrong':>5} "
          f"{'median steps':>12} {'max steps':>9}")
    for dim in DIMS:
        at = [r for r in rows if r[0] == dim]
        ok = [s for _, _, s, e in at if right(e)]
        n_failed = sum(e is None for *_, e in at)
        print(f"{dim:>3} {len(at):>5} {n_failed:>6} "
              f"{len(at) - n_failed - len(ok):>5} "
              f"{np.median(ok) if ok else np.nan:>12.0f} "
              f"{max(ok, default=0):>9}")
    for dim, norm, steps, _ in failed:
        print(f"failed: dim {dim} norm {norm:.3g} after {steps} steps")
    for dim, norm, steps, error in wrong:
        print(f"wrong: dim {dim} norm {norm:.3g} energy off by "
              f"{error:.3g} x norm after {steps} steps")
    sys.exit(1 if failed or wrong else 0)
