#!/usr/bin/env python3
"""Time A_M's build, e2's product sampling and the eigensolves over P and s.

Covers spin-1/2 P = 2..12, spin-1 P = 2..7, spin-3/2 P = 2..6, spin-2
P = 2..5 and spin-5/2 P = 2..4 (every spin dimension up to MAX_DENSE_DIM =
4096), in increasing dimension.  Each cluster is random, with moments of
either sign; from four sites on it runs twice, once drawn in 3-D and once
projected onto a random plane through its centroid.  Where the sites span
a plane, as any three sites do, e2 solves A_M in the two sectors of the
pi rotation about the plane's normal.  The build is
spin_operator._operator_in_frame, the one path from a coefficient matrix
to a dense A_M that every e2 run takes, without the eigensolve.
Each row runs in its own interpreter, which prints:

  geom       3-D (drawn in 3-D) or plane (projected);
  dim        the spin dimension (2s + 1)^P;
  sectors    the sizes of the two sectors e2 solves, or - for one solve;
  build      ms for the dense A_M that e2 builds (kernel calls and, for a
             plane, the plane test and the rotation included): real
             symmetric for integer s, complex otherwise;
  sample     ms for e2's 200 sampled product states, scored on the 3P x 3P
             coefficient matrix (cli._sampled_product_min);
  e2 vals    ms for e2's own decomposition of A_M without eigenvectors
             (HermitianSpinOperator): eigvalsh per sector where sectors
             apply, with their coupling check, else one eigvalsh;
  e2 vecs    the same with eigenvectors (e2 --eigenbasis), eigh per
             sector;
  eigvalsh   ms for np.linalg.eigvalsh of the whole matrix, e2's solve
             before sectors; with e2 vals, a before/after pair;
  eigh       ms for np.linalg.eigh of the whole matrix;
  complex    ms for eigvalsh of the complex weight-basis A_M
             (spin_operator.bilinear_spin_operator), for integer s
             only: for half-integer s it is the eigvalsh column;
  traced     MB, the tracemalloc peak of one build: the pair blocks and
             their factors included, the spin bases it reads from the
             cache not;
  rss        MB, the interpreter's peak resident set after the build,
             after e2 vals and after e2 vecs (high-water marks; tracemalloc
             does not see LAPACK's workspace); the whole-matrix solves run
             after these are read.

Times are the best of up to REPEAT runs, fewer once a step has used a
second.  A solve whose largest block is above MAX_SOLVE_DIM is skipped
("-"): at 4096 a complex eigh takes over a minute and more than 1 GB.

    python3 scripts/am_scan.py
"""

import resource
import subprocess
import sys
import time
import tracemalloc

# spinrad first: its BLAS one-thread pin only acts before numpy loads
from spinrad.cli import _sampled_product_min
from spinrad.cutoff import CutoffProfile
from spinrad.kernel import kernel_matrix
from spinrad.spin_operator import HermitianSpinOperator, SpinSystem, \
    _coefficients, _operator_in_frame, _plane_frame, bilinear_spin_operator

import numpy as np

LADDER = [(0.5, P) for P in range(2, 13)] + [(1.0, P) for P in range(2, 8)] \
    + [(1.5, P) for P in range(2, 7)] + [(2.0, P) for P in range(2, 6)] \
    + [(2.5, P) for P in range(2, 5)]
REPEAT = 3
MAX_SOLVE_DIM = 2500


def cluster(s, P, planar):
    """The random spin-s cluster of P sites, in 3-D or projected onto a
    random plane through its centroid."""
    rng = np.random.default_rng(int(2 * s) * 100 + P)
    positions = 2.0 * rng.normal(size=(P, 3))
    moments = rng.choice([-1.0, 1.0], size=P) * rng.uniform(0.3, 1.0, size=P)
    if planar:
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        positions -= np.outer((positions - positions.mean(axis=0)) @ n, n)
    return SpinSystem(positions=positions, moments=moments, s=s)


def measure(s, P, planar):
    """One row of the table for a random spin-s cluster of P sites."""

    def best_ms(step):
        best, spent = float("inf"), 0.0
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            step()
            took = time.perf_counter() - t0
            best, spent = min(best, took), spent + took
            if spent > 1.0:
                break
        return f"{1e3 * best:10.2f}"

    def rss_mb():
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return f"{peak_kb / 1024:9.0f}"

    system = cluster(s, P, planar)
    profile = CutoffProfile(1.0)

    def kernel_at(d):
        return kernel_matrix(profile, d).entries

    def build():
        coef = _coefficients(system, kernel_at)
        return _operator_in_frame(coef, s, _plane_frame(system.positions))

    build_ms = best_ms(build)  # no A_M is kept alive across the timed builds
    coef = _coefficients(system, kernel_at)
    sample_ms = best_ms(lambda: _sampled_product_min(
        coef, s, np.random.default_rng(0)))
    tracemalloc.start()
    A, _, sectors = build()
    traced = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    dim = A.shape[0]
    blocks = [dim] if sectors is None else [len(k) for k in sectors]
    split = "-" if sectors is None else "+".join(map(str, blocks))
    row = [f"{s:4.1f}", f"{P:3d}", f"{'plane' if planar else '3-D':>5}",
           f"{dim:6d}", f"{split:>9}", build_ms, sample_ms]
    rss = [rss_mb()]
    skipped = f"{'-':>10}"
    if max(blocks) <= MAX_SOLVE_DIM:
        for vectors in (False, True):
            row.append(best_ms(lambda: HermitianSpinOperator(
                matrix=A, vectors=vectors, sectors=sectors)))
            rss.append(rss_mb())
    else:
        row += 2 * [skipped]
        rss += 2 * [f"{'-':>9}"]
    if dim <= MAX_SOLVE_DIM:
        row.append(best_ms(lambda: np.linalg.eigvalsh(A)))
        row.append(best_ms(lambda: np.linalg.eigh(A)))
        if np.isrealobj(A):
            A_complex = bilinear_spin_operator(coef, s)
            row.append(best_ms(lambda: np.linalg.eigvalsh(A_complex)))
        else:
            row.append(skipped)
    else:
        row += 3 * [skipped]
    return " ".join(row + [f"{traced:8.1f}"] + rss)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:  # one row, in a fresh interpreter
        print(measure(float(sys.argv[2]), int(sys.argv[3]),
                      sys.argv[4] == "plane"))
        sys.exit(0)
    print(f"{'s':>4} {'P':>3} {'geom':>5} {'dim':>6} {'sectors':>9} "
          f"{'build ms':>10} {'sample ms':>10} {'e2 vals':>10} "
          f"{'e2 vecs':>10} {'eigvalsh':>10} {'eigh':>10} {'complex':>10} "
          f"{'traced':>8} {'rss build':>9} {'rss vals':>9} {'rss vecs':>9}")
    rows = [(s, P, geom) for s, P in LADDER
            for geom in (("3-D", "plane") if P >= 4 else ("3-D",))]
    for s, P, geom in sorted(rows, key=lambda r: (round(2 * r[0] + 1) ** r[1],
                                                  r)):
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(s), str(P), geom],
            check=True, capture_output=True, text=True).stdout
        print(out.rstrip(), flush=True)
