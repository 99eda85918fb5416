#!/usr/bin/env python3
"""Time A_M's build, e2's product sampling and the eigensolves over P and s.

Covers spin-1/2 P = 2..12, spin-1 P = 2..7, spin-3/2 P = 2..6, spin-2
P = 2..5 and spin-5/2 P = 2..4 (every spin dimension up to MAX_DENSE_DIM =
4096), in increasing dimension.  Each cluster is random, with moments of
either sign, and runs in its own interpreter, which prints:

  dim        the spin dimension (2s + 1)^P;
  build      ms for the dense A_M that e2 builds (kernel calls included):
             real symmetric in the time-reversal-real site basis for
             integer s, complex in the weight basis otherwise
             (spin_operator._operator_bases);
  sample     ms for e2's 200 sampled product states, scored on the 3P x 3P
             coefficient matrix (cli._sampled_product_min);
  eigvalsh   ms for np.linalg.eigvalsh of e2's A_M, the solve e2 runs;
  complex    ms for eigvalsh of the complex weight-basis A_M
             (spin_operator.bilinear_spin_operator), for integer s
             only: for half-integer s it is the eigvalsh column;
  eigh       ms for np.linalg.eigh of e2's A_M (e2 --eigenbasis);
  traced     MB, the tracemalloc peak of one build;
  rss        MB, the interpreter's peak resident set after the build,
             after eigvalsh and after eigh (high-water marks; tracemalloc
             does not see LAPACK's workspace); the complex solve runs
             after these are read.

Times are the best of up to REPEAT runs, fewer once a step has used a
second.  Solves above MAX_SOLVE_DIM are skipped ("-"): at 4096 a complex
eigh takes over a minute and more than 1 GB.

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
from spinrad.spin_operator import SpinSystem, _coefficients, \
    _dense_operator, _operator_bases, bilinear_spin_operator

import numpy as np

LADDER = [(0.5, P) for P in range(2, 13)] + [(1.0, P) for P in range(2, 8)] \
    + [(1.5, P) for P in range(2, 7)] + [(2.0, P) for P in range(2, 6)] \
    + [(2.5, P) for P in range(2, 5)]
REPEAT = 3
MAX_SOLVE_DIM = 2500


def measure(s, P):
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

    rng = np.random.default_rng(int(2 * s) * 100 + P)
    system = SpinSystem(positions=2.0 * rng.normal(size=(P, 3)),
                        moments=rng.choice([-1.0, 1.0], size=P)
                        * rng.uniform(0.3, 1.0, size=P), s=s)
    profile = CutoffProfile(1.0)

    def kernel_at(d):
        return kernel_matrix(profile, d).entries

    def build():
        coef = _coefficients(system, kernel_at)
        return _dense_operator(coef, *_operator_bases(coef, s)[1:])

    build_ms = best_ms(build)  # no A_M is kept alive across the timed builds
    coef = _coefficients(system, kernel_at)
    sample_ms = best_ms(lambda: _sampled_product_min(
        coef, s, np.random.default_rng(0)))
    tracemalloc.start()
    A = build()
    traced = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    row = [f"{s:4.1f}", f"{P:3d}", f"{A.shape[0]:6d}", build_ms, sample_ms]
    rss = [rss_mb()]
    skipped = f"{'-':>10}"
    if A.shape[0] <= MAX_SOLVE_DIM:
        row.append(best_ms(lambda: np.linalg.eigvalsh(A)))
        rss.append(rss_mb())
        eigh_ms = best_ms(lambda: np.linalg.eigh(A))
        rss.append(rss_mb())
        if np.isrealobj(A):
            A_complex = bilinear_spin_operator(coef, s)
            row.append(best_ms(lambda: np.linalg.eigvalsh(A_complex)))
        else:
            row.append(skipped)
        row.append(eigh_ms)
    else:
        row += 3 * [skipped]
        rss += 2 * [f"{'-':>9}"]
    return " ".join(row + [f"{traced:8.1f}"] + rss)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:  # one row, in a fresh interpreter
        print(measure(float(sys.argv[2]), int(sys.argv[3])))
        sys.exit(0)
    print(f"{'s':>4} {'P':>3} {'dim':>6} {'build ms':>10} {'sample ms':>10} "
          f"{'eigvalsh':>10} {'complex':>10} {'eigh':>10} {'traced':>8} "
          f"{'rss build':>9} {'rss vals':>9} {'rss vecs':>9}")
    for s, P in sorted(LADDER, key=lambda c: (round(2 * c[0] + 1) ** c[1], c)):
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(s), str(P)],
            check=True, capture_output=True, text=True).stdout
        print(out.rstrip(), flush=True)
