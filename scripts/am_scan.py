#!/usr/bin/env python3
"""Time the dense A_M assembly and its eigensolves over a ladder in P and s.

Covers spin-1/2 P = 2..12, spin-1 P = 2..7, spin-3/2 P = 2..6 and
spin-5/2 P = 2..4 (every spin dimension up to MAX_DENSE_DIM = 4096), in
increasing dimension.  Each cluster is random, with moments of either sign,
and runs in its own interpreter, which prints:

  dim        the spin dimension (2s + 1)^P;
  build      ms for spin_operator._assemble (kernel calls included);
  eigvalsh   ms for np.linalg.eigvalsh of the assembled A_M;
  eigh       ms for np.linalg.eigh of it;
  traced     MB, the tracemalloc peak of one build;
  rss        MB, the interpreter's peak resident set after the build,
             after eigvalsh and after eigh (high-water marks; tracemalloc
             does not see LAPACK's workspace).

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
from spinrad.cutoff import CutoffProfile
from spinrad.kernel import kernel_matrix
from spinrad.spin_operator import SpinSystem, _assemble

import numpy as np

LADDER = [(0.5, P) for P in range(2, 13)] + [(1.0, P) for P in range(2, 8)] \
    + [(1.5, P) for P in range(2, 7)] + [(2.5, P) for P in range(2, 5)]
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

    def build():
        return _assemble(system, lambda d: kernel_matrix(profile, d).entries)

    build_ms = best_ms(build)  # no A_M is kept alive across the timed builds
    tracemalloc.start()
    A = build()
    traced = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    row = [f"{s:4.1f}", f"{P:3d}", f"{A.shape[0]:6d}", build_ms]
    rss = [rss_mb()]
    if A.shape[0] <= MAX_SOLVE_DIM:
        row.append(best_ms(lambda: np.linalg.eigvalsh(A)))
        rss.append(rss_mb())
        row.append(best_ms(lambda: np.linalg.eigh(A)))
        rss.append(rss_mb())
    else:
        row += 2 * [f"{'-':>10}"]
        rss += 2 * [f"{'-':>9}"]
    return " ".join(row + [f"{traced:8.1f}"] + rss)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:  # one row, in a fresh interpreter
        print(measure(float(sys.argv[2]), int(sys.argv[3])))
        sys.exit(0)
    print(f"{'s':>4} {'P':>3} {'dim':>6} {'build ms':>10} {'eigvalsh':>10} "
          f"{'eigh':>10} {'traced':>8} {'rss build':>9} {'rss vals':>9} "
          f"{'rss vecs':>9}")
    for s, P in sorted(LADDER, key=lambda c: (round(2 * c[0] + 1) ** c[1], c)):
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(s), str(P)],
            check=True, capture_output=True, text=True).stdout
        print(out.rstrip(), flush=True)
