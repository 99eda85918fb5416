"""Speed probes: fixed loads that tell how fast the box runs right now.

A shared box runs the same code up to 1.5 times slower for minutes while
its neighbours are busy, longer than a benchmark run lasts, so medians over
rounds cannot remove it.  A probe is a fixed load of the kind of work a
workload does, written with numpy only, never spinrad, so no change to
spinrad can change it.  A time measured next to a probe is multiplied by
`scale(kind, probe_s)`, which turns it into seconds at the reference speed.

- "compute": a pure-Python loop, small dense LAPACK calls, Kronecker
  products and vectorized special functions, the mix of kernel quadrature,
  dense A_M assembly and interpreter work.
- "memory": complex elementwise arithmetic on 16 MB arrays, which streams
  more data than the caches hold, like the 3D oracle, the field-energy
  quadrature and the Lanczos solves of the Fock workloads.
"""

from __future__ import annotations

import time

import numpy as np

# Typical probe time (fastest of two) on the 2-core reference box while it
# was otherwise idle.  Scaled times are in seconds at that speed.
REFERENCE_S = {"compute": 0.021, "memory": 0.066}

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(96, 96))
_A = _A + _A.T
_B = _rng.normal(size=(9, 9))
_v = _rng.normal(size=40000)
_re = _rng.normal(size=1 << 20)
_im = _rng.normal(size=1 << 20)


def _compute():
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5
    for _ in range(4):
        np.linalg.eigvalsh(_A)
    for _ in range(10):
        np.kron(_B, np.kron(_B, _B)).sum()
    for _ in range(10):
        np.exp(np.sin(_v)).sum()


def _memory():
    f = np.exp(-1j * _re) * _im / (_re * _re + 1.0)
    (f * _re).sum()


_LOADS = {"compute": _compute, "memory": _memory}


def probe(kind: str, repeats: int = 2) -> float:
    """Fastest of `repeats` runs of the `kind` load, in seconds."""
    load = _LOADS[kind]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        load()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(kind: str, probe_s: float) -> float:
    """Factor that turns a time measured next to a probe into reference s."""
    return REFERENCE_S[kind] / probe_s
