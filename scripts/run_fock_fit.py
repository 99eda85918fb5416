#!/usr/bin/env python3
"""Fit the toy-model ground energy against the quadratic prediction.

Runs the fock-fit suite on the bundled two-spin configuration with the
default scale ladder and prints the fitted coefficient, the remainder
slope, and the photon-number exponent.  Takes about 0.65 s at the default
grid on a 2-core x86 machine (Python 3.11, numpy 2.4, scipy 1.17, one BLAS
thread), start-up included; importing spinrad.cli is about 0.55 s of it,
and the four one-column ground-state solves on the 580-state coupled
space take about 0.03 s.
"""

import sys
from pathlib import Path

from spinrad.cli import main

ROOT = Path(__file__).resolve().parent.parent


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "results" / "fock_fit")
    sys.exit(main(["fock-fit",
                   "--config", str(ROOT / "configs" / "two_spins.yaml"),
                   "--scales", "0.4,0.2,0.1,0.05",
                   "--out", out]))
