#!/usr/bin/env python3
"""Every CLI suite's artifacts on the bundled configurations, for diffing.

Runs each suite with the command-line arguments of README's Command line
section, one `python -m spinrad.cli` process per run, and writes its
artifacts and its stdout (stdout.txt) to OUT/<config>/<suite>/.  The
configurations are the bundled single_spin, two_spins and two_spins_equal,
and two_spins_equal at n_max = 2, written as a YAML copy into OUT.  The
suites are kernel, e2 with and without --eigenbasis (e2-eigenbasis),
verify, classical (where the configuration has as many particles as
configs/orientations_two.yaml has orientations), fock-fit and
multiplicity (where all moments are equal).

Run it on two checkouts and compare: an empty `diff -r OUT_A OUT_B` is
the byte-identity gate for a change that must not move any artifact.

usage: python3 scripts/bundled_artifacts.py OUT
(spinrad is imported from the environment, e.g. PYTHONPATH=src; prints
one line per run and exits 1 if a run did not exit 0.)
"""

import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ORIENTATIONS = CONFIGS / "orientations_two.yaml"
SUITES = {
    "kernel": ["kernel", "--at", "0.3", "0.1", "-0.5"],
    "e2": ["e2"],
    "e2-eigenbasis": ["e2", "--eigenbasis"],
    "verify": ["verify"],
    "classical": ["classical", "--orientations", str(ORIENTATIONS)],
    "fock-fit": ["fock-fit", "--scales", "0.4,0.2,0.1,0.05"],
    "multiplicity": ["multiplicity", "--g", "0.4,0.2,0.1"],
}


def configs(out: Path):
    """(name, path) of each configuration; the n_max = 2 copy goes to out."""
    names = ["single_spin", "two_spins", "two_spins_equal"]
    found = [(name, CONFIGS / f"{name}.yaml") for name in names]
    doc = yaml.safe_load(found[-1][1].read_text())
    doc["grids"]["n_max"] = 2
    copy = out / "two_spins_equal_nmax2.yaml"
    copy.write_text(yaml.safe_dump(doc, sort_keys=False))
    return [*found, ("two_spins_equal_nmax2", copy)]


def suites(path: Path):
    """The suites that apply to the configuration at path."""
    particles = yaml.safe_load(path.read_text())["particles"]
    moments = {p["moment"] for p in particles}
    n_orient = len(yaml.safe_load(ORIENTATIONS.read_text()))
    return [name for name in SUITES
            if (name != "classical" or len(particles) == n_orient)
            and (name != "multiplicity" or len(moments) == 1)]


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, path in configs(out):
        for suite in suites(path):
            target = out / name / suite
            target.mkdir(parents=True, exist_ok=True)
            run = subprocess.run(
                [sys.executable, "-m", "spinrad.cli", *SUITES[suite],
                 "--config", str(path), "--out", str(target)],
                capture_output=True, text=True)
            (target / "stdout.txt").write_text(run.stdout)
            print(f"{name} {suite} exit {run.returncode}"
                  + (f": {run.stderr.strip()}" if run.stderr else ""))
            failed += run.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1])))
