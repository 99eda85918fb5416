#!/usr/bin/env python3
"""Every CLI suite's artifacts on the bundled configurations, for diffing.

Runs each suite with the command-line arguments of README's Command line
section and writes its artifacts and its stdout (stdout.txt) to
OUT/<config>/<suite>/.  The configurations are the bundled single_spin,
two_spins and two_spins_equal, and five generated copies, written as
YAML into OUT: two_spins_equal at n_max = 2; two_spins with its second
site moved to (40, -0.3, 0.4), about 40/lam out, where the field-energy
rule grows; two_spins at spin 1 (spin1_pair); and two_spins with a
third site at (0.2, 0.7, -0.5) of moment 0.6, at spin 1 (spin1_triple)
and at spin 3/2 (spin3half_triple).  The last three reach what the
spin-1/2 pairs do not: the real basis of integer spins, and the frame
of a planar cluster with its two parity sectors.  The suites are
kernel, e2 with and without --eigenbasis (e2-eigenbasis), verify,
classical (where the configuration has as many particles as
configs/orientations_two.yaml has orientations), fock-fit and
multiplicity (where all moments are equal).

Each run is one `spinrad.cli.main` call in this interpreter (48 runs in
about 1.5 s on a 2-core Xeon).  Run it on two checkouts and compare: an
empty `diff -r OUT_A OUT_B` is the byte-identity gate for a change that
must not move any artifact.

--golden runs into a temporary directory and writes
tests/golden/bundled.sha256: one `sha256  path` line per file, after
header lines with the Python and numpy versions that the manifests
record and numpy's BLAS build.  It also writes
tests/golden/fock_h.sha256 under the same header: one `sha256  case`
line per Fock Hamiltonian build (fock_cases), the hash of the indptr,
indices and data of toy.matrix(t), dtypes included, at t = 0, 0.05,
0.4 and 1.  tests/test_bundled_artifacts.py checks every hash of both
files against a fresh run.  A change that moves digits on purpose
regenerates the files and lists the moved files and cases.

--compare OLD NEW reads two such trees and prints one row per file
that differs: the largest relative and absolute change of any number
in it, and every other token that changed (compare).  A change that
moves digits on purpose can paste the table; it exits 1 when a
non-numeric token changed or a file is in one tree only.

usage: python3 scripts/bundled_artifacts.py OUT
       python3 scripts/bundled_artifacts.py --golden
       python3 scripts/bundled_artifacts.py --compare OLD NEW
(spinrad is imported from the environment, e.g. PYTHONPATH=src; prints
one line per run and exits 1 if a run did not exit 0.)
"""

import contextlib
import hashlib
import io
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import spinrad.cli as cli  # first: spinrad pins BLAS to one thread

import numpy as np
import yaml

from spinrad import CutoffProfile, SpinSystem
from spinrad.errors import ResourceError
from spinrad.fock import build_hamiltonian, build_mode_grid

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ORIENTATIONS = CONFIGS / "orientations_two.yaml"
GOLDEN = ROOT / "tests" / "golden" / "bundled.sha256"
FOCK_GOLDEN = ROOT / "tests" / "golden" / "fock_h.sha256"
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
    """(name, path) of each configuration; the two copies go to out."""
    names = ["single_spin", "two_spins", "two_spins_equal"]
    found = [(name, CONFIGS / f"{name}.yaml") for name in names]
    nmax2 = yaml.safe_load(found[2][1].read_text())
    nmax2["grids"]["n_max"] = 2
    far = yaml.safe_load(found[1][1].read_text())
    far["particles"][1]["position"] = [40.0, -0.3, 0.4]
    pair = yaml.safe_load(found[1][1].read_text())
    pair["spin"] = 1.0
    triple = yaml.safe_load(found[1][1].read_text())
    triple["particles"].append({"position": [0.2, 0.7, -0.5], "moment": 0.6})
    triple["spin"] = 1.0
    for name, doc in [("two_spins_equal_nmax2", nmax2),
                      ("two_spins_far40", far),
                      ("spin1_pair", pair),
                      ("spin1_triple", triple),
                      ("spin3half_triple", {**triple, "spin": 1.5})]:
        copy = out / f"{name}.yaml"
        copy.write_text(yaml.safe_dump(doc, sort_keys=False))
        found.append((name, copy))
    return found


def suites(path: Path):
    """The suites that apply to the configuration at path."""
    particles = yaml.safe_load(path.read_text())["particles"]
    moments = {p["moment"] for p in particles}
    n_orient = len(yaml.safe_load(ORIENTATIONS.read_text()))
    return [name for name in SUITES
            if (name != "classical" or len(particles) == n_orient)
            and (name != "multiplicity" or len(moments) == 1)]


def run(argv):
    """(exit code, stdout, stderr) of one spinrad.cli.main call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def write_all(out: Path) -> list:
    """Every run's artifacts under out; the '<config> <suite>' of each run
    that did not exit 0."""
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    for name, path in configs(out):
        for suite in suites(path):
            target = out / name / suite
            target.mkdir(parents=True, exist_ok=True)
            code, stdout, stderr = run(
                [*SUITES[suite], "--config", str(path), "--out", str(target)])
            (target / "stdout.txt").write_text(stdout)
            print(f"{name} {suite} exit {code}"
                  + (f": {stderr.strip()}" if stderr else ""))
            if code != 0:
                failed.append(f"{name} {suite}")
    return failed


def digests(out: Path) -> dict:
    """sha256 of every file under out, by its path relative to out."""
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def fock_cases():
    """(name, system, profile, grid, n_max) of each Fock Hamiltonian build
    to hash: s 1/2 to 5/2 and P <= 3 on 2 and 4 radial shells at n_max 1
    to 3, and on 24 shells at n_max = 1.  Builds outside the budgets are
    among them; fock_digests skips those."""
    profile = CutoffProfile(1.0)
    positions = [[0.0, 0.0, 0.0], [0.9, -0.3, 0.4], [-0.5, 0.7, 0.2]]
    moments = [0.8, -0.5, 0.3]
    for n_radial, caps in [(2, (1, 2, 3)), (4, (1, 2, 3)), (24, (1,))]:
        grid = build_mode_grid(profile, n_radial)
        for s in (0.5, 1.0, 1.5, 2.0, 2.5):
            for P in (1, 2, 3):
                system = SpinSystem(positions=positions[:P],
                                    moments=moments[:P], s=s)
                for n_max in caps:
                    yield (f"n_radial={n_radial} s={s} P={P} n_max={n_max}",
                           system, profile, grid, n_max)


def fock_digests() -> dict:
    """sha256 of the Fock H of every case of fock_cases, by its name: the
    dtype and bytes of indptr, indices and data of toy.matrix(t) at
    t = 0, 0.05, 0.4 and 1."""
    out = {}
    for name, system, profile, grid, n_max in fock_cases():
        try:
            toy = build_hamiltonian(system, profile, grid, n_max)
        except ResourceError:  # outside the budgets
            continue
        digest = hashlib.sha256()
        for t in (0.0, 0.05, 0.4, 1.0):
            H = toy.matrix(t)
            for arr in (H.indptr, H.indices, H.data):
                digest.update(arr.dtype.str.encode())
                digest.update(arr.tobytes())
        out[name] = digest.hexdigest()
    return out


def environment() -> dict:
    """What the hashes depend on besides the code: the versions that the
    manifests record, and the BLAS that every solve goes through."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def read_golden(path: Path = GOLDEN):
    """(environment, digests) recorded in a golden file."""
    env, hashes = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            env[key] = value
        else:
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return env, hashes


# a number standing alone: not part of a name such as c2 or far40
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")


def compare_text(old: str, new: str):
    """(largest relative change, largest absolute change, changed tokens)
    between two texts read as numbers and the text between them.  The
    relative change of a pair is |a - b| / max(|a|, |b|), 0 when equal;
    the changed tokens are the (old, new) pairs of text between numbers
    that differ, or the whole texts when they hold different counts of
    numbers."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b):
        return math.nan, math.nan, [(old, new)]
    texts = [(x, y) for x, y in zip(a, b) if x != y]
    rel = ab = 0.0
    for x, y in zip(map(float, NUMBER.findall(old)),
                    map(float, NUMBER.findall(new))):
        if x != y:
            ab = max(ab, abs(x - y))
            rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
    return rel, ab, texts


def compare(old: Path, new: Path) -> int:
    """Print a row for each file that differs between the trees old and
    new; 1 if a non-numeric token changed or a file is in one tree only,
    else 0."""
    files = {p.relative_to(root).as_posix()
             for root in (old, new) for p in root.rglob("*") if p.is_file()}
    bad = 0
    print("| file | largest relative change | largest absolute change "
          "| other tokens changed |")
    print("|---|---|---|---|")
    for name in sorted(files):
        if not ((old / name).is_file() and (new / name).is_file()):
            print(f"| {name} | | | in one tree only |")
            bad = 1
            continue
        x, y = (old / name).read_text(), (new / name).read_text()
        if x == y:
            continue
        rel, ab, texts = compare_text(x, y)
        bad |= bool(texts)
        print(f"| {name} | {rel:.2g} | {ab:.2g} | "
              f"{'; '.join(f'{u!r} -> {v!r}' for u, v in texts)} |")
    return bad


def write_golden() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failed = write_all(Path(tmp))
        hashes = digests(Path(tmp))
    if failed:
        print(f"not written: {', '.join(failed)} did not exit 0")
        return 1
    header = [f"# {key}: {value}\n" for key, value in environment().items()]
    for path, found in [(GOLDEN, hashes), (FOCK_GOLDEN, fock_digests())]:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(header + [f"{digest}  {name}\n"
                                          for name, digest in found.items()]))
        print(f"{len(found)} hashes written to {path}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--golden"]:
        sys.exit(write_golden())
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(Path(args[1]), Path(args[2])))
    if len(args) != 1 or args[0].startswith("--"):
        sys.exit(__doc__)
    sys.exit(1 if write_all(Path(args[0])) else 0)
