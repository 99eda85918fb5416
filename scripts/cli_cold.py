#!/usr/bin/env python3
"""What one `spinrad` command costs a user, suite by suite, from a cold start.

For each suite that scripts/bundled_artifacts.py runs (its table of
suites and arguments), on the first of two_spins and two_spins_equal it
applies to, the script times N fresh `python -m spinrad.cli` processes
(interpreter start-up included) and prints their median, fastest and
slowest wall time.  One more fresh process per suite splits the command
into `import spinrad.cli`, the parse of its arguments (the parser's
build included: main's first parse in a process) and `main` itself,
which then finds its parser cached and spends its time loading the
configuration, running the suite and writing the artifacts.

perfbench times ops inside one long-lived worker, after its set-up has
imported everything, so neither the import nor the interpreter's start
shows there; this script shows them.

usage: python3 scripts/cli_cold.py [-n N]
(spinrad is imported from the environment, e.g. PYTHONPATH=src; the
artifacts go to a temporary directory.  Exits 1 if a command did not
exit 0.)
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bundled_artifacts  # noqa: E402

# One fresh process: the split of one command, printed as JSON
SPLIT = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import spinrad.cli as cli
t1 = time.perf_counter()
cli._parse_args(sys.argv[1:])
t2 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "main_s": t3 - t2, "exit": code}))
"""


def commands(out: Path):
    """(suite, config name, argv) of each suite of bundled_artifacts."""
    found = []
    for suite, args in bundled_artifacts.SUITES.items():
        for name in ("two_spins", "two_spins_equal"):
            path = bundled_artifacts.CONFIGS / f"{name}.yaml"
            if suite in bundled_artifacts.suites(path):
                found.append((suite, name, [*args, "--config", str(path),
                                            "--out", str(out / suite)]))
                break
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-n", "--runs", type=int, default=5,
                    help="fresh processes timed per suite (default 5)")
    n = ap.parse_args().runs
    print(f"{'suite':<14} {'config':<16} {'median_s':>9} {'min_s':>7} "
          f"{'max_s':>7} {'import_s':>9} {'parse_s':>8} {'main_s':>7}")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for suite, name, argv in commands(Path(tmp)):
            walls = []
            for _ in range(n):
                t0 = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-m", "spinrad.cli", *argv],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                walls.append(time.perf_counter() - t0)
                failed += done.returncode != 0
            done = subprocess.run([sys.executable, "-c", SPLIT, *argv],
                                  capture_output=True, text=True)
            row = (f"{suite:<14} {name:<16} {statistics.median(walls):9.4f} "
                   f"{min(walls):7.4f} {max(walls):7.4f}")
            if done.returncode:  # main raised: no split to print
                failed += 1
                print(row, "split failed:", done.stderr.strip()[-200:])
                continue
            split = json.loads(done.stdout)
            failed += split["exit"] != 0
            print(row, f"{split['import_s']:9.4f} {split['parse_s']:8.5f} "
                  f"{split['main_s']:7.4f}")
    if failed:
        print(f"{failed} command(s) did not exit 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
