#!/usr/bin/env python3
"""spinrad benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload am_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Closed loop, one client, one op in flight: a worker process (worker.py)
calls `spinrad.cli.main` in-process on the workload's op list, which is
generated from --seed.  With --trace 0 the list runs in a number of rounds
fixed by --seconds, each in a fresh process, set-up is sampled in further
processes that stop at "ready", and the last line of standard output is the
end-to-end result over the rounds; with --trace 1 the list runs in as many
untraced and traced rounds, alternating, and the last line holds the
per-layer metrics.  Every time is scaled to the reference speed by the
speed probe of calibrate.py, timed next to it.  Every round's artifacts must
be byte-identical to the first round's, whose e2 ops are also checked
against the benchmark's own A_M assembly.  Metric names and units come from
BENCHMARK.json.  --smoke runs every workload at tiny sizes, one round,
untraced and traced, and checks the result shape.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
# One BLAS thread: on the 2-core reference box two threads ran the P=8 A_M
# assembly faster but with twice the run-to-run spread.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up time samples per untraced run: the rounds' own starts, topped up
# with --setup-only starts spread between the rounds.  setup_s is their
# median.
SETUP_SAMPLES = 5


class BenchError(Exception):
    pass


def _worker(pass_dir: Path, argv: list, deadline: float):
    """Run worker.py to completion; returns its set-up time and later output.

    Set-up is timed from process start to the worker's "ready" line.
    """
    env = dict(os.environ, **{v: str(BLAS_THREADS) for v in BLAS_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--pass-dir", str(pass_dir)] + argv
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    try:
        waiting = deadline - time.monotonic()
        if not select.select([proc.stdout], [], [], max(0.0, waiting))[0]:
            raise BenchError(f"worker not ready within {waiting:.0f} s")
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup_s, rest


def _pass(run_dir, k, name, common, deadline, flags=()) -> dict:
    """Run the op list once; pass 0 also checks e2 against the reference."""
    pass_dir = run_dir / name
    flags = (["--reference"] if k == 0 else []) + list(flags)
    setup_s, _ = _worker(pass_dir, common + flags, deadline)
    result = json.loads((pass_dir / "result.json").read_text())
    result["raw_setup_s"] = setup_s
    result["setup_s"] = setup_s * result["setup_scale"]
    return result


def _setup_sample(pass_dir, common, deadline) -> tuple:
    """Start a worker that stops at "ready"; its (scaled, raw) set-up time."""
    setup_s, rest = _worker(pass_dir, common + ["--setup-only"], deadline)
    return setup_s * json.loads(rest)["setup_scale"], setup_s


def _check_same_outputs(results) -> list:
    """Fail every op whose artifacts differ from the first pass's; their labels.
    """
    differ = []
    for r in results[1:]:
        for first, op in zip(results[0]["ops"], r["ops"]):
            if op["digest"] != first["digest"]:
                op.update(ok=False, known_defect=False,
                          reason="artifacts differ from the first pass's")
                differ.append(op["label"])
    return differ


def _tail(times):
    """Highest percentile with >= 10 samples beyond it: (value, pct, beyond).

    Op lists of fewer than 11 ops have no such percentile; they report the
    maximum, with 0 samples beyond it.
    """
    t = sorted(times)
    n = len(t)
    if n > 10:
        return t[n - 11], 100.0 * (n - 10) / n, 10
    return t[-1], 100.0, 0


def _wall(result, key="scaled_s") -> float:
    return math.fsum(op[key] for op in result["ops"])


def _failures(results):
    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    known = [op for op in failed if op["known_defect"]]
    return len(ops), len(failed), len(known)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run(workload: str, seed: int, seconds: int, trace: bool,
        smoke: bool = False) -> dict:
    """Run one workload; returns the report, including the result line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[workload]
    rounds = 1 if smoke else wl.rounds(seconds)
    run_dir = HERE / "out" / (f"{workload}{'-smoke' if smoke else ''}"
                              f"-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed)] \
        + (["--smoke"] if smoke else [])

    report = {"workload": workload, "why": wl.why, "seed": seed,
              "seconds": seconds, "rounds": rounds, "trace": trace,
              "loop": "closed, one client, one op in flight"}
    if trace:
        # untraced and traced rounds alternate, untraced first
        results = [_pass(run_dir, k, f"{'traced' if k % 2 else 'plain'}"
                         f"{k // 2}", common, deadline,
                         ["--trace"] if k % 2 else [])
                   for k in range(2 * rounds)]
        differ = _check_same_outputs(results)
        plain, traced = results[0::2], results[1::2]
        missing = traced[0]["missing_boundaries"]
        # a layer's figure is its median over the traced rounds; the lower
        # median keeps counts whole
        values = {name: statistics.median_low(r["layers"][name]
                                              for r in traced)
                  for name in traced[0]["layers"]}
        plain_wall = statistics.median(_wall(r) for r in plain)
        traced_wall = statistics.median(_wall(r) for r in traced)
        values["trace.overhead_s"] = traced_wall - plain_wall
        report.update(missing_boundaries=missing, untraced_wall_s=plain_wall,
                      traced_wall_s=traced_wall)
        shown = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        missing = []
        extra = 0 if smoke else max(0, SETUP_SAMPLES - rounds)
        results, setup = [], []
        for k in range(rounds):
            results.append(_pass(run_dir, k, f"round{k}", common, deadline))
            setup.append((results[-1]["setup_s"], results[-1]["raw_setup_s"]))
            for j in range(k * extra // rounds, (k + 1) * extra // rounds):
                setup.append(_setup_sample(run_dir / f"setup{j}", common,
                                           deadline))
        differ = _check_same_outputs(results)
        # an op's time is its median over the rounds
        times = [statistics.median(r["ops"][i]["scaled_s"] for r in results)
                 for i in range(len(results[0]["ops"]))]
        attempted, failed, _ = _failures(results)
        tail, pct, beyond = _tail(times)
        values = {"wall_s": statistics.median(_wall(r) for r in results),
                  "op_p50_s": statistics.median(times),
                  "op_tail_s": tail,
                  "setup_s": statistics.median(s for s, _ in setup),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in results),
                  "success_rate": 1.0 - failed / attempted}
        report.update(op_tail={"percentile": pct, "samples": len(times),
                               "beyond": beyond},
                      setup_samples_s=[s for s, _ in setup],
                      raw={"wall_s": statistics.median(_wall(r, "seconds")
                                                       for r in results),
                           "setup_s": statistics.median(r for _, r in setup)})
        shown = [(m["name"], m["unit"]) for m in spec["end_to_end"]]

    attempted, failed, known = _failures(results)
    # a boundary the tracer could not find would read as zero work
    correct = failed == known and not missing
    report["artifacts_differ"] = differ
    report["env"] = dict(results[-1]["env"], nproc=os.cpu_count(),
                         machine=platform.machine(), seed=seed,
                         git_commit=_git_commit())
    report["ops"] = [dict(op, round=i, traced=bool(trace and i % 2))
                     for i, r in enumerate(results) for op in r["ops"]]
    report["failures"] = {"failed": failed, "known_defect": known,
                          "other": failed - known,
                          "error_rate": failed / attempted}
    report["result"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in shown}}

    for pass_dir in run_dir.iterdir():
        for sub in ("ops", "configs"):
            shutil.rmtree(pass_dir / sub, ignore_errors=True)
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))
    return report


def _print_report(report):
    r = report["result"]
    print(f"workload {report['workload']} (seed {report['seed']}, "
          f"{report['rounds']} round(s), {report['loop']}): {report['why']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for op in report["ops"]:
        status = "ok" if op["ok"] else \
            ("FAIL known defect" if op["known_defect"] else "FAIL")
        tag = " [traced]" if op["traced"] else f" [round {op['round']}]"
        print(f"  {op['scaled_s']:9.4f} s (unscaled {op['seconds']:.4f} s)  "
              f"{op['label']}{tag}  {status}"
              + (f"  ({op['reason']})" if op["reason"] else ""))
    f = report["failures"]
    print(f"error_rate = {f['failed']}/{r['attempted']} "
          f"(known defect {f['known_defect']}, other {f['other']})")
    if "raw" in report:
        print("unscaled medians: " + ", ".join(
            f"{k} = {v:.4f} s" for k, v in report["raw"].items()))
    if "op_tail" in report:
        t = report["op_tail"]
        print(f"op_tail_s is p{t['percentile']:.1f} of {t['samples']} per-op "
              f"medians, {t['beyond']} beyond it")
    print(f"artifacts differing from the first pass's: "
          f"{report['artifacts_differ'] or 'none'}")
    if report["trace"]:
        print(f"median traced wall {report['traced_wall_s']:.4f} s, untraced "
              f"{report['untraced_wall_s']:.4f} s; missing boundaries: "
              f"{report['missing_boundaries'] or 'none'}")
    for name, m in r["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(r))


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; checks the shape."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            r = run(workload, seed=0, seconds=1, trace=trace,
                    smoke=True)["result"]
            names = [m["name"] for m in spec[key]]
            good = (r["correct"] and r["attempted"] >= 1
                    and list(r["metrics"]) == names
                    and all(math.isfinite(m["value"])
                            for m in r["metrics"].values()))
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} smoke {workload} "
                  f"trace={int(trace)} attempted={r['attempted']} "
                  f"failed={r['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spinrad" / "__init__.py").is_file():
        print(f"no spinrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        _print_report(run(args.workload, args.seed, args.seconds,
                          bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
