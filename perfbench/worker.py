"""One benchmark process: set up, run the op list in-process, check outputs.

run.py starts this with the BLAS thread variables already in the
environment, so they take effect before numpy loads BLAS.  The worker prints
"ready" once set-up (import spinrad, config generation and parse, A11(0)) is
done, then times the "compute" speed probe of calibrate.py, which scales
the set-up time; with --setup-only it prints that scale and exits, so that
run.py can sample set-up time.  Otherwise it runs every op through
`spinrad.cli.main`, one at a time, each right after the workload's speed
probe, then checks the outputs outside the timed region and
writes its result as JSON, with a digest of each op's artifacts.  With --reference it also
rebuilds each e2 op's A_M with the benchmark's own dense assembly, right
after the op and untimed, while the op's kernel values are still memoized.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_info():
    """OpenBLAS version and thread count as loaded in this process."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.glob("spinrad/*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import spinrad
    if Path(spinrad.__file__).resolve().parent != src / "spinrad":
        print(f"spinrad imported from {spinrad.__file__}, not {src}",
              file=sys.stderr)
        return 3
    from spinrad import cli, config, kernel
    import calibrate
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    pass_dir = Path(args.pass_dir)
    ops = workloads.build_ops(args.workload, args.seed, pass_dir / "configs",
                              smoke=args.smoke)
    profiles = set()
    for op in ops:
        cfg = config.parse_config(Path(op.argv[2]).read_text())
        profiles.add(cfg.profile())
    (profile,) = profiles
    a11 = kernel.a11_origin(profile)
    print("ready", flush=True)
    setup_scale = calibrate.scale("compute", calibrate.probe("compute", 3))
    kind = workloads.WORKLOADS[args.workload].probe
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    runs = []
    for i, op in enumerate(ops):
        out_dir = pass_dir / "ops" / f"{i:03d}"
        out_dir.mkdir(parents=True)
        argv = list(op.argv) + ["--out", str(out_dir)]
        # Every CLI call starts with an empty kernel memo and a clean heap.
        memo = getattr(kernel, "_cache", None)
        if memo is not None:
            memo.clear()
        gc.collect()
        probe_s = calibrate.probe(kind)
        if tracer:
            tracer.op = i
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        reference = None
        if args.reference and op.suite == "e2" and rc == 0:
            reference = workloads.reference_lambda_min(
                op, lambda x: kernel.kernel_matrix(profile, x).entries)
        runs.append((op, out_dir, rc, stderr.getvalue(), seconds, probe_s,
                     reference))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = []
    for op, out_dir, rc, err, seconds, probe_s, reference in runs:
        known = False
        if rc == 0:
            try:
                reason = workloads.check_output(op, out_dir, a11, reference)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"unreadable output: {exc!r}"
        else:
            known = workloads.is_known_defect(op, rc, err)
            last = err.strip().splitlines()[-1] if err.strip() else ""
            reason = f"exit {rc}: {last}"
        results.append({"label": op.label, "suite": op.suite,
                        "seconds": seconds, "probe_s": probe_s,
                        "scaled_s": seconds * calibrate.scale(kind, probe_s),
                        "rc": rc, "ok": reason is None,
                        "known_defect": known, "reason": reason,
                        "digest": _tree_digest(out_dir)})

    import numpy, scipy
    doc = {
        "ops": results,
        "peak_rss_mb": peak_kb / 1024.0,
        "artifact_bytes": _tree_bytes(pass_dir / "ops"),
        "a11_origin": a11,
        "setup_scale": setup_scale,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas": _blas_info(),
                "blas_thread_env": {k: os.environ.get(k) for k in
                                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
                "spinrad_src_sha256": _source_digest(src)},
    }
    if tracer:
        scales = {i: calibrate.scale(kind, r["probe_s"])
                  for i, r in enumerate(results)}
        scales[None] = setup_scale
        doc["layers"] = tracing.layer_metrics(tracer, doc["artifact_bytes"],
                                              scales)
        doc["missing_boundaries"] = tracer.missing
        (pass_dir / "spans.json").write_text(
            json.dumps(tracer.span_records()))
    (pass_dir / "result.json").write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
