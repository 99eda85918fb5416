"""Batch front-end: suite orchestration, CSV/JSON artifact emission.

Suites: kernel, e2, verify, classical, fock-fit, multiplicity.  Each
suite computes its artifacts, stdout lines and verdict; `main` alone
loads the configuration, writes, prints and picks the exit code: 0 all
checks passed, 1 a check failed (artifacts written) or a module error
occurred (none written), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_yaml, parse_config, run_manifest
from .errors import ConfigError, SpinradError
from .field_energy import classical_current, classical_decomposition_check, \
    field_energy, rule_sizes, vector_current
from .fock import build_mode_grid, multiplicity_scan, quadratic_fit
from .kernel import a11_origin, kernel_matrix, kernel_oracle_3d
from .spin_algebra import omega_state, product_state, su2_rotate
from .spin_operator import PSD_VIOLATION_TOL, assemble_am, \
    ground_eigenspace, product_form, quadratic_form

OUT_ENV_VAR = "SPINRAD_OUT"
PRODUCT_SAMPLES = 200  # random product states of e2's sampled minimum


def _fmt(x) -> str:
    """Shortest round-trip decimal (<= 17 significant digits)."""
    return repr(float(x))


def _csv(header, rows) -> str:
    """CSV text of a header and rows; floats are written by _fmt."""
    return "".join(",".join(_fmt(c) if isinstance(c, float) else str(c)
                            for c in row) + "\n" for row in [header, *rows])


def _random_states(rng, dim, count):
    """count normalized complex vectors, shape (count, dim).

    Each vector takes its real then its imaginary parts from rng, so the
    draws match count separate rng.normal(size=dim) pairs.
    """
    z = rng.normal(size=(count, 2, dim))
    v = z[:, 0] + 1j * z[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sampled_product_min(coef, s, rng):
    """min(0, <A X, X>) over PRODUCT_SAMPLES random product states X.

    A = sum_ab coef[a, b] S_a S_b is read through its coefficient matrix
    (product_form), so no spin-space vector is formed.
    """
    d1 = int(round(2 * s + 1))
    P = len(coef) // 3
    factors = _random_states(rng, d1, PRODUCT_SAMPLES * P)
    values = product_form(coef, s, factors.reshape(PRODUCT_SAMPLES, P, d1))
    return min(0.0, float(values.min()))


def _load_orientations(path):
    """Float array of a YAML list of orientation vectors."""
    what = f"orientations file {path}"
    spins = load_yaml(Path(path).read_text(), what)
    try:
        return np.array(spins, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _finite_float(text):
    """argparse type for one finite number; nan and inf are usage errors."""
    try:
        x = float(text)
        if math.isfinite(x):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _seed(text):
    """argparse type for a non-negative integer seed."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _float_list(text):
    """argparse type for a comma-separated list of finite numbers."""
    try:
        return [_finite_float(t) for t in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Suites: each returns (files, lines, ok), the artifact texts by file name,
# the stdout lines and the verdict; none writes, prints or exits
# ---------------------------------------------------------------------------

def _verdict(checks):
    """PASS/FAIL lines of (passed, text) pairs, and whether all passed."""
    checks = list(checks)
    return ([f"{'PASS' if ok else 'FAIL'} {text}" for ok, text in checks],
            all(ok for ok, _ in checks))


def _toy_model(cfg):
    """System, cutoff profile and photon-mode grid of the configuration."""
    profile = cfg.profile()
    return cfg.system(), profile, build_mode_grid(
        profile, cfg.grids["n_radial"], cfg.grids["n_angular"])


def suite_kernel(cfg, args):
    profile = cfg.profile()
    x = np.array(args.at, dtype=float)
    K = kernel_matrix(profile, x)
    doc = {"displacement": list(map(float, x)),
           "matrix": [[float(v) for v in row] for row in K.entries],
           "a11_origin": a11_origin(profile)}
    text = json.dumps(doc, indent=2)
    return {"kernel.json": text + "\n"}, [text], True


def suite_e2(cfg, args):
    system, profile = cfg.system(), cfg.profile()
    A = assemble_am(system, profile, vectors=args.eigenbasis)
    lam_min, mult, basis = ground_eigenspace(A, cfg.tolerances["degeneracy"])
    # sampled product-state minimum; reported alongside, nothing asserted
    best = _sampled_product_min(A.coefficients, system.s,
                                np.random.default_rng(cfg.seed))
    doc = {"lambda_min": float(lam_min), "multiplicity": int(mult),
           "product_state_sampled_min": best}
    if args.eigenbasis:
        doc["eigenbasis"] = [[[float(v.real), float(v.imag)] for v in col]
                             for col in basis.T]
    text = json.dumps(doc, indent=2)
    return {"e2.json": text + "\n"}, [text], True


def _verify_rows(cfg):
    system, profile = cfg.system(), cfg.profile()
    tol_id = cfg.tolerances["identity"]
    rng = np.random.default_rng(cfg.seed)
    rows = []

    def add(name, lhs, rhs, tol):
        resid = abs(lhs - rhs)
        rows.append([name, float(lhs), float(rhs), float(resid), float(tol),
                     resid <= tol])

    # The oracle's error scales as lam^5 |x|^2 and the kernel as lam^3, so
    # |x| is drawn in units of 1/lam and the gate scales as lam^3.
    for i in range(3):
        x = rng.normal(size=3)
        x *= rng.uniform(0.2, 4.0) / (profile.lam * np.linalg.norm(x))
        K = kernel_matrix(profile, x).entries
        O = kernel_oracle_3d(profile, x).entries
        add(f"kernel_vs_oracle_{i}", np.abs(K - O).max(), 0.0,
            1e-6 * profile.lam ** 3)

    A = assemble_am(system, profile, vectors=True)
    add("negative_semidefinite", max(float(A.eigenvalues[-1]), 0.0), 0.0,
        PSD_VIOLATION_TOL * A.radius)

    A2 = assemble_am(system.with_moments(2.0 * system.moments), profile)
    add("moment_scaling_c2", float(np.abs(A2.matrix - 4.0 * A.matrix).max()),
        0.0, 1e-12 * A.radius)

    for i, X in enumerate(_random_states(rng, system.spin_dim, 3)):
        qf = quadratic_form(A, X)
        energy = field_energy(vector_current(system, profile, X))
        add(f"th_egal_{i}", qf, -energy, tol_id * abs(qf))

    # route 2 at lambda_min itself: the field energy of its eigenvector
    lam_min, _, basis = ground_eigenspace(A, cfg.tolerances["degeneracy"])
    energy = field_energy(vector_current(system, profile, basis[:, 0]))
    add("th_egal_ground", lam_min, -energy, tol_id * abs(lam_min))

    # product states on the SU(2) orbit of omega_state: unit Hopf vectors
    X0 = omega_state(system.s)
    states = [product_state([su2_rotate(system.s, 2.0 * rng.normal(size=3))
                             @ X0 for _ in range(system.P)], system.s)
              for _ in range(2)]
    for i, (lhs, rhs, _) in enumerate(
            classical_decomposition_check(A, system, profile, states)):
        add(f"class_decomposition_{i}", lhs, rhs, tol_id * abs(lhs))
    return rows


def suite_verify(cfg, args):
    rows = _verify_rows(cfg)
    sizes = rule_sizes(cfg.profile(), cfg.system().positions)
    rule = dict(zip(("n_radial", "n_theta", "n_phi"), sizes),
                nodes=math.prod(sizes))
    manifest = run_manifest(cfg, {"suite": "verify",
                                  "field_energy_rule": rule})
    lines, ok = _verdict(
        (row[-1], f"{row[0]} residual={_fmt(row[3])} tolerance={_fmt(row[4])}")
        for row in rows)
    return {"verify.csv": _csv(["check_name", "lhs", "rhs", "residual",
                                "tolerance", "pass"], rows),
            "verify_manifest.json": manifest + "\n"}, lines, ok


def suite_classical(cfg, args):
    system, profile = cfg.system(), cfg.profile()
    S = _load_orientations(args.orientations)
    energy = field_energy(classical_current(system, profile, S))
    rows = [["magnet_field_energy", float(energy)],
            ["a11_origin", float(a11_origin(profile))]]
    return ({"classical.csv": _csv(["quantity", "value"], rows)},
            [f"magnet field energy: {_fmt(energy)}"], True)


def suite_fock_fit(cfg, args):
    system, profile, grid = _toy_model(cfg)
    fit = quadratic_fit(system, profile, grid, cfg.grids["n_max"], args.scales,
                        tol=cfg.tolerances["eigensolver"])
    n_slope = float(np.polyfit(np.log(fit.scales),
                               np.log(fit.photon_numbers), 1)[0])
    checks = {
        "c2_matches_discrete_am":
            abs(fit.c2 / fit.a_disc_min - 1.0) <= 0.02,
        "residual_slope_at_least_2.7":
            bool(fit.tolerance_limited or fit.residual_slope >= 2.7),
        "photon_slope_2_pm_0.1": abs(n_slope - 2.0) <= 0.1,
    }
    summary = {
        "suite": "fock-fit", "c2": fit.c2, "a_disc_min": fit.a_disc_min,
        "residual_slope": None if fit.tolerance_limited
        else fit.residual_slope,
        "tolerance_limited": fit.tolerance_limited,
        "photon_number_slope": n_slope, "checks": checks,
    }
    lines, ok = _verdict((passed, name) for name, passed in checks.items())
    lines.append(f"c2={_fmt(fit.c2)} a_disc_min={_fmt(fit.a_disc_min)} "
                 f"residual_slope={fit.residual_slope} "
                 f"photon_slope={_fmt(n_slope)}")
    rows = [[float(t), float(e), float(n)] for t, e, n in
            zip(fit.scales, fit.energies, fit.photon_numbers)]
    return {"fock_fit.csv": _csv(["scale", "energy", "photon_number"], rows),
            "fock_fit_manifest.json": run_manifest(cfg, summary) + "\n"}, \
        lines, ok


def suite_multiplicity(cfg, args):
    system, profile, grid = _toy_model(cfg)
    rows = multiplicity_scan(system, profile, grid, cfg.grids["n_max"], args.g,
                             degeneracy_tol=cfg.tolerances["degeneracy"],
                             tol=cfg.tolerances["eigensolver"])
    lines, ok = _verdict(
        (r.mult_h <= r.mult_a1, f"g={_fmt(r.g)} mult_h={r.mult_h} "
         f"mult_a1={r.mult_a1} min_overlap={_fmt(r.min_overlap)}")
        for r in rows)
    table = [[r.g, r.energy, r.mult_h, r.mult_a1, r.min_overlap] for r in rows]
    summary = {"suite": "multiplicity",
               "a_disc_spectrum": [float(a) for a in rows[0].a_disc],
               "dressed_multiplet": [
                   {"g": r.g, "values": [float(x) for x in r.multiplet]}
                   for r in rows]}
    return {"multiplicity.csv": _csv(["g", "energy", "mult_h", "mult_a1",
                                      "min_overlap"], table),
            "multiplicity_manifest.json":
                run_manifest(cfg, summary) + "\n"}, lines, ok


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    parse_args fills a fresh namespace on every call, so calls share no
    parsed values.
    """
    parser = argparse.ArgumentParser(
        prog="spinrad",
        description="Radiative-correction operator suites for spin systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="suite", required=True)

    def common(p, seeded=False):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} or .)")
        if seeded:  # only the suites that read the seed take --seed
            p.add_argument("--seed", type=_seed, default=None,
                           help="override the configuration seed")

    p = sub.add_parser("kernel", help="evaluate the transverse kernel matrix")
    common(p)
    p.add_argument("--at", nargs=3, type=_finite_float, required=True,
                   metavar=("X", "Y", "Z"))
    p.set_defaults(func=suite_kernel)

    p = sub.add_parser("e2", help="smallest eigenvalue of A_M with multiplicity")
    common(p, seeded=True)
    p.add_argument("--eigenbasis", action="store_true")
    p.set_defaults(func=suite_e2)

    p = sub.add_parser("verify", help="energy-identity verification suite")
    common(p, seeded=True)
    p.set_defaults(func=suite_verify)

    p = sub.add_parser("classical", help="magnet field energy for given orientations")
    common(p)
    p.add_argument("--orientations", required=True,
                   help="YAML list of P unit 3-vectors")
    p.set_defaults(func=suite_classical)

    p = sub.add_parser("fock-fit", help="ground-energy quadratic fit in the toy model")
    common(p)
    p.add_argument("--scales", type=_float_list, required=True,
                   help="comma-separated moment scales, e.g. 0.4,0.2,0.1,0.05")
    p.set_defaults(func=suite_fock_fit)

    p = sub.add_parser("multiplicity", help="ground multiplicity scan")
    common(p)
    p.add_argument("--g", type=_float_list, required=True,
                   help="comma-separated common moment values")
    p.set_defaults(func=suite_multiplicity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        files, lines, ok = args.func(cfg, args)
        out = Path(args.out or os.environ.get(OUT_ENV_VAR) or ".")
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except (SpinradError, FileNotFoundError) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 1
    print(*lines, sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
