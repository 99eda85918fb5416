"""Workload definitions: seeded op lists and the untimed output checks.

A workload is a list of CLI ops on YAML configurations generated from the
seed: the same seed always gives the same op list.  A run executes the list
in a few rounds, each in a fresh process.  The notes and layer-to-metric
predictions for each workload are in README.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

# Message of the known defect: `spinrad verify` passes non-coherent product
# states to `classical_current`, which rejects them for every s > 1/2.
KNOWN_DEFECT = "orientations must be unit vectors"

FIT_SCALES = "0.4,0.2,0.1,0.05"
TWO_SPIN_M = (0.8, -0.5)
MULTIPLICITY_G = "0.4,0.2,0.1"

# Relative slack on eigenvalue inequalities: roundoff only.
_SLACK = 1e-12
# Relative tolerance between e2's lambda_min and the reference assembly's:
# the two sum the same terms in another order.
_REF_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call; `argv` omits `--out`, which the worker adds."""

    label: str
    suite: str
    argv: tuple
    spin: float
    moments: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round_s: float  # duration of one round on the 2-core reference box
    ops: Callable  # (rng, config_dir, smoke) -> list[Op]
    probe: str  # the calibrate.py load that scales each op's time

    def rounds(self, seconds: float) -> int:
        """Rounds per run: a fixed function of --seconds, never of timing.

        At least three, so that a per-op median sheds one disturbed round.
        """
        return max(3, round(seconds / self.round_s))


def _cluster(rng, P, mean=3.0, lo=0.3, hi=6.0):
    """P random points with mean pair distance `mean`, all within [lo, hi].

    Kernel quadrature cost grows with the distance, so a fixed mean keeps
    the cost of a cluster nearly independent of the seed.
    """
    while True:
        x = rng.normal(size=(P, 3)) * rng.uniform(size=(P, 1)) ** (1.0 / 3.0)
        d = np.linalg.norm(x[:, None] - x[None], axis=-1)[np.triu_indices(P, 1)]
        scale = mean / d.mean()
        if lo <= scale * d.min() and scale * d.max() <= hi:
            return x * scale


def _moments(rng, P, lo, hi):
    return rng.choice([-1.0, 1.0], size=P) * rng.uniform(lo, hi, size=P)


def _write_config(path: Path, positions, moments, spin, seed, grids=None):
    doc = {"particles": [{"position": [float(c) for c in p],
                          "moment": float(m)}
                         for p, m in zip(positions, moments)],
           "spin": float(spin), "seed": int(seed)}
    if grids:
        doc["grids"] = grids
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def _config(rng, cfg_dir, name, positions, moments, spin, grids=None):
    path = _write_config(cfg_dir / f"{name}.yaml", positions, moments, spin,
                         rng.integers(1 << 31), grids)
    return path, tuple(float(m) for m in moments)


def _am_sweep(rng, cfg_dir, smoke):
    # spin-1 P=5 (dim 243) is the dense-assembly tail; spin-1/2 P=8 (dim 256,
    # 5 s) would leave no room for three rounds in a run.
    systems = [(0.5, 2), (0.5, 3), (1.0, 2)] if smoke else \
        [(0.5, P) for P in range(2, 8)] + [(1.0, 4), (1.0, 5), (2.5, 3)]
    ops = []
    for s, P in systems:
        name = f"e2_s{s}_P{P}"
        path, mom = _config(rng, cfg_dir, name, _cluster(rng, P),
                            _moments(rng, P, 0.3, 1.0), s)
        ops.append(Op(f"e2 s={s} P={P}", "e2", ("e2", "--config", path),
                      s, mom))
    return ops


def _verify(rng, cfg_dir, smoke):
    # A verify op costs at least 3 s (three 3D-oracle calls), so the list
    # keeps one spin-1/2 and one s=3/2 pair; P=3,4 would not fit three rounds.
    systems = [(0.5, 2)] if smoke else [(0.5, 2), (1.5, 2)]
    ops = []
    for s, P in systems:
        name = f"verify_s{s}_P{P}"
        path, mom = _config(rng, cfg_dir, name, _cluster(rng, P),
                            _moments(rng, P, 0.3, 1.0), s)
        S = rng.normal(size=(P, 3))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        orient = cfg_dir / f"{name}_orientations.yaml"
        orient.write_text(yaml.safe_dump(S.tolist()))
        ops.append(Op(f"verify s={s} P={P}", "verify",
                      ("verify", "--config", path), s, mom))
        ops.append(Op(f"classical s={s} P={P}", "classical",
                      ("classical", "--config", path,
                       "--orientations", str(orient)), s, mom))
    return ops


def _pair(rng):
    """Two sites 1/lambda apart in a random direction (as in configs/)."""
    d = rng.normal(size=3)
    return np.array([np.zeros(3), d / np.linalg.norm(d)])


def _fock(rng, cfg_dir, smoke):
    default = {"n_radial": 4, "n_angular": 6, "n_max": 1} if smoke else None
    # n_max=2 on 4x6 (dim 42,340): the 6x6 grid (dim 94,612) takes 8.5 s.
    nmax2 = {"n_radial": 4, "n_angular": 6, "n_max": 2}
    # Fixed spacing and moments (those of configs/two_spins.yaml): with random
    # moment signs the Lanczos cost of an op varied by 40 % between seeds.
    fit, fit_m = _config(rng, cfg_dir, "fock_fit", _pair(rng), TWO_SPIN_M,
                         0.5, default)
    # The Lanczos cost of a scan moves by up to 30 % with the pair's
    # direction against the angular grid, so two directions are scanned.
    mults = [_config(rng, cfg_dir, f"fock_mult{k}", _pair(rng), np.ones(2),
                     0.5, default) for k in range(1 if smoke else 2)]
    fit2, fit2_m = _config(rng, cfg_dir, "fock_fit_nmax2", _pair(rng),
                           TWO_SPIN_M, 0.5, nmax2)
    return [
        Op("fock-fit 24x12 n_max=1", "fock-fit",
           ("fock-fit", "--config", fit, "--scales", FIT_SCALES), 0.5, fit_m),
        *[Op(f"multiplicity 24x12 n_max=1 #{k}", "multiplicity",
             ("multiplicity", "--config", mult, "--g", MULTIPLICITY_G),
             0.5, mult_m) for k, (mult, mult_m) in enumerate(mults)],
        Op("fock-fit 4x6 n_max=2", "fock-fit",
           ("fock-fit", "--config", fit2, "--scales", FIT_SCALES), 0.5, fit2_m),
    ]


def _fock_deep(rng, cfg_dir, smoke):
    # The smallest admissible grid.  s=1 (dim 202,575, 6.5 s) would not fit
    # three rounds next to s=1/2 (dim 135,050).
    grids = {"n_radial": 2, "n_angular": 6, "n_max": 3}
    path, mom = _config(rng, cfg_dir, "fock_deep",
                        rng.uniform(-1.0, 1.0, size=(1, 3)),
                        rng.choice([-0.8, 0.8], size=1), 0.5, grids)
    return [Op("fock-fit 2x6 n_max=3 s=0.5", "fock-fit",
               ("fock-fit", "--config", path, "--scales", FIT_SCALES),
               0.5, mom)]


WORKLOADS = {w.name: w for w in [
    Workload("am_sweep",
             "spinrad e2 on random spin-1/2 P=2..7, spin-1 P=4,5 and "
             "spin-5/2 P=3 clusters: kernel quadrature and dense A_M",
             8.5, _am_sweep, "compute"),
    Workload("verify",
             "spinrad verify and classical on a random spin-1/2 pair and an "
             "s=3/2 pair: 3D oracle, field-energy quadrature, memo reuse",
             8.5, _verify, "memory"),
    Workload("fock",
             "fock-fit and multiplicity on the 24x12 n_max=1 grid plus a "
             "4x6 n_max=2 fit: Lanczos ground-state solves",
             5.5, _fock, "memory"),
    Workload("fock_deep",
             "single-site fock-fit with n_max=3 at s=1/2: the n>=3 "
             "creation-operator loop and the peak-memory case",
             5.5, _fock_deep, "compute"),
]}


def build_ops(workload: str, seed: int, cfg_dir: Path,
              smoke: bool = False) -> list:
    """Write the configurations of a run and return its op list."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].ops(np.random.default_rng(seed), cfg_dir, smoke)


def is_known_defect(op: Op, rc, stderr: str) -> bool:
    return op.suite == "verify" and op.spin > 0.5 and rc == 1 \
        and KNOWN_DEFECT in stderr


def _sigma(s):
    """sigma_j = 2 J_j of spin s in the weight basis |s,s>, ..., |s,-s>."""
    m = np.arange(s, -s - 1.0, -1.0)
    jp = np.diag(np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    return jp + jp.T, -1j * (jp - jp.T), np.diag(2.0 * m)


def reference_lambda_min(op: Op, kernel_at) -> float:
    """lambda_min of A_M from a plain dense assembly kept in the benchmark.

    A_M = -1/2 sum_{lam,mu} M_lam M_mu sum_{j,m} K_jm(x_mu - x_lam)
    sigma_m^[mu] sigma_j^[lam], with the spin matrices and their Kronecker
    embedding built here; only `kernel_at(x)`, the 3x3 kernel at a
    displacement, comes from spinrad.
    """
    doc = yaml.safe_load(Path(op.argv[2]).read_text())
    x = np.array([p["position"] for p in doc["particles"]], dtype=float)
    M = np.array([p["moment"] for p in doc["particles"]], dtype=float)
    sig = _sigma(op.spin)
    d, P = sig[0].shape[0], len(M)

    def site_product(ops):  # kron over sites of {site: matrix}, identity else
        out = np.ones((1, 1))
        for site in range(P):
            out = np.kron(out, ops.get(site, np.eye(d)))
        return out

    A = np.zeros((d ** P, d ** P), dtype=complex)
    for lam in range(P):
        for mu in range(P):
            K = kernel_at(x[mu] - x[lam])
            for j in range(3):
                for m in range(3):
                    ops = {lam: sig[m] @ sig[j]} if mu == lam else \
                        {mu: sig[m], lam: sig[j]}
                    A -= 0.5 * M[lam] * M[mu] * K[j, m] * site_product(ops)
    return float(np.linalg.eigvalsh(A)[0])


def check_output(op: Op, out_dir: Path, a11: float, reference=None):
    """Check an op that exited 0; returns None or the reason it failed.

    verify, fock-fit and multiplicity print and enforce their own PASS
    checks through the exit code, so only their artifact is required here.
    `reference`, when given, is an e2 op's lambda_min from
    `reference_lambda_min`.
    """
    if op.suite == "e2":
        doc = json.loads((out_dir / "e2.json").read_text())
        lam = doc["lambda_min"]
        slack = _SLACK * max(1.0, abs(lam))
        if doc["multiplicity"] < 1:
            return "multiplicity < 1"
        if reference is not None and \
                abs(lam - reference) > _REF_TOL * max(1.0, abs(reference)):
            return (f"lambda_min {lam!r} differs from the reference "
                    f"assembly's {reference!r}")
        if lam > doc["product_state_sampled_min"] + slack:
            return (f"lambda_min {lam!r} above the sampled product-state "
                    f"minimum {doc['product_state_sampled_min']!r}")
        # The trace of A_M is dim * -2 s(s+1) A11(0) sum M^2: same-site terms
        # give that scalar, cross-site terms are traceless.
        mean = -2.0 * op.spin * (op.spin + 1.0) * a11 \
            * math.fsum(m * m for m in op.moments)
        if lam > mean + slack:
            return f"lambda_min {lam!r} above the mean eigenvalue {mean!r}"
        return None
    if op.suite == "classical":
        rows = dict(line.split(",") for line in
                    (out_dir / "classical.csv").read_text().splitlines()[1:])
        if not float(rows["magnet_field_energy"]) > 0.0:
            return "magnet field energy not positive"
        if float(rows["a11_origin"]) != a11:
            return f"a11_origin {rows['a11_origin']} != set-up value {a11!r}"
        return None
    artifact = {"verify": "verify.csv", "fock-fit": "fock_fit.csv",
                "multiplicity": "multiplicity.csv"}[op.suite]
    if not (out_dir / artifact).is_file():
        return f"missing artifact {artifact}"
    return None
