"""Run configuration: YAML ingestion, validation, defaults, manifest."""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass

import numpy as np
import scipy
import yaml

from .cutoff import CutoffProfile
from .errors import ConfigError
from .spin_operator import SpinSystem

DEFAULT_GRIDS = {"n_radial": 24, "n_angular": 12, "n_max": 1}

DEFAULT_TOLERANCES = {
    "identity": 1e-6,       # energy-identity residuals (relative)
    "degeneracy": 1e-7,     # eigenvalue clustering (relative)
    "eigensolver": 1e-10,   # iterative eigenpair residual (absolute)
    "kernel": 1e-9,         # kernel quadrature (absolute)
}


@dataclass
class RunConfig:
    particles: list                 # [{"position": [..], "moment": m}, ...]
    spin: float
    cutoff: dict                    # {"kind": .., "lambda": ..}
    grids: dict
    tolerances: dict
    seed: int = 1234

    def system(self) -> SpinSystem:
        return SpinSystem(
            positions=np.array([p["position"] for p in self.particles],
                               dtype=float),
            moments=np.array([p["moment"] for p in self.particles],
                             dtype=float),
            s=self.spin)

    def profile(self) -> CutoffProfile:
        return CutoffProfile(kind=self.cutoff["kind"],
                             lam=self.cutoff["lambda"])

    def to_dict(self) -> dict:
        return {"particles": self.particles, "spin": self.spin,
                "cutoff": self.cutoff, "grids": self.grids,
                "tolerances": self.tolerances, "seed": self.seed}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration; defaults are filled in."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" \
            if mark else ""
        raise ConfigError(f"configuration syntax error{where}: {exc}") from exc
    _require(isinstance(raw, dict), "configuration must be a key-value tree")

    known = {"particles", "spin", "cutoff", "grids", "tolerances", "seed"}
    for key in raw:
        _require(key in known, f"unknown configuration key {key!r}")

    particles = raw.get("particles")
    _require(isinstance(particles, list) and particles,
             "key 'particles' must be a nonempty list")
    for i, part in enumerate(particles):
        _require(isinstance(part, dict) and "position" in part
                 and "moment" in part,
                 f"particles[{i}] needs 'position' and 'moment'")
        pos = part["position"]
        _require(isinstance(pos, list) and len(pos) == 3,
                 f"particles[{i}].position must have 3 components")
    positions = np.array([p["position"] for p in particles], dtype=float)
    for a in range(len(particles)):
        for b in range(a + 1, len(particles)):
            _require(np.linalg.norm(positions[a] - positions[b]) > 1e-12,
                     "key 'particles': positions pairwise distinct")

    spin = float(raw.get("spin", 0.5))
    _require(abs(2 * spin - round(2 * spin)) < 1e-12 and spin > 0,
             "key 'spin': 2s must be integer")

    cutoff = dict(raw.get("cutoff", {}))
    cutoff.setdefault("kind", "gaussian")
    cutoff.setdefault("lambda", 1.0)
    _require(cutoff["lambda"] > 0, "key 'cutoff.lambda' must be positive")

    grids = {**DEFAULT_GRIDS, **dict(raw.get("grids", {}))}
    for name, value in grids.items():
        _require(name in DEFAULT_GRIDS,
                 f"unknown configuration key 'grids.{name}'")
        try:
            grids[name] = int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"key 'grids.{name}' must be an integer")
    tolerances = {**DEFAULT_TOLERANCES, **dict(raw.get("tolerances", {}))}
    for name, tol in tolerances.items():
        _require(name in DEFAULT_TOLERANCES,
                 f"unknown configuration key 'tolerances.{name}'")
        try:
            # plain scalars like 1e-8 reach us as strings under YAML 1.1
            tolerances[name] = float(tol)
        except (TypeError, ValueError):
            raise ConfigError(f"key 'tolerances.{name}' must be a number")
        _require(tolerances[name] > 0,
                 f"key 'tolerances.{name}' must be positive")

    seed = int(raw.get("seed", 1234))
    return RunConfig(particles=particles, spin=spin, cutoff=cutoff,
                     grids=grids, tolerances=tolerances, seed=seed)


def run_manifest(config: RunConfig, extra: dict | None = None) -> str:
    """JSON manifest echoing the effective configuration and environment."""
    body = {
        "config": config.to_dict(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extra:
        body.update(extra)
    return json.dumps(body, indent=2, sort_keys=True)
