"""Run configuration: YAML ingestion, validation, defaults, manifest."""

from __future__ import annotations

import json
import math
import platform
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy
import yaml

from .cutoff import CutoffProfile
from .errors import ConfigError, DomainError
from .fock import DEFAULT_EIGENSOLVER_TOL
from .spin_operator import DEFAULT_DEGENERACY_TOL, SpinSystem

DEFAULT_CUTOFF = {"lambda": 1.0}

DEFAULT_GRIDS = {"n_radial": 24, "n_angular": 12, "n_max": 1}

DEFAULT_TOLERANCES = {
    "identity": 1e-6,  # energy-identity residuals (relative)
    "degeneracy": DEFAULT_DEGENERACY_TOL,  # eigenvalue clustering (relative)
    "eigensolver": DEFAULT_EIGENSOLVER_TOL,  # eigenpair residual (absolute)
}


@dataclass
class RunConfig:
    particles: list                 # [{"position": [..], "moment": m}, ...]
    spin: float
    cutoff: dict                    # {"lambda": ..}
    grids: dict
    tolerances: dict
    seed: int = 1234

    def system(self) -> SpinSystem:
        return SpinSystem(positions=[p["position"] for p in self.particles],
                          moments=[p["moment"] for p in self.particles],
                          s=self.spin)

    def profile(self) -> CutoffProfile:
        return CutoffProfile(lam=self.cutoff["lambda"])


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _cast(kind, value, key: str):
    try:
        # int() and float() read true as 1; int() would truncate 2.7 to 2
        if isinstance(value, bool) and kind is not str:
            raise ValueError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        # plain scalars like 1e-8 reach us as strings under YAML 1.1
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"key '{key}' must be {what}") from None


def _section(raw: dict, name: str, defaults: dict) -> dict:
    """The mapping under `name` over `defaults`, cast to the defaults' types."""
    given = raw.get(name, {})
    _require(isinstance(given, dict), f"key '{name}' must be a mapping")
    out = dict(defaults)
    for key, value in given.items():
        path = f"{name}.{key}"
        _require(key in defaults, f"unknown configuration key '{path}'")
        out[key] = _cast(type(defaults[key]), value, path)
    return out


def load_yaml(text: str, what: str):
    """YAML document of text; a syntax error raises a one-line ConfigError.

    Parses with libyaml's safe loader when PyYAML was built with it.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" \
            if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"{what} syntax error{where}: {problem}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration; defaults are filled in."""
    raw = load_yaml(text, "configuration")
    _require(isinstance(raw, dict), "configuration must be a key-value tree")

    known = {f.name for f in fields(RunConfig)}
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
        for value in [*pos, part["moment"]]:
            _require(math.isfinite(_cast(float, value, f"particles[{i}]")),
                     f"key 'particles[{i}]' must be finite")
    spin = _cast(float, raw.get("spin", 0.5), "spin")
    try:
        SpinSystem(positions=[p["position"] for p in particles],
                   moments=[p["moment"] for p in particles], s=spin)
    except DomainError as exc:
        # shapes and finiteness are checked above; what is left is the
        # spin or the distinctness of the positions
        key = "spin" if str(exc).startswith("spin") else "particles"
        raise ConfigError(f"key '{key}': {exc}") from None

    cutoff = _section(raw, "cutoff", DEFAULT_CUTOFF)
    try:
        CutoffProfile(lam=cutoff["lambda"])
    except DomainError as exc:
        raise ConfigError(f"key 'cutoff': {exc}") from None
    grids = _section(raw, "grids", DEFAULT_GRIDS)
    tolerances = _section(raw, "tolerances", DEFAULT_TOLERANCES)
    for name, tol in tolerances.items():
        _require(tol > 0, f"key 'tolerances.{name}' must be positive")

    seed = _cast(int, raw.get("seed", RunConfig.seed), "seed")
    _require(seed >= 0, "key 'seed' must be non-negative")
    return RunConfig(particles=particles, spin=spin, cutoff=cutoff,
                     grids=grids, tolerances=tolerances, seed=seed)


def run_manifest(config: RunConfig, extra: dict | None = None) -> str:
    """JSON manifest echoing the effective configuration and environment."""
    body = {
        "config": asdict(config),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extra:
        body.update(extra)
    return json.dumps(body, indent=2, sort_keys=True)
