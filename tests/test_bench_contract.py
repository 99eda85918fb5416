"""What the benchmark harness under perfbench/ reads of spinrad.

perfbench/tracing.py wraps every (module, name) of its BOUNDARIES list, and
its hooks read a few parameters and result fields; perfbench/worker.py reads
a few more.  A refactor that drops one of them fails here, in the unit
suite, and not only in a benchmark run.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from spinrad.config import parse_config
from spinrad.cutoff import CutoffProfile
from spinrad.field_energy import FourierCurrent, classical_current, \
    field_energy
from spinrad.fock import build_hamiltonian, build_mode_grid, ground_state
from spinrad.kernel import a11_origin, kernel_matrix, kernel_oracle_3d
from spinrad.spin_operator import SpinSystem, assemble_am

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries():
    """BOUNDARIES as written in tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no BOUNDARIES in {TRACING}")


BOUNDARIES = _boundaries()

PROFILE = CutoffProfile()
SYSTEM = SpinSystem(positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]],
                    moments=[0.8, -0.5])


@pytest.mark.parametrize("module, name, layer", BOUNDARIES)
def test_boundary_resolves_to_callable(module, name, layer):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("fn, parameter", [
    (field_energy, "current"), (kernel_matrix, "x"),
    (kernel_oracle_3d, "n"), (ground_state, "H"),
])
def test_hooked_parameter_names(fn, parameter):
    assert parameter in inspect.signature(fn).parameters


def test_result_fields():
    entries = kernel_matrix(PROFILE, [0.3, 0.1, -0.5]).entries
    assert entries.shape == (3, 3)
    assert assemble_am(SYSTEM, PROFILE).matrix.shape == (4, 4)
    grid = build_mode_grid(PROFILE, 2)
    toy = build_hamiltonian(SYSTEM, PROFILE, grid, 1)
    # vacuum + 3P coupled oscillators per radial shell
    assert toy.dim == (1 + 2 * 3 * SYSTEM.P) * SYSTEM.spin_dim


def test_current_evaluator_is_replaceable():
    # the tracer swaps the field with dataclasses.replace
    assert "evaluator" in {f.name for f in dataclasses.fields(FourierCurrent)}
    current = classical_current(SYSTEM, PROFILE, np.eye(3)[:2])
    calls = []

    def evaluator(u):
        calls.append(len(u))
        return current.evaluator(u)

    counted = dataclasses.replace(current, evaluator=evaluator)
    sizes = {"n_radial": 8, "n_theta": 4, "n_phi": 8}
    assert field_energy(counted, **sizes) == field_energy(current, **sizes)
    # one site-term evaluation per direction of the upper hemisphere
    assert sum(calls) == 2 * 8


def test_config_profile_is_hashable():
    cfg = parse_config("particles:\n"
                       "  - {position: [0.0, 0.0, 0.0], moment: 0.8}\n")
    assert {cfg.profile(), cfg.profile()} == {PROFILE}
    assert a11_origin(cfg.profile()) > 0.0
