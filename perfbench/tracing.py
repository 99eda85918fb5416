"""Span tracing at the module boundaries of spinrad, from outside the package.

`Tracer.install` replaces each name in BOUNDARIES, in the module where the
caller looks it up, by a wrapper that records a span [name, layer, start,
end, parent span, op index] and the counts of AFTER/BEFORE.  Spans stay in
memory; `layer_metrics` reduces them at the end of the run.

`cutoff` has no boundary of its own: `_radial_quad` is the kernel's
integrator, so cutoff time is inside the kernel spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernel", "spin_algebra", "spin_operator", "field_energy", "fock",
          "config", "cli")

# (module where the caller looks the name up, name, layer of the callee)
BOUNDARIES = [
    ("spinrad.cli", "main", "cli"),
    ("spinrad.config", "parse_config", "config"),
    ("spinrad.cli", "parse_config", "config"),
    ("spinrad.cli", "run_manifest", "config"),
    ("spinrad.kernel", "a11_origin", "kernel"),
    ("spinrad.cli", "a11_origin", "kernel"),
    ("spinrad.field_energy", "a11_origin", "kernel"),
    ("spinrad.cli", "kernel_matrix", "kernel"),
    ("spinrad.spin_operator", "kernel_matrix", "kernel"),
    ("spinrad.cli", "kernel_oracle_3d", "kernel"),
    ("spinrad.cli", "product_state", "spin_algebra"),
    ("spinrad.spin_operator", "spin_matrices", "spin_algebra"),
    ("spinrad.spin_operator", "embed_site_operator", "spin_algebra"),
    ("spinrad.cli", "assemble_am", "spin_operator"),
    ("spinrad.field_energy", "assemble_am", "spin_operator"),
    ("spinrad.cli", "ground_eigenspace", "spin_operator"),
    ("spinrad.cli", "quadratic_form", "spin_operator"),
    ("spinrad.field_energy", "quadratic_form", "spin_operator"),
    ("spinrad.field_energy", "site_spin_operators", "spin_operator"),
    ("spinrad.fock", "site_spin_operators", "spin_operator"),
    ("spinrad.cli", "vector_current", "field_energy"),
    ("spinrad.cli", "classical_current", "field_energy"),
    ("spinrad.field_energy", "classical_current", "field_energy"),
    ("spinrad.cli", "field_energy", "field_energy"),
    ("spinrad.field_energy", "field_energy", "field_energy"),
    ("spinrad.cli", "classical_decomposition_check", "field_energy"),
    ("spinrad.cli", "build_mode_grid", "fock"),
    ("spinrad.cli", "quadratic_fit", "fock"),
    ("spinrad.cli", "multiplicity_scan", "fock"),
    ("spinrad.fock", "build_hamiltonian", "fock"),
    ("spinrad.fock", "build_fock_space", "fock"),
    ("spinrad.fock", "segal_field", "fock"),
    ("spinrad.fock", "ground_state", "fock"),
    ("spinrad.fock", "discrete_am", "fock"),
]


def _count_amplitudes(tracer, ba):
    """Route the current's evaluator through a counter of amplitudes made."""
    current = ba.arguments["current"]
    inner = current.evaluator

    def evaluator(xi):
        amp = inner(xi)
        tracer.counts["field_energy.amplitudes"] += amp.size
        return amp

    ba.arguments["current"] = dataclasses.replace(current, evaluator=evaluator)


def _kernel_matrix(tracer, ba, result):
    x = np.asarray(ba.arguments["x"], dtype=float)
    tracer.displacements[tracer.op].add(tuple(np.round(x, 14)))


def _oracle(tracer, ba, result):
    n = ba.arguments["n"]
    n += n % 2  # the oracle rounds odd node counts up
    tracer.counts["kernel.oracle_points"] += n ** 3


def _assemble(tracer, ba, result):
    tracer.peak("spin_operator.dim_max", result.matrix.shape[0])


def _hamiltonian(tracer, ba, result):
    tracer.peak("fock.dim_max", result.dim)


def _ground_state(tracer, ba, result):
    tracer.peak("fock.nnz_max", getattr(ba.arguments["H"], "nnz", 0))
    tracer.peak("fock.residual_max", float(np.max(result[2])))


BEFORE = {"field_energy": _count_amplitudes}
AFTER = {"kernel_matrix": _kernel_matrix, "kernel_oracle_3d": _oracle,
         "assemble_am": _assemble, "build_hamiltonian": _hamiltonian,
         "ground_state": _ground_state}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, op index]
        self.counts = defaultdict(float)
        self.displacements = defaultdict(set)  # op index -> displacement keys
        self.missing = []  # boundaries the installed spinrad does not have
        self.op = None
        self._stack = []
        self._error_type = None

    def install(self):
        self._error_type = importlib.import_module("spinrad.errors").SpinradError
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer))

    def peak(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        before, after = BEFORE.get(fn.__name__), AFTER.get(fn.__name__)
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                if before:
                    before(self, ba)
                args, kwargs = ba.args, ba.kwargs
            span = [name, layer, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._error_type as exc:
                # count each error once, at the innermost boundary it crosses
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if after:
                after(self, ba, result)
            return result

        return traced

    def span_records(self):
        keys = ("name", "layer", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


def layer_metrics(tracer: Tracer, artifact_bytes: int, scales: dict) -> dict:
    """Per-layer numbers from the spans and counts of one traced pass.

    `scales` maps an op index (None for set-up) to the speed scale of
    calibrate.py measured before it; span times are scaled by it.
    """
    spans = tracer.spans
    dur = [(s[3] - s[2]) * scales[s[5]] for s in spans]
    children = [0.0] * len(spans)
    kernel_children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] is not None:
            children[s[4]] += dur[i]
            if s[1] == "kernel":
                kernel_children[s[4]] += dur[i]
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        own[s[0]] += dur[i] - children[i]
        layer_self[s[1]] += dur[i] - children[i]
    c = tracer.counts
    n_kernel = calls["kernel.kernel_matrix"]
    distinct = sum(len(v) for v in tracer.displacements.values())
    m = {
        "kernel.matrix_calls": n_kernel,
        "kernel.matrix_s": total["kernel.kernel_matrix"],
        "kernel.distinct_ratio": distinct / n_kernel if n_kernel else 0.0,
        "kernel.oracle_calls": calls["kernel.kernel_oracle_3d"],
        "kernel.oracle_points": int(c["kernel.oracle_points"]),
        "kernel.oracle_s": total["kernel.kernel_oracle_3d"],
        "spin_operator.assemble_calls": calls["spin_operator.assemble_am"],
        "spin_operator.assemble_self_s": math.fsum(
            dur[i] - kernel_children[i] for i, s in enumerate(spans)
            if s[0] == "spin_operator.assemble_am"),
        "spin_operator.dim_max": int(c["spin_operator.dim_max"]),
        "spin_operator.eig_s": total["spin_operator.ground_eigenspace"],
        "spin_operator.quadratic_form_calls":
            calls["spin_operator.quadratic_form"],
        "spin_algebra.product_state_calls":
            calls["spin_algebra.product_state"],
        "spin_algebra.product_state_s": total["spin_algebra.product_state"],
        "field_energy.calls": calls["field_energy.field_energy"],
        "field_energy.s": total["field_energy.field_energy"],
        "field_energy.amplitudes": int(c["field_energy.amplitudes"]),
        "field_energy.decomposition_self_s":
            own["field_energy.classical_decomposition_check"],
        "fock.segal_s": total["fock.segal_field"],
        "fock.space_s": total["fock.build_fock_space"],
        "fock.hamiltonian_self_s": own["fock.build_hamiltonian"],
        "fock.dim_max": int(c["fock.dim_max"]),
        "fock.nnz_max": int(c["fock.nnz_max"]),
        "fock.solve_calls": calls["fock.ground_state"],
        "fock.solve_s": total["fock.ground_state"],
        "fock.residual_max": c["fock.residual_max"],
        "fock.discrete_am_s": total["fock.discrete_am"],
        "fock.grid_s": total["fock.build_mode_grid"],
        "config.parse_s": total["config.parse_config"],
        "cli.artifact_bytes": artifact_bytes,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.errors"] = int(c[f"{layer}.errors"])
    m["trace.spans"] = len(spans)
    return m
