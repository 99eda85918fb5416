"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS or FAIL
line (run pytest with -s to see them alongside the usual dots).
"""

import math
import time

import numpy as np
import pytest

from spinrad.cutoff import CutoffProfile
from spinrad.field_energy import classical_decomposition_check, field_energy, \
    higher_spin_constant, vector_current
from spinrad.fock import build_mode_grid, multiplicity_scan, quadratic_fit, \
    variational_trial_check
from spinrad.kernel import a11_origin, kernel_matrix, kernel_oracle_3d
from spinrad.spin_algebra import hopf_map, omega_state, product_state, \
    spin_matrices, su2_rotate
from spinrad.spin_operator import SpinSystem, assemble_am, ground_eigenspace, \
    quadratic_form

from conftest import random_state

PROFILE = CutoffProfile(1.0)
SPINS = [0.5, 1.0, 1.5, 2.0, 2.5]


def report(name, passed, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if passed else 'FAIL'} {name}{tail}")
    assert passed, f"{name}{tail}"


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_01_kernel_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10):
        x = random_unit(rng) * rng.uniform(0.05, 5.0)
        K = kernel_matrix(PROFILE, x).entries
        O = kernel_oracle_3d(PROFILE, x).entries
        worst = max(worst, float(np.abs(K - O).max()))
    elapsed = time.monotonic() - t0
    report("kernel-oracle-equivalence", worst <= 1e-6 and elapsed <= 60.0,
           f"max abs error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_a11_closed_form():
    ref = 1.0 / (12.0 * math.pi ** 1.5)
    val = a11_origin(PROFILE)
    rel = abs(val / ref - 1.0)
    report("a11-origin-closed-form", rel <= 1e-6, f"relative error {rel:.2e}")


def test_criterion_03_casimir_and_commutators():
    worst = 0.0
    for s in SPINS:
        sig = spin_matrices(s)
        dim = sig[0].shape[0]
        cas = sum(m @ m for m in sig) - 4.0 * s * (s + 1.0) * np.eye(dim)
        worst = max(worst, float(np.abs(cas).max()))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = sig[a] @ sig[b] - sig[b] @ sig[a] - 2j * sig[c]
            worst = max(worst, float(np.abs(comm).max()))
    report("casimir-and-commutators", worst <= 1e-13,
           f"max deviation {worst:.2e}")


def test_criterion_04_hopf_sphere_property():
    rng = np.random.default_rng(104)
    worst = 0.0
    for s in SPINS:
        X0 = omega_state(s)
        for _ in range(100):
            X = su2_rotate(s, rng.normal(size=3) * math.pi) @ X0
            worst = max(worst, abs(np.linalg.norm(hopf_map(X, s)) - 1.0))
    report("hopf-image-on-sphere", worst <= 1e-10,
           f"max radius deviation {worst:.2e}")


def test_criterion_05_energy_identity():
    rng = np.random.default_rng(105)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        P = int(rng.integers(1, 4))
        system = SpinSystem(positions=rng.normal(size=(P, 3)),
                            moments=rng.uniform(-1.0, 1.0, size=P))
        A = assemble_am(system, PROFILE)
        X = random_state(rng, system.spin_dim)
        qf = quadratic_form(A, X)
        energy = field_energy(vector_current(system, PROFILE, X))
        worst = max(worst, abs(qf + energy) / max(1.0, abs(qf)))
    elapsed = time.monotonic() - t0
    report("energy-identity", worst <= 1e-6 and elapsed <= 300.0,
           f"max relative residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_classical_decomposition():
    rng = np.random.default_rng(106)
    ok = higher_spin_constant(0.5) == 1.0
    worst = 0.0
    for s in [0.5, 1.0, 1.5]:
        ok &= higher_spin_constant(s) == pytest.approx(
            2.0 * s * (s + 1.0) - 0.5)
        for _ in range(5):
            system = SpinSystem(positions=rng.normal(size=(2, 3)),
                                moments=rng.uniform(-1.0, 1.0, size=2), s=s)
            X0 = omega_state(s)
            ps = product_state(
                [su2_rotate(s, rng.normal(size=3) * math.pi) @ X0
                 for _ in range(2)], s)
            [(lhs, rhs, resid)] = classical_decomposition_check(
                assemble_am(system, PROFILE), system, PROFILE, [ps])
            worst = max(worst, resid / max(1.0, abs(lhs)))
    report("classical-decomposition", ok and worst <= 1e-6,
           f"max relative residual {worst:.2e}")


def test_criterion_07_operator_shape():
    rng = np.random.default_rng(107)
    system = SpinSystem(positions=rng.normal(size=(2, 3)),
                        moments=[0.8, -0.5])
    A = assemble_am(system, PROFILE).matrix
    top = float(np.linalg.eigvalsh(A)[-1])
    A3 = assemble_am(system.with_moments(3.0 * np.asarray(system.moments)),
                     PROFILE).matrix
    scaling = float(np.abs(A3 - 9.0 * A).max())
    single = SpinSystem(positions=[[0.1, 0.2, 0.3]], moments=[0.7])
    As = assemble_am(single, PROFILE)
    closed = float(np.abs(
        As.matrix + 1.5 * a11_origin(PROFILE) * 0.49 * np.eye(2)).max())
    lam, mult, _ = ground_eigenspace(As)
    ok = top <= 1e-10 and scaling <= 1e-12 and closed <= 1e-12 and mult == 2
    report("operator-negativity-scaling-closed-form", ok,
           f"top eig {top:.2e}, scaling dev {scaling:.2e}, "
           f"single-spin dev {closed:.2e}, multiplicity {mult}")


def test_criterion_08_variational_trial_identity():
    rng = np.random.default_rng(108)
    grid = build_mode_grid(PROFILE, 6, 6)
    system = SpinSystem(positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]],
                        moments=[0.8, -0.5])
    worst = 0.0
    for _ in range(20):
        X = random_state(rng, 4)
        tc = variational_trial_check(system, PROFILE, grid, X)
        worst = max(worst, tc.residual)
    report("variational-trial-identity", worst <= 1e-10,
           f"max residual {worst:.2e}")


@pytest.fixture(scope="module")
def default_fit():
    grid = build_mode_grid(PROFILE, 24, 12)
    system = SpinSystem(positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]],
                        moments=[0.8, -0.5])
    t0 = time.monotonic()
    fit = quadratic_fit(system, PROFILE, grid, 1, [0.4, 0.2, 0.1, 0.05])
    return fit, time.monotonic() - t0


def test_criterion_09_quadratic_coefficient(default_fit):
    fit, elapsed = default_fit
    rel = abs(fit.c2 / fit.a_disc_min - 1.0)
    slope_ok = fit.tolerance_limited or fit.residual_slope >= 2.7
    report("ground-energy-quadratic-fit",
           rel <= 0.02 and slope_ok and elapsed <= 600.0,
           f"c2 relative error {rel:.2e}, residual slope "
           f"{fit.residual_slope:.2f}, {elapsed:.1f}s")


def test_criterion_10_photon_number_scaling(default_fit):
    fit, _ = default_fit
    slope = float(np.polyfit(np.log(fit.scales),
                             np.log(fit.photon_numbers), 1)[0])
    report("photon-number-scaling", abs(slope - 2.0) <= 0.1,
           f"slope {slope:.3f}")


def test_criterion_11_ground_multiplicity():
    grid = build_mode_grid(PROFILE, 24, 12)
    system = SpinSystem(positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]],
                        moments=[1.0, 1.0])
    rows = multiplicity_scan(system, PROFILE, grid, 1, [0.2, 0.1])
    ok = all(r.mult_h <= r.mult_a1 for r in rows)
    smallest = min(rows, key=lambda r: r.g)
    ok &= smallest.min_overlap >= 0.99
    report("ground-multiplicity-and-overlap", ok,
           f"mult_h {[r.mult_h for r in rows]}, mult_a1 {rows[0].mult_a1}, "
           f"overlap at g={smallest.g} is {smallest.min_overlap:.4f}")


def test_criterion_12_determinism(tmp_path):
    from spinrad.cli import main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "particles:\n"
        "  - {position: [0.0, 0.0, 0.0], moment: 0.8}\n"
        "  - {position: [0.9, -0.3, 0.4], moment: -0.5}\n")
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "verify.csv").read_bytes()
                     + (out / "verify_manifest.json").read_bytes())
    report("artifact-determinism", blobs[0] == blobs[1],
           f"{len(blobs[0])} bytes compared")
