import functools
import importlib
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import spinrad.fock as fock
import spinrad.spin_algebra as spin_algebra
import spinrad.spin_operator as spin_operator
from spinrad.cli import PRODUCT_SAMPLES, _sampled_product_min, main
from spinrad.config import parse_config
from spinrad.cutoff import CutoffProfile
from spinrad.errors import ConfigError, DomainError, ResourceError, \
    SpinradError
from spinrad.kernel import a11_origin, kernel_matrix
from spinrad.spin_algebra import embed_site_operator, hopf_map, \
    product_state, su2_rotate
from spinrad.spin_operator import HermitianSpinOperator, SpinSystem, \
    _coefficients, assemble_am, bilinear_spin_operator, \
    ground_eigenspace, product_form, quadratic_form

from conftest import kron_embed, kron_site_spins, projector_kernel, \
    random_state, weight_basis_matrix
from test_kernel import dipole_tensor, reference_kernel, reference_radial

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_system_validation():
    with pytest.raises(DomainError):
        SpinSystem(positions=[[0, 0, 0], [0, 0, 0]], moments=[1.0, 1.0])
    with pytest.raises(DomainError):
        SpinSystem(positions=[[0, 0, 0]], moments=[1.0], s=0.3)


@pytest.mark.parametrize("c", [1e6, 1e13, 1e30, 1e50])
def test_am_scale_law(profile, two_spin_system, c):
    # (lam, x, M) -> (c lam, x / c, M) scales A_M by c^3: sites 1e-13 apart
    # at c = 1e13 are distinct sites, not a coincidence
    ref = assemble_am(two_spin_system, profile).eigenvalues[0]
    scaled = SpinSystem(positions=two_spin_system.positions / c,
                        moments=two_spin_system.moments, s=0.5)
    got = assemble_am(scaled, CutoffProfile(c)).eigenvalues[0] / c ** 3
    assert abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("site", [[0.0, 0.0, 0.0], [1e6, 0.0, 0.0]])
def test_duplicate_sites_raise(site):
    with pytest.raises(DomainError, match="^positions pairwise distinct$"):
        SpinSystem(positions=[site, [0.9, -0.3, 0.4], site],
                   moments=[1.0, 1.0, 1.0])
    yaml_text = ("particles:\n"
                 f"  - {{position: {site}, moment: 0.8}}\n"
                 f"  - {{position: {site}, moment: -0.5}}\n")
    with pytest.raises(ConfigError, match="^key 'particles': positions "
                       "pairwise distinct$"):
        parse_config(yaml_text)


@pytest.mark.parametrize("position, moment", [
    ([np.nan, 0.0, 0.0], 1.0), ([np.inf, 0.0, 0.0], 1.0),
    ([0.0, -np.inf, 0.0], 1.0), ([0.0, 0.0, 1.0], np.nan),
    ([0.0, 0.0, 1.0], -np.inf)])
def test_system_rejects_non_finite(position, moment):
    with pytest.raises(DomainError, match="must be finite"):
        SpinSystem(positions=[[0.0, 0.0, 0.0], position],
                   moments=[1.0, moment])


@pytest.mark.parametrize("check", [
    "quadratic_form", "hopf_map", "product_state",
    "product_form", "photon_number", "variational_trial_check"])
def test_unit_norm_checks_reject_nan(profile, small_grid, two_spin_system,
                                     check):
    # abs(norm - 1) > tol is False for a NaN norm; each check must still fail
    nan = np.full(4, np.nan)
    toy = fock.build_hamiltonian(two_spin_system, profile, small_grid, 1)
    calls = {
        "quadratic_form": lambda: quadratic_form(
            HermitianSpinOperator(matrix=np.eye(4)), nan),
        "hopf_map": lambda: hopf_map(nan[:2], 0.5),
        "product_state": lambda: product_state(nan.reshape(2, 2), 0.5),
        "product_form": lambda: product_form(
            np.zeros((6, 6)), 0.5, nan.reshape(1, 2, 2)),
        "photon_number": lambda: fock.photon_number(
            toy, np.full(toy.dim, np.nan)),
        "variational_trial_check": lambda: fock.variational_trial_check(
            two_spin_system, profile, small_grid, nan),
    }
    with pytest.raises(DomainError, match="normalized"):
        calls[check]()


def test_single_spin_closed_form(profile):
    system = SpinSystem(positions=[[0.2, 0.1, -0.3]], moments=[0.7], s=0.5)
    A = assemble_am(system, profile).matrix
    expected = -1.5 * a11_origin(profile) * 0.49
    assert np.abs(A - expected * np.eye(2)).max() <= 1e-12
    assert ground_eigenspace(assemble_am(system, profile))[2] is None
    lam, mult, basis = ground_eigenspace(
        assemble_am(system, profile, vectors=True))
    assert mult == 2
    assert lam == pytest.approx(expected, rel=1e-10)
    assert np.abs(basis.conj().T @ basis - np.eye(2)).max() <= 1e-12


def test_zero_moments_give_zero(profile, two_spin_system):
    A = assemble_am(two_spin_system.with_moments([0.0, 0.0]), profile)
    assert np.abs(A.matrix).max() == 0.0
    # the degeneracy window scales with A: for A = 0 it holds every state
    assert ground_eigenspace(A)[:2] == (0.0, 4)


def test_hermitian_and_negative_semidefinite(profile, two_spin_system):
    A = assemble_am(two_spin_system, profile).matrix
    assert np.abs(A - A.conj().T).max() <= 1e-12 * np.linalg.norm(A)
    vals = np.linalg.eigvalsh(A)
    assert vals[-1] <= 1e-10 * np.linalg.norm(A)


def test_moment_scaling_is_quadratic(profile, two_spin_system):
    A = assemble_am(two_spin_system, profile).matrix
    A3 = assemble_am(
        two_spin_system.with_moments(3.0 * two_spin_system.moments),
        profile).matrix
    assert np.abs(A3 - 9.0 * A).max() <= 1e-12 * max(1.0, np.abs(A3).max())


def test_widely_separated_spins_decouple(profile):
    # the residual coupling is the 1/r^3 dipole tail of the kernel
    system = SpinSystem(positions=[[0, 0, 0], [100.0, 0, 0]],
                        moments=[0.8, -0.5], s=0.5)
    A = assemble_am(system, profile).matrix

    def kernel_no_cross(d):
        if np.linalg.norm(d) > 1e-12:
            return np.zeros((3, 3))
        return kernel_matrix(profile, d).entries

    A_decoupled = bilinear_spin_operator(
        _coefficients(system, kernel_no_cross), system.s)
    assert np.abs(A - A_decoupled).max() <= 1e-6


@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("nearest, gate", [(10.0, 1e-9), (12.0, 1e-13)])
def test_far_cluster_is_the_dipole_dipole_magnet(s, lam, nearest, gate):
    # past z = lam r / 2 = 5 the kernel between sites is the dipole tensor
    # D, so A_M is -2 s (s + 1) A11(0) sum M^2 plus the magnetic
    # dipole-dipole interaction: C = -1/2 (M (x) M) o K with A11(0) I on
    # the site blocks and D between sites; at most 1.3e-11 relative at
    # nearest distance 10/lam, 1.4e-15 at 12/lam
    rng = np.random.default_rng(62)
    profile = CutoffProfile(lam)
    for _ in range(3):
        x = rng.normal(size=(3, 3))
        pairs = [(0, 1), (0, 2), (1, 2)]
        x *= nearest / lam / min(np.linalg.norm(x[b] - x[a])
                                 for a, b in pairs)
        M = rng.uniform(0.2, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        K = np.zeros((3, 3, 3, 3))
        for a in range(3):
            K[a, :, a] = a11_origin(profile) * np.eye(3)
        for a, b in pairs:
            K[a, :, b] = K[b, :, a] = dipole_tensor(x[b] - x[a])
        Mj = np.repeat(M, 3)
        C = -0.5 * np.outer(Mj, Mj) * K.reshape(9, 9)
        ref = np.linalg.eigvalsh(bilinear_spin_operator(C, s))[0]
        got = assemble_am(SpinSystem(positions=x, moments=M, s=s),
                          profile).eigenvalues[0]
        assert abs(got - ref) <= gate * abs(ref)


def _assemble_reference(system, kernel_at):
    """A_M term by term: all P^2 ordered pairs, nine embedded products each."""
    P, dim = system.P, system.spin_dim
    M, x = system.moments, system.positions
    emb = kron_site_spins(system.s, P)
    A = np.zeros((dim, dim), dtype=complex)
    for lam in range(P):
        for mu in range(P):
            K = kernel_at(x[mu] - x[lam])
            for j in range(3):
                for m in range(3):
                    A -= 0.5 * M[lam] * M[mu] * K[j, m] \
                        * (emb[mu][m] @ emb[lam][j])
    return A


@pytest.mark.parametrize("s, moments", [
    (0.5, [0.8, -0.5]),
    (0.5, [0.7, 0.0, -0.4]),
    (0.5, [0.3, -0.9, 0.6, 0.5]),
    (0.5, [0.4, 0.8, -0.2, 0.6, -0.7]),
    (1.0, [0.6, -0.3, 0.9]),
    (1.5, [-0.5, 0.7]),
])
@pytest.mark.parametrize("kernel", ["continuum", "discrete"])
def test_assemble_matches_reference(profile, small_grid, s, moments, kernel):
    rng = np.random.default_rng(len(moments) + int(2 * s))
    system = SpinSystem(positions=rng.normal(size=(len(moments), 3)),
                        moments=moments, s=s)
    if kernel == "continuum":
        cache = {}

        def kernel_at(d):
            key = tuple(d)
            if key not in cache:
                cache[key] = kernel_matrix(profile, d).entries
            return cache[key]
    else:
        def kernel_at(d):
            return projector_kernel(profile, small_grid, d)

    A = bilinear_spin_operator(_coefficients(system, kernel_at), system.s)
    ref = _assemble_reference(system, kernel_at)
    assert np.abs(A - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(s=st.sampled_from([0.5, 1.0]),
       log_radius=st.floats(math.log(1e-3), math.log(80.0)),
       direction=st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       moments=st.tuples(*2 * [st.floats(-1.0, 1.0)]))
def test_assemble_am_matches_quad_reference(profile, s, log_radius,
                                            direction, moments):
    # a pair out to the far field, against kron chains and quad kernels
    xhat = np.asarray(direction) / np.linalg.norm(direction)
    x = math.exp(log_radius) * xhat
    system = SpinSystem(positions=[[0.0, 0.0, 0.0], x], moments=moments, s=s)
    origin = reference_radial(profile, lambda r: 1.0) / (3.0 * math.pi ** 2)
    # reference_kernel is even in x to the bit: evaluate the pair once
    cross = reference_kernel(profile, x)

    def kernel_at(d):
        return cross if d.any() else origin * np.eye(3)

    ref = _assemble_reference(system, kernel_at)
    A = weight_basis_matrix(assemble_am(system, profile))
    assert np.abs(A - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_assemble_calls_kernel_once_per_pair(profile, monkeypatch):
    calls = []

    def counting(prof, x, *args, **kwargs):
        calls.append(x)
        return kernel_matrix(prof, x, *args, **kwargs)

    monkeypatch.setattr(spin_operator, "kernel_matrix", counting)
    system = SpinSystem(positions=[[0, 0, 0], [1, 0, 0], [0, 1.5, 0]],
                        moments=[0.5, -0.4, 0.3])
    assemble_am(system, profile)
    P = system.P
    assert len(calls) == P * (P - 1) // 2 + 1


def test_permutation_equivariance(profile):
    rng = np.random.default_rng(23)
    positions = rng.normal(size=(3, 3))
    moments = rng.uniform(0.3, 1.0, size=3)
    perm = [2, 0, 1]
    sys_a = SpinSystem(positions=positions, moments=moments, s=0.5)
    sys_b = SpinSystem(positions=positions[perm], moments=moments[perm], s=0.5)
    # three sites span a plane: each order may pick its own frame
    A = weight_basis_matrix(assemble_am(sys_a, profile))
    B = weight_basis_matrix(assemble_am(sys_b, profile))
    # permutation matrix on (C^2)^(x3) sending factor slot i to perm[i]
    P = np.zeros((8, 8))
    for idx in range(8):
        bits = [(idx >> (2 - i)) & 1 for i in range(3)]
        new_bits = [bits[perm[i]] for i in range(3)]
        new_idx = sum(b << (2 - i) for i, b in enumerate(new_bits))
        P[new_idx, idx] = 1.0
    assert np.abs(P @ A @ P.T - B).max() <= 1e-10


def test_quadratic_form_basics(profile, two_spin_system):
    A = assemble_am(two_spin_system, profile)
    zero = HermitianSpinOperator(matrix=np.zeros((4, 4)))
    rng = np.random.default_rng(4)
    X = random_state(rng, 4)
    assert quadratic_form(zero, X) == 0.0
    with pytest.raises(DomainError):
        quadratic_form(A, 2.0 * X)
    lam_min = np.linalg.eigvalsh(A.matrix)[0]
    val = quadratic_form(A, X)
    assert lam_min - 1e-12 <= val <= 1e-12


def test_quadratic_form_stack(profile, two_spin_system):
    A = assemble_am(two_spin_system, profile)
    rng = np.random.default_rng(5)
    X = np.array([random_state(rng, 4) for _ in range(5)])
    vals = quadratic_form(A, X)
    assert vals.shape == (5,)
    for x, v in zip(X, vals):
        assert abs(v - np.vdot(x, A.matrix @ x).real) <= 1e-15
    X[3] *= 1.0 + 1e-9
    with pytest.raises(DomainError):
        quadratic_form(A, X)


def test_rayleigh_consistency(profile, two_spin_system):
    A = assemble_am(two_spin_system, profile)
    lam_min = np.linalg.eigvalsh(A.matrix)[0]
    rng = np.random.default_rng(6)
    V = rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4))
    V /= np.linalg.norm(V, axis=1)[:, None]
    vals = np.einsum("nd,de,ne->n", V.conj(), A.matrix, V).real
    assert vals.min() >= lam_min - 1e-9


def test_ground_eigenspace_crafted():
    A = HermitianSpinOperator(matrix=np.diag([-1.0, 0.0, 0.0, 0.0]),
                              vectors=True)
    lam, mult, basis = ground_eigenspace(A, 1e-7)
    assert (lam, mult) == (-1.0, 1)
    assert np.allclose(np.abs(basis[:, 0]), [1, 0, 0, 0])


def test_ground_eigenspace_spectral_shift(profile, two_spin_system):
    A = assemble_am(two_spin_system, profile)
    lam, mult, _ = ground_eigenspace(A)
    shifted = HermitianSpinOperator(matrix=A.matrix + 0.37 * np.eye(4))
    lam2, mult2, _ = ground_eigenspace(shifted)
    assert mult2 == mult
    assert lam2 == pytest.approx(lam + 0.37, abs=1e-12)


def _e2_doc(tmp_path, doc):
    """e2.json of a configuration given as a dict."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["e2", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "e2.json").read_text())


@pytest.mark.parametrize("name, mult", [
    ("single_spin", 2), ("two_spins", 1), ("two_spins_equal", 2)])
def test_e2_multiplicity_is_scale_free(tmp_path, name, mult):
    # (lam, x) -> (c lam, x / c) scales A_M by c^3, and the degeneracy window
    # scales with it
    base = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    lam1 = _e2_doc(tmp_path, base)["lambda_min"]
    for c in (0.01, 1.0, 100.0):
        doc = dict(base, cutoff={"lambda": c}, particles=[
            dict(p, position=[x / c for x in p["position"]])
            for p in base["particles"]])
        got = _e2_doc(tmp_path, doc)
        assert got["multiplicity"] == mult
        assert got["lambda_min"] == pytest.approx(c ** 3 * lam1, rel=1e-12)


def test_e2_window_below_unit_eigenvalues(tmp_path):
    # two_spins at lam = 0.01 with its positions kept: the spectrum is
    # -3.79e-8 and a near triple at -1.40e-8, a level of multiplicity 1
    # that a window floored at 1e-7 would merge into one of 4
    doc = yaml.safe_load((CONFIGS / "two_spins.yaml").read_text())
    doc["cutoff"] = {"lambda": 0.01}
    got = _e2_doc(tmp_path, doc)
    assert got["multiplicity"] == 1
    assert got["lambda_min"] == pytest.approx(-3.7937e-8, rel=1e-4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cluster=st.integers(1, 5).flatmap(lambda two_s: st.tuples(
           st.just(two_s / 2.0),
           st.integers(1, min(5, int(math.log(256, two_s + 1) + 1e-9))))),
       moments=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                        min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_product_form_matches_dense(profile, cluster, moments, seed):
    # the coefficient form of A_M on product states against the Rayleigh
    # quotient of the Kronecker product vectors on the dense A_M
    s, P = cluster
    d = round(2 * s + 1)
    rng = np.random.default_rng(seed)
    system = SpinSystem(positions=2.0 * rng.normal(size=(P, 3)),
                        moments=moments[:P], s=s)
    A = assemble_am(system, profile)
    factors = rng.normal(size=(7, P, d)) + 1j * rng.normal(size=(7, P, d))
    factors /= np.linalg.norm(factors, axis=-1, keepdims=True)
    ref = quadratic_form(A, [product_state(f, s).vector for f in factors])
    got = product_form(A.coefficients, s, factors)
    assert np.abs(got - ref).max() <= 1e-13 * A.radius


def test_sampler_reads_coefficients_only(profile):
    # P = 12 spin-1/2 sites: A_M would be 4096 x 4096 (256 MiB), the stack
    # of 200 product vectors 13 MiB; the coefficient form needs neither
    system = SpinSystem(positions=np.arange(36, dtype=float).reshape(12, 3),
                        moments=np.linspace(-1.0, 1.0, 12), s=0.5)
    coef = _coefficients(system, lambda d: kernel_matrix(profile, d).entries)
    _sampled_product_min(coef, 0.5, np.random.default_rng(0))  # warm caches
    best = []
    peak = _traced_peak(lambda: best.append(
        _sampled_product_min(coef, 0.5, np.random.default_rng(1))))
    assert peak < 1 << 20
    assert PRODUCT_SAMPLES * 16 * system.spin_dim > 12 << 20
    assert best[0] < 0.0


def _break(K, d, fault):
    """K with its sign flipped, or made asymmetric at the origin."""
    K = -K if fault == "flip" else np.array(K)
    if fault == "asymmetric" and not np.any(d):
        K[0, 1] += 1e-3 * np.abs(K).max()
    return K


@pytest.mark.parametrize("fault, message", [
    ("flip", "positive eigenvalue"), ("asymmetric", "not Hermitian")])
def test_assembly_checks_raise(profile, two_spin_system, monkeypatch, fault,
                               message):
    # the discrete A_M is a Gram form, Hermitian and NSD by construction
    monkeypatch.setattr(spin_operator, "kernel_matrix", lambda prof, x:
                        SimpleNamespace(entries=_break(
                            kernel_matrix(prof, x).entries, x, fault)))
    with pytest.raises(SpinradError, match=message):
        assemble_am(two_spin_system, profile)


def test_hermiticity_gate_is_relative():
    # coefficients far below norm 1, skewed far above roundoff of their norm
    X = np.random.default_rng(3).normal(size=(6, 6))
    coef = 1e-8 * (X + X.T)
    bilinear_spin_operator(coef, 0.5)
    bilinear_spin_operator(np.zeros((6, 6)), 0.5)
    coef[0, 1] += 1e-6 * np.linalg.norm(coef)
    with pytest.raises(SpinradError, match="not Hermitian"):
        bilinear_spin_operator(coef, 0.5)
    coef[0, 1] = np.nan
    with pytest.raises(SpinradError, match="not Hermitian"):
        bilinear_spin_operator(coef, 0.5)


def _count_decompositions(monkeypatch, skip):
    """Route numpy's dense Hermitian eigensolvers through a call recorder
    that records none of the calls made while skip() is true."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _solver=getattr(np.linalg, name),
                    **kwargs):
            if not skip():
                calls.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("s", [7.5, 15.5])
def test_pair_build_peaks_near_its_operator(s):
    # a spin-15/2 pair, A 256^2 complex entries (1 MiB), and a spin-31/2
    # pair, 1024^2 (16 MiB): the build holds A, the pair block of as many
    # entries and its three d x d factors Q_j
    coef = np.random.default_rng(4).normal(size=(6, 6))
    coef += coef.T
    bilinear_spin_operator(coef, s)  # the spin bases, cached once
    tracemalloc.start()
    try:
        A = bilinear_spin_operator(coef, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (int(2 * s + 1) ** 2,) * 2
    assert peak < 2.5 * A.nbytes


def test_one_decomposition_per_am(profile, two_spin_system, tmp_path,
                                  monkeypatch):
    # eigenvectors are computed only where a caller reads them; the
    # eighs inside fock.ground_state (its dressed start and Rayleigh-Ritz
    # steps), the eigh of the Feshbach map F(E_0) in fock._feshbach and of
    # F(E) in each Newton step of fock._one_photon_ground (the n_max = 1
    # solve), the 2 x 2 eighs of verify's su2_rotate, the eigvalsh of
    # leggauss (verify's quadrature rules, built once per process) and the
    # batched eigh of the shell Gram matrices in fock.shell_couplings are
    # not A_M's
    grid = fock.build_mode_grid(profile, 4)
    solving = []

    def skipped(solve):
        def wrapped(*args, **kwargs):
            solving.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                solving.pop()
        return wrapped

    for where, name in [("fock", "ground_state"), ("fock", "_feshbach"),
                        ("fock", "_one_photon_ground"),
                        ("fock", "shell_couplings"),
                        ("cli", "su2_rotate"), ("field_energy", "leggauss"),
                        ("kernel", "leggauss")]:
        # by dotted name; spinrad.field_energy is the module, as the package
        # does not export the function under its name
        module = importlib.import_module(f"spinrad.{where}")
        monkeypatch.setattr(module, name, skipped(getattr(module, name)))
    calls = _count_decompositions(monkeypatch, skip=lambda: bool(solving))
    e2 = ["e2", "--config", str(CONFIGS / "two_spins.yaml"),
          "--out", str(tmp_path)]
    assert main(e2) == 0
    assert calls == [("eigvalsh", (4, 4))]
    calls.clear()
    assert main(e2 + ["--eigenbasis"]) == 0
    assert calls == [("eigh", (4, 4))]
    calls.clear()
    # verify: A_M with vectors, which the product-state rows read too, and
    # the 2M scaling check
    assert main(["verify", "--config", str(CONFIGS / "two_spins.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert calls == [("eigh", (4, 4)), ("eigvalsh", (4, 4))]
    calls.clear()
    fock.quadratic_fit(two_spin_system, profile, grid, 1,
                       [0.4, 0.2, 0.1, 0.05])
    assert calls == [("eigvalsh", (4, 4))]
    calls.clear()
    fock.multiplicity_scan(two_spin_system.with_moments([1.0, 1.0]), profile,
                           grid, 1, [0.2, 0.1])
    assert calls == [("eigh", (4, 4))]
    calls.clear()
    # the trial check reads the discrete A_M's matrix only; its one solve is
    # the D(H) bound's Gram matrix
    fock.variational_trial_check(two_spin_system, profile, grid, np.eye(4)[0])
    assert calls == [("eigvalsh", (4, 4))]


@pytest.mark.parametrize("name, spin, mult", [("two_spins_equal", None, 2),
                                              ("two_spins", 1.0, 1)])
def test_e2_eigenbasis_spans_ground_eigenspace(tmp_path, name, spin, mult):
    # two_spins_equal has a doubly degenerate ground level: its basis
    # vectors may rotate inside the eigenspace, the projector may not.
    # two_spins at spin 1 (spin1_pair of scripts/bundled_artifacts.py) has
    # one ground vector, solved in the real basis: its phase is free too
    doc = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    if spin is not None:
        doc["spin"] = spin
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["e2", "--config", str(config), "--out", str(tmp_path),
                 "--eigenbasis"]) == 0
    doc = json.loads((tmp_path / "e2.json").read_text())
    B = np.array(doc["eigenbasis"]).view(complex)[..., 0].T
    assert doc["multiplicity"] == B.shape[1] == mult
    cfg = parse_config(config.read_text())
    ref = _assemble_reference(
        cfg.system(), lambda d: kernel_matrix(cfg.profile(), d).entries)
    vals, vecs = np.linalg.eigh(ref)
    assert vals[0] == pytest.approx(doc["lambda_min"], rel=1e-13)
    G = vecs[:, :mult]
    assert vals[mult] - vals[mult - 1] > 1e-3 * abs(vals[0])
    assert np.abs(B @ B.conj().T - G @ G.conj().T).max() <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cluster=st.sampled_from([(1.0, P) for P in range(1, 5)]
                               + [(2.0, P) for P in range(1, 5)]
                               + [(3.0, P) for P in range(1, 4)]),
       moments=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                        min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integer_spin_real_form_matches_weight_basis(profile, cluster,
                                                     moments, seed):
    # integer s: A_M is built and solved real symmetric in the site basis
    # V = Y^(1/2); spectrum, ground basis and quadratic form against the
    # complex weight-basis operator of the same coefficients.  s = 3 stops
    # at P = 3 (dim 343), as P = 4 would be a 2401 x 2401 complex eigh.
    s, P = cluster
    rng = np.random.default_rng(seed)
    system = SpinSystem(positions=2.0 * rng.normal(size=(P, 3)),
                        moments=moments[:P], s=s)
    A = assemble_am(system, profile, vectors=True)
    assert A.matrix.dtype == np.float64 and A.site_basis is not None
    ref = bilinear_spin_operator(A.coefficients, s)
    ref_vals = np.linalg.eigvalsh(ref)
    rho = max(np.abs(ref_vals).max(), np.finfo(float).tiny)
    assert np.abs(A.eigenvalues - ref_vals).max() <= 1e-13 * rho

    lam, mult, basis = ground_eigenspace(A)
    assert lam == A.eigenvalues[0]
    assert np.abs(basis.conj().T @ basis - np.eye(mult)).max() <= 1e-13
    assert np.abs(ref @ basis - basis * A.eigenvalues[:mult]).max() \
        <= 1e-13 * rho

    X = rng.normal(size=(5, system.spin_dim)) \
        + 1j * rng.normal(size=(5, system.spin_dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    rayleigh = np.einsum("ni,ij,nj->n", X.conj(), ref, X).real
    assert np.abs(quadratic_form(A, X) - rayleigh).max() <= 1e-13 * rho


@pytest.mark.parametrize("s, P", [(0.5, 3), (0.5, 5), (1.5, 1), (1.5, 3),
                                  (2.5, 3)])
def test_odd_time_reversal_gives_kramers_pairs(tmp_path, profile, s, P):
    # (2s) P odd: time reversal squares to -1, so every level of A_M is
    # at least doubly degenerate and e2's ground multiplicity is even;
    # half-integer s stays complex, in the weight basis or, for the planar
    # P = 3 clusters, in the rotated basis of their plane's frame
    rng = np.random.default_rng(int(2 * s) * 10 + P)
    positions = rng.normal(size=(P, 3))
    moments = rng.uniform(-1.0, 1.0, size=P)
    got = _e2_doc(tmp_path, {
        "particles": [{"position": [float(c) for c in x], "moment": float(m)}
                      for x, m in zip(positions, moments)],
        "spin": s})
    assert got["multiplicity"] % 2 == 0
    A = assemble_am(SpinSystem(positions=positions, moments=moments, s=s),
                    profile)
    assert A.matrix.dtype == np.complex128
    assert got["lambda_min"] == A.eigenvalues[0]
    assert np.abs(A.eigenvalues[1::2] - A.eigenvalues[::2]).max() \
        <= 1e-12 * A.radius


def _planar_system(rng, s, P, lift=0.0):
    """P sites drawn in a random plane, the first lifted by lift along its
    unit normal n, with random moments; returns (system, n)."""
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    positions = 1.5 * rng.normal(size=(P, 2)) @ frame[:, :2].T \
        + rng.normal(size=3)
    positions[0] += lift * frame[:, 2]
    return SpinSystem(positions=positions, moments=rng.uniform(-1.0, 1.0, P),
                      s=s), frame[:, 2]


PLANAR = [(s, 3) for s in (0.5, 1.0, 1.5, 2.5)] \
    + [(0.5, 4), (1.0, 4), (1.5, 4), (0.5, 5), (1.0, 5)]


def _commutator_with_pi_rotation(profile, system, n):
    """Largest entry of [A_M, U] in the weight basis, U the pi rotation
    about n on every site, and A_M's spectral radius."""
    A = assemble_am(system, profile)
    U = functools.reduce(np.kron, [su2_rotate(system.s, np.pi * n)]
                         * system.P)
    Aw = bilinear_spin_operator(A.coefficients, system.s)
    return np.abs(Aw @ U - U @ Aw).max(), A.radius


@pytest.mark.parametrize("s, P", PLANAR)
def test_planar_am_commutes_with_pi_rotation_about_normal(profile, s, P):
    # the mirror through the sites' plane fixes every site; spin is axial,
    # so the mirror acts on spins as the pi rotation about the normal
    rng = np.random.default_rng(int(2 * s) * 10 + P)
    comm, rho = _commutator_with_pi_rotation(
        profile, *_planar_system(rng, s, P))
    assert comm <= 1e-13 * rho
    # one site lifted off the plane: the pairs through it break the
    # symmetry, by 3e-4 to 6e-2 of rho over these cases and seeds 0-5
    system, n = _planar_system(rng, s, P, lift=0.8)
    comm, rho = _commutator_with_pi_rotation(profile, system, n)
    assert comm >= 1e-4 * rho


@pytest.mark.parametrize("s, P", PLANAR)
def test_sector_solve_matches_full_weight_basis(profile, s, P):
    rng = np.random.default_rng(int(2 * s) * 10 + P + 1)
    system, _ = _planar_system(rng, s, P)
    A = assemble_am(system, profile, vectors=True)
    assert A.sectors is not None
    assert sorted(np.concatenate(A.sectors)) == list(range(system.spin_dim))
    ref = bilinear_spin_operator(A.coefficients, s)
    ref_vals = np.linalg.eigvalsh(ref)
    rho = np.abs(ref_vals).max()
    assert np.abs(A.eigenvalues - ref_vals).max() <= 1e-13 * rho
    lam, mult, basis = ground_eigenspace(A)
    assert mult == ground_eigenspace(HermitianSpinOperator(ref))[1]
    assert np.abs(basis.conj().T @ basis - np.eye(mult)).max() <= 1e-13
    assert np.abs(ref @ basis - basis * A.eigenvalues[:mult]).max() \
        <= 1e-12 * rho
    X = np.array([random_state(rng, system.spin_dim) for _ in range(4)])
    rayleigh = np.einsum("ni,ij,nj->n", X.conj(), ref, X).real
    assert np.abs(quadratic_form(A, X) - rayleigh).max() <= 1e-13 * rho
    # without vectors, eigvalsh on the same sectors
    assert np.abs(assemble_am(system, profile).eigenvalues - ref_vals).max() \
        <= 1e-13 * rho


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_planar_site_basis_is_found_on_first_read(profile, monkeypatch, s):
    # D(theta)^H V is made only for quadratic_form and ground_eigenspace
    system, _ = _planar_system(np.random.default_rng(12), s, 3)
    rotate, calls = spin_operator.su2_rotate, []
    monkeypatch.setattr(spin_operator, "su2_rotate",
                        lambda *args: calls.append(args) or rotate(*args))
    A = assemble_am(system, profile, vectors=True)
    assert A.sectors is not None and calls == []
    V = A.site_basis
    assert len(calls) == 1 and A.site_basis is V
    ref = bilinear_spin_operator(A.coefficients, s)
    assert np.abs(weight_basis_matrix(A) - ref).max() <= 1e-13 * A.radius
    assert len(calls) == 1


def test_sectors_only_for_sites_that_span_a_plane(profile):
    rng = np.random.default_rng(8)
    line = np.outer(rng.normal(size=4), rng.normal(size=3))
    lifted, _ = _planar_system(rng, 0.5, 4, lift=1e-6)
    for positions in (line, [[0.3, -0.2, 0.9]], rng.normal(size=(4, 3)),
                      lifted.positions):
        system = SpinSystem(positions=positions,
                            moments=np.ones(len(positions)))
        assert assemble_am(system, profile).sectors is None
    assert assemble_am(_planar_system(rng, 0.5, 4)[0], profile).sectors \
        is not None


def test_sector_solve_refuses_a_frame_off_the_normal(profile):
    system, n = _planar_system(np.random.default_rng(9), 1.5, 3)
    coef = _coefficients(system,
                         lambda d: kernel_matrix(profile, d).entries)
    frame = spin_operator._plane_frame(system.positions)
    assert np.abs(spin_operator._rotation(frame) @ n).round(12).tolist() \
        == [0.0, 0.0, 1.0]
    spin_operator._checked_operator(coef, 1.5, False, frame)
    with pytest.raises(SpinradError, match="couples its sectors"):
        spin_operator._checked_operator(coef, 1.5, False, frame + 0.3)


@pytest.mark.parametrize("s, P", [(0.5, 3), (1.5, 3), (2.5, 3), (0.5, 5)])
def test_odd_time_reversal_maps_one_sector_onto_the_other(profile, s, P):
    # (2s) P odd: the pi rotation U has eigenvalues +-i, one per sector;
    # time reversal commutes with A_M and U but is antiunitary, so it maps
    # U's eigenvalue i onto -i and one sector's spectrum onto the other's
    system, _ = _planar_system(np.random.default_rng(int(2 * s) + P), s, P)
    A = assemble_am(system, profile)
    even, odd = (np.linalg.eigvalsh(A.matrix[np.ix_(k, k)])
                 for k in A.sectors)
    assert np.abs(even - odd).max() <= 1e-13 * A.radius


def _traced_peak(call):
    """tracemalloc peak in bytes over call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_budget_rejects_thirteen_spins(profile):
    # 2^13 > MAX_DENSE_DIM: the system builds, its dense A_M may not, and
    # nothing of that size may be allocated first
    system = SpinSystem(positions=np.arange(39, dtype=float).reshape(13, 3),
                        moments=np.ones(13), s=0.5)

    def build():
        with pytest.raises(ResourceError, match="dense budget"):
            assemble_am(system, profile)
    assert _traced_peak(build) < 1 << 20



TRIPLE = [[0.0, 0.0, 0.0], [0.9, -0.3, 0.4], [0.2, 0.7, -0.5]]


@pytest.mark.parametrize("s, P", [(2048.0, 1), (32.0, 2), (8.0, 3)])
def test_dense_budget_refuses_before_any_basis(profile, s, P):
    # the smallest spins past MAX_DENSE_DIM at P = 1, 2, 3: refused before
    # the spin matrices (1 GB at d = 4097) or the real pair blocks (140 MB
    # at d = 65, 2 MB at d = 17) are built
    spin_operator._bases.cache_clear()
    system = SpinSystem(positions=TRIPLE[:P], moments=[0.8, -0.5, 0.6][:P],
                        s=s)

    def build():
        with pytest.raises(ResourceError, match="dense budget"):
            assemble_am(system, profile)
    assert _traced_peak(build) < 5 << 20


def test_one_site_builds_no_pair_basis(profile):
    # one spin-31/2 site: a 32 x 32 A_M, with no pair block of 32^4 entries
    spin_operator._bases.cache_clear()
    system = SpinSystem(positions=TRIPLE[:1], moments=[0.8], s=15.5)
    assert _traced_peak(lambda: assemble_am(system, profile)) < 5 << 20


def test_spin_caches_give_the_same_bytes_cold_and_warm(tmp_path):
    # spin1_triple of scripts/bundled_artifacts.py: planar and integer
    # spin, so e2 reads both bases of spin 1, the parity sectors and the
    # read-only spin matrices (product states, su2_rotate)
    doc = yaml.safe_load((CONFIGS / "two_spins.yaml").read_text())
    doc["particles"].append({"position": TRIPLE[2], "moment": 0.6})
    doc["spin"] = 1.0
    cfg = tmp_path / "spin1_triple.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    caches = (spin_operator._bases, spin_operator._parity_sectors,
              spin_algebra._spin_matrices_read_only)
    for cache in caches:
        cache.cache_clear()
    blobs = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        for argv in (["e2", "--eigenbasis"], ["verify"]):
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append([(out / name).read_bytes() for name in
                      ("e2.json", "verify.csv", "verify_manifest.json")])
    assert blobs[0] == blobs[1]
    # one miss per key: the bases of spin 1 in the weight and real basis,
    # the sectors of three spin-1 sites, the spin-1 matrices
    assert [(cache.cache_info().misses, cache.cache_info().currsize)
            for cache in caches] == [(2, 2), (1, 1), (1, 1)]


@pytest.mark.parametrize("s", [True, np.True_])
def test_boolean_spin_refused_after_a_spin_one_build(s):
    # the basis cache is keyed by 2s, taken after booleans are refused, so
    # a spin-1 build in it cannot answer for s = True == 1
    coef = -np.eye(6)
    bilinear_spin_operator(coef, 1.0)
    with pytest.raises(DomainError, match="half-integer"):
        bilinear_spin_operator(coef, s)

def test_non_hermitian_coef_raises_before_dense_build():
    # P = 10 spin-1/2 sites: the 1024 x 1024 array would take 16 MiB
    coef = np.eye(30)
    coef[0, 4] = 1e-3

    def build():
        with pytest.raises(SpinradError, match="not Hermitian"):
            bilinear_spin_operator(coef, 0.5)
    assert _traced_peak(build) < 1 << 20


@st.composite
def spin_clusters(draw):
    """s in {1/2, ..., 5/2} and P >= 1 with (2s+1)^P <= 256."""
    two_s = draw(st.integers(1, 5))
    P_max = int(np.floor(np.log(256) / np.log(two_s + 1) + 1e-12))
    return two_s / 2.0, draw(st.integers(1, P_max))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spin_clusters(), st.integers(0, 2 ** 32 - 1))
def test_site_embeddings_and_block_build_match_kron_chains(cluster, seed):
    # embed_site_operator (a broadcast index grid) and
    # bilinear_spin_operator (einsum diagonal views)
    s, P = cluster
    rng = np.random.default_rng(seed)
    d = int(round(2 * s + 1))
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    op[rng.random((d, d)) < 0.3] = 0.0
    for lam in range(1, P + 1):
        E = embed_site_operator(op, lam, P)
        # canonical: rows in order, columns ascending and unique in each
        keys = np.repeat(np.arange(E.shape[0]), np.diff(E.indptr)) \
            * E.shape[1] + E.indices
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(E.toarray(), kron_embed(op, lam, P))
    for lam in (0, P + 1):
        with pytest.raises(DomainError, match="site index"):
            embed_site_operator(op, lam, P)

    # random Hermitian coef; sites with zero moment lose their rows/columns
    n = 3 * P
    coef = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    live = np.repeat(rng.random(P) < 0.7, 3)
    coef = (coef + coef.conj().T) * np.outer(live, live)
    E = np.array([e for site in kron_site_spins(s, P) for e in site])
    ref = np.matmul(np.tensordot(coef, E, axes=(0, 0)), E).sum(axis=0)
    A = bilinear_spin_operator(coef, s)
    assert np.abs(A - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref))
