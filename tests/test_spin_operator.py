import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinrad.fock as fock
import spinrad.spin_operator as spin_operator
from spinrad.cli import main
from spinrad.config import parse_config
from spinrad.errors import DomainError, ResourceError, SpinradError
from spinrad.kernel import a11_origin, kernel_matrix
from spinrad.spin_algebra import embed_site_operator, hopf_map, \
    product_state, product_vectors
from spinrad.spin_operator import HermitianSpinOperator, SpinSystem, \
    _assemble, assemble_am, bilinear_spin_operator, ground_eigenspace, \
    quadratic_form, site_spin_operators

from conftest import kron_embed, kron_site_spins, projector_kernel, \
    random_state
from test_kernel import reference_kernel, reference_radial

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_system_validation():
    with pytest.raises(DomainError):
        SpinSystem(positions=[[0, 0, 0], [0, 0, 0]], moments=[1.0, 1.0])
    with pytest.raises(DomainError):
        SpinSystem(positions=[[0, 0, 0]], moments=[1.0], s=0.3)


@pytest.mark.parametrize("position, moment", [
    ([np.nan, 0.0, 0.0], 1.0), ([np.inf, 0.0, 0.0], 1.0),
    ([0.0, -np.inf, 0.0], 1.0), ([0.0, 0.0, 1.0], np.nan),
    ([0.0, 0.0, 1.0], -np.inf)])
def test_system_rejects_non_finite(position, moment):
    with pytest.raises(DomainError, match="must be finite"):
        SpinSystem(positions=[[0.0, 0.0, 0.0], position],
                   moments=[1.0, moment])


@pytest.mark.parametrize("check", [
    "quadratic_form", "hopf_map", "product_vectors", "product_state",
    "photon_number", "variational_trial_check"])
def test_unit_norm_checks_reject_nan(profile, small_grid, two_spin_system,
                                     check):
    # abs(norm - 1) > tol is False for a NaN norm; each check must still fail
    nan = np.full(4, np.nan)
    toy = fock.build_hamiltonian(two_spin_system, profile, small_grid, 1)
    calls = {
        "quadratic_form": lambda: quadratic_form(
            HermitianSpinOperator(matrix=np.eye(4)), nan),
        "hopf_map": lambda: hopf_map(nan[:2], 0.5),
        "product_vectors": lambda: product_vectors(nan.reshape(1, 2, 2)),
        "product_state": lambda: product_state(nan.reshape(2, 2), 0.5),
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
    A = assemble_am(two_spin_system.with_moments([0.0, 0.0]), profile).matrix
    assert np.abs(A).max() == 0.0


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

    A_decoupled = _assemble(system, kernel_no_cross)
    assert np.abs(A - A_decoupled).max() <= 1e-6


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

    A = _assemble(system, kernel_at)
    ref = _assemble_reference(system, kernel_at)
    assert np.abs(A - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref))


@settings(max_examples=20, deadline=None)
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
    A = assemble_am(system, profile).matrix
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
    A = assemble_am(sys_a, profile).matrix
    B = assemble_am(sys_b, profile).matrix
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


def test_one_decomposition_per_am(profile, two_spin_system, tmp_path,
                                  monkeypatch):
    # eigenvectors are computed only where a caller reads them; the
    # eighs inside fock.ground_state (its dressed start and Rayleigh-Ritz
    # steps) and the eigh of the Feshbach map F(E_0) in fock._feshbach are
    # not A_M's
    grid = fock.build_mode_grid(profile, 4, 6)
    solving = []

    def skipped(solve):
        def wrapped(*args, **kwargs):
            solving.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                solving.pop()
        return wrapped

    for name in ("ground_state", "_feshbach"):
        monkeypatch.setattr(fock, name, skipped(getattr(fock, name)))
    calls = _count_decompositions(monkeypatch, skip=lambda: bool(solving))
    e2 = ["e2", "--config", str(CONFIGS / "two_spins.yaml"),
          "--out", str(tmp_path)]
    assert main(e2) == 0
    assert calls == [("eigvalsh", (4, 4))]
    calls.clear()
    assert main(e2 + ["--eigenbasis"]) == 0
    assert calls == [("eigh", (4, 4))]
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


def test_e2_eigenbasis_spans_ground_eigenspace(tmp_path):
    # two_spins_equal has a doubly degenerate ground level: its basis
    # vectors may rotate inside the eigenspace, the projector may not
    config = CONFIGS / "two_spins_equal.yaml"
    assert main(["e2", "--config", str(config), "--out", str(tmp_path),
                 "--eigenbasis"]) == 0
    doc = json.loads((tmp_path / "e2.json").read_text())
    B = np.array(doc["eigenbasis"]).view(complex)[..., 0].T
    assert doc["multiplicity"] == B.shape[1] == 2
    cfg = parse_config(config.read_text())
    ref = _assemble_reference(
        cfg.system(), lambda d: kernel_matrix(cfg.profile(), d).entries)
    vals, vecs = np.linalg.eigh(ref)
    assert vals[0] == pytest.approx(doc["lambda_min"], rel=1e-13)
    G = vecs[:, :2]
    assert vals[2] - vals[1] > 1e-3 * abs(vals[0])
    assert np.abs(B @ B.conj().T - G @ G.conj().T).max() <= 1e-10


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


@settings(max_examples=40, deadline=None)
@given(spin_clusters(), st.integers(0, 2 ** 32 - 1))
def test_site_embeddings_and_block_build_match_kron_chains(cluster, seed):
    # embedded_entries, through embed_site_operator and bilinear_spin_operator
    s, P = cluster
    rng = np.random.default_rng(seed)
    d = int(round(2 * s + 1))
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    op[rng.random((d, d)) < 0.3] = 0.0
    for lam in range(1, P + 1):
        assert np.array_equal(embed_site_operator(op, lam, P).toarray(),
                              kron_embed(op, lam, P))
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


@pytest.mark.parametrize("s, P", [(0.5, 2), (1.5, 3)])
def test_site_spin_stack_is_built_once_and_read_only(s, P):
    S = site_spin_operators(s, P)
    assert site_spin_operators(s, P) is S
    fresh = site_spin_operators.__wrapped__(s, P)
    assert (S != fresh).nnz == 0
    for arr in (S.data, S.indices, S.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_site_spin_stack_cache_keeps_booleans_out():
    # typed: the stack of (1.0, 2) is not the answer for (True, 2)
    site_spin_operators(1.0, 2)
    with pytest.raises(DomainError):
        site_spin_operators(True, 2)
