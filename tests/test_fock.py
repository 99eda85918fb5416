import cmath
import importlib.util
import math
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
import scipy.sparse as sp

from spinrad.config import parse_config
from spinrad.cutoff import CutoffProfile, phi_eval
from spinrad.errors import ConvergenceError, DomainError, ResourceError
import spinrad.fock as fock
from spinrad.fock import MAX_TOTAL_DIM, ToyHamiltonian, _discrete_k_bound, \
    build_fock_space, build_hamiltonian, build_mode_grid, discrete_am, \
    ground_state, multiplicity_scan, photon_number, quadratic_fit, \
    segal_field, shell_couplings, variational_trial_check
from spinrad.spin_algebra import CSRMatrix
from spinrad.spin_operator import DEFAULT_DEGENERACY_TOL, SpinSystem, \
    _coefficients, assemble_am, bilinear_spin_operator, ground_eigenspace

from conftest import grid_modes, kron_site_spins, projector_kernel, \
    random_state, weight_basis_matrix

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCRIPTS = CONFIGS.parent / "scripts"


def test_grid_weight_sum(profile, default_grid):
    # oracle: 1D radial quadrature of int |phi|^2 dk
    oracle = 4.0 * math.pi * integrate.quad(
        lambda r: phi_eval(profile, r) ** 2 * r * r, 0.0,
        profile.far_radius())[0]
    k, w = grid_modes(default_grid)
    total = float(np.sum(w * phi_eval(profile, np.linalg.norm(k, axis=1))
                         ** 2))
    assert total == pytest.approx(oracle, rel=1e-6)
    assert oracle == pytest.approx(math.pi ** 1.5, rel=1e-10)


def test_grid_validation(profile):
    with pytest.raises(DomainError):
        build_mode_grid(profile, 1, 12)
    with pytest.raises(DomainError):
        build_mode_grid(profile, 8, 7)


@pytest.mark.parametrize("n_radial, n_angular, name", [
    (2.5, 6, "n_radial"), (True, 6, "n_radial"), (4, 6.0, "n_angular"),
    (4, "6", "n_angular")])
def test_grid_sizes_must_be_integers(profile, n_radial, n_angular, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        build_mode_grid(profile, n_radial, n_angular)


@pytest.mark.parametrize("n_max", [1.5, 2.0, True, None])
def test_fock_space_cap_must_be_an_integer(small_grid, n_max):
    with pytest.raises(DomainError, match="n_max must be an integer"):
        build_fock_space(small_grid.radius, n_max)
    assert build_fock_space(small_grid.radius, np.int64(1)).n_max == 1


def _loop_mode_grid(profile, n_radial, n_angular):
    """Nodes and weights of the mode grid, one node at a time."""
    r_far = profile.far_radius()
    rn, rw = np.polynomial.legendre.leggauss(n_radial)
    rn, rw = 0.5 * r_far * (rn + 1.0), 0.5 * r_far * rw
    n_theta, n_phi = n_angular // 2, n_angular
    cn, cw = np.polynomial.legendre.leggauss(n_theta)
    ph = 2.0 * math.pi * np.arange(n_phi) / n_phi
    pw = 2.0 * math.pi / n_phi
    ks, ws = [], []
    for r, wr in zip(rn, rw):
        for c, wc in zip(cn, cw):
            s_ = math.sqrt(1.0 - c * c)
            for f in ph:
                ks.append([r * s_ * math.cos(f), r * s_ * math.sin(f), r * c])
                ws.append(wr * r * r * (wc * pw))
    return np.array(ks), np.array(ws)


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("n_radial, n_angular", [
    (24, 12), (2, 6), (4, 6), (6, 6), (5, 10), (96, 64)])
def test_mode_grid_matches_loop_reference(lam, n_radial, n_angular):
    profile = CutoffProfile(lam)
    grid = build_mode_grid(profile, n_radial, n_angular)
    k, w = _loop_mode_grid(profile, n_radial, n_angular)
    grid_k, grid_w = grid_modes(grid)
    assert grid.n_modes == len(w)
    assert np.array_equal(grid_w, w)
    assert np.abs(grid_k - k).max() <= 1e-15 * profile.far_radius()


def _polarizations(k):
    """Orthonormal transverse frame (N, 2, 3) of each wavevector."""
    khat = k / np.linalg.norm(k, axis=1)[:, None]
    ref = np.where(np.abs(khat[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]],
                   [[1.0, 0.0, 0.0]])
    e1 = np.cross(khat, ref)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return np.stack([e1, np.cross(khat, e1)], axis=1)


def _mode_couplings(system, profile, grid):
    """Couplings of the site spins to all 2N (mode, polarization) oscillators.

    Returns (omega, V): the oscillator frequencies, and V (3P, 2N) complex
    with entry (3 lam + m, 2 i + a) = sqrt(w_i) <eps_ia, B_{m+1,x[lam]}(k_i)>,
    where B_{m,x}(k) = i phi(|k|) |k|^(1/2) (2 pi)^(-3/2) e^{-i k.x}
    (k x e_m)/|k| and <eps_ia, khat x e_m> = (eps_ia x khat)_m.
    """
    k, w = grid_modes(grid)
    r = np.linalg.norm(k, axis=1)
    amp = 1j * np.sqrt(w) * phi_eval(profile, r) * np.sqrt(r) \
        * (2.0 * math.pi) ** -1.5
    phase = amp * np.exp(-1j * (system.positions @ k.T))  # (P, N)
    cross = np.cross(_polarizations(k), k[:, None, :] / r[:, None, None],
                     axisc=0)  # (3, N, 2)
    V = phase[:, None, :, None] * cross  # (P, 3, N, 2)
    return np.repeat(r, 2), V.reshape(3 * system.P, 2 * grid.n_modes)


def _loop_mode_couplings(system, profile, grid):
    """V of _mode_couplings one entry at a time, each polarization frame
    and plane wave built from the grid's factors."""
    V = np.empty((3 * system.P, 2 * grid.n_modes), dtype=complex)
    for lam, x in enumerate(system.positions):
        for m in range(3):
            i = 0
            for r, rw in zip(grid.radius, grid.radial_weight):
                for u, uw in zip(grid.direction, grid.direction_weight):
                    k = r * u
                    ref = np.eye(3)[2] if abs(u[2]) < 0.9 else np.eye(3)[0]
                    e1 = np.cross(u, ref)
                    e1 /= math.sqrt(e1 @ e1)
                    B = 1j * float(phi_eval(profile, r)) * math.sqrt(r) \
                        * (2.0 * math.pi) ** -1.5 * cmath.exp(-1j * (k @ x)) \
                        * np.cross(u, np.eye(3)[m])
                    for a, eps in enumerate([e1, np.cross(u, e1)]):
                        V[3 * lam + m, 2 * i + a] = \
                            math.sqrt(rw * r * r * uw) * (eps @ B)
                    i += 1
    return V


@pytest.mark.parametrize("lam", [0.7, 1.6])
@pytest.mark.parametrize("P", [1, 2, 3])
def test_mode_couplings_match_loop(lam, P):
    profile = CutoffProfile(lam)
    grid = build_mode_grid(profile, 4, 6)
    rng = np.random.default_rng(P)
    system = SpinSystem(positions=rng.normal(size=(P, 3)) / lam,
                        moments=np.ones(P))
    V = _mode_couplings(system, profile, grid)[1]
    ref = _loop_mode_couplings(system, profile, grid)
    assert np.abs(V - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("lam", [0.7, 1.6])
@pytest.mark.parametrize("P", [1, 2, 3])
@pytest.mark.parametrize("n_radial, n_angular", [(4, 6), (3, 10)])
def test_shell_factors_match_loop_gram(lam, P, n_radial, n_angular):
    # Per shell, the complex couplings of all 2 n_dirs oscillators have a
    # real Gram matrix (the grid is closed under u -> -u), and the real
    # factor W_s reproduces it
    profile = CutoffProfile(lam)
    grid = build_mode_grid(profile, n_radial, n_angular)
    rng = np.random.default_rng(10 + P)
    system = SpinSystem(positions=rng.normal(size=(P, 3)) / lam,
                        moments=np.ones(P))
    omega_osc, W = shell_couplings(system, profile, grid)
    assert W.dtype == float and W.shape == (3 * P, 3 * P * n_radial)
    assert np.array_equal(omega_osc, np.repeat(grid.radius, 3 * P))
    V = _loop_mode_couplings(system, profile, grid)
    for s in range(n_radial):
        V_s = V[:, 2 * len(grid.direction) * s:][:, :2 * len(grid.direction)]
        W_s = W[:, 3 * P * s:][:, :3 * P]
        gram = V_s.conj() @ V_s.T
        scale = np.abs(gram).max()
        assert scale > 0.0
        assert np.abs(gram.imag).max() <= 1e-14 * scale
        assert np.abs(gram - W_s @ W_s.T).max() <= 1e-14 * scale


def test_shell_couplings_structure(profile, small_grid, two_spin_system):
    omega_osc, W = shell_couplings(two_spin_system, profile, small_grid)
    # coupling decays like phi at large |k|
    assert np.abs(W[:, omega_osc > 0.8 * profile.far_radius()]).max() <= 1e-10


def test_shell_couplings_self_consistency(profile, small_grid):
    # weighted |coupling|^2 / omega sums to the discrete kernel diagonal
    origin = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[1.0])
    omega_osc, W = shell_couplings(origin, profile, small_grid)
    totals = np.sum(W ** 2 / omega_osc, axis=1)
    diag = np.diag(projector_kernel(profile, small_grid, np.zeros(3)))
    assert totals == pytest.approx(diag, rel=1e-12)


def _grid_am(system, profile, grid):
    return discrete_am(system, *shell_couplings(system, profile, grid))


@pytest.mark.parametrize("lam", [0.7, 1.6])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("P", [1, 2, 3])
def test_discrete_am_matches_projector_reference(lam, s, P):
    # A_M of the shell factors against the transverse-projector kernel,
    # evaluated per site pair and assembled by bilinear_spin_operator
    profile = CutoffProfile(lam)
    grid = build_mode_grid(profile, 8, 8)
    rng = np.random.default_rng(10 * P + int(2 * s))
    system = SpinSystem(positions=rng.normal(size=(P, 3)) / lam,
                        moments=rng.uniform(-1.0, 1.0, P), s=s)
    A = _grid_am(system, profile, grid)
    ref = bilinear_spin_operator(_coefficients(
        system, lambda d: projector_kernel(profile, grid, d)), system.s)
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(weight_basis_matrix(A) - ref) <= 1e-13 * scale
    assert np.abs(A.eigenvalues - np.linalg.eigvalsh(ref)).max() \
        <= 1e-13 * scale


def test_discrete_am_matches_continuum(profile, default_grid, two_spin_system):
    Ac = assemble_am(two_spin_system, profile).matrix
    Ad = _grid_am(two_spin_system, profile, default_grid).matrix
    rel = np.linalg.norm(Ad - Ac) / np.linalg.norm(Ac)
    assert rel <= 1e-3
    finer = build_mode_grid(profile, 40, 20)
    rel2 = np.linalg.norm(_grid_am(two_spin_system, profile, finer).matrix
                          - Ac) / np.linalg.norm(Ac)
    assert rel2 < rel


def test_discrete_am_zero_and_single(profile, default_grid):
    zero = SpinSystem(positions=[[0, 0, 0], [1, 0, 0]], moments=[0.0, 0.0])
    assert np.abs(_grid_am(zero, profile, default_grid).matrix).max() == 0.0
    single = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[0.6])
    Ad = _grid_am(single, profile, default_grid).matrix
    a0 = projector_kernel(profile, default_grid, np.zeros(3))[0, 0]
    assert np.abs(Ad + 1.5 * a0 * 0.36 * np.eye(2)).max() <= 1e-12


def test_one_coupling_build_per_fock_run(profile, small_grid,
                                         two_spin_system, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return shell_couplings(*args)

    monkeypatch.setattr(fock, "shell_couplings", counted)
    quadratic_fit(two_spin_system, profile, small_grid, 1,
                  [0.4, 0.2, 0.1, 0.05])
    assert len(calls) == 1
    equal = two_spin_system.with_moments([1.0, 1.0])
    multiplicity_scan(equal, profile, small_grid, 1, [0.2, 0.1])
    assert len(calls) == 2
    variational_trial_check(two_spin_system, profile, small_grid,
                            np.array([1.0, 0.0, 0.0, 0.0]))
    assert len(calls) == 3


def test_hamiltonian_structure(profile, small_grid, two_spin_system):
    toy = build_hamiltonian(two_spin_system, profile, small_grid, 2)
    H = toy.matrix()
    dense = H.toarray()
    assert np.abs(dense - dense.conj().T).max() <= 1e-13
    # vacuum expectation vanishes for every X
    rng = np.random.default_rng(1)
    for _ in range(5):
        e0x = toy.vacuum_embed(random_state(rng, 4))
        assert abs(np.vdot(e0x, H @ e0x)) <= 1e-15
    # free part: M = 0 leaves the diagonal free field with ground energy 0
    free = toy.matrix(0.0)
    assert np.array_equal(free.toarray(), np.diag(free.diagonal()))
    assert free.diagonal().min() == 0.0


def test_interaction_changes_photon_number_by_one(profile, small_grid,
                                                  two_spin_system):
    # H's off-diagonal entries each move one photon, and its diagonal is
    # the free field's alone: the interaction leaves nothing there
    toy = build_hamiltonian(two_spin_system, profile, small_grid, 2)
    n_diag = toy.photon_number_diag()
    rows, cols = toy.h._row_ids(), toy.h.indices
    off = rows != cols
    assert set(np.unique(np.abs(n_diag[rows[off]] - n_diag[cols[off]]))) \
        == {1}
    free = np.concatenate([toy.space.omega_osc[occ].sum(axis=1)
                           for occ in toy.space.sectors])
    assert np.array_equal(toy.h.diagonal(),
                          np.repeat(free, toy.spin_dim).astype(complex))


def test_matrix_scales_off_diagonal_on_h_pattern(profile, small_grid,
                                                 two_spin_system,
                                                 monkeypatch):
    toy = build_hamiltonian(two_spin_system, profile, small_grid, 2)
    h = toy.h
    on = h.indices == np.repeat(np.arange(toy.dim), np.diff(h.indptr))
    # h's diagonal entries are found once, for diagonal() and every scale
    searched, row_ids = [], CSRMatrix._row_ids

    def recorded(m):
        searched.append(m)
        return row_ids(m)

    monkeypatch.setattr(CSRMatrix, "_row_ids", recorded)
    # dGamma(omega) is stored on every state but the vacuum ones
    assert np.array_equal(np.flatnonzero(h.diagonal()),
                          np.arange(toy.spin_dim, toy.dim))
    assert np.count_nonzero(on) == toy.dim - toy.spin_dim
    for t in (0.0, 0.05, 0.4, 1.0, -1.3):
        H = toy.matrix(t)
        assert H.indptr is h.indptr and H.indices is h.indices
        assert H.data.dtype == h.data.dtype
        assert H.data[on].tobytes() == h.data[on].tobytes()
        assert H.data[~on].tobytes() == (t * h.data[~on]).tobytes()
        assert H.diagonal().tobytes() == h.diagonal().tobytes()
    assert len(searched) == 1 and searched[0] is h
    # h, whose arrays every matrix(t) shares, and H(t) refuse writes
    for arr in (h.indptr, h.indices, h.data, H.data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def _oscillator_omega(grid):
    """Frequencies of all 2N (mode, polarization) oscillators of the grid."""
    return np.repeat(grid.radius, 2 * len(grid.direction))


def test_fock_space_budget(profile, default_grid):
    with pytest.raises(ResourceError):
        build_fock_space(_oscillator_omega(default_grid), 3, spin_dim=4)


def test_fock_space_budget_edge(profile):
    grid = build_mode_grid(profile, 2, 6)  # 72 oscillators
    space = build_fock_space(_oscillator_omega(grid), 3, spin_dim=5)
    assert space.dim == 67_525 and 5 * space.dim <= MAX_TOTAL_DIM
    with pytest.raises(ResourceError, match="67525 x spin 6"):
        build_fock_space(_oscillator_omega(grid), 3, spin_dim=6)


def test_fock_space_budget_bounds_the_dense_spin_rows(profile):
    # P = 12 spin-1/2 sites couple to 2 x 36 oscillators of a 2 x 6 grid:
    # 73 x 4096 = 299,008 states fit MAX_TOTAL_DIM, but a solve would make
    # 4096 rows of them dense, 19.6 GB a copy.  The space raises before
    # anything of that size is allocated.
    chain = SpinSystem(positions=[[0.7 * k, 0.0, 0.0] for k in range(12)],
                       moments=np.ones(12))
    omega, _ = shell_couplings(chain, profile, build_mode_grid(profile, 2, 6))
    assert len(omega) == 72 and 73 * chain.spin_dim <= MAX_TOTAL_DIM
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError,
                           match="4096 dense spin rows of 299008 states"):
            build_fock_space(omega, 1, chain.spin_dim)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_budget_bounds_the_coupled_oscillators(profile, default_grid,
                                               two_spin_system):
    # 24 shells x 3P = 144 coupled oscillators of the grid's 3456
    toy = build_hamiltonian(two_spin_system, profile, default_grid, 2)
    assert toy.space.n_osc == 144 and toy.dim == 42_340
    with pytest.raises(ResourceError, match="518665 x spin 4"):
        build_hamiltonian(two_spin_system, profile, default_grid, 3)


def _reference_fock_basis(n_osc, n_max):
    """Basis as a tuple list with a tuple -> index dict, sector by sector."""
    states, offsets = [], []
    for n in range(n_max + 1):
        offsets.append(len(states))
        states.extend(combinations_with_replacement(range(n_osc), n))
    return states, {s: i for i, s in enumerate(states)}, offsets


def _reference_creation_entries(n_osc, n_max, v):
    """Creation entries built branch by branch: 0 -> 1 and 1 -> 2 in closed
    form, higher sectors one state and one oscillator at a time."""
    states, index, offsets = _reference_fock_basis(n_osc, n_max)
    rows, cols, vals = [], [], []
    rows.append(np.arange(1, 1 + n_osc))
    cols.append(np.zeros(n_osc, dtype=int))
    vals.append(v.copy())
    if n_max >= 2:
        # pair (i <= j) has index i*n_osc - i(i-1)/2 + (j - i)
        i_ = np.repeat(np.arange(n_osc), n_osc)
        o_ = np.tile(np.arange(n_osc), n_osc)
        lo = np.minimum(i_, o_)
        hi = np.maximum(i_, o_)
        rows.append(offsets[2] + lo * n_osc - lo * (lo - 1) // 2 + (hi - lo))
        cols.append(1 + i_)
        vals.append(np.where(i_ == o_, math.sqrt(2.0), 1.0) * v[o_])
    for n in range(2, n_max):
        for col in range(offsets[n], offsets[n + 1]):
            s = states[col]
            for o in range(n_osc):
                rows.append(np.array([index[tuple(sorted(s + (o,)))]]))
                cols.append(np.array([col]))
                vals.append(np.array([v[o] * math.sqrt(s.count(o) + 1.0)]))
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals).astype(complex))


@pytest.mark.parametrize("n_radial, n_angular, n_max", [
    (2, 6, 1), (2, 6, 2), (2, 6, 3), (4, 6, 2)])
def test_fock_ladder_matches_reference(profile, n_radial, n_angular, n_max):
    grid = build_mode_grid(profile, n_radial, n_angular)
    space = build_fock_space(_oscillator_omega(grid), n_max)
    states, _, offsets = _reference_fock_basis(space.n_osc, n_max)
    assert [tuple(int(o) for o in row) for occ in space.sectors
            for row in occ] == states
    assert space.sector_offsets == offsets
    assert np.array_equal(space.n_total, [len(s) for s in states])

    site = SpinSystem(positions=[[0.3, -0.1, 0.2]], moments=[1.0])
    v = _mode_couplings(site, profile, grid)[1][1]  # sigma_2 of the site
    rows, cols, vals = _reference_creation_entries(space.n_osc, n_max, v)
    T = sp.csr_matrix((vals / math.sqrt(2.0), (rows, cols)),
                      shape=(len(states),) * 2)
    expected = T + T.conj().T
    got = segal_field(space, v)
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert got.data.tobytes() == expected.data.tobytes()

    # one site couples to 3 oscillators per shell, each at the shell's |k|
    single = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[0.6])
    toy = build_hamiltonian(single, profile, grid, n_max)
    omega_osc = toy.space.omega_osc
    assert np.array_equal(omega_osc, np.repeat(grid.radius, 3))
    states, _, _ = _reference_fock_basis(3 * n_radial, n_max)
    reference = np.array([sum(omega_osc[o] for o in s) for s in states])
    assert toy.h.diagonal().tobytes() \
        == np.repeat(reference, 2).astype(complex).tobytes()


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_one_pass_interaction_matches_kron_sum(profile, s, n_max):
    # H's off-diagonal part against sum_a M_a Phi_S(W_a) (x) S_a, one
    # Segal field per row of the shell factors; n_max = 3 reaches the
    # n >= 3 ladder steps.  At every P the triangular shell factors put
    # exact zeros into the spin blocks, which must not reach H's pattern.
    # P runs up to 3 where the Fock space fits its budgets.
    grid = build_mode_grid(profile, 2, 6)
    for P in (1, 2, 3):
        system = SpinSystem(
            positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4],
                       [-0.5, 0.7, 0.2]][:P],
            moments=[0.8, -0.5, 0.3][:P], s=s)
        try:
            toy = build_hamiltonian(system, profile, grid, n_max)
        except ResourceError:  # P = 3: s = 3/2 at n_max = 3, 5/2 from 2
            continue
        S = [S_a for site in kron_site_spins(s, P) for S_a in site]
        ref = sp.csr_matrix(toy.h.shape, dtype=complex)
        for a, w in enumerate(toy.coupling):
            ref = ref + system.moments[a // 3] * sp.kron(
                _scipy_csr(segal_field(toy.space, w)),
                sp.csr_matrix(S[a]), format="csr")
        rows = toy.h._row_ids()
        off = rows != toy.h.indices
        got = CSRMatrix.from_entries(rows[off], toy.h.indices[off],
                                     toy.h.data[off], toy.h.shape)
        ref.sum_duplicates()
        assert np.array_equal(got.indptr, ref.indptr), P
        assert np.array_equal(got.indices, ref.indices), P
        assert np.all(got.data != 0.0), P
        scale = np.abs(got.data).max()
        assert scale > 0.0
        assert np.abs(got.data - ref.data).max() <= 1e-15 * scale, P


def _scipy_csr(m):
    """scipy's CSR matrix of the arrays of a CSRMatrix."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def _full_grid_hamiltonian(system, profile, grid, n_max):
    """H on all 2N (mode, polarization) oscillators of the grid.

    The reference for build_hamiltonian, which keeps only the coupled
    oscillators of each shell: here each site spin component gets one
    Segal field on its full row of _mode_couplings.
    """
    spin_dim = system.spin_dim
    omega, V = _mode_couplings(system, profile, grid)
    space = build_fock_space(omega, n_max, spin_dim)
    S = [S_a for site in kron_site_spins(system.s, system.P) for S_a in site]
    h_free = sp.kron(
        sp.diags(np.concatenate([space.omega_osc[occ].sum(axis=1)
                                 for occ in space.sectors])),
        sp.identity(spin_dim), format="csr")
    h_int = sp.csr_matrix((space.dim * spin_dim,) * 2, dtype=complex)
    for a, v in enumerate(V):
        h_int = h_int + system.moments[a // 3] * sp.kron(
            _scipy_csr(segal_field(space, v)), sp.csr_matrix(S[a]),
            format="csr")
    # too large to make dense: the CSRMatrix of scipy's canonical arrays
    h = h_free + h_int
    rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    return ToyHamiltonian(
        h=CSRMatrix.from_entries(rows, h.indices, h.data, h.shape),
        space=space, spin_dim=spin_dim, coupling=V)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(s=st.sampled_from([0.5, 1.0, 1.5]), P=st.sampled_from([1, 2]),
       n_max=st.sampled_from([1, 2, 3]), n_radial=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 16))
@example(s=0.5, P=1, n_max=2, n_radial=2, seed=0)  # the multiplet at n_max=2
@example(s=0.5, P=1, n_max=3, n_radial=2, seed=1)  # full 135,050
def test_reduced_hamiltonian_matches_full_grid(profile, s, P, n_max,
                                               n_radial, seed):
    """The ground state is exact, and so is the whole Feshbach map: the
    dropped oscillators do not reach the vacuum, so QHP and F(E) are
    the same on both spaces."""
    grid = build_mode_grid(profile, n_radial, 6)
    spin_dim = round(2 * s + 1) ** P
    full_dim = spin_dim * sum(math.comb(2 * grid.n_modes + n - 1, n)
                              for n in range(n_max + 1))
    assume(full_dim <= 140_000)
    rng = np.random.default_rng(seed)
    system = SpinSystem(
        positions=np.vstack([np.zeros(3), rng.uniform(-1.0, 1.0, (1, 3))])[:P],
        moments=rng.choice([-1.0, 1.0], P) * rng.uniform(0.3, 1.0, P), s=s)
    reduced = build_hamiltonian(system, profile, grid, n_max)
    full = _full_grid_hamiltonian(system, profile, grid, n_max)
    assert reduced.space.n_osc == n_radial * min(3 * P, 2 * grid.n_modes
                                                 // n_radial)
    got, got_v, _ = ground_state(reduced.matrix(), spin_dim=spin_dim)
    exact, exact_v, _ = ground_state(full.matrix(), spin_dim=spin_dim)
    assert abs(got - exact) <= 1e-12 * abs(exact)
    assert photon_number(reduced, got_v) == pytest.approx(
        photon_number(full, exact_v), rel=1e-12)
    # CG on the full space takes seconds past a few 10^4 states
    if full_dim <= 30_000:
        lam = fock._feshbach(reduced.matrix(), exact, spin_dim, 1e-10)[0]
        lam_full = fock._feshbach(full.matrix(), exact, spin_dim,
                                  1e-10)[0]
        assert np.abs(lam - lam_full).max() <= 1e-12 * abs(exact)


def test_ground_state_returns_one_pair(profile, small_grid, two_spin_system):
    toy = build_hamiltonian(two_spin_system, profile, small_grid, 2)
    energy, vec, res = ground_state(toy.matrix(0.3), spin_dim=toy.spin_dim)
    assert type(energy) is float and type(res) is float
    assert vec.shape == (toy.dim,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert res <= fock.DEFAULT_EIGENSOLVER_TOL


def test_ground_state_diagonal_and_free(profile, small_grid, two_spin_system):
    energy, vec, res = ground_state(np.diag([3.0, -2.0, 5.0, 0.5]))
    assert energy == pytest.approx(-2.0, abs=1e-14)
    toy = build_hamiltonian(two_spin_system.with_moments([0.0, 0.0]), profile,
                            small_grid, 1)
    energy, vec, res = ground_state(toy.matrix(), tol=1e-10, spin_dim=4)
    assert abs(energy) <= 1e-10
    assert res <= 1e-10
    # free H: QHP = 0, so F(0) = 0 and the ground level is the spin space
    lam, X, Z = fock._feshbach(toy.matrix(), 0.0, 4, 1e-10)
    assert np.array_equal(lam, np.zeros(4))
    assert not Z.any()


def _laplacian(n):
    """The n x n second-difference matrix, dense."""
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


@pytest.mark.parametrize("spin_dim", [1, 4])
def test_ground_state_on_laplacian(spin_dim):
    # constant diagonal: the preconditioner is a multiple of 1 and the start
    # picks the first spin_dim rows; no stub, the solve runs in full
    laplacian = _laplacian(64)
    exact = 2.0 - 2.0 * math.cos(math.pi / 65)
    energy, vec, res = ground_state(laplacian, spin_dim=spin_dim)
    assert abs(energy - exact) <= 1e-12 * exact
    assert res <= fock.DEFAULT_EIGENSOLVER_TOL


def test_ground_state_no_convergence(monkeypatch):
    def stalled(H, X, *args):  # hands back its start vector unimproved
        return X, 1000

    monkeypatch.setattr("spinrad.fock._lobpcg", stalled)
    with pytest.raises(ConvergenceError, match="above tolerance"):
        ground_state(_laplacian(64))


@pytest.mark.parametrize("shift", [1e-9, np.nan])
def test_ground_state_rejects_residual_above_tol(monkeypatch, shift):
    # the energy is the Rayleigh quotient of the vector handed back, so the
    # fault is in the vector: the ground eigenvector tilted towards the next
    # one, residual `shift` (1e-9 against the 1e-10 default tolerance) or NaN
    d = np.linspace(-1.0, 2.0, 64)

    def off(H, X, *args):
        v = np.eye(64)[0]
        v[1] = shift / (d[1] - d[0])
        return v, 1

    monkeypatch.setattr("spinrad.fock._lobpcg", off)
    with pytest.raises(ConvergenceError, match="above tolerance"):
        ground_state(np.diag(d))


def test_ground_state_deterministic(profile, default_grid, two_spin_system):
    toy = build_hamiltonian(two_spin_system, profile, default_grid, 2)
    H = toy.matrix(0.3)
    v1 = ground_state(H, spin_dim=4)
    v2 = ground_state(H, spin_dim=4)
    assert np.array_equal(v1[0], v2[0])
    assert np.array_equal(v1[1], v2[1])
    f1 = fock._feshbach(H, v1[0], 4, 1e-10)
    f2 = fock._feshbach(H, v1[0], 4, 1e-10)
    assert all(np.array_equal(a, b) for a, b in zip(f1, f2))


def _schur_energies(system, profile, grid, t):
    """Eigenvalues of H(t) below the photon continuum at n_max = 1, ascending.

    There H = [[0, t B^dag], [t B, Omega (x) I]] with B the vacuum ->
    one-photon block of h_int, and E < omega_min is an eigenvalue exactly
    when it is one of F(E) = -t^2 B^dag (Omega - E)^-1 B (Feshbach-Schur;
    Bach, Chen, Froehlich & Sigal, J. Funct. Anal. 203 (2003) 44).  Every
    eigenvalue branch of F decreases in E, so branch j meets the diagonal
    once, in (-2 t |B|_F, 0]: one root per spin state, multiplicities
    included.  B is built on all 2N oscillators of the grid, from
    _mode_couplings and the site spins, not from build_hamiltonian.
    """
    sd = system.spin_dim
    S = [S_a for site in kron_site_spins(system.s, system.P) for S_a in site]
    omega, V = _mode_couplings(system, profile, grid)
    B = sum(system.moments[a // 3] / math.sqrt(2.0) * np.kron(
        V[a][:, None], S[a]) for a in range(3 * system.P))
    omega = np.repeat(omega, sd)

    def branch_minus_e(E, j):
        F = -t * t * (B.conj().T @ (B / (omega - E)[:, None]))
        return np.linalg.eigvalsh(F)[j] - E

    lo = -2.0 * t * np.linalg.norm(B)
    return np.array([brentq(branch_minus_e, lo, 0.0, args=(j,), xtol=1e-300,
                            rtol=4 * np.finfo(float).eps)
                     for j in range(sd)])


@pytest.mark.parametrize("grid_name", ["default_grid", "small_grid"])
def test_ground_state_matches_schur_oracle(request, profile, two_spin_system,
                                           grid_name):
    grid = request.getfixturevalue(grid_name)
    toy = build_hamiltonian(two_spin_system, profile, grid, 1)
    for t in (0.4, 0.2, 0.1, 0.05):
        energy = ground_state(toy.matrix(t), spin_dim=toy.spin_dim)[0]
        exact = _schur_energies(two_spin_system, profile, grid, t)[0]
        assert abs(energy - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("positions, s", [
    ([[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]], 0.5),  # degenerate A_M ground pair
    ([[0.0, 0.0, 0.0]], 0.5),
    ([[0.0, 0.0, 0.0]], 1.0),
    ([[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]], 1.5)])
def test_one_column_solve_matches_dense(profile, monkeypatch, positions, s):
    # 6 shells: one spin-1/2 site couples to 3 oscillators per shell, so H
    # has dimension 38; every solve is one LOBPCG column from the dressed
    # vacuum.
    grid = build_mode_grid(profile, 6, 6)
    system = SpinSystem(positions=positions, moments=np.ones(len(positions)),
                        s=s)
    toy = build_hamiltonian(system, profile, grid, 1)
    shapes = []
    solve = fock._lobpcg

    def recorded(H, X, *args):
        shapes.append(X.shape)
        return solve(H, X, *args)

    monkeypatch.setattr("spinrad.fock._lobpcg", recorded)
    for t in (0.4, 0.2, 0.1, 0.05):
        H = toy.matrix(t)
        one = ground_state(H, spin_dim=toy.spin_dim)[0]
        v = np.linalg.eigh(H.toarray())[1][:, 0]
        dense = np.vdot(v, H @ v).real  # eigh's eigenvalue carries eps |H|
        assert abs(one - dense) <= 1e-12 * abs(dense)
    assert shapes == [(toy.dim,)] * 4


def test_one_column_solve_on_diagonal():
    # QHP = 0, so the dressed start is the unit vector on the smallest entry.
    d = np.random.default_rng(5).permutation(np.linspace(-1.0, 2.0, 64))
    energy, vec, _ = ground_state(np.diag(d), spin_dim=4)
    assert energy == -1.0
    assert abs(vec[np.argmin(d)]) == pytest.approx(1.0, abs=1e-14)


def _recorded_steps(monkeypatch):
    """The step count of every _lobpcg call from here on, in call order."""
    steps = []
    solve = fock._lobpcg

    def recorded(H, X, *args):
        vec, n = solve(H, X, *args)
        steps.append(n)
        return vec, n

    monkeypatch.setattr("spinrad.fock._lobpcg", recorded)
    return steps


@pytest.mark.parametrize("case", ["default_grid", "small_grid",
                                  "single_spin"])
def test_n_max_one_solves_end_at_step_zero(request, profile, monkeypatch,
                                           two_spin_system, case):
    # at n_max = 1 QHQ is diagonal, so the start at the root of the
    # Feshbach map is H's ground vector and LOBPCG has nothing to do
    if case == "single_spin":
        cfg = parse_config((CONFIGS / "single_spin.yaml").read_text())
        assert cfg.grids["n_max"] == 1
        system, profile = cfg.system(), cfg.profile()
        grid = build_mode_grid(profile, cfg.grids["n_radial"],
                               cfg.grids["n_angular"])
    else:
        system, grid = two_spin_system, request.getfixturevalue(case)
    steps = _recorded_steps(monkeypatch)
    quadratic_fit(system, profile, grid, 1, [0.4, 0.2, 0.1, 0.05])
    multiplicity_scan(system.with_moments(np.ones(system.P)), profile, grid,
                      1, [0.4, 0.2, 0.1])
    assert steps == [0] * 7


def test_cutoff_100_fit_solves_in_few_steps(two_spin_system, monkeypatch):
    # the test cluster at cutoff 100, where every scale of H is 100 times
    # that at cutoff 1: the preconditioner must take its scales from H
    profile = CutoffProfile(100.0)
    system = SpinSystem(positions=two_spin_system.positions / 100.0,
                        moments=two_spin_system.moments, s=0.5)
    steps = _recorded_steps(monkeypatch)
    quadratic_fit(system, profile, build_mode_grid(profile, 4, 6), 2,
                  [0.4, 0.2, 0.1, 0.05], tol=1e-9)
    assert len(steps) == 4 and max(steps) < 100


def test_solver_stall_census_seed_zero():
    # 1,400 random Hermitian matrices of dim 1-7 and norm 1e-3-1e4: every
    # solve passes the residual gate with eigvalsh's lowest energy
    spec = importlib.util.spec_from_file_location(
        "solver_stall_census", SCRIPTS / "solver_stall_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    rows = census.census(0)
    assert len(rows) == 1400
    assert [r for r in rows if not census.right(r[3])] == []


@pytest.mark.parametrize("grid_name", ["default_grid", "small_grid"])
def test_dressed_start_sits_at_the_schur_root(request, profile,
                                              two_spin_system, grid_name):
    grid = request.getfixturevalue(grid_name)
    toy = build_hamiltonian(two_spin_system, profile, grid, 1)
    for t in (0.4, 0.2, 0.1, 0.05):
        H = toy.matrix(t)
        v = fock._dressed_start(H, H.diagonal().real, toy.spin_dim)[0]
        root = np.vdot(v, H @ v).real
        exact = _schur_energies(two_spin_system, profile, grid, t)[0]
        assert abs(root - exact) <= 1e-13 * abs(exact)
        assert np.linalg.norm(H @ v - root * v) \
            <= fock.DEFAULT_EIGENSOLVER_TOL / 100


def _coupled(d, pairs):
    """diag(d) plus the real symmetric couplings (i, j, value) of pairs."""
    H = np.diag(np.asarray(d, dtype=float))
    for i, j, c in pairs:
        H[i, j] = H[j, i] = c
    return H


@pytest.mark.parametrize("spin_dim", [1, 4])
@pytest.mark.parametrize("H", [
    # the smallest entry repeats five times, so an uncoupled Q state ties
    # with P at spin_dim 1 and 4: diagonal, and with P coupled higher up
    _coupled([0.7, -1.0, 2.0, -1.0, -1.0, -1.0, -1.0, 0.3], []),
    # (every coupled state is joined to the start: ground_state refuses a
    # reducible H, test_reducible_h_is_refused_wherever_its_ground_lies)
    _coupled([0.7, -1.0, 2.0, -1.0, -1.0, -1.0, -1.0, 0.3],
             [(1, 2, 0.4), (3, 7, -0.2), (2, 7, 0.05)]),
    # a P row coupled to the smallest Q entry, tied with P or above it
    _coupled([0.0, 0.0, 1.5, 0.9, 0.0, 0.0, 0.0, 2.0], [(0, 1, 0.3)]),
    _coupled([-0.5, 0.0, 1.5, 0.9, -0.5, -0.5, -0.5, 2.0],
             [(0, 1, 0.3), (4, 1, 0.1), (2, 3, 1.0), (1, 3, 0.2)])],
    ids=["diagonal-tie", "coupled-tie", "p-to-q-tie", "p-to-q"])
def test_dressed_start_edge_cases(H, spin_dim):
    v, precond = fock._dressed_start(CSRMatrix.of(H), H.diagonal().real,
                                     spin_dim)
    assert np.all(np.isfinite(v))
    assert np.all(np.isfinite(precond) & (precond > 0.0))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    energy, _, res = ground_state(H, spin_dim=spin_dim)
    exact = np.linalg.eigvalsh(H)[0]
    assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact))
    assert res <= fock.DEFAULT_EIGENSOLVER_TOL


@pytest.mark.parametrize("H", [
    _coupled([0.0, 0.5, 0.5], [(1, 2, 1.0)]),
    _coupled([0.0, 0.0, 0.5, 0.5], [(1, 3, 0.1), (2, 3, 1.0)]),
    _coupled([0.0, 0.5, 0.5, 0.5], [(0, 1, 0.1), (2, 3, 1.0)])],
    ids=["3x3", "4x4", "4x4-coupled-start"])
def test_decoupled_start_raises(H):
    # state 0, the start, couples to no other state or only within its own
    # block, and the block it cannot reach holds the ground level: the
    # start's own eigenpair, at 0 or -0.0193, would pass the residual gate
    assert np.linalg.eigvalsh(H)[0] < -0.49
    with pytest.raises(DomainError, match="decoupled"):
        ground_state(H)


@pytest.mark.parametrize("H, spin_dim, unreached", [
    (_coupled([0.7, -1.0, 2.0, -1.0, -1.0, -1.0, -1.0, 0.3],
              [(1, 2, 0.4), (3, 7, -0.2)]), 1, [3, 7]),
    (_coupled([-0.5, 0.0, 1.5, 0.9, -0.5, -0.5, -0.5, 2.0],
              [(0, 1, 0.3), (4, 1, 0.1), (2, 3, 1.0)]), 1, [2, 3]),
    (_coupled([-0.5, 0.0, 1.5, 0.9, -0.5, -0.5, -0.5, 2.0],
              [(0, 1, 0.3), (4, 1, 0.1), (2, 3, 1.0)]), 4, [2, 3])],
    ids=["coupled-tie-1", "p-to-q-1", "p-to-q-4"])
def test_reducible_h_is_refused_wherever_its_ground_lies(H, spin_dim,
                                                         unreached):
    # the start's block holds the ground level here, but a walk of the
    # pattern cannot tell, so a coupled block it does not reach is refused
    rest = np.setdiff1d(np.arange(len(H)), unreached)
    assert np.linalg.eigvalsh(H[np.ix_(rest, rest)])[0] \
        == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-14)
    assert CSRMatrix.of(H).unreached(
        np.argsort(H.diagonal(), kind="stable")[:spin_dim]).tolist() \
        == unreached
    with pytest.raises(DomainError, match="decoupled"):
        ground_state(H, spin_dim=spin_dim)


def test_dressed_start_ends_when_steps_round_away(monkeypatch):
    # this draw's start has more weight on Q than on P (|z|^2 = 1.07), so
    # at the root a one-ulp residual of g gives a Newton step below half an
    # ulp of E: E stops moving while the step is still negative.  The
    # Newton loop must end on its own stop rule, not on its step limit;
    # counting the eigh calls also turns an endless loop into a failure.
    rng = np.random.default_rng(914)
    X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    A = X + X.conj().T
    eigh, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) < fock.MAX_START_NEWTON_STEPS
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    v = fock._dressed_start(CSRMatrix.of(A), A.diagonal().real, 3)[0]
    monkeypatch.undo()
    assert np.all(np.isfinite(v))
    p = np.argsort(A.diagonal().real, kind="stable")[:3]
    assert np.linalg.norm(v[p]) ** 2 < 0.5
    energy, _, res = ground_state(A, spin_dim=3)
    assert abs(energy - np.linalg.eigvalsh(A)[0]) <= 1e-12 * 10.0
    assert res <= fock.DEFAULT_EIGENSOLVER_TOL


def test_dressed_start_off_the_pole():
    # P = states 0, 1 couples within itself, so the P vector (1, 1)/sqrt 2
    # that reaches state 2 sits at 1 > 0.5, and reaches it only with
    # 1e-20: the 2x2 lower eigenvalue 0.5 - 4e-40 rounds onto the pole at
    # D = 0.5, and the first Newton energy is the float below it
    H = _coupled([0.0, 0.0, 0.5, 3.0], [(0, 1, 1.0), (0, 2, 1e-20),
                                        (1, 2, 1e-20)])
    v = fock._dressed_start(CSRMatrix.of(H), H.diagonal().real, 2)[0]
    assert np.all(np.isfinite(v))
    energy, vec, res = ground_state(H, spin_dim=2)
    assert energy == pytest.approx(-1.0, abs=1e-15)
    assert res <= fock.DEFAULT_EIGENSOLVER_TOL


def test_multiplicity_scan_needs_equal_moments(profile, small_grid):
    # unequal moments of any size, however small
    system = SpinSystem(positions=[[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]],
                        moments=[1e-14, 2e-14])
    with pytest.raises(DomainError, match="equal moments"):
        multiplicity_scan(system, profile, small_grid, 1, [0.2])


@pytest.mark.parametrize("positions, s, expected", [
    ([[0.0, 0.0, 0.0]], 0.5, 2),                     # Kramers pair
    ([[0.0, 0.0, 0.0]], 1.0, 3),                     # one spin-1 site
    ([[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]], 0.5, 2),   # two_spins_equal pair
    ([[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]], 1.0, 2)])  # its spin-1 pair
@pytest.mark.parametrize("n_max, n_radial", [(1, 6), (2, 2)])
def test_multiplicity_matches_dense(profile, positions, s, expected, n_max,
                                    n_radial):
    """Energy, cluster count and overlap of the Feshbach route against a
    dense eigh of H; at n_max = 2 QHQ is not diagonal and the CG runs.
    The pair's A_1 ground level is degenerate on 12 azimuths, not on 6.
    The spin-1 pair's A_1 basis comes back from its real site basis, so
    its overlaps check that rotation."""
    grid = build_mode_grid(profile, n_radial, 12)
    system = SpinSystem(positions=positions, moments=np.ones(len(positions)),
                        s=s)
    g_points = [0.1, 0.3, 1.0, 2.0]
    rows = multiplicity_scan(system, profile, grid, n_max, g_points)
    toy = build_hamiltonian(system, profile, grid, n_max)
    _, _, basis = ground_eigenspace(
        discrete_am(system, toy.space.omega_osc, toy.coupling, vectors=True))
    for g, r in zip(g_points, rows):
        H = toy.matrix(g).toarray()
        w, V = np.linalg.eigh(H)
        width = DEFAULT_DEGENERACY_TOL * max(g * g, abs(w[0]))
        cluster = V[:, w <= w[0] + width]
        assert r.mult_h == cluster.shape[1] == expected
        # eigh's eigenvalue carries eps |H|; its vector's Rayleigh quotient
        # is good to eps |E_0|
        energy = np.vdot(V[:, 0], H @ V[:, 0]).real
        assert abs(r.energy - energy) <= 1e-12 * abs(energy)
        overlap = np.sum(np.abs(basis.conj().T @ cluster[:toy.spin_dim]) ** 2,
                         axis=0).min()
        assert r.min_overlap == pytest.approx(overlap, abs=1e-12)
    # the dressed ground states leave A_1's ground level at order g^2
    assert rows[0].min_overlap > 0.99


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.sampled_from([0.5, 1.0, 1.5]), P=st.sampled_from([1, 2]),
       n_radial=st.integers(2, 4), n_max=st.sampled_from([1, 2]),
       g=st.floats(0.05, 2.0), seed=st.integers(0, 2 ** 16))
def test_ground_solve_and_multiplicity_match_dense(profile, s, P, n_radial,
                                                   n_max, g, seed):
    """Energy and cluster count of multiplicity_scan against a dense eigh
    of H(g 1) on random sites, spins, grids and photon caps."""
    spin_dim = round(2 * s + 1) ** P
    n_osc = 3 * P * n_radial
    assume(spin_dim * math.comb(n_osc + n_max, n_max) <= 600)
    rng = np.random.default_rng(seed)
    system = SpinSystem(
        positions=np.vstack([np.zeros(3), rng.uniform(-1.0, 1.0, (1, 3))])[:P],
        moments=np.ones(P), s=s)
    grid = build_mode_grid(profile, n_radial, 12)
    row, = multiplicity_scan(system, profile, grid, n_max, [g])
    H = build_hamiltonian(system, profile, grid, n_max).matrix(g)
    w, V = np.linalg.eigh(H.toarray())
    # eigh's eigenvalue carries eps |H|; its vector's Rayleigh quotient
    # is good to eps |E_0|
    energy = np.vdot(V[:, 0], H @ V[:, 0]).real
    assert abs(row.energy - energy) <= 1e-12 * abs(energy)
    # the window of multiplicity_scan: g^2 times that of A_1's own cluster
    width = DEFAULT_DEGENERACY_TOL * g * g * np.abs(row.a_disc).max()
    assert row.mult_h == int(np.sum(w <= w[0] + width))


@pytest.mark.parametrize("positions, s, expected", [
    ([[0.0, 0.0, 0.0]], 0.5, 2),
    ([[0.0, 0.0, 0.0]], 1.0, 3),
    ([[0.0, 0.0, 0.0], [0.9, -0.3, 0.4]], 0.5, 2)])
def test_multiplicity_matches_schur_oracle(profile, default_grid, positions,
                                           s, expected):
    system = SpinSystem(positions=positions, moments=np.ones(len(positions)),
                        s=s)
    for r in multiplicity_scan(system, profile, default_grid, 1, [0.2, 0.1]):
        exact = _schur_energies(system, profile, default_grid, r.g)
        width = DEFAULT_DEGENERACY_TOL * r.g * r.g * np.abs(r.a_disc).max()
        assert r.mult_h == int(np.sum(exact <= exact[0] + width)) == expected
        assert r.mult_h <= r.mult_a1
        assert abs(r.energy - exact[0]) <= 1e-12 * abs(exact[0])


def test_multiplicity_solves_one_column(profile, monkeypatch):
    # configs/single_spin.yaml: 146 states, the Kramers pair found from one
    # ground-state column; at n_max = 1 QHQ is diagonal and the Feshbach CG
    # takes no step, so a step limit of 0 does not stop it
    cfg = parse_config((CONFIGS / "single_spin.yaml").read_text())
    grid = build_mode_grid(cfg.profile(), cfg.grids["n_radial"],
                           cfg.grids["n_angular"])
    solves = []
    solve = fock._lobpcg

    def recorded(H, X, *args):
        vec, steps = solve(H, X, *args)
        solves.append((H.shape[0], X.shape, steps))
        return vec, steps

    monkeypatch.setattr("spinrad.fock._lobpcg", recorded)
    monkeypatch.setattr("spinrad.fock.MAX_CG_STEPS", 0)
    rows = multiplicity_scan(cfg.system(), cfg.profile(), grid,
                             cfg.grids["n_max"], [0.4, 0.2, 0.1])
    assert [r.mult_h for r in rows] == [2, 2, 2]
    assert [(dim, shape) for dim, shape, _ in solves] == [(146, (146,))] * 3
    assert all(steps <= 50 for _, _, steps in solves)


def test_feshbach_catches_a_missed_ground_state(profile, default_grid,
                                                monkeypatch):
    # an energy above E_0 leaves an eigenvalue of F below it
    solve = fock.ground_state

    def excited(*args, **kwargs):
        energy, vec, res = solve(*args, **kwargs)
        return 0.5 * energy, vec, res

    monkeypatch.setattr("spinrad.fock.ground_state", excited)
    pair = SpinSystem(positions=[[0, 0, 0], [0.9, -0.3, 0.4]],
                      moments=[1.0, 1.0])
    with pytest.raises(ConvergenceError, match="below the ground energy"):
        multiplicity_scan(pair, profile, default_grid, 1, [0.2])


def test_feshbach_finds_degenerate_pair(profile, default_grid):
    pair = SpinSystem(positions=[[0, 0, 0], [0.9, -0.3, 0.4]],
                      moments=[1.0, 1.0])
    toy = build_hamiltonian(pair, profile, default_grid, 1)
    H = toy.matrix(0.1)
    exact = _schur_energies(pair, profile, default_grid, 0.1)
    # E is an eigenvalue of H exactly when it is one of F(E)
    for e in exact[:3]:
        lam = fock._feshbach(H, e, toy.spin_dim, 1e-10)[0]
        assert np.abs(lam - e).min() <= 1e-12 * abs(exact[0])
    width = DEFAULT_DEGENERACY_TOL * abs(exact[0])
    assert exact[1] - exact[0] <= width < exact[2] - exact[0]
    row, = multiplicity_scan(pair, profile, default_grid, 1, [0.1])
    assert row.mult_h == 2
    assert abs(row.energy - exact[0]) <= 1e-12 * abs(exact[0])
    # the dressed pair X (+) -Z X is orthogonal and solves H to the window
    lam, X, Z = fock._feshbach(H, row.energy, toy.spin_dim, 1e-10)
    psi = -(Z.T @ X[:, :2])
    psi[:toy.spin_dim] = X[:, :2]
    psi /= np.linalg.norm(psi, axis=0)
    assert abs(np.vdot(psi[:, 0], psi[:, 1])) <= 1e-12
    assert np.linalg.norm(H @ psi - row.energy * psi, axis=0).max() <= width


def test_variational_trial_identity(profile, small_grid, two_spin_system):
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = random_state(rng, 4)
        tc = variational_trial_check(two_spin_system, profile, small_grid, X)
        assert tc.residual <= 1e-10
        assert tc.u_norm_dh <= tc.k_bound \
            * np.linalg.norm(two_spin_system.moments) + 1e-12


def test_discrete_k_bound_matches_reference(profile, small_grid):
    system = SpinSystem(positions=[[0, 0, 0], [0.7, -0.2, 0.4], [0, 1.1, 0]],
                        moments=[0.8, -0.5, 0.3], s=0.5)
    P, M = system.P, system.moments
    # Gram matrix term by term over all (3P)^2 ordered pairs of site spins
    emb = kron_site_spins(system.s, P)
    omega, V = _mode_couplings(system, profile, small_grid)
    vs, inv_w = V.reshape(P, 3, -1), 1.0 / omega
    G = np.zeros((system.spin_dim,) * 2, dtype=complex)
    for lam in range(P):
        for m in range(3):
            for lam2 in range(P):
                for m2 in range(3):
                    ip = np.vdot(vs[lam][m], vs[lam2][m2]) \
                        + np.vdot(inv_w * vs[lam][m], inv_w * vs[lam2][m2])
                    G += 0.5 * M[lam] * M[lam2] * ip \
                        * (emb[lam][m].conj().T @ emb[lam2][m2])
    expected = math.sqrt(np.linalg.eigvalsh(G)[-1]) / np.linalg.norm(M)
    assert _discrete_k_bound(system, *shell_couplings(system, profile,
                                                      small_grid)) \
        == pytest.approx(expected, rel=1e-12)


def test_variational_trial_zero_moments(profile, small_grid):
    system = SpinSystem(positions=[[0, 0, 0], [1, 0, 0]], moments=[0.0, 0.0])
    tc = variational_trial_check(system, profile, small_grid,
                                 np.array([1.0, 0, 0, 0]))
    assert tc.lhs == 0.0 and tc.rhs == 0.0


def test_photon_number_basics(profile, small_grid, two_spin_system):
    toy = build_hamiltonian(two_spin_system, profile, small_grid, 1)
    rng = np.random.default_rng(3)
    e0x = toy.vacuum_embed(random_state(rng, 4))
    assert photon_number(toy, e0x) == 0.0
    one = np.zeros(toy.dim, dtype=complex)
    one[4 * 3] = 1.0  # first spin index of the third one-photon state
    assert photon_number(toy, one) == 1.0


def test_quadratic_fit_contract(profile, default_grid, two_spin_system):
    fit = quadratic_fit(two_spin_system, profile, default_grid, 1,
                        [0.4, 0.2, 0.1, 0.05])
    assert abs(fit.c2 - fit.a_disc_min) <= 0.02 * abs(fit.a_disc_min)
    assert fit.tolerance_limited or fit.residual_slope >= 2.7
    slope = np.polyfit(np.log(fit.scales), np.log(fit.photon_numbers), 1)[0]
    assert abs(slope - 2.0) <= 0.1
    for scales in ([0.4, 0.2], [np.nan, 0.2, 0.1, 0.05],
                   [np.inf, 0.2, 0.1, 0.05], [0.4, 0.2, 0.1, 0.0],
                   [0.1, 0.1, 0.1, 0.1], [0.4, 0.2, 0.05, 0.05]):
        with pytest.raises(DomainError, match="scale points"):
            quadratic_fit(two_spin_system, profile, default_grid, 1, scales)


@pytest.mark.parametrize("name, s, n_radial, n_angular, n_max", [
    ("two_spins", None, 2, 6, 1), ("two_spins", None, 2, 6, 2),
    ("two_spins", None, 2, 6, 3), ("two_spins", None, 24, 12, 1),
    ("single_spin", None, 2, 6, 3), ("two_spins_equal", None, 4, 6, 2),
    ("two_spins", 1.0, 2, 6, 2)])
def test_energies_in_operator_bracket(name, s, n_radial, n_angular, n_max):
    """t^2 lambda_min <= E(t) <= t^2 lambda_min / (1 + t^2 n2) at every t.

    With b_o = a_o + t C_o / omega_o, H(t) = sum_o omega_o b_o^dagger b_o
    + t^2 A_disc >= t^2 A_disc, also after truncation; the trial state
    Psi_0 (x) X - u of a ground vector X of A_disc has energy t^2 lambda_min
    and squared norm 1 + t^2 <X, N X>, N = sum_o C_o^2 / omega_o^2, and n2
    is the smallest eigenvalue of N on A_disc's ground eigenspace.  Each
    end gets roundoff slack only: the solves lay at least 2.4e-5 relative
    above the lower end and 1.9e-13 (t = 0.05, n_max = 1) below the upper.
    """
    cfg = parse_config((CONFIGS / f"{name}.yaml").read_text())
    system, profile = cfg.system(), cfg.profile()
    if s is not None:
        system = SpinSystem(positions=system.positions,
                            moments=system.moments, s=s)
    toy = build_hamiltonian(system, profile,
                            build_mode_grid(profile, n_radial, n_angular),
                            n_max)
    omega, W = toy.space.omega_osc, toy.coupling
    lam_min, _, basis = ground_eigenspace(
        discrete_am(system, omega, W, vectors=True))
    Mj = np.repeat(system.moments, 3)
    N = bilinear_spin_operator(
        0.5 * np.outer(Mj, Mj) * ((W / omega) @ (W / omega).T), system.s)
    n2 = np.linalg.eigvalsh(basis.conj().T @ N @ basis)[0]
    for t in [0.05, 0.1, 0.2, 0.4, 1.0, 2.0]:
        energy = ground_state(toy.matrix(t), spin_dim=toy.spin_dim)[0]
        lo = t * t * lam_min
        hi = lo / (1.0 + t * t * n2)
        assert lo - 1e-12 * abs(lo) - 1e-14 <= energy, t
        assert energy <= hi + 1e-12 * abs(hi) + 1e-14, t


@settings(max_examples=15, deadline=None, derandomize=True)
@given(cluster=st.sampled_from([(0.5, 1), (0.5, 3), (1.5, 1), (1.5, 3),
                                (2.5, 1)]),
       seed=st.integers(0, 2 ** 16))
def test_odd_time_reversal_gives_kramers_pairs_on_the_fock_route(profile,
                                                                 cluster,
                                                                 seed):
    # (2s) P odd: time reversal squares to -1 on the spin space and
    # commutes with H and A_1^disc, so every level of both is even
    s, P = cluster
    system = SpinSystem(
        positions=np.random.default_rng(seed).uniform(-1.0, 1.0, (P, 3)),
        moments=np.ones(P), s=s)
    grid = build_mode_grid(profile, 2, 6)
    for row in multiplicity_scan(system, profile, grid, 1, [0.1, 0.4, 1.0]):
        assert row.mult_h % 2 == 0 and row.mult_a1 % 2 == 0, row.g


def test_multiplicity_scan(profile, default_grid):
    single = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[1.0])
    rows = multiplicity_scan(single, profile, default_grid, 1, [0.2, 0.1])
    for r in rows:
        assert r.mult_h == 2
        assert r.mult_h <= r.mult_a1
    assert rows[-1].min_overlap >= 0.99
    pair = SpinSystem(positions=[[0, 0, 0], [0.9, -0.3, 0.4]],
                      moments=[1.0, 1.0])
    rows = multiplicity_scan(pair, profile, default_grid, 1, [0.2, 0.1])
    for r in rows:
        assert r.mult_h <= r.mult_a1
    assert rows[-1].min_overlap >= 0.99
    with pytest.raises(DomainError):
        multiplicity_scan(pair.with_moments([1.0, 0.5]), profile,
                          default_grid, 1, [0.1])
    # at g = 0 H is free and its whole ground level would count as mult_h
    for g in ([np.nan], [0.2, np.inf], [0.0, 0.1], [0.1, -0.0]):
        with pytest.raises(DomainError, match="nonzero finite g"):
            multiplicity_scan(pair, profile, default_grid, 1, g)
