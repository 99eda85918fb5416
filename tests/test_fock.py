import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import re
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
import scipy.sparse as sp
from scipy.special import spherical_jn
import yaml

from spinrad.cli import main
from spinrad.config import parse_config
from spinrad.cutoff import CutoffProfile, phi_eval
from spinrad.errors import ConvergenceError, DomainError, ResourceError
import spinrad.fock as fock
from spinrad.fock import MAX_TOTAL_DIM, ToyHamiltonian, _discrete_k_bound, \
    build_fock_space, build_hamiltonian, build_mode_grid, discrete_am, \
    ground_state, multiplicity_scan, photon_number, quadratic_fit, \
    segal_field, shell_couplings, variational_trial_check
from spinrad.kernel import a11_origin
from spinrad.spin_algebra import CSRMatrix
from spinrad.spin_operator import DEFAULT_DEGENERACY_TOL, SpinSystem, \
    assemble_am, bilinear_spin_operator, ground_eigenspace

from conftest import kron_site_spins, product_modes, projector_kernel, \
    random_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCRIPTS = CONFIGS.parent / "scripts"


def test_radial_rule_weight_sum(profile, default_grid):
    # oracle: 1D radial quadrature of int |phi|^2 dk; every shell carries
    # the whole sphere, 4 pi
    oracle = 4.0 * math.pi * integrate.quad(
        lambda r: phi_eval(profile, r) ** 2 * r * r, 0.0,
        profile.far_radius())[0]
    r = default_grid.radius
    total = 4.0 * math.pi * float(np.sum(
        default_grid.radial_weight * r * r * phi_eval(profile, r) ** 2))
    assert total == pytest.approx(oracle, rel=1e-11)
    assert oracle == pytest.approx(math.pi ** 1.5, rel=1e-10)


def test_grid_validation(profile):
    with pytest.raises(DomainError):
        build_mode_grid(profile, 1)


@pytest.mark.parametrize("n_radial", [2.5, True])
def test_grid_sizes_must_be_integers(profile, n_radial):
    with pytest.raises(DomainError, match="n_radial must be an integer"):
        build_mode_grid(profile, n_radial)


@pytest.mark.parametrize("n_max", [1.5, 2.0, True, None])
def test_fock_space_cap_must_be_an_integer(small_grid, n_max):
    with pytest.raises(DomainError, match="n_max must be an integer"):
        build_fock_space(small_grid.radius, n_max)
    assert build_fock_space(small_grid.radius, np.int64(1)).n_max == 1


def _loop_radial_rule(profile, n_radial):
    """Radial nodes and weights of the mode grid, one node at a time."""
    r_far = profile.far_radius()
    rn, rw = np.polynomial.legendre.leggauss(n_radial)
    return ([0.5 * r_far * (x + 1.0) for x in rn],
            [0.5 * r_far * w for w in rw])


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("n_radial", [2, 4, 5, 24, 96])
def test_radial_rule_matches_loop_reference(lam, n_radial):
    # the grid is its radial rule alone
    profile = CutoffProfile(lam)
    radius, weight = _loop_radial_rule(profile, n_radial)
    grid = build_mode_grid(profile, n_radial)
    assert [f.name for f in dataclasses.fields(grid)] \
        == ["radius", "radial_weight"]
    assert np.array_equal(grid.radius, radius)
    assert np.array_equal(grid.radial_weight, weight)


def _polarizations(k):
    """Orthonormal transverse frame (N, 2, 3) of each wavevector."""
    khat = k / np.linalg.norm(k, axis=1)[:, None]
    ref = np.where(np.abs(khat[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]],
                   [[1.0, 0.0, 0.0]])
    e1 = np.cross(khat, ref)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return np.stack([e1, np.cross(khat, e1)], axis=1)


def _mode_couplings(system, profile, grid, n_angular):
    """Couplings of the site spins to all 2N (mode, polarization) oscillators
    of the grid's shells times the angular product rule of product_modes.

    Returns (omega, V): the oscillator frequencies, and V (3P, 2N) complex
    with entry (3 lam + m, 2 i + a) = sqrt(w_i) <eps_ia, B_{m+1,x[lam]}(k_i)>,
    where B_{m,x}(k) = i phi(|k|) |k|^(1/2) (2 pi)^(-3/2) e^{-i k.x}
    (k x e_m)/|k| and <eps_ia, khat x e_m> = (eps_ia x khat)_m.
    """
    k, w = product_modes(grid, n_angular)
    r = np.linalg.norm(k, axis=1)
    amp = 1j * np.sqrt(w) * phi_eval(profile, r) * np.sqrt(r) \
        * (2.0 * math.pi) ** -1.5
    phase = amp * np.exp(-1j * (system.positions @ k.T))  # (P, N)
    cross = np.cross(_polarizations(k), k[:, None, :] / r[:, None, None],
                     axisc=0)  # (3, N, 2)
    V = phase[:, None, :, None] * cross  # (P, 3, N, 2)
    return np.repeat(r, 2), V.reshape(3 * system.P, 2 * len(w))


def _product_rule_gram(system, profile, grid, n_angular=64):
    """Gram matrix of each shell's couplings on the product rule,
    (n_radial, 3P, 3P) complex: sum over the shell's oscillators o of
    conj(V[a, o]) V[b, o], V of _mode_couplings.  Its 32 x 64 directions
    by default integrate the angular part to roundoff up to
    rho = r_s |x_lam - x_mu| of about 25."""
    V = _mode_couplings(system, profile, grid, n_angular)[1]
    V = V.reshape(3 * system.P, len(grid.radius), -1).transpose(1, 0, 2)
    return V.conj() @ V.transpose(0, 2, 1)


def _closed_gram(system, profile, grid):
    """G_s (n_radial, 3P, 3P) site pair by site pair from scipy's
    spherical Bessel functions: 4 pi c_s [(j0 - j1/rho) I + j2 d d^T]."""
    P, n = system.P, len(grid.radius)
    G = np.zeros((n, P, 3, P, 3))
    for s, (r, rw) in enumerate(zip(grid.radius, grid.radial_weight)):
        c = 4.0 * math.pi * rw * r ** 3 * float(phi_eval(profile, r)) ** 2 \
            * (2.0 * math.pi) ** -3
        for lam, x in enumerate(system.positions):
            for mu, y in enumerate(system.positions):
                dist = float(np.linalg.norm(x - y))
                if dist == 0.0:
                    G[s, lam, :, mu] = c * 2.0 / 3.0 * np.eye(3)
                    continue
                rho, d = r * dist, (x - y) / dist
                j0, j1, j2 = (spherical_jn(n_, rho) for n_ in range(3))
                G[s, lam, :, mu] = c * ((j0 - j1 / rho) * np.eye(3)
                                        + j2 * np.outer(d, d))
    return G.reshape(n, 3 * P, 3 * P)


def _shell_factors(W, n_radial):
    """W of shell_couplings as the stack (n_radial, 3P, 3P) of its W_s."""
    return W.reshape(len(W), n_radial, -1).transpose(1, 0, 2)


@pytest.mark.parametrize("lam", [0.7, 1.6])
@pytest.mark.parametrize("P", [1, 2, 3])
def test_shell_gram_matches_product_rule(lam, P):
    # the closed form, as W_s W_s^T and as written with scipy's Bessel
    # functions, against the angular sum of the plane-wave couplings of
    # every (direction, polarization) pair of a fine product rule; the
    # sites lie within 2/lam of one another, so rho <= 17
    profile = CutoffProfile(lam)
    grid = build_mode_grid(profile, 6)
    rng = np.random.default_rng(P)
    system = SpinSystem(positions=rng.uniform(-0.55, 0.55, (P, 3)) / lam,
                        moments=np.ones(P))
    ref = _product_rule_gram(system, profile, grid)
    scale = np.abs(ref).max()
    assert np.abs(ref.imag).max() <= 1e-14 * scale
    W = _shell_factors(shell_couplings(system, profile, grid)[1], 6)
    assert np.abs(W @ W.transpose(0, 2, 1) - ref).max() <= 1e-14 * scale
    assert np.abs(_closed_gram(system, profile, grid) - ref).max() \
        <= 1e-14 * scale


def test_angular_series_meets_the_closed_forms():
    # (j0 - j1/rho, j2) against scipy's spherical Bessel functions on both
    # sides of the switch, and j2's series against its closed form across
    # it, where both hold to a few ulp
    switch = fock.RHO_SERIES
    rho = np.array([0.0, 1e-200, 1e-8, 0.1, 0.5, 1.0, switch * (1 - 1e-12),
                    switch, switch * (1 + 1e-12), 3.0, 10.0, 70.0, 1e5])
    a, j2 = fock._angular_factors(rho)
    assert (a[0], j2[0]) == (2.0 / 3.0, 0.0)
    x = rho[1:]
    ref_a = spherical_jn(0, x) - spherical_jn(1, x) / x
    ref_j2 = spherical_jn(2, x)
    # scipy's j1 is good to a few 1e-15 relative at small rho
    assert np.abs(a[1:] - ref_a).max() <= 4e-15
    assert np.all(np.abs(j2[1:] - ref_j2) <= 4e-15 * np.abs(ref_j2))
    x = np.linspace(0.75, 1.25, 51) * switch
    series = x * x * np.polyval(fock._J2_SERIES, x * x)
    closed = (3.0 / x ** 2 - 1.0) * np.sin(x) / x - 3.0 * np.cos(x) / x ** 2
    assert np.abs(series - closed).max() <= 2e-15 * np.abs(closed).max()


@pytest.mark.parametrize("lam", [0.7, 1.6])
@pytest.mark.parametrize("P", [1, 2, 3])
@pytest.mark.parametrize("n_radial", [4, 24])
def test_shell_factors_are_lower_triangular(lam, P, n_radial):
    profile = CutoffProfile(lam)
    grid = build_mode_grid(profile, n_radial)
    rng = np.random.default_rng(10 + P)
    system = SpinSystem(positions=rng.normal(size=(P, 3)) / lam,
                        moments=np.ones(P))
    omega_osc, W = shell_couplings(system, profile, grid)
    assert W.dtype == float and W.shape == (3 * P, 3 * P * n_radial)
    assert np.array_equal(omega_osc, np.repeat(grid.radius, 3 * P))
    W = _shell_factors(W, n_radial)
    assert np.array_equal(W, np.tril(W))
    G = _closed_gram(system, profile, grid)
    scale = np.abs(G).max(axis=(1, 2))
    assert np.all(np.abs(W @ W.transpose(0, 2, 1) - G).max(axis=(1, 2))
                  <= 1e-14 * scale)


def test_close_sites_factor_their_singular_gram(profile, small_grid):
    # two sites 1e-9/lam apart: to roundoff every G_s has rank 3 of 6, and
    # eigh's negative roundoff eigenvalues are clipped, not square-rooted
    system = SpinSystem(positions=[[0.2, -0.1, 0.3], [0.2, -0.1, 0.3 + 1e-9]],
                        moments=[0.7, 0.4])
    lam = np.linalg.eigvalsh(_closed_gram(system, profile, small_grid))
    assert np.all(lam[:, :3] <= 1e-14 * lam[:, 3:].min(axis=1)[:, None])
    assert np.any(lam < 0.0)
    W = _shell_factors(shell_couplings(system, profile, small_grid)[1], 6)
    assert np.all(np.isfinite(W)) and np.array_equal(W, np.tril(W))
    G = _closed_gram(system, profile, small_grid)
    assert np.all(np.abs(W @ W.transpose(0, 2, 1) - G).max(axis=(1, 2))
                  <= 1e-14 * np.abs(G).max(axis=(1, 2)))


def test_shell_couplings_structure(profile, small_grid, two_spin_system):
    omega_osc, W = shell_couplings(two_spin_system, profile, small_grid)
    # coupling decays like phi at large |k|
    assert np.abs(W[:, omega_osc > 0.8 * profile.far_radius()]).max() <= 1e-10


def test_shell_couplings_sum_to_kernel_at_origin(profile, default_grid):
    # sum_o W^2 / omega is the mode-sum kernel's diagonal at 0, which the
    # radial rule integrates to A(0) = lam^3 / (12 pi^(3/2))
    origin = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[1.0])
    omega_osc, W = shell_couplings(origin, profile, default_grid)
    totals = np.sum(W ** 2 / omega_osc, axis=1)
    assert totals == pytest.approx([a11_origin(profile)] * 3, rel=1e-12)


def _grid_am(system, profile, grid):
    return discrete_am(system, *shell_couplings(system, profile, grid))


@pytest.mark.parametrize("lam", [0.7, 1.6])
@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("P, separation", [
    (1, 0.0), (2, 0.5), (2, 2.0), (2, 8.0), (3, 1.0), (3, 4.0), (3, 8.0)])
def test_discrete_am_matches_continuum_at_48_shells(lam, s, P, separation):
    # lambda_min of A_disc on 48 exact shells against assemble_am, with
    # the largest site distance `separation` / lam
    profile = CutoffProfile(lam)
    rng = np.random.default_rng(10 * P + int(2 * s))
    x = rng.normal(size=(P, 3))
    if P > 1:
        x *= separation / lam / max(np.linalg.norm(a - b)
                                    for a in x for b in x)
    system = SpinSystem(positions=x, moments=rng.uniform(-1.0, 1.0, P), s=s)
    got = _grid_am(system, profile, build_mode_grid(profile, 48))
    exact = assemble_am(system, profile)
    assert abs(got.eigenvalues[0] / exact.eigenvalues[0] - 1.0) <= 1e-13
    assert np.abs(got.eigenvalues - exact.eigenvalues).max() \
        <= 1e-13 * abs(exact.eigenvalues[0])


def test_equal_pair_ground_level_is_degenerate():
    # two_spins_equal: the continuum's ground pair stays a pair on exact
    # shells, far inside the degeneracy window
    cfg = parse_config((CONFIGS / "two_spins_equal.yaml").read_text())
    profile = cfg.profile()
    lam = _grid_am(cfg.system(), profile, build_mode_grid(
        profile, cfg.grids["n_radial"])).eigenvalues
    assert lam[1] - lam[0] <= 1e-14 * abs(lam[0])
    assert lam[2] - lam[0] > 1e-3 * abs(lam[0])


@pytest.mark.parametrize("suite, argv", [
    ("fock_fit", ["fock-fit", "--scales", "0.4,0.2,0.1,0.05"]),
    ("multiplicity", ["multiplicity", "--g", "0.4,0.2,0.1"])])
def test_fock_artifacts_ignore_n_angular(tmp_path, suite, argv):
    # the same bytes for 6 and 12 azimuths, but for the echoed key
    doc = yaml.safe_load((CONFIGS / "two_spins_equal.yaml").read_text())
    runs = []
    for n_angular in (6, 12):
        doc["grids"]["n_angular"] = n_angular
        out = tmp_path / str(n_angular)
        out.mkdir()
        (out / "config.yaml").write_text(yaml.safe_dump(doc))
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main([*argv, "--config", str(out / "config.yaml"),
                         "--out", str(out)]) == 0
        manifest = json.loads((out / f"{suite}_manifest.json").read_text())
        assert manifest["config"]["grids"].pop("n_angular") == n_angular
        runs.append(((out / f"{suite}.csv").read_bytes(), manifest,
                     stdout.getvalue()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n_angular", [4, 7])
def test_fock_suites_refuse_n_angular_out_of_range(tmp_path, capsys,
                                                   n_angular):
    # the ignored key keeps its range: even and at least 6
    doc = yaml.safe_load((CONFIGS / "single_spin.yaml").read_text())
    doc["grids"]["n_angular"] = n_angular
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["fock-fit", "--scales", "0.4,0.2,0.1,0.05",
                 "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["ERROR need even n_angular >= 6"]


def test_discrete_am_matches_continuum(profile, default_grid, two_spin_system):
    Ac = assemble_am(two_spin_system, profile).matrix
    Ad = _grid_am(two_spin_system, profile, default_grid).matrix
    rel = np.linalg.norm(Ad - Ac) / np.linalg.norm(Ac)
    assert rel <= 1e-10
    finer = build_mode_grid(profile, 40)
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
    n_diag = np.repeat(toy.space.n_total, toy.spin_dim)
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
    # h's row ids are found once for its diagonal entries and once for its
    # components, both shared by diagonal() and every scale
    searched, row_ids = [], CSRMatrix._row_ids

    def recorded(m):
        searched.append(m)
        return row_ids(m)

    monkeypatch.setattr(CSRMatrix, "_row_ids", recorded)
    # dGamma(omega) is stored on every state but the vacuum ones
    assert np.array_equal(np.flatnonzero(h.diagonal()),
                          np.arange(toy.spin_dim, toy.dim))
    assert np.count_nonzero(on) == toy.dim - toy.spin_dim
    assert len(searched) == 1 and searched[0] is h  # the diagonal entries
    for t in (0.0, 0.05, 0.4, 1.0, -1.3):
        H = toy.matrix(t)
        assert H.indptr is h.indptr and H.indices is h.indices
        assert H.data.dtype == h.data.dtype
        assert H.data[on].tobytes() == h.data[on].tobytes()
        assert H.data[~on].tobytes() == (t * h.data[~on]).tobytes()
        assert H.diagonal().tobytes() == h.diagonal().tobytes()
    assert len(searched) == 2 and searched[1] is h  # the components
    # h, whose arrays every matrix(t) shares, and H(t) refuse writes
    for arr in (h.indptr, h.indices, h.data, H.data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def _oscillator_omega(grid, n_angular):
    """Frequencies of all 2N (mode, polarization) oscillators of the grid's
    shells times the product rule of product_modes: n_angular^2 a shell."""
    return np.repeat(grid.radius, n_angular * n_angular)


def test_fock_space_budget(profile, default_grid):
    with pytest.raises(ResourceError):
        build_fock_space(_oscillator_omega(default_grid, 12), 3, spin_dim=4)


def test_fock_space_budget_edge(profile):
    grid = build_mode_grid(profile, 2)
    space = build_fock_space(_oscillator_omega(grid, 6), 3, spin_dim=5)
    assert space.n_osc == 72
    assert space.dim == 67_525 and 5 * space.dim <= MAX_TOTAL_DIM
    with pytest.raises(ResourceError, match="67525 x spin 6"):
        build_fock_space(_oscillator_omega(grid, 6), 3, spin_dim=6)


def test_fock_space_budget_bounds_the_dense_spin_rows(profile):
    # P = 12 spin-1/2 sites couple to 2 x 36 oscillators of 2 shells:
    # 73 x 4096 = 299,008 states fit MAX_TOTAL_DIM, but a solve would make
    # 4096 rows of them dense, 19.6 GB a copy.  The space raises before
    # anything of that size is allocated.
    chain = SpinSystem(positions=[[0.7 * k, 0.0, 0.0] for k in range(12)],
                       moments=np.ones(12))
    omega, _ = shell_couplings(chain, profile, build_mode_grid(profile, 2))
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
    # 24 shells x 3P = 144 coupled oscillators
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
    grid = build_mode_grid(profile, n_radial)
    space = build_fock_space(_oscillator_omega(grid, n_angular), n_max)
    states, _, offsets = _reference_fock_basis(space.n_osc, n_max)
    assert [tuple(int(o) for o in row) for occ in space.sectors
            for row in occ] == states
    assert space.sector_offsets == offsets
    assert np.array_equal(space.n_total, [len(s) for s in states])

    site = SpinSystem(positions=[[0.3, -0.1, 0.2]], moments=[1.0])
    # sigma_2 of the site on the product rule's oscillators
    v = _mode_couplings(site, profile, grid, n_angular)[1][1]
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
    grid = build_mode_grid(profile, 2)
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


def _overcomplete_hamiltonian(system, profile, grid, n_max, rng,
                              per_shell=36):
    """H on per_shell oscillators of each shell, coupled through
    V_s = W_s Q_s^H for a random complex (per_shell, 3P) isometry Q_s.

    The reference for build_hamiltonian, which keeps only the 3P
    oscillators of the shell factor W_s: V_s V_s^H = W_s W_s^T = G_s, so
    each shell couples alike through 36 oscillators, as many as the two
    polarizations of the 3 x 6 directions of an angular product rule.
    Each site spin component gets one Segal field on its full row of V.
    """
    spin_dim, k = system.spin_dim, 3 * system.P
    W = shell_couplings(system, profile, grid)[1]
    Q = np.linalg.qr(rng.normal(size=(len(grid.radius), per_shell, k))
                     + 1j * rng.normal(size=(len(grid.radius), per_shell,
                                             k)))[0]
    V = np.hstack([W[:, k * s:][:, :k] @ Q_s.conj().T
                   for s, Q_s in enumerate(Q)])
    space = build_fock_space(np.repeat(grid.radius, per_shell), n_max,
                             spin_dim)
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
def test_reduced_hamiltonian_matches_overcomplete_shells(profile, s, P,
                                                         n_max, n_radial,
                                                         seed):
    """The ground state is exact, and so is the whole Feshbach map: the
    dropped oscillators do not reach the vacuum, so QHP and F(E) are
    the same on both spaces."""
    grid = build_mode_grid(profile, n_radial)
    spin_dim = round(2 * s + 1) ** P
    full_dim = spin_dim * sum(math.comb(36 * n_radial + n - 1, n)
                              for n in range(n_max + 1))
    assume(full_dim <= 140_000)
    rng = np.random.default_rng(seed)
    system = SpinSystem(
        positions=np.vstack([np.zeros(3), rng.uniform(-1.0, 1.0, (1, 3))])[:P],
        moments=rng.choice([-1.0, 1.0], P) * rng.uniform(0.3, 1.0, P), s=s)
    reduced = build_hamiltonian(system, profile, grid, n_max)
    full = _overcomplete_hamiltonian(system, profile, grid, n_max, rng)
    assert reduced.space.n_osc == n_radial * 3 * P
    assert full.space.n_osc == n_radial * 36
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


def _schur_energies(system, profile, grid, t, count=None,
                    gram=_product_rule_gram):
    """Eigenvalues of H(t) below the photon continuum at n_max = 1, ascending;
    the lowest count of them when count is given.

    There H = [[0, t B^dag], [t B, Omega (x) I]] with B the vacuum ->
    one-photon block of h_int, and E < omega_min is an eigenvalue exactly
    when it is one of F(E) = -t^2 B^dag (Omega - E)^-1 B (Feshbach-Schur;
    Bach, Chen, Froehlich & Sigal, J. Funct. Anal. 203 (2003) 44).  Every
    eigenvalue branch of F decreases in E, so branch j meets the diagonal
    once, in (-2 t |B|_F, 0]: one root per spin state, multiplicities
    included.  For any oscillators of the grid's shells,
    B^dag (Omega - E)^-1 B = 1/2 sum_s T_s / (r_s - E) with
    T_s = sum_ab M_a M_b Gram_s[a, b] S_a S_b, and |B|_F^2 =
    1/2 sum_s tr T_s.  The shells' Gram matrices are those of the plane-wave
    couplings on a fine angular product rule (_product_rule_gram), not
    build_hamiltonian's, or those of gram, such as _closed_gram for sites
    too far apart for that rule.
    """
    S = np.array([S_a for site in kron_site_spins(system.s, system.P)
                  for S_a in site])
    S *= np.repeat(system.moments, 3)[:, None, None]
    T = np.einsum("sab,aij,bjk->sik",
                  gram(system, profile, grid), S, S,
                  optimize=True)

    def branch_minus_e(E, j):
        F = -0.5 * t * t * np.tensordot(1.0 / (grid.radius - E), T, 1)
        return np.linalg.eigvalsh(F)[j] - E

    lo = -2.0 * t * math.sqrt(0.5 * np.trace(T.sum(axis=0)).real)
    return np.array([brentq(branch_minus_e, lo, 0.0, args=(j,), xtol=1e-300,
                            rtol=4 * np.finfo(float).eps)
                     for j in range(count or system.spin_dim)])


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
    grid = build_mode_grid(profile, 6)
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
    # Feshbach map is H's ground vector and LOBPCG has nothing to do; the
    # suites solve that map in the spin space, ground_state on the built H
    if case == "single_spin":
        cfg = parse_config((CONFIGS / "single_spin.yaml").read_text())
        assert cfg.grids["n_max"] == 1
        system, profile = cfg.system(), cfg.profile()
        grid = build_mode_grid(profile, cfg.grids["n_radial"])
    else:
        system, grid = two_spin_system, request.getfixturevalue(case)
    steps = _recorded_steps(monkeypatch)
    for moments, scales in [(system.moments, [0.4, 0.2, 0.1, 0.05]),
                            (np.ones(system.P), [0.4, 0.2, 0.1])]:
        toy = build_hamiltonian(system.with_moments(moments), profile, grid,
                                1)
        for t in scales:
            ground_state(toy.matrix(t), spin_dim=toy.spin_dim)
    assert steps == [0] * 7


def test_cutoff_100_fit_solves_in_few_steps(two_spin_system, monkeypatch):
    # the test cluster at cutoff 100, where every scale of H is 100 times
    # that at cutoff 1: the preconditioner must take its scales from H
    profile = CutoffProfile(100.0)
    system = SpinSystem(positions=two_spin_system.positions / 100.0,
                        moments=two_spin_system.moments, s=0.5)
    steps = _recorded_steps(monkeypatch)
    quadratic_fit(system, profile, build_mode_grid(profile, 4), 2,
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


def test_dressed_start_stops_at_one_energy(monkeypatch):
    # out of Newton steps, the start and the preconditioner both belong to
    # the last energy E reached: the start is x(E) (+) -z(E), x the ground
    # vector of F(E) and z = (D - E)^-1 B^H x, and every P entry of the
    # preconditioner is 1 / (min D - E)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    A = X + X.conj().T
    monkeypatch.setattr(fock, "MAX_START_NEWTON_STEPS", 1)
    v, precond = fock._dressed_start(CSRMatrix.of(A), A.diagonal().real, 3)
    p = np.argsort(A.diagonal().real, kind="stable")[:3]
    q = np.setdiff1d(np.arange(8), p)
    D = A.diagonal().real[q]
    energy = D.min() - 1.0 / precond[p[0]]
    B = A[np.ix_(p, q)]
    x = np.linalg.eigh(A[np.ix_(p, p)]
                       - (B / (D - energy)) @ B.conj().T)[1][:, 0]
    start = np.zeros(8, dtype=complex)
    start[p] = x
    start[q] = -(x @ B.conj()) / (D - energy)
    start /= np.linalg.norm(start)
    assert abs(abs(np.vdot(start, v)) - 1.0) <= 1e-12


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


def _dense_feshbach_map(H, spin_dim):
    """_dressed_start's map of H: PHP - B (D - E)^-1 B^H and its N(E), on
    the dense rows P H of the vacuum (x) spin states."""
    PH = H.rows(np.arange(spin_dim))
    coupled = PH.any(axis=0)
    coupled[:spin_dim] = False
    q = np.flatnonzero(coupled)
    B, D = PH[:, q], H.diagonal().real[q]

    def feshbach_map(energy):
        BR = B / (D - energy)
        return PH[:, :spin_dim] - BR @ B.conj().T, BR @ BR.conj().T
    return feshbach_map


def _spin_feshbach_map(system, profile, grid, t):
    """_one_photon_ground's map: -t^2 sum_o C_o^2 / (omega_o - E) and its
    N(E), from the stack of _squared_blocks."""
    omega, W = shell_couplings(system, profile, grid)
    C2 = fock._squared_blocks(system, omega, W)

    def feshbach_map(energy):
        r = t * t / (omega - energy)
        return np.einsum("o,oij->ij", -r, C2), \
            np.einsum("o,oij->ij", r / (omega - energy), C2)
    return feshbach_map


@settings(max_examples=25, deadline=None, derandomize=True)
@given(s=st.sampled_from([0.5, 1.0, 1.5]), P=st.integers(1, 3),
       n_max=st.integers(1, 3), t=st.sampled_from([0.05, 0.4, 2.0]),
       seed=st.integers(0, 2 ** 16))
def test_both_feshbach_maps_share_one_root(profile, s, P, n_max, t, seed):
    """On a Fock H the P rows couple only to one-photon states, where H's
    diagonal is omega_o, so _dressed_start's map of the built H and the
    spin-space map of _one_photon_ground are one function: _feshbach_root
    finds the same root from E = 0 in both."""
    positions = np.random.default_rng(seed).uniform(-1.0, 1.0, (P, 3))
    system = SpinSystem(positions=positions, moments=np.ones(P), s=s)
    grid = build_mode_grid(profile, 2)
    try:
        toy = build_hamiltonian(system, profile, grid, n_max)
    except ResourceError:  # s = 3/2 triples at n_max = 3
        assume(False)
    dense = fock._feshbach_root(
        _dense_feshbach_map(toy.matrix(t), toy.spin_dim), 0.0)[0]
    spin = fock._feshbach_root(
        _spin_feshbach_map(system, profile, grid, t), 0.0)[0]
    assert dense < 0.0
    assert abs(dense - spin) <= 1e-14 * abs(spin)


def test_one_photon_ground_stops_at_one_energy(profile, small_grid,
                                               two_spin_system,
                                               monkeypatch):
    # out of Newton steps, lam, X and N all belong to the E returned: lam
    # and X are F(E)'s eigenpairs and N is N(E), not those of the energy
    # before it or of the step it did not take
    monkeypatch.setattr(fock, "MAX_START_NEWTON_STEPS", 1)
    omega, W = shell_couplings(two_spin_system, profile, small_grid)
    C2 = fock._squared_blocks(two_spin_system, omega, W)
    energy, lam, X, N = fock._one_photon_ground(C2, omega, 0.4, 1.0)
    feshbach_map = _spin_feshbach_map(two_spin_system, profile, small_grid,
                                      0.4)
    # one step from E = 0, short of the root: g(E) = lam_min F(E) - E < 0
    F_0, N_0 = feshbach_map(0.0)
    lam_0, X_0 = np.linalg.eigh(F_0)
    step = lam_0[0] / (1.0 + (X_0[:, 0].conj() @ N_0 @ X_0[:, 0]).real)
    assert energy == pytest.approx(step, rel=1e-14)
    assert lam[0] < energy
    F_E, N_E = feshbach_map(energy)
    scale = np.abs(F_E).max()
    assert np.abs(lam - np.linalg.eigvalsh(F_E)).max() <= 1e-14 * scale
    assert np.abs(F_E @ X - X * lam).max() <= 1e-14 * scale
    assert np.abs(N - N_E).max() <= 1e-14 * np.abs(N_E).max()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_feshbach_root_refuses_a_map_that_is_not_finite(monkeypatch, bad):
    # the refusal comes before the eigh, which would fail or return NaN;
    # a non-finite N(E) or first E is refused as well
    def refused(*args, **kwargs):
        raise AssertionError("eigh ran on a map that is not finite")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    finite = np.eye(2)
    for feshbach_map, energy in [(lambda E: (bad * finite, finite), 0.0),
                                 (lambda E: (finite, bad * finite), 0.0),
                                 (lambda E: (finite, finite), bad)]:
        with pytest.raises(ConvergenceError, match="not finite"):
            fock._feshbach_root(feshbach_map, energy)


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
    The pair's A_1 ground level is degenerate on exact shells.
    The spin-1 pair's A_1 basis comes back from its real site basis, so
    its overlaps check that rotation."""
    grid = build_mode_grid(profile, n_radial)
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
    grid = build_mode_grid(profile, n_radial)
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
    # configs/single_spin.yaml at n_max = 2: 5,402 states, the Kramers pair
    # found from one ground-state column; at its own n_max = 1 the pair
    # comes from the spin space, with no LOBPCG and no Feshbach CG, so a
    # CG step limit of 0 does not stop it
    cfg = parse_config((CONFIGS / "single_spin.yaml").read_text())
    grid = build_mode_grid(cfg.profile(), cfg.grids["n_radial"])
    solves = []
    solve = fock._lobpcg

    def recorded(H, X, *args):
        vec, steps = solve(H, X, *args)
        solves.append((H.shape[0], X.shape, steps))
        return vec, steps

    monkeypatch.setattr("spinrad.fock._lobpcg", recorded)
    rows = multiplicity_scan(cfg.system(), cfg.profile(), grid, 2,
                             [0.4, 0.2, 0.1])
    assert [r.mult_h for r in rows] == [2, 2, 2]
    assert [(dim, shape) for dim, shape, _ in solves] == [(5402, (5402,))] * 3
    assert all(steps <= 50 for _, _, steps in solves)
    solves.clear()
    monkeypatch.setattr("spinrad.fock.MAX_CG_STEPS", 0)
    assert cfg.grids["n_max"] == 1
    rows = multiplicity_scan(cfg.system(), cfg.profile(), grid,
                             cfg.grids["n_max"], [0.4, 0.2, 0.1])
    assert [r.mult_h for r in rows] == [2, 2, 2]
    assert solves == []


def test_feshbach_catches_a_missed_ground_state(profile, small_grid,
                                                monkeypatch):
    # an energy above E_0 leaves an eigenvalue of F below it: from
    # ground_state on the Fock H, or from the spin-space solve at n_max = 1
    pair = SpinSystem(positions=[[0, 0, 0], [0.9, -0.3, 0.4]],
                      moments=[1.0, 1.0])
    for n_max, solver in [(2, "ground_state"), (1, "_one_photon_ground")]:
        def excited(*args, _solve=getattr(fock, solver), **kwargs):
            energy, *rest = _solve(*args, **kwargs)
            return 0.5 * energy, *rest

        monkeypatch.setattr(fock, solver, excited)
        with pytest.raises(ConvergenceError, match="below the ground energy"):
            multiplicity_scan(pair, profile, small_grid, n_max, [0.2])


def _fock_multiplicity(system, profile, grid, g):
    """(energy, mult_h, min_overlap, multiplet, rho(A_1^disc)) of
    multiplicity_scan at one g, from ground_state and _feshbach on the
    built n_max = 1 H."""
    toy = build_hamiltonian(system, profile, grid, 1)
    H = toy.matrix(g)
    energy = ground_state(H, spin_dim=toy.spin_dim)[0]
    lam, X, Z = fock._feshbach(H, energy, toy.spin_dim,
                               fock.DEFAULT_EIGENSOLVER_TOL)
    a_disc = discrete_am(system, toy.space.omega_osc, toy.coupling,
                         vectors=True)
    basis = ground_eigenspace(a_disc)[2]
    width = DEFAULT_DEGENERACY_TOL * g * g * a_disc.radius
    mult = int(np.sum(lam <= energy + width))
    X = X[:, :mult]
    norm2 = 1.0 + np.sum(X.conj() * ((Z.conj() @ Z.T) @ X), axis=0).real
    overlap = np.sum(np.abs(basis.conj().T @ X) ** 2, axis=0) / norm2
    return energy, mult, overlap.min(), (lam - energy) / (g * g), \
        a_disc.radius


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=st.sampled_from([0.5, 1.0, 1.5]), P=st.integers(1, 3),
       n_radial=st.integers(2, 4), separation=st.floats(0.05, 40.0),
       zero_moment=st.booleans(), t=st.floats(0.05, 2.0),
       seed=st.integers(0, 2 ** 16))
@example(s=1.5, P=3, n_radial=2, separation=40.0, zero_moment=True, t=2.0,
         seed=1)
def test_spin_space_solve_matches_the_fock_solvers(profile, s, P, n_radial,
                                                   separation, zero_moment,
                                                   t, seed):
    """At n_max = 1 fock-fit and multiplicity solve E = lam_min F(E) in
    the spin space; ground_state and _feshbach on the built H give the
    same energies, photon numbers and min_overlap to 1e-13 relative and
    the same multiplet to 1e-14 rho(A_1^disc), and the Schur roots on
    scipy's Bessel functions the same energies."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(P, 3))
    u[0] = 0.0
    u[1:] /= np.linalg.norm(u[1:], axis=1, keepdims=True)
    moments = rng.choice([-1.0, 1.0], P) * rng.uniform(0.3, 1.0, P)
    if zero_moment and P > 1:
        moments[rng.integers(P)] = 0.0
    system = SpinSystem(positions=separation * u, moments=moments, s=s)
    grid = build_mode_grid(profile, n_radial)
    fit = quadratic_fit(system, profile, grid, 1, [t, t / 2, t / 4, t / 8])
    toy = build_hamiltonian(system, profile, grid, 1)
    for scale, energy, photons in zip(fit.scales, fit.energies,
                                      fit.photon_numbers):
        exact, v, _ = ground_state(toy.matrix(scale), spin_dim=toy.spin_dim)
        assert abs(energy - exact) <= 1e-13 * abs(exact)
        n = photon_number(toy, v)
        assert abs(photons - n) <= 1e-13 * n
        schur = _schur_energies(system, profile, grid, scale, count=1,
                                gram=_closed_gram)[0]
        assert abs(energy - schur) <= 1e-12 * abs(schur)
    unit = system.with_moments(np.ones(P))
    row, = multiplicity_scan(unit, profile, grid, 1, [t])
    energy, mult, overlap, multiplet, radius = _fock_multiplicity(
        unit, profile, grid, t)
    assert row.mult_h == mult
    assert abs(row.energy - energy) <= 1e-13 * abs(energy)
    assert abs(row.min_overlap - overlap) <= 1e-13 * overlap
    assert np.abs(row.multiplet - multiplet).max() <= 1e-14 * radius
    schur = _schur_energies(unit, profile, grid, t, count=1,
                            gram=_closed_gram)[0]
    assert abs(row.energy - schur) <= 1e-12 * abs(schur)


def test_n_max_one_suites_build_no_fock_space(monkeypatch, tmp_path):
    # fock-fit and multiplicity on the bundled n_max = 1 configs build no
    # Fock space and no CSR H, and run no LOBPCG and no Feshbach CG
    def refused(*args, **kwargs):
        raise AssertionError("a Fock solver ran at n_max = 1")

    for name in ("build_fock_space", "build_hamiltonian", "ground_state",
                 "_dressed_start", "_lobpcg", "_feshbach"):
        monkeypatch.setattr(fock, name, refused)
    monkeypatch.setattr(CSRMatrix, "from_entries", refused)
    for name in ("single_spin", "two_spins_equal"):
        config = CONFIGS / f"{name}.yaml"
        assert parse_config(config.read_text()).grids["n_max"] == 1
        for argv in (["fock-fit", "--scales", "0.4,0.2,0.1,0.05"],
                     ["multiplicity", "--g", "0.4,0.2,0.1"]):
            assert main([*argv, "--config", str(config),
                         "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("budget, edge", [("MAX_TOTAL_DIM", 100),
                                          ("MAX_SPIN_ROW_ENTRIES", 400)])
def test_n_max_one_refusals_are_unchanged(profile, two_spin_system,
                                          monkeypatch, budget, edge):
    # 4 shells: (1 + 24) photon states x 4 spin states make 100 states and
    # 400 dense row entries; the suites refuse where the n_max = 1 H is
    # refused, with its message, and run at the edge of each budget
    grid = build_mode_grid(profile, 4)
    equal = two_spin_system.with_moments([1.0, 1.0])
    scales = [0.4, 0.2, 0.1, 0.05]
    monkeypatch.setattr(fock, budget, edge)
    quadratic_fit(two_spin_system, profile, grid, 1, scales)
    multiplicity_scan(equal, profile, grid, 1, [0.2])
    monkeypatch.setattr(fock, budget, edge - 1)
    with pytest.raises(ResourceError) as built:
        build_hamiltonian(two_spin_system, profile, grid, 1)
    message = re.escape(str(built.value))
    with pytest.raises(ResourceError, match=message):
        quadratic_fit(two_spin_system, profile, grid, 1, scales)
    with pytest.raises(ResourceError, match=message):
        multiplicity_scan(equal, profile, grid, 1, [0.2])
    for n_max in (True, 1.0):
        with pytest.raises(DomainError, match="n_max must be an integer"):
            quadratic_fit(two_spin_system, profile, grid, n_max, scales)
        with pytest.raises(DomainError, match="n_max must be an integer"):
            multiplicity_scan(equal, profile, grid, n_max, [0.2])


def test_n_max_one_suites_refuse_before_allocating(profile):
    # the P = 12 chain of test_fock_space_budget_bounds_the_dense_spin_rows:
    # its C_o^2 stack would hold as many entries as those spin rows
    chain = SpinSystem(positions=[[0.7 * k, 0.0, 0.0] for k in range(12)],
                       moments=np.ones(12))
    grid = build_mode_grid(profile, 2)
    tracemalloc.start()
    try:
        for run in (lambda: quadratic_fit(chain, profile, grid, 1,
                                          [0.4, 0.2, 0.1, 0.05]),
                    lambda: multiplicity_scan(chain, profile, grid, 1,
                                              [0.2])):
            with pytest.raises(ResourceError,
                               match="4096 dense spin rows of 299008 states"):
                run()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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
    # Gram matrix term by term over all (3P)^2 ordered pairs of site spins,
    # on the plane-wave couplings of a fine angular product rule
    emb = kron_site_spins(system.s, P)
    omega, V = _mode_couplings(system, profile, small_grid, 64)
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


@pytest.mark.parametrize("name, s, n_radial, n_max", [
    ("two_spins", None, 2, 1), ("two_spins", None, 2, 2),
    ("two_spins", None, 2, 3), ("two_spins", None, 24, 1),
    ("single_spin", None, 2, 3), ("two_spins_equal", None, 4, 2),
    ("two_spins", 1.0, 2, 2)])
def test_energies_in_operator_bracket(name, s, n_radial, n_max):
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
                            build_mode_grid(profile, n_radial), n_max)
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
    grid = build_mode_grid(profile, 2)
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


@pytest.mark.parametrize("suite, config, flag, values", [
    ("fock-fit", "two_spins", "--scales", "1e200,2e200,4e200,8e200"),
    ("fock-fit", "two_spins", "--scales", "1.2e154,2e154,4e154,8e154"),
    ("fock-fit", "two_spins", "--scales", "1e-140,2e-140,4e-140,8e-140"),
    ("multiplicity", "two_spins_equal", "--g", "1e200"),
    ("multiplicity", "two_spins_equal", "--g", "1e-160"),
    ("multiplicity", "two_spins_equal", "--g", "1e-200")])
def test_fock_suites_refuse_scales_out_of_the_float_range(
        tmp_path, capsys, suite, config, flag, values):
    # a square that overflows makes F(E) infinite, and a t^4, g^2 or
    # degeneracy window below the normal floats loses its digits (c2 =
    # NaN, or mult_h = 1 on the degenerate pair): one ERROR line each
    assert main([suite, "--config", str(CONFIGS / f"{config}.yaml"), flag,
                 values, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ERROR ")


@pytest.mark.parametrize("n_max", [1, 2])
def test_fock_suites_work_up_to_the_float_limits(profile, small_grid, n_max):
    pair = SpinSystem(positions=[[0, 0, 0], [0.9, -0.3, 0.4]],
                      moments=[1.0, 1.0])
    # t^4 >= the smallest normal float: c2 on it is the discrete A_M's
    lowest = np.finfo(float).tiny ** 0.25
    fit = quadratic_fit(pair, profile, small_grid, n_max,
                        lowest * np.array([1.0, 2.0, 4.0, 8.0]))
    assert abs(fit.c2 / fit.a_disc_min - 1.0) <= 1e-12
    with pytest.raises(DomainError, match="every scale t >= 1.22134e-77"):
        quadratic_fit(pair, profile, small_grid, n_max,
                      [np.nextafter(lowest, 0.0), 0.2, 0.1, 0.05])
    # g^2 and the window at the limit: the pair's level stays degenerate
    a_disc = discrete_am(pair, *shell_couplings(pair, profile, small_grid))
    limit = math.sqrt(np.finfo(float).tiny
                      / (DEFAULT_DEGENERACY_TOL * a_disc.radius))
    row, = multiplicity_scan(pair, profile, small_grid, n_max,
                             [-1.001 * limit])
    reference, = multiplicity_scan(pair, profile, small_grid, n_max, [1e-6])
    assert row.mult_h == row.mult_a1 == 2
    assert np.abs(row.multiplet - reference.multiplet).max() \
        <= 1e-9 * a_disc.radius
    with pytest.raises(DomainError, match=re.escape(f"|g| >= {limit:.6g}")):
        multiplicity_scan(pair, profile, small_grid, n_max,
                          [0.2, 0.999 * limit])
    # squares past the float range: F(E) is not finite
    with pytest.raises(ConvergenceError, match="not finite"):
        quadratic_fit(pair, profile, small_grid, n_max,
                      [1e200, 2e200, 4e200, 8e200])
    with pytest.raises(ConvergenceError, match="not finite"):
        multiplicity_scan(pair, profile, small_grid, n_max, [1e200])


def test_multiplicity_refuses_before_the_fock_build(profile, small_grid,
                                                    monkeypatch):
    # the |g| limit and the Fock budgets are read from the couplings: a g
    # below the limit builds no Fock H, and a space over budget decomposes
    # no A_1^disc either
    def refused(*args, **kwargs):
        raise AssertionError("built after a refusal")

    monkeypatch.setattr(fock, "build_hamiltonian", refused)
    pair = SpinSystem(positions=[[0, 0, 0], [0.9, -0.3, 0.4]],
                      moments=[1.0, 1.0])
    with pytest.raises(DomainError, match=r"\|g\| >= "):
        multiplicity_scan(pair, profile, small_grid, 2, [1e-160])
    monkeypatch.setattr(fock, "discrete_am", refused)
    chain = SpinSystem(positions=[[0.7 * k, 0.0, 0.0] for k in range(12)],
                       moments=np.ones(12))
    with pytest.raises(ResourceError, match="Fock dimension 2701 x spin 4096"):
        multiplicity_scan(chain, profile, build_mode_grid(profile, 2), 2,
                          [0.2])
