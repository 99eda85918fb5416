import ast
import importlib
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinrad.cutoff import CutoffProfile, phi_eval
from spinrad.errors import DomainError, ResourceError
from spinrad.field_energy import MAX_RULE_NODES, FourierCurrent, \
    _radial_cosines, _spherical_nodes, classical_current, \
    classical_decomposition_check, field_energy, higher_spin_constant, \
    rule_sizes, vector_current
from spinrad.spin_algebra import omega_state, product_state, spin_matrices, \
    su2_rotate
from spinrad.spin_operator import SpinSystem, assemble_am, quadratic_form

from conftest import kron_site_spins, random_state

# the module, which `import spinrad.field_energy as fe` binds as well: the
# package does not export the function field_energy under the module's name
field_energy_module = importlib.import_module("spinrad.field_energy")


def test_package_attribute_field_energy_is_the_module():
    import spinrad
    import spinrad.field_energy as fe
    assert fe is field_energy_module is spinrad.field_energy
    # the package exports the module's other public names
    for name in ("FourierCurrent", "classical_current",
                 "classical_decomposition_check", "higher_spin_constant",
                 "vector_current"):
        assert getattr(spinrad, name) is getattr(fe, name)


def random_system(rng, P, s=0.5):
    positions = rng.normal(size=(P, 3))
    moments = rng.uniform(-1.0, 1.0, size=P)
    return SpinSystem(positions=positions, moments=moments, s=s)


def orbit_product_state(rng, P, s):
    X0 = omega_state(s)
    return product_state([su2_rotate(s, rng.normal(size=3) * 2.0) @ X0
                          for _ in range(P)], s)


def amplitudes(current, xi):
    """jhat(xi) = i phi(|xi|) |xi| sum_lam e^{i xi.x_lam} c_lam(xi/|xi|).

    Built from the current's sites and site terms c_lam, at points xi (N, 3);
    0 at xi = 0.
    """
    xi = np.atleast_2d(xi)
    r = np.linalg.norm(xi, axis=1)
    terms = current.evaluator(xi / np.where(r > 0.0, r, 1.0)[:, None])
    phases = np.exp(1j * (xi @ current.positions.T))
    amp = np.einsum("nl,nl...->n...", phases, terms)
    pref = 1j * phi_eval(current.profile, r) * r
    return pref.reshape((-1,) + (1,) * (amp.ndim - 1)) * amp


def at_point(current, xi):
    """A current's amplitude at the single point xi."""
    return amplitudes(current, xi)[0]


def test_vector_current_vanishes_at_zero_xi(profile, two_spin_system):
    rng = np.random.default_rng(0)
    X = random_state(rng, 4)
    j = at_point(vector_current(two_spin_system, profile, X), [0.0, 0.0, 0.0])
    assert np.abs(j).max() == 0.0
    silent = vector_current(two_spin_system.with_moments([0.0, 0.0]),
                            profile, X)
    jz = at_point(silent, [0.3, 0.1, -0.5])
    assert np.abs(jz).max() == 0.0


def test_vector_current_single_spin_structure(profile):
    # P=1 at origin, xi along e3: j = i phi(q) M q (-sigma2 X, sigma1 X, 0)
    system = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[0.9], s=0.5)
    sig = spin_matrices(0.5)
    X = np.array([1.0, 0.0], dtype=complex)
    q = 0.8
    j = at_point(vector_current(system, profile, X), [0.0, 0.0, q])
    from spinrad.cutoff import phi_eval
    pref = 1j * phi_eval(profile, q) * 0.9 * q
    assert np.allclose(j[0], -pref * (sig[1] @ X))
    assert np.allclose(j[1], pref * (sig[0] @ X))
    assert np.abs(j[2]).max() <= 1e-15


def test_transversality(profile, two_spin_system):
    rng = np.random.default_rng(2)
    X = random_state(rng, 4)
    S = rng.normal(size=(2, 3))
    S /= np.linalg.norm(S, axis=1)[:, None]
    vector = vector_current(two_spin_system, profile, X)
    classical = classical_current(two_spin_system, profile, S)
    for _ in range(10):
        xi = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        jv = at_point(vector, xi)
        assert np.abs(np.tensordot(xi, jv, axes=(0, 0))).max() <= 1e-10
        jc = at_point(classical, xi)
        assert abs(np.dot(xi, jc)) <= 1e-10


def test_classical_current_parallel_orientation(profile):
    system = SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[1.0], s=0.5)
    parallel = at_point(
        classical_current(system, profile, [[0.0, 0.0, 1.0]]), [0.0, 0.0, 1.3])
    assert np.abs(parallel).max() <= 1e-15
    across = at_point(
        classical_current(system, profile, [[1.0, 0.0, 0.0]]), [0.0, 0.0, 1.3])
    assert np.abs(across).max() > 1e-3


def test_classical_current_rejects_non_unit(profile, two_spin_system):
    with pytest.raises(DomainError):
        classical_current(two_spin_system, profile,
                          [[0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])


def test_expectation_bridge(profile):
    # classical current of a product state = spin expectation of the
    # vector-valued current, at every sampled xi
    rng = np.random.default_rng(8)
    system = random_system(rng, 2)
    ps = product_state([random_state(rng, 2) for _ in range(2)], 0.5)
    vector = vector_current(system, profile, ps.vector)
    classical = classical_current(system, profile, ps.spin_vectors)
    for _ in range(10):
        xi = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        jv = at_point(vector, xi)
        jc = at_point(classical, xi)
        expect = np.array([np.vdot(ps.vector, jv[a]) for a in range(3)])
        assert np.abs(expect - jc).max() <= 1e-10


def test_zero_current_zero_energy(profile, two_spin_system):
    cur = classical_current(two_spin_system.with_moments([0.0, 0.0]), profile,
                            [[0, 0, 1.0], [1.0, 0, 0]])
    assert field_energy(cur) == 0.0


def test_energy_quadratic_in_moments(profile, two_spin_system):
    S = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    e1 = field_energy(classical_current(two_spin_system, profile, S))
    doubled = two_spin_system.with_moments(2.0 * two_spin_system.moments)
    e2 = field_energy(classical_current(doubled, profile, S))
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_energy_angular_convergence(profile, two_spin_system):
    rng = np.random.default_rng(9)
    X = random_state(rng, 4)
    cur = vector_current(two_spin_system, profile, X)
    e = field_energy(cur)
    e_fine = field_energy(cur, n_theta=64, n_phi=128)
    assert abs(e - e_fine) <= 1e-8 * max(1.0, e)


def test_field_energy_identity(profile):
    # <A_M X, X> = -(vector field energy), on independent numerical paths
    rng = np.random.default_rng(10)
    for _ in range(20):
        system = random_system(rng, rng.integers(1, 4))
        A = assemble_am(system, profile)
        X = random_state(rng, system.spin_dim)
        qf = quadratic_form(A, X)
        energy = field_energy(vector_current(system, profile, X))
        assert abs(qf + energy) <= 1e-6 * max(1.0, abs(qf))


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_classical_decomposition(profile, s):
    assert higher_spin_constant(0.5) == 1.0
    rng = np.random.default_rng(12)
    for _ in range(3):
        system = random_system(rng, 2, s=s)
        ps = orbit_product_state(rng, 2, s)
        [(lhs, rhs, resid)] = classical_decomposition_check(
            assemble_am(system, profile), system, profile, [ps])
        assert resid <= 1e-6 * max(1.0, abs(lhs))


def _calls_named(tree, name):
    """Line numbers of the calls f(...) or x.f(...) of the function name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def test_field_energy_assembles_no_am():
    # the decomposition check reads the A_M its caller built; the module
    # keeps the name only as an import
    assert _calls_named(ast.parse("A = assemble_am(system, profile)\n"
                                  "B = spin_operator.assemble_am(s, p)"),
                        "assemble_am") == [1, 2]
    tree = ast.parse(inspect.getsource(field_energy_module))
    assert _calls_named(tree, "assemble_am") == []


def _cross_reference(xi, V):
    """Cross product of xi (N, 3) with V (N, 3, ...) along the 3-axis."""
    out = np.empty_like(V)
    a, b, c = (xi[:, i] for i in range(3))
    sl = (slice(None),) + (None,) * (V.ndim - 2)
    a, b, c = a[sl], b[sl], c[sl]
    out[:, 0] = b * V[:, 2] - c * V[:, 1]
    out[:, 1] = c * V[:, 0] - a * V[:, 2]
    out[:, 2] = a * V[:, 1] - b * V[:, 0]
    return out


def _vector_reference(system, profile, X, xi):
    """Vector amplitudes by einsum over sites, then the cross product."""
    sigX = np.array(kron_site_spins(system.s, system.P)) @ X  # (P, 3, dim)
    phases = np.exp(1j * (xi @ system.positions.T))
    amp = np.einsum("l,nl,lmd->nmd", system.moments.astype(complex),
                    phases, sigX)
    r = np.linalg.norm(xi, axis=1)
    return 1j * phi_eval(profile, r)[:, None, None] * _cross_reference(xi, amp)


def _classical_reference(system, profile, S, xi):
    phases = np.exp(1j * (xi @ system.positions.T))
    amp = phases @ (system.moments[:, None] * np.asarray(S)).astype(complex)
    r = np.linalg.norm(xi, axis=1)
    return 1j * phi_eval(profile, r)[:, None] * _cross_reference(xi, amp)


def _closed_directions(profile, n_theta, n_phi):
    """The rule's directions, every u and -u, with weights dw / 2 each."""
    _, _, dirs, dw = _spherical_nodes(profile, 1, n_theta, n_phi)
    return np.concatenate([dirs, -dirs]), np.concatenate([dw, dw]) / 2.0


def _product_grid(profile, n_radial, n_theta, n_phi):
    """The closed rule's nodes xi = r u (N, 3) and weights, node by node."""
    rn, rw, _, _ = _spherical_nodes(profile, n_radial, n_theta, n_phi)
    dirs, dw = _closed_directions(profile, n_theta, n_phi)
    xi = (rn[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    w = (rw[:, None] * rn[:, None] ** 2 * dw[None, :]).ravel()
    return xi, w


def _energy_reference(amplitudes, profile, **quad_sizes):
    """Field energy of an amplitude function, summed node by node."""
    xi, w = _product_grid(profile, **quad_sizes)
    amp = amplitudes(xi)
    mag2 = np.sum(np.abs(amp) ** 2, axis=tuple(range(1, amp.ndim)))
    return 0.5 * (2.0 * math.pi) ** -3 * float(
        np.sum(w * mag2 / np.sum(xi * xi, axis=1)))


SMALL_QUAD = {"n_radial": 24, "n_theta": 8, "n_phi": 16}


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("P", [1, 2, 3])
def test_currents_match_reference(profile, s, P, monkeypatch):
    # 13-40 of the 128 directions per batch: several batches, the last short
    monkeypatch.setattr(field_energy_module, "_BATCH_NODES", 24 * 40)
    _radial_cosines.cache_clear()  # the cosines are cached in batches
    rng = np.random.default_rng(int(10 * s) + P)
    system = random_system(rng, P, s=s)
    if P > 1:
        system = system.with_moments(np.where(np.arange(P) == 1, 0.0,
                                              system.moments))
    X = random_state(rng, system.spin_dim)
    S = rng.normal(size=(P, 3))
    S /= np.linalg.norm(S, axis=1)[:, None]
    xi = rng.normal(size=(40, 3)) * rng.uniform(0.05, 4.0, size=(40, 1))
    xi[0] = 0.0

    cases = [(vector_current(system, profile, X),
              lambda q: _vector_reference(system, profile, X, q)),
             (classical_current(system, profile, S),
              lambda q: _classical_reference(system, profile, S, q))]
    for current, reference in cases:
        amp, ref = amplitudes(current, xi), reference(xi)
        assert amp.shape == ref.shape
        assert np.abs(amp - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(amp[0]).max() == 0.0
        e = field_energy(current, **SMALL_QUAD)
        e_ref = _energy_reference(reference, profile, **SMALL_QUAD)
        assert abs(e - e_ref) <= 1e-13 * e_ref


def _diagonal_reference(system, energy_of):
    """Sum over sites of the energy of that site alone: the diagonal terms."""
    return sum(energy_of(system.with_moments(
        np.where(np.arange(system.P) == lam, system.moments, 0.0)))
        for lam in range(system.P))


# every (s, P) with s in {1/2, 1, 3/2, 5/2} and P <= 5 but the 7776-dim
# 5/2^5, whose node-by-node reference would need 0.4 GB
PAIR_CLUSTERS = [(s, P) for s in (0.5, 1.0, 1.5, 2.5) for P in range(1, 6)
                 if (2 * s + 1) ** P <= 1296]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(PAIR_CLUSTERS), st.integers(1, 8), st.integers(1, 4),
       st.integers(1, 7), st.floats(-6.0, math.log10(40.0)),
       st.integers(0, 2 ** 32 - 1))
def test_pair_sum_matches_node_sum(profile, cluster, n_radial, n_theta,
                                   n_phi, log_d, seed):
    # the pair form against |jhat|^2 summed node by node on the same rule:
    # n_theta = 1 and odd n_phi, zero moments, and sites 0, 1 from 1e-6 to
    # 40 / lam apart, where cos(r tau) oscillates across the radial nodes
    s, P = cluster
    quad = {"n_radial": n_radial, "n_theta": n_theta, "n_phi": n_phi}
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(P, 3)) * 2.0
    if P > 1:
        v = rng.normal(size=3)
        positions[1] = positions[0] + 10.0 ** log_d / profile.lam * v \
            / np.linalg.norm(v)
    moments = rng.uniform(-1.0, 1.0, size=P) * (rng.random(P) < 0.7)
    system = SpinSystem(positions=positions, moments=moments, s=s)
    X = random_state(rng, system.spin_dim)
    S = rng.normal(size=(P, 3))
    S /= np.linalg.norm(S, axis=1)[:, None]

    def node_sums(sy):
        """Node-by-node energies of sy's vector and classical currents."""
        refs = (lambda q: _vector_reference(sy, profile, X, q),
                lambda q: _classical_reference(sy, profile, S, q))
        return np.array([_energy_reference(f, profile, **quad) for f in refs])

    e = np.array([field_energy(vector_current(system, profile, X), **quad),
                  field_energy(classical_current(system, profile, S), **quad)])
    diagonal = _diagonal_reference(system, node_sums)
    assert np.all(np.abs(e - node_sums(system)) <= 1e-13 * diagonal)


@pytest.mark.parametrize("P", [2, 4])
def test_pair_sum_keeps_complex_cross_terms(profile, P):
    # Im <c_lam, c_mu> vanishes for spin and classical currents (spin
    # operators on different sites commute), so only generic complex site
    # vectors V put Im H, and with it sine terms, into the node-by-node sum;
    # the rule is closed under u -> -u, so those terms cancel over each pair
    # u, -u, here for the odd n_phi = 15 whose lower hemisphere lies off the
    # azimuth grid
    rng = np.random.default_rng(P)
    V = rng.normal(size=(P, 3, 2)) + 1j * rng.normal(size=(P, 3, 2))
    current = FourierCurrent(
        evaluator=lambda u: np.cross(u[:, None, :, None], V[None],
                                     axisa=2, axisb=2, axisc=2),
        positions=rng.normal(size=(P, 3)), profile=profile)
    quad = dict(SMALL_QUAD, n_phi=15)
    e = field_energy(current, **quad)
    e_ref = _energy_reference(lambda q: amplitudes(current, q), profile,
                              **quad)
    assert abs(e - e_ref) <= 1e-13 * e_ref


def _full_product_rule(n_theta, n_phi):
    """Gauss-Legendre in cos(theta) on [-1, 1] times n_phi uniform azimuths."""
    cn, cw = np.polynomial.legendre.leggauss(n_theta)
    ph = 2.0 * math.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - cn * cn)
    dirs = np.stack([np.outer(st, np.cos(ph)).ravel(),
                     np.outer(st, np.sin(ph)).ravel(),
                     np.repeat(cn, n_phi)], axis=1)
    return dirs, np.repeat(cw, n_phi) * (2.0 * math.pi / n_phi)


@pytest.mark.parametrize("n_theta, n_phi", [
    (1, 1), (1, 4), (2, 3), (3, 5), (4, 6), (5, 8), (7, 7), (32, 64)])
def test_closed_rule_weights_and_nodes(profile, n_theta, n_phi):
    _, _, upper, _ = _spherical_nodes(profile, 1, n_theta, n_phi)
    assert upper.shape == ((n_theta + 1) // 2 * n_phi, 3)
    assert np.all(upper[:, 2] >= 0.0)
    dirs, dw = _closed_directions(profile, n_theta, n_phi)
    assert np.sum(dw) == pytest.approx(4.0 * math.pi, rel=1e-14)
    if n_phi % 2:
        return
    # for even n_phi the closure is the full product rule: every closed node
    # lies within 1e-15 of one full node, and each full node gathers its
    # weight (an equator node gets dw / 2 from u and dw / 2 from -u)
    full, full_w = _full_product_rule(n_theta, n_phi)
    near = np.abs(full[:, None, :] - dirs[None, :, :]).max(axis=2) <= 1e-15
    assert np.all(near.sum(axis=0) == 1)
    assert np.allclose(near @ dw, full_w, rtol=1e-15, atol=0.0)


def _cos_sin_energy(current):
    """Field energy on the full sized product rule, sine sums included."""
    n_radial, n_theta, n_phi = rule_sizes(current.profile, current.positions)
    rn, rw, _, _ = _spherical_nodes(current.profile, n_radial, 1, 1)
    dirs, dw = _full_product_rule(n_theta, n_phi)
    a = rw * rn * rn * phi_eval(current.profile, rn) ** 2
    c = current.evaluator(dirs)
    c = c.reshape(c.shape[:2] + (-1,))
    H = c.conj() @ c.transpose(0, 2, 1)
    lam, mu = np.triu_indices(len(current.positions), k=1)
    phase = (dirs @ (current.positions[mu] - current.positions[lam]).T)[
        :, :, None] * rn
    Hp = H[:, lam, mu]
    pairs = 2.0 * np.sum((np.cos(phase) @ a) * Hp.real
                         - (np.sin(phase) @ a) * Hp.imag, axis=1)
    diag = np.sum(a) * np.trace(H, axis1=1, axis2=2).real
    return 0.5 * (2.0 * math.pi) ** -3 * float(dw @ (diag + pairs))


@pytest.mark.parametrize("s, P", [(0.5, 3), (1.5, 2)])
def test_default_rule_matches_full_sphere_cos_sin(profile, s, P):
    rng = np.random.default_rng(int(10 * s) + P)
    system = random_system(rng, P, s=s)
    X = random_state(rng, system.spin_dim)
    S = rng.normal(size=(P, 3))
    S /= np.linalg.norm(S, axis=1)[:, None]
    for current in (vector_current(system, profile, X),
                    classical_current(system, profile, S)):
        e_ref = _cos_sin_energy(current)
        assert abs(field_energy(current) - e_ref) <= 1e-14 * e_ref


@pytest.mark.parametrize("quad", [{}, SMALL_QUAD,
                                  {"n_radial": 5, "n_theta": 1, "n_phi": 3}])
def test_opposite_moments_close_together_nonnegative(profile, quad):
    # site terms cancel to 1e-6: the pair sum is a difference of nearly
    # equal diagonal and cross terms, and is not clipped at zero
    system = SpinSystem(positions=[[0.1, -0.2, 0.3], [0.1, -0.2, 0.300001]],
                        moments=[0.7, -0.7])
    up_up = np.eye(4)[0]
    for current in (classical_current(system, profile,
                                      [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                    vector_current(system, profile, up_up)):
        assert field_energy(current, **quad) >= 0.0


def test_non_finite_inputs_rejected(profile, two_spin_system):
    with pytest.raises(DomainError, match="normalized"):
        vector_current(two_spin_system, profile, np.full(4, np.nan))
    for bad in ([[np.nan, 0.0, 1.0], [1.0, 0.0, 0.0]],
                [[0.0, 0.0, 1.0], [np.inf, 0.0, 0.0]]):
        with pytest.raises(DomainError, match="unit vectors"):
            classical_current(two_spin_system, profile, bad)


def test_vector_current_rejects_wrong_dimension(profile, two_spin_system):
    for X in (np.ones(2) / math.sqrt(2.0), np.ones(8) / math.sqrt(8.0),
              np.eye(4)[:, :1]):
        with pytest.raises(DomainError, match="spin state"):
            vector_current(two_spin_system, profile, X)


@pytest.mark.parametrize("sizes", [{"n_radial": 0}, {"n_theta": 0},
                                   {"n_phi": 0}, {"n_phi": -3},
                                   {"n_radial": -1, "n_theta": 4}])
def test_field_energy_rejects_empty_rules(profile, two_spin_system, sizes):
    cur = classical_current(two_spin_system, profile,
                            [[0, 0, 1.0], [1.0, 0, 0]])
    with pytest.raises(DomainError, match="node"):
        field_energy(cur, **sizes)


@pytest.mark.parametrize("sizes", [{"n_radial": 96.0}, {"n_theta": 9.5},
                                   {"n_phi": np.float64(64.0)},
                                   {"n_phi": "64"}, {"n_radial": None},
                                   {"n_radial": True}, {"n_theta": True},
                                   {"n_phi": True}])
def test_field_energy_rejects_non_integer_rule_sizes(profile, two_spin_system,
                                                     sizes):
    cur = classical_current(two_spin_system, profile,
                            [[0, 0, 1.0], [1.0, 0, 0]])
    # after an int call has built the 96 x 32 x 64 rule, 96.0 must not find
    # it; True must not pass as 1
    field_energy(cur, n_radial=96, n_theta=32, n_phi=64)
    (name,) = sizes
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        field_energy(cur, **sizes)


def test_field_energy_same_from_cold_and_warm_caches(profile,
                                                     two_spin_system):
    rng = np.random.default_rng(5)
    currents = [vector_current(two_spin_system, profile,
                               random_state(rng, two_spin_system.spin_dim)),
                classical_current(two_spin_system, profile,
                                  [[0, 0, 1.0], [0.6, 0.8, 0]])]
    _spherical_nodes.cache_clear()
    _radial_cosines.cache_clear()
    cold = [field_energy(cur) for cur in currents]
    warm = [field_energy(cur) for cur in currents]
    # one geometry: both currents share the cosine sums
    assert _radial_cosines.cache_info()[:2] == (3, 1)  # hits, misses
    assert cold == warm


def test_radial_cosines_are_read_only(profile, monkeypatch):
    # 3 directions x 6 pairs x 4 radial nodes per batch: two blocks over
    # the 2 x 3 upper directions
    monkeypatch.setattr(field_energy_module, "_BATCH_NODES", 3 * 6 * 4)
    _radial_cosines.cache_clear()
    system = random_system(np.random.default_rng(8), 4)
    cur = classical_current(system, profile, np.eye(3)[[0, 1, 2, 0]])
    energy = field_energy(cur, n_radial=4, n_theta=3, n_phi=3)
    lam, mu = np.triu_indices(4, k=1)
    dx = tuple((system.positions[mu] - system.positions[lam]).ravel())
    a, blocks = _radial_cosines(profile, 4, 3, 3, dx)
    assert _radial_cosines.cache_info()[:2] == (1, 1)  # hits, misses
    assert [C.shape for C in blocks] == [(3, 6)] * 2
    # a larger batch size finds the cached blocks and follows their batches
    monkeypatch.setattr(field_energy_module, "_BATCH_NODES", 1 << 18)
    assert field_energy(cur, n_radial=4, n_theta=3, n_phi=3) == energy
    for arr in (a,) + blocks:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_spherical_rule_is_built_once_and_read_only(profile):
    rule = _spherical_nodes(profile, 12, 5, 7)
    assert _spherical_nodes(profile, 12, 5, 7) is rule
    fresh = _spherical_nodes.__wrapped__(profile, 12, 5, 7)
    for cached, built in zip(rule, fresh):
        assert np.array_equal(cached, built)
        with pytest.raises(ValueError):
            cached[0] = 0.0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from([(0.5, 1), (0.5, 2), (0.5, 3), (0.5, 4), (1.0, 2),
                        (1.5, 2), (2.5, 1)]),
       st.floats(-6.0, 0.8), st.integers(0, 2 ** 32 - 1))
def test_field_energy_identity_boundary_regimes(profile, cluster, log_d,
                                                seed):
    # dim <= 16, some zero moments, and one pair at 10^log_d: down to the
    # kernel's small-z power series
    s, P = cluster
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(P, 3)) * 2.0
    if P > 1:
        v = rng.normal(size=3)
        positions[1] = positions[0] + 10.0 ** log_d * v / np.linalg.norm(v)
    moments = rng.uniform(-1.0, 1.0, size=P) * (rng.random(P) < 0.7)
    system = SpinSystem(positions=positions, moments=moments, s=s)
    X = random_state(rng, system.spin_dim)
    qf = quadratic_form(assemble_am(system, profile), X)
    energy = field_energy(vector_current(system, profile, X))
    assert abs(qf + energy) <= 1e-6 * max(1.0, abs(qf))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([0.5, 1.0, 1.5]), st.floats(math.log10(0.05),
                                                   math.log10(30.0)),
       st.sampled_from([0.5, 1.0, 4.0]), st.integers(0, 2 ** 32 - 1))
def test_sized_rule_resolves_every_separation(s, log_d, lam, seed):
    # a pair 0.05/lam to 30/lam apart in a random direction, at three
    # cutoffs: on the rule sized for it, the vector identity at a random
    # state and the classical decomposition at a product state both close
    # to 1e-13 of their value
    profile = CutoffProfile(lam)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    positions = rng.normal(size=(1, 3)) / lam + np.array(
        [[0.0, 0.0, 0.0], 10.0 ** log_d / lam * v / np.linalg.norm(v)])
    system = SpinSystem(positions=positions,
                        moments=rng.uniform(0.2, 1.0, size=2)
                        * rng.choice([-1.0, 1.0], size=2), s=s)
    X = random_state(rng, system.spin_dim)
    A = assemble_am(system, profile)
    qf = quadratic_form(A, X)
    energy = field_energy(vector_current(system, profile, X))
    assert abs(qf + energy) <= 1e-13 * abs(qf)
    [(lhs, _, resid)] = classical_decomposition_check(
        A, system, profile, [orbit_product_state(rng, 2, s)])
    assert resid <= 1e-13 * abs(lhs)


@pytest.mark.parametrize("d, sizes", [
    (0.0, (28, 8, 16)), (0.5, (28, 8, 16)), (1.0, (29, 10, 20)),
    (3.0, (33, 16, 32)),
    (20.0, (71, 64, 128)), (80.0, (205, 234, 468))])
def test_rule_sizes_follow_the_separation(d, sizes):
    # the law is scale-free: the same rule at lam and at 4 lam for a
    # geometry shrunk by 4
    for lam in (1.0, 4.0):
        positions = [[0.0, 0.0, 0.0], [d / lam, 0.0, 0.0]]
        assert rule_sizes(CutoffProfile(lam), positions[:1 + (d > 0)]) \
            == sizes


def test_rule_sizes_keep_given_sizes():
    profile, positions = CutoffProfile(), [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    assert rule_sizes(profile, positions, n_radial=12) == (12, 16, 32)
    assert rule_sizes(profile, positions, n_theta=5) == (33, 5, 10)
    assert rule_sizes(profile, positions, n_phi=7) == (33, 16, 7)
    assert rule_sizes(profile, [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]],
                      4, 4, 8) == (4, 4, 8)


@pytest.mark.parametrize("far", [1e3, 1e300, math.inf])
def test_rule_past_the_budget_raises(far):
    # a pair 1e3/lam apart needs about 3e10 nodes; 1e300 and an infinite
    # distance (finite sites 1e308 either side of the origin) must not
    # overflow on the way to the same refusal
    positions = np.array([[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]) \
        if far == math.inf else [[0.0, 0.0, 0.0], [far, 0.0, 0.0]]
    with pytest.raises(ResourceError, match="budget"):
        rule_sizes(CutoffProfile(), positions)
    with pytest.raises(ResourceError, match="budget"):
        rule_sizes(CutoffProfile(), positions[:1], 512, 256, 512)
    assert 512 * 256 * 512 > MAX_RULE_NODES >= 256 * 256 * 512


@pytest.mark.parametrize("positions", [
    [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]],
    [[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]])
def test_far_sites_build_and_refuse_without_overflow(positions):
    # distances are taken on positions scaled to the largest coordinate,
    # so the system builds and the rule refuses without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = SpinSystem(positions=positions, moments=[1.0, -1.0])
        with pytest.raises(ResourceError, match="budget"):
            rule_sizes(CutoffProfile(), system.positions)
