import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinrad.cutoff import phi_eval
from spinrad.errors import DomainError
from spinrad.field_energy import _spherical_nodes, classical_current, \
    classical_decomposition_check, field_energy, higher_spin_constant, \
    vector_current
from spinrad.spin_algebra import omega_state, product_state, spin_matrices, \
    su2_rotate
from spinrad.spin_operator import SpinSystem, assemble_am, quadratic_form, \
    site_spin_operators

from conftest import random_state


def random_system(rng, P, s=0.5):
    positions = rng.normal(size=(P, 3))
    moments = rng.uniform(-1.0, 1.0, size=P)
    return SpinSystem(positions=positions, moments=moments, s=s)


def orbit_product_state(rng, P, s):
    X0 = omega_state(s)
    return product_state([su2_rotate(s, rng.normal(size=3) * 2.0) @ X0
                          for _ in range(P)], s)


def at_point(current, xi):
    """A current's amplitude at the single point xi."""
    return current.evaluator(np.atleast_2d(xi))[0]


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
    j = at_point(classical_current(system, profile, [[0.0, 0.0, 1.0]]),
                 [0.0, 0.0, 1.3])
    assert np.abs(j).max() <= 1e-15
    j2 = at_point(classical_current(system, profile, [[1.0, 0.0, 0.0]]),
                  [0.0, 0.0, 1.3])
    assert np.abs(j2).max() > 1e-3


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
        lhs, rhs, resid = classical_decomposition_check(system, profile, ps)
        assert resid <= 1e-6 * max(1.0, abs(lhs))


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
    sigX = (site_spin_operators(system.s, system.P) @ X).reshape(
        system.P, 3, -1)
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


def _energy_reference(amplitudes, profile, **quad_sizes):
    """Field energy of an amplitude function, all nodes in one call."""
    xi, w = _spherical_nodes(profile, **quad_sizes)
    amp = amplitudes(xi)
    mag2 = np.sum(np.abs(amp) ** 2, axis=tuple(range(1, amp.ndim)))
    return 0.5 * (2.0 * math.pi) ** -3 * float(
        np.sum(w * mag2 / np.sum(xi * xi, axis=1)))


# 24 x 8 x 16 = 3072 nodes: more than one evaluator batch
SMALL_QUAD = {"n_radial": 24, "n_theta": 8, "n_phi": 16}


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("P", [1, 2, 3])
def test_currents_match_reference(profile, s, P):
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
        amp, ref = current.evaluator(xi), reference(xi)
        assert amp.shape == ref.shape
        assert np.abs(amp - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(amp[0]).max() == 0.0
        e = field_energy(current, **SMALL_QUAD)
        e_ref = _energy_reference(reference, profile, **SMALL_QUAD)
        assert abs(e - e_ref) <= 1e-13 * e_ref


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


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(0.5, 1), (0.5, 2), (0.5, 3), (0.5, 4), (1.0, 2),
                        (1.5, 2), (2.5, 1)]),
       st.floats(-6.0, 0.8), st.integers(0, 2 ** 32 - 1))
def test_field_energy_identity_boundary_regimes(profile, cluster, log_d,
                                                seed):
    # dim <= 16, some zero moments, and one pair at 10^log_d: down to the
    # series branch of j1/j2 in the kernel
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
