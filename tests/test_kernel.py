import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import spherical_jn

from spinrad.cutoff import CutoffProfile, phi_eval
from spinrad.errors import DomainError
from spinrad.kernel import _oracle_rule, a11_origin, kernel_matrix, \
    kernel_oracle_3d

A11_GAUSS = 1.0 / (12.0 * math.pi ** 1.5)


def random_displacements(seed, count, radius=5.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=3)
        out.append(v * rng.uniform(0.1, radius) / np.linalg.norm(v))
    return out


def test_origin_is_isotropic(profile):
    K = kernel_matrix(profile, [0.0, 0.0, 0.0]).entries
    assert np.allclose(K, K[0, 0] * np.eye(3), atol=1e-12)
    assert K[0, 0] == pytest.approx(A11_GAUSS, rel=1e-8)


def test_a11_origin_closed_form_and_scaling(profile):
    assert a11_origin(profile) == pytest.approx(A11_GAUSS, rel=1e-8)
    assert a11_origin(CutoffProfile(2.0)) == pytest.approx(
        8.0 * a11_origin(profile), rel=1e-8)
    assert a11_origin(profile) == pytest.approx(
        kernel_matrix(profile, [0.0, 0.0, 0.0]).entries[0, 0], rel=1e-8)


def test_trace_at_origin(profile):
    K = kernel_matrix(profile, [0.0, 0.0, 0.0]).entries
    assert np.trace(K) == pytest.approx(3.0 * a11_origin(profile), rel=1e-8)


def test_symmetry_and_evenness(profile):
    for x in random_displacements(7, 5):
        K = kernel_matrix(profile, x).entries
        assert np.abs(K - K.T).max() <= 1e-9
        assert np.abs(K - kernel_matrix(profile, -np.asarray(x)).entries).max() \
            <= 1e-9


def test_far_field_dipole_tail(profile):
    # beyond the cutoff scale the kernel approaches the trace-free
    # point-dipole tail -(delta - 3 xhat xhat)/(4 pi r^3)
    r = 20.0
    K = kernel_matrix(profile, [r, 0.0, 0.0]).entries
    tail = np.diag([2.0, -1.0, -1.0]) / (4.0 * math.pi * r ** 3)
    assert np.abs(K - tail).max() <= 1e-9
    assert abs(np.trace(K)) <= 1e-9


@pytest.mark.parametrize("r", [40.0, 80.0, 500.0, 1000.0, 1e4])
def test_far_field_dipole_tail_relative(profile, r):
    # at these distances the Gaussian smearing is below roundoff, so the
    # kernel must reproduce the tail to its own scale
    xhat = np.array([0.48, -0.6, 0.64])
    K = kernel_matrix(profile, r * xhat).entries
    tail = -(np.eye(3) - 3.0 * np.outer(xhat, xhat)) / (4.0 * math.pi * r ** 3)
    assert np.abs(K - tail).max() <= 1e-9 * np.abs(tail).max()


@pytest.mark.parametrize("lam, r", [
    (1.0, 1e102), (1.0, 1.1e103), (1.0, 1.2e103), (1.0, 2e103),
    (1e50, 1e53), (1e50, 1e60), (1e10, 1e95), (1.0, 1e150)])
def test_dipole_tail_where_z_cubed_overflows(lam, r):
    # z = lam r / 2 has no finite cube beyond 5.6e102 (at lam = 1 between
    # the second and third radius); the kernel is then the tail itself,
    # which underflows into subnormals at lam = 1 and to zero at 1e150,
    # but not at larger lam: 2.5e-182 at lam = 1e50
    xhat = np.array([0.48, -0.6, 0.64])
    K = kernel_matrix(CutoffProfile(lam), r * xhat).entries
    tail = -(np.eye(3) - 3.0 * np.outer(xhat, xhat)) / (4.0 * math.pi) \
        / r / r / r
    assert np.all(np.isfinite(K))
    assert np.abs(K - tail).max() <= 1e-9 * np.abs(tail).max()
    assert (np.abs(tail).max() > 0.0) == (r < 1e150)


def dipole_tensor(x):
    """Point-dipole kernel (3 xhat xhat^T - I) / (4 pi r^3) at x."""
    r = np.linalg.norm(x)
    xhat = x / r
    return (3.0 * np.outer(xhat, xhat) - np.eye(3)) / (4.0 * math.pi * r ** 3)


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, 100.0])
def test_far_field_approaches_the_dipole_at_its_rate(lam):
    # the kernel is g I + grad grad u with g ~ e^{-z^2} and
    # u = erf(z) / (4 pi r), so it leaves the dipole tail by O(z^3 e^{-z^2})
    # of the tail's scale, z = lam r / 2; at most 1.9 z^3 e^{-z^2} up to
    # z = 6, roundoff beyond
    rng = np.random.default_rng(61)
    profile = CutoffProfile(lam)
    for z in np.linspace(4.0, 12.0, 41):
        v = rng.normal(size=3)
        x = 2.0 * z / lam * v / np.linalg.norm(v)
        D = dipole_tensor(x)
        err = np.abs(kernel_matrix(profile, x).entries - D).max()
        assert err <= (4.0 * z ** 3 * math.exp(-z * z) + 1e-14) \
            * np.abs(D).max(), z


def reference_radial(profile, f):
    """int_0^r_far |phi(r)|^2 r^2 f(r) dr by scipy's adaptive quad."""
    with warnings.catch_warnings():
        # quad flags roundoff once it is at the 1e-16 level asked for
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda r: phi_eval(profile, r) ** 2 * r * r * f(r), 0.0,
            profile.far_radius(), epsabs=1e-16, epsrel=1e-14, limit=2000)
    return val


def reference_kernel(profile, x):
    """The kernel's radial reduction by scipy's quad and spherical_jn.

    A = a I + b xhat xhat^T, t = |x|, with
    a(t) = (6 pi^2)^-1 int |phi|^2 r^2 (2 j_0(rt) - j_2(rt)) dr and
    b(t) = (2 pi^2)^-1 int |phi|^2 r^2 j_2(rt) dr: a route to A that
    shares nothing with the closed form.
    """
    t = float(np.linalg.norm(x))
    a = reference_radial(
        profile, lambda r: 2.0 * spherical_jn(0, r * t)
        - spherical_jn(2, r * t)) / (6.0 * math.pi ** 2)
    b = reference_radial(profile, lambda r: spherical_jn(2, r * t)) \
        / (2.0 * math.pi ** 2)
    xhat = np.asarray(x) / t
    return a * np.eye(3) + b * np.outer(xhat, xhat)


def test_matches_scipy_bessel_reference():
    rng = np.random.default_rng(17)
    for lam in (1.0, 1.7):
        p = CutoffProfile(lam)
        radii = np.exp(rng.uniform(math.log(0.05), math.log(80.0), 4))
        for radius in [0.05, 80.0, *radii]:
            v = rng.normal(size=3)
            x = radius * v / np.linalg.norm(v)
            K = kernel_matrix(p, x).entries
            assert np.abs(K - reference_kernel(p, x)).max() <= 1e-13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(0.5, 2.0),
       log_radius=st.floats(math.log(1e-3), math.log(80.0)),
       direction=st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(
           lambda v: np.linalg.norm(v) > 0.1))
def test_matches_reference_up_to_far_field(lam, log_radius, direction):
    p = CutoffProfile(lam)
    xhat = np.asarray(direction) / np.linalg.norm(direction)
    x = math.exp(log_radius) * xhat
    K = kernel_matrix(p, x).entries
    assert np.abs(K - reference_kernel(p, x)).max() <= 1e-13


def test_a11_origin_matches_reference():
    for lam in (0.5, 1.0, 1.7):
        p = CutoffProfile(lam)
        ref = reference_radial(p, lambda r: 1.0) / (3.0 * math.pi ** 2)
        assert abs(a11_origin(p) - ref) <= 1e-13


def test_a11_origin_is_closed_form_to_two_ulp():
    with mpmath.workdps(40):
        for lam in (0.5, 1.0, 1.7, 2.0):
            exact = mpmath.mpf(lam) ** 3 / (12 * mpmath.pi ** 1.5)
            err = abs(a11_origin(CutoffProfile(lam)) - exact)
            assert err <= 2 * math.ulp(float(exact))


def closed_form_40_digits(lam, x):
    """A(x) = a I + b xhat xhat^T from g and u'/r at 40 digits."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        x = [mpmath.mpf(float(v)) for v in x]
        r = mpmath.sqrt(sum(v * v for v in x))
        z = lam * r / 2
        g = lam ** 3 * mpmath.exp(-z * z) / (8 * mpmath.pi ** 1.5)
        du = (2 * z * mpmath.exp(-z * z) / mpmath.sqrt(mpmath.pi)
              - mpmath.erf(z)) / (4 * mpmath.pi * r ** 3)
        return np.array([[float((g + du) * (j == m) - (g + 3 * du)
                                * x[j] * x[m] / (r * r))
                          for m in range(3)] for j in range(3)])


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_closed_form_matches_40_digit_evaluation(lam):
    # z = lam |x| / 2: dense on both sides of the series switch at z = 1,
    # then log-spaced over |x| in [1e-4, 1e4] / lam
    z = np.concatenate([np.linspace(0.5, 1.5, 201),
                        1.0 + np.linspace(-1e-6, 1e-6, 21),
                        np.geomspace(0.5e-4, 0.5e4, 161)])
    p = CutoffProfile(lam)
    scale = a11_origin(p)
    for x in np.outer(2.0 * z / lam, [0.48, -0.6, 0.64]):
        err = np.abs(kernel_matrix(p, x).entries
                     - closed_form_40_digits(lam, x)).max()
        assert err <= 1e-15 * scale


def test_matches_oracle(profile):
    for x in random_displacements(11, 10):
        K = kernel_matrix(profile, x).entries
        O = kernel_oracle_3d(profile, x).entries
        assert np.abs(K - O).max() <= 1e-6


@pytest.mark.parametrize("x", [[0.3, 0.1], [[0.3, 0.1, -0.5]],
                               [0.3, 0.1, -0.5, 0.2], 0.3])
@pytest.mark.parametrize("evaluate", [kernel_matrix, kernel_oracle_3d])
def test_displacement_must_be_a_3_vector(profile, evaluate, x):
    with pytest.raises(DomainError, match=r"shape \(3,\)"):
        evaluate(profile, x)


def test_oracle_origin_value(profile):
    O = kernel_oracle_3d(profile, [0.0, 0.0, 0.0]).entries
    assert abs(O[0, 0] - A11_GAUSS) <= 1e-6
    assert np.abs(O - np.diag(np.diag(O))).max() <= 1e-9


def _oracle_reference(profile, x, n):
    """The 3D oracle as nine full sums over a meshgrid of k."""
    half = profile.far_radius(1e-8)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes, weights = nodes * half, weights * half
    kx, ky, kz = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    w = weights[:, None, None] * weights[None, :, None] \
        * weights[None, None, :]
    k = np.stack([kx, ky, kz], axis=-1)
    k2 = kx * kx + ky * ky + kz * kz
    f = phi_eval(profile, np.sqrt(k2)) ** 2 * np.exp(-1j * (k @ x)) * w / k2
    out = np.empty((3, 3), dtype=complex)
    for j in range(3):
        for m in range(3):
            proj = (k2 if j == m else 0.0) - k[..., j] * k[..., m]
            out[j, m] = np.sum(f * proj)
    return out / (2.0 * math.pi) ** 3


@pytest.mark.parametrize("n, x", [
    (32, [0.7, -0.4, 1.1]),
    (32, [0.0, 0.0, 0.0]),
    (32, [-3.2, 0.5, 2.4]),
    (128, [0.7, -0.4, 1.1]),
    (128, [1.9, 2.6, -0.8]),
])
def test_oracle_matches_nine_sum_reference(profile, n, x):
    O = kernel_oracle_3d(profile, x, n).entries
    ref = _oracle_reference(profile, np.asarray(x, dtype=float), n)
    assert np.abs(O - ref.real).max() <= 1e-15
    assert np.abs(ref.imag).max() <= 1e-15


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(0.5, 2.0), radius=st.floats(0.0, 8.0),
       direction=st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       n=st.sampled_from([8, 9, 16, 32]))
def test_oracle_pairing_matches_reference(lam, radius, direction, n):
    p = CutoffProfile(lam)
    x = radius * np.asarray(direction) / np.linalg.norm(direction)
    O = kernel_oracle_3d(p, x, n).entries
    assert np.abs(O - _oracle_reference(p, x, n + n % 2).real).max() <= 1e-15
    # cos is even and sin odd, so the pairing is exact under x -> -x
    assert np.array_equal(O, kernel_oracle_3d(p, -x, n).entries)
    if n % 2:
        assert np.array_equal(O, kernel_oracle_3d(p, x, n + 1).entries)


@pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                               [0.3, 0.1, -np.inf]])
def test_non_finite_displacement_rejected(profile, x):
    with pytest.raises(DomainError, match="finite"):
        kernel_matrix(profile, x)
    with pytest.raises(DomainError, match="finite"):
        kernel_oracle_3d(profile, x)


def test_oracle_rejects_tiny_node_count(profile):
    with pytest.raises(DomainError):
        kernel_oracle_3d(profile, [0.0, 0.0, 0.0], n=4)


@pytest.mark.parametrize("n", [128.0, 9.5, np.float64(32.0), "128", None,
                               True])
def test_oracle_rejects_non_integer_node_count(profile, n):
    # after an int call has built the n = 128 rule, 128.0 must not find it
    kernel_oracle_3d(profile, [0.3, 0.1, -0.2])
    with pytest.raises(DomainError, match="integer"):
        kernel_oracle_3d(profile, [0.3, 0.1, -0.2], n)


def test_oracle_axis_rule_is_built_once_and_read_only(profile):
    rule = _oracle_rule(profile, 32)
    assert _oracle_rule(profile, 32) is rule
    for cached, fresh in zip(rule, _oracle_rule.__wrapped__(profile, 32)):
        assert np.array_equal(cached, fresh)
        with pytest.raises(ValueError):
            cached[0] = 0.0
    # the table divided in place has the bits of a separate build from the
    # axis factors, and equals |phi(|k|)|^2 / |k|^2 to roundoff
    k, _, g = rule
    k2 = (k * k)[:, None, None] + (k * k)[:, None] + k * k
    f = phi_eval(profile, k) ** 2
    assert np.array_equal(g, f[:, None, None] * f[:, None] * f / k2)
    radial = phi_eval(profile, np.sqrt(k2)) ** 2 / k2
    assert np.abs(g - radial).max() <= 1e-15 * radial.max()


def test_oracle_same_from_cold_and_warm_rule(profile):
    x = [0.3, -0.7, 0.45]
    _oracle_rule.cache_clear()
    cold = kernel_oracle_3d(profile, x, n=32).entries
    warm = kernel_oracle_3d(profile, x, n=32).entries
    assert _oracle_rule.cache_info()[:2] == (1, 1)  # hits, misses
    assert np.array_equal(cold, warm)


def test_row_transversality(profile):
    # sum_m d_m A_jm = 0, by central finite differences
    h = 1e-4
    for x in random_displacements(13, 3, radius=2.0):
        div = np.zeros(3)
        for m in range(3):
            xp, xm = np.array(x, float), np.array(x, float)
            xp[m] += h
            xm[m] -= h
            Kp = kernel_matrix(profile, xp).entries
            Km = kernel_matrix(profile, xm).entries
            div += (Kp[:, m] - Km[:, m]) / (2.0 * h)
        assert np.abs(div).max() <= 1e-5
