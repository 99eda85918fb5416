import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation
from scipy.special import spherical_jn

from spinrad.cutoff import CutoffProfile, grad_rho, j0, j1, j2, phi_eval, \
    rho_eval
from spinrad.errors import DomainError

INV_2PI_32 = (2.0 * math.pi) ** -1.5


def closed_form_rho(lam, x):
    r2 = float(np.dot(x, x))
    return (lam * lam / (2.0 * math.pi)) ** 1.5 * math.exp(-lam * lam * r2 / 2.0)


def test_phi_values(profile):
    assert phi_eval(profile, 0.0) == 1.0
    assert phi_eval(profile, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    wide = CutoffProfile("gaussian", 2.0)
    assert phi_eval(wide, 2.0) == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_phi_rejects_negative_radius(profile):
    with pytest.raises(DomainError):
        phi_eval(profile, -0.1)


def test_phi_schwartz_decay(profile):
    assert abs(phi_eval(profile, profile.far_radius())) <= 1e-15


def test_rho_closed_form(profile):
    assert rho_eval(profile, [0.0, 0.0, 0.0]) == pytest.approx(INV_2PI_32,
                                                               rel=1e-8)
    assert rho_eval(profile, [1.0, 0.0, 0.0]) == pytest.approx(
        INV_2PI_32 * math.exp(-0.5), rel=1e-8)
    for lam in (0.7, 2.3):
        p = CutoffProfile("gaussian", lam)
        for x in ([0.2, -0.7, 0.5], [1.5, 0.0, -2.0]):
            assert rho_eval(p, x) == pytest.approx(closed_form_rho(lam, x),
                                                   rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_rho_rotation_invariance(profile, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=3) * rng.uniform(0.1, 3.0)
    R = Rotation.random(random_state=np.random.RandomState(seed)).as_matrix()
    a, b = rho_eval(profile, x), rho_eval(profile, R @ x)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_grad_vanishes_at_origin(profile):
    assert np.allclose(grad_rho(profile, [0.0, 0.0, 0.0]), 0.0)


def test_grad_closed_form(profile):
    g = grad_rho(profile, [1.0, 0.0, 0.0])
    rho = rho_eval(profile, [1.0, 0.0, 0.0])
    assert np.allclose(g, [-rho, 0.0, 0.0], rtol=1e-8)
    g2 = grad_rho(profile, [0.0, 2.0, 0.0])
    rho2 = rho_eval(profile, [0.0, 2.0, 0.0])
    assert np.allclose(g2, [0.0, -2.0 * rho2, 0.0], rtol=1e-8)


@pytest.mark.parametrize("x", [[0.3, 0.1, -0.4], [1.0, -1.0, 0.5],
                               [0.0, 0.0, 1.7]])
def test_grad_matches_finite_differences(profile, x):
    h = 1e-4
    g = grad_rho(profile, x)
    fd = np.empty(3)
    for i in range(3):
        xp, xm = np.array(x, float), np.array(x, float)
        xp[i] += h
        xm[i] -= h
        fd[i] = (rho_eval(profile, xp) - rho_eval(profile, xm)) / (2.0 * h)
    assert np.all(np.abs(g - fd) <= 1e-6 * max(1.0, np.abs(g).max()))


def test_unknown_profile_kind_rejected():
    with pytest.raises(DomainError):
        CutoffProfile("lorentzian", 1.0)
    with pytest.raises(DomainError):
        CutoffProfile("gaussian", -1.0)


@pytest.mark.parametrize("n, fn", [(0, j0), (1, j1), (2, j2)])
def test_spherical_bessel_helpers_match_scipy(n, fn):
    # dense around the series/closed-form switch at z = 1, then out to the
    # largest r |x| a far-field kernel integrand reaches
    z = np.concatenate([np.linspace(0.0, 2.0, 20001),
                        np.nextafter(1.0, [0.0, 2.0]),
                        np.linspace(2.0, 800.0, 100001)])
    ours = np.array([fn(float(v)) for v in z])
    assert np.abs(ours - spherical_jn(n, z)).max() <= 1e-15
