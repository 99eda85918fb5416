import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import spherical_jn

from spinrad.cutoff import CutoffProfile, j0, j2, phi_eval
from spinrad.errors import DomainError

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def test_unknown_profile_kind_rejected():
    with pytest.raises(DomainError):
        CutoffProfile("lorentzian", 1.0)
    with pytest.raises(DomainError):
        CutoffProfile("gaussian", -1.0)


@pytest.mark.parametrize("n, fn", [(0, j0), (2, j2)])
def test_spherical_bessel_helpers_match_scipy(n, fn):
    # dense around the series/closed-form switch at z = 1, then out to the
    # largest r |x| a far-field kernel integrand reaches
    z = np.concatenate([np.linspace(0.0, 2.0, 20001),
                        np.nextafter(1.0, [0.0, 2.0]),
                        np.linspace(2.0, 800.0, 100001)])
    ours = fn(z)
    assert np.abs(ours - spherical_jn(n, z)).max() <= 1e-15


def test_cli_import_leaves_scipy_quadrature_stack_unloaded():
    # the radial rule is numpy only: scipy.integrate, which loads
    # scipy.special and scipy.optimize, would add about 0.13 s to every
    # command's start-up
    code = ("import sys, spinrad.cli; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.special', 'scipy.optimize') "
            "if m in sys.modules))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == []
