import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinrad.cutoff import CutoffProfile, phi_eval
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


def test_cli_import_leaves_scipy_quadrature_stack_unloaded():
    # the kernel is closed form: scipy.integrate, which loads scipy.special
    # and scipy.optimize, would add about 0.13 s to every command's start-up
    code = ("import sys, spinrad.cli; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.special', 'scipy.optimize') "
            "if m in sys.modules))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == []
