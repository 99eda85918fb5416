import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from spinrad.cutoff import MAX_LAMBDA, CutoffProfile, phi_eval
from spinrad.errors import DomainError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_phi_values(profile):
    assert phi_eval(profile, 0.0) == 1.0
    assert phi_eval(profile, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    wide = CutoffProfile(2.0)
    assert phi_eval(wide, 2.0) == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_phi_rejects_negative_radius(profile):
    with pytest.raises(DomainError):
        phi_eval(profile, -0.1)


def test_phi_schwartz_decay(profile):
    assert abs(phi_eval(profile, profile.far_radius())) <= 1e-15


@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf,
                                 2.0 * MAX_LAMBDA])
def test_cutoff_scale_rejected(lam):
    with pytest.raises(DomainError, match="cutoff scale"):
        CutoffProfile(lam)


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


def test_fock_suites_leave_scipy_linalg_unloaded(tmp_path):
    # the Fock route solves with numpy alone: scipy.linalg and
    # scipy.sparse.linalg would add about 0.04 s to every start-up
    code = textwrap.dedent("""
        import sys, spinrad.cli
        configs, out = sys.argv[1:]
        scales, g = "0.4,0.2,0.1,0.05", "0.4,0.2,0.1"
        for suite, config, points in [
                ("fock-fit", "two_spins", ["--scales", scales]),
                ("fock-fit", "two_spins_equal", ["--scales", scales]),
                ("multiplicity", "two_spins_equal", ["--g", g])]:
            assert spinrad.cli.main([suite, "--config",
                                     f"{configs}/{config}.yaml",
                                     "--out", out, *points]) == 0
        print("loaded:", *(m for m in ("scipy.linalg", "scipy.sparse.linalg")
                           if m in sys.modules))
        """)
    configs = Path(__file__).resolve().parent.parent / "configs"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(configs), str(tmp_path)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.splitlines()[-1].split() == ["loaded:"]
