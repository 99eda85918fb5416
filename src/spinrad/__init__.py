"""Radiative corrections of static spin systems coupled to the quantized
electromagnetic field: spin-space operator assembly, magnetostatic energy
cross-checks, and a truncated-Fock exact-diagonalization toy model."""

__version__ = "0.1.0"

import os
import sys
import warnings

# One BLAS thread, set before any submodule loads numpy: the single-vector
# reductions of a one-column LOBPCG solve change their last bits with the
# OpenBLAS thread count, and artifacts must not depend on it.  BLAS reads
# these variables once, when numpy loads it.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(v) != "1"
                                  for v in _BLAS_VARS):
    warnings.warn(
        "numpy was imported before spinrad, so spinrad's one-thread BLAS pin "
        "cannot act and artifacts may depend on the thread count; import "
        "spinrad first or set " + ", ".join(_BLAS_VARS) + " to 1",
        RuntimeWarning, stacklevel=2)
os.environ.update(dict.fromkeys(_BLAS_VARS, "1"))

from .cutoff import CutoffProfile, phi_eval
from .kernel import KernelMatrix, a11_origin, kernel_matrix, kernel_oracle_3d
from .spin_algebra import ProductState, embed_site_operator, hopf_map, \
    omega_state, product_state, spin_matrices, su2_rotate
from .spin_operator import HermitianSpinOperator, SpinSystem, assemble_am, \
    ground_eigenspace, quadratic_form
# The function field_energy stays in its module, so that the package's
# attribute spinrad.field_energy is the submodule.
from .field_energy import FourierCurrent, classical_current, \
    classical_decomposition_check, higher_spin_constant, vector_current
from .fock import ModeGrid, ToyHamiltonian, build_hamiltonian, \
    build_mode_grid, discrete_am, ground_state, multiplicity_scan, \
    photon_number, quadratic_fit, variational_trial_check
from .config import RunConfig, parse_config, run_manifest
