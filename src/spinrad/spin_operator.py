"""Assembly and spectral analysis of the spin-space operator A_M.

A_M X = -1/2 sum_{lam,mu} sum_{j,m} M[lam] M[mu] A_jm(x[mu] - x[lam])
        sigma_m^[mu] sigma_j^[lam] X,

a Hermitian, negative-semidefinite operator on the (2s+1)^P-dimensional
spin space.  Its smallest eigenvalue is the quadratic coefficient of the
ground-energy expansion in the magnetic moments.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp

from .cutoff import CutoffProfile
from .errors import DomainError, ResourceError, SpinradError
from .kernel import kernel_matrix
from .spin_algebra import MAX_DENSE_DIM, _check_half_integer, \
    embed_site_operator, embedded_entries, spin_matrices

# Relative ceiling on positive eigenvalues of an assembled A_M; anything
# larger diagnoses a kernel or assembly bug and is raised, not clipped.
PSD_VIOLATION_TOL = 1e-10

DEFAULT_DEGENERACY_TOL = 1e-7


@dataclass
class SpinSystem:
    """P static spin-s particles with positions and magnetic moments."""

    positions: np.ndarray  # (P, 3)
    moments: np.ndarray    # (P,)
    s: float = 0.5

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.moments = np.atleast_1d(np.asarray(self.moments, dtype=float))
        if self.positions.shape != (self.P, 3):
            raise DomainError("positions must be a (P, 3) array")
        if self.moments.shape != (self.P,):
            raise DomainError("moments must have one entry per particle")
        if not np.isfinite(np.append(self.positions, self.moments)).all():
            raise DomainError("positions and moments must be finite")
        for a in range(self.P):
            for b in range(a + 1, self.P):
                if np.linalg.norm(self.positions[a] - self.positions[b]) < 1e-12:
                    raise DomainError("positions pairwise distinct")
        self.s = _check_half_integer(self.s) / 2.0

    @property
    def P(self) -> int:
        return len(self.moments)

    @property
    def spin_dim(self) -> int:
        return int(round(2 * self.s + 1)) ** self.P

    def with_moments(self, moments) -> "SpinSystem":
        return SpinSystem(positions=self.positions.copy(),
                          moments=np.asarray(moments, dtype=float), s=self.s)


@dataclass
class HermitianSpinOperator:
    """Dense Hermitian matrix on the spin space and its spectrum.

    One decomposition: `eigvalsh`, or `eigh` when vectors is true; without
    vectors, `eigenvectors` is None.
    """

    matrix: np.ndarray
    vectors: InitVar[bool] = False
    eigenvalues: np.ndarray = field(init=False, repr=False)  # ascending
    eigenvectors: np.ndarray | None = field(init=False, repr=False)  # columns

    def __post_init__(self, vectors):
        if vectors:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.matrix)
        else:
            self.eigenvalues = np.linalg.eigvalsh(self.matrix)
            self.eigenvectors = None


@functools.lru_cache(maxsize=8, typed=True)
def site_spin_operators(s, P) -> sp.csr_matrix:
    """Sparse stack S of shape (3 P dim, dim) of the embedded spins.

    Row block a = 3 lam + m (0-based) is S_a = sigma_(m+1) on site lam + 1.
    Built once per process for each (s, P), typed so that True is not 1,
    and shared: its data, indices and indptr are read-only.
    """
    sig = spin_matrices(s)
    S = sp.vstack([embed_site_operator(sig[m], lam + 1, P)
                   for lam in range(P) for m in range(3)], format="csr")
    for arr in (S.data, S.indices, S.indptr):
        arr.flags.writeable = False
    return S


def bilinear_spin_operator(coef: np.ndarray, s) -> np.ndarray:
    """Dense sum_{a,b} coef[a, b] S_a S_b, one block per site and site pair.

    With C = coef indexed [3 lam + j, 3 mu + m], site lam gives the d x d
    block sum_jm C[lam j, lam m] sigma_j sigma_m.  Spins on different sites
    commute, so the pair lam < mu gives the d^2 x d^2 block
    sum_jm (C[lam j, mu m] + C[mu m, lam j]) sigma_j (x) sigma_m.  Each
    block is added into A at the base-d digits of its sites.

    Every dense spin-space array is built here, so here is where the dense
    budget and Hermiticity are checked, before anything of size dim^2 is
    allocated: a Hermitian coef gives Hermitian site and pair blocks.
    """
    coef = np.asarray(coef)
    sig = np.array(spin_matrices(s))
    d, P = sig.shape[1], coef.shape[0] // 3
    dim = d ** P
    if dim > MAX_DENSE_DIM:
        raise ResourceError(f"spin dimension {dim} exceeds the dense budget")
    herm = np.linalg.norm(coef - coef.conj().T)
    if herm > 1e-12 * max(1.0, np.linalg.norm(coef)):
        raise SpinradError(f"spin operator coefficients are not Hermitian "
                           f"({herm:.3e})")
    C = coef.reshape(P, 3, P, 3)
    A = np.zeros((dim, dim), dtype=complex)

    def add(block, sites):
        rows, cols, vals = embedded_entries(block, sites, d, P)
        A[rows, cols] += vals

    for lam in range(P):
        add(np.einsum("jm,jab,mbc->ac", C[lam, :, lam], sig, sig), (lam,))
        for mu in range(lam + 1, P):
            pair = C[lam, :, mu] + C[mu, :, lam].T
            add(np.einsum("jm,jab,mcd->acbd", pair, sig, sig)
                .reshape(d * d, d * d), (lam, mu))
    return A


def _assemble(system: SpinSystem, kernel_at) -> np.ndarray:
    """A_M from one kernel_at call per site pair and one at the origin.

    Exact because kernel_at(d) is real symmetric and even in d.
    """
    P, x = system.P, system.positions
    K = np.empty((P, 3, P, 3))
    K0 = kernel_at(np.zeros(3))
    for lam in range(P):
        K[lam, :, lam] = K0
        for mu in range(lam + 1, P):
            K[lam, :, mu] = kernel_at(x[mu] - x[lam])
            K[mu, :, lam] = K[lam, :, mu].T
    Mj = np.repeat(system.moments, 3)
    return bilinear_spin_operator(
        -0.5 * np.outer(Mj, Mj) * K.reshape(3 * P, 3 * P), system.s)


def _checked_operator(A, vectors: bool) -> HermitianSpinOperator:
    """The operator of an assembled A_M; raises unless NSD.

    A comes from bilinear_spin_operator, which checked its Hermiticity.
    vectors asks for eigenvectors too (see HermitianSpinOperator).
    """
    op = HermitianSpinOperator(matrix=A, vectors=vectors)
    if op.eigenvalues[-1] > PSD_VIOLATION_TOL * max(1.0, np.linalg.norm(A)):
        raise SpinradError(f"A_M has a positive eigenvalue "
                           f"{op.eigenvalues[-1]:.3e}; kernel/assembly bug")
    return op


def assemble_am(system: SpinSystem, profile: CutoffProfile,
                vectors: bool = False) -> HermitianSpinOperator:
    """Assemble A_M from continuum kernel evaluations.

    vectors asks for eigenvectors, which only ground_eigenspace's basis reads.
    """
    A = _assemble(system, lambda d: kernel_matrix(profile, d).entries)
    return _checked_operator(A, vectors)


def quadratic_form(A: HermitianSpinOperator, X):
    """Real Rayleigh value <A X, X> for a normalized X.

    X is one state of shape (dim,) or a stack of shape (n, dim); a stack
    gives one value per row.
    """
    X = np.asarray(X, dtype=complex)
    # written so that a NaN norm fails too
    if not np.all(np.abs(np.linalg.norm(X, axis=-1) - 1.0) <= 1e-12):
        raise DomainError("quadratic_form requires a normalized state")
    return np.einsum("...i,...i->...", X.conj(), X @ A.matrix.T).real


def ground_eigenspace(A: HermitianSpinOperator,
                      degeneracy_tol: float = DEFAULT_DEGENERACY_TOL):
    """Smallest eigenvalue, its cluster multiplicity, and an orthonormal basis.

    The cluster gathers eigenvalues within degeneracy_tol * max(1, |lam_min|)
    of the minimum.  The basis is None unless A holds eigenvectors.
    """
    lam_min = A.eigenvalues[0]
    width = degeneracy_tol * max(1.0, abs(lam_min))
    mult = int(np.sum(A.eigenvalues <= lam_min + width))
    basis = None if A.eigenvectors is None else A.eigenvectors[:, :mult]
    return lam_min, mult, basis
