"""Assembly and spectral analysis of the spin-space operator A_M.

A_M X = -1/2 sum_{lam,mu} sum_{j,m} M[lam] M[mu] A_jm(x[mu] - x[lam])
        sigma_m^[mu] sigma_j^[lam] X,

a Hermitian, negative-semidefinite operator on the (2s+1)^P-dimensional
spin space.  Its smallest eigenvalue is the quadratic coefficient of the
ground-energy expansion in the magnetic moments.

Sites that span exactly a plane with normal n are fixed by the mirror
through it.  Spin is an axial vector, so the mirror acts on spins as
det(R) R, the pi rotation about n, and A_M commutes with that rotation
on every site.  assemble_am then writes A_M in a frame whose z axis is n,
where the rotation is diagonal in the weight basis, and solves it in the
two sectors of the parity of the weight digits (HermitianSpinOperator).
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np

from .cutoff import CutoffProfile
from .errors import DomainError, ResourceError, SpinradError
from .kernel import kernel_matrix
from .spin_algebra import _check_half_integer, _on_site, _require_unit, \
    spin_matrices, su2_rotate
# unused, but perfbench/tracing.py pins this name (ROADMAP item 2a)
from .spin_algebra import embed_site_operator  # noqa: F401

# Ceiling on positive eigenvalues of an assembled A_M, relative to its
# spectral radius with no floor; anything larger diagnoses a kernel or
# assembly bug and is raised, not clipped.
PSD_VIOLATION_TOL = 1e-10

DEFAULT_DEGENERACY_TOL = 1e-7

# Ceiling on the entries that a sector solve drops, relative to max|A|.
SECTOR_COUPLING_TOL = 1e-12

# Sites span a plane when the third singular value of their centred
# positions is at most this fraction of the largest pair distance and the
# second is above it.
PLANARITY_TOL = 1e-13


def _scaled_distances(positions):
    """(scale, positions / scale, their pairwise distances) of (P, 3)
    positions, scale the power of two at or below the largest |coordinate|
    (1/2 when all are 0): exact short of underflow, and no finite position
    overflows when differenced or squared."""
    pos = np.asarray(positions, dtype=float)
    scale = math.ldexp(1.0, math.frexp(np.abs(pos).max(initial=0.0))[1] - 1)
    pos = pos / scale
    return scale, pos, np.linalg.norm(pos[:, None] - pos, axis=2)


def _plane_frame(positions):
    """Rotation vector theta that takes the unit normal of the sites' plane
    to z, or None unless the sites span exactly a plane.

    The normal is the third right singular vector of the centred positions
    (scaled as by _scaled_distances), signed so that n_z >= 0; theta is
    then the angle atan2(|n x z|, n_z) <= pi/2 about n x z, in closed form.
    """
    if len(positions) < 3:
        return None
    _, pos, gap = _scaled_distances(positions)
    _, sv, vt = np.linalg.svd(pos - pos.mean(axis=0), full_matrices=False)
    if not sv[2] <= PLANARITY_TOL * gap.max() < sv[1]:
        return None
    n = vt[2] if vt[2, 2] >= 0.0 else -vt[2]
    axis = np.array([n[1], -n[0], 0.0])  # n x z
    sin = math.hypot(n[0], n[1])
    return axis * (math.atan2(sin, n[2]) / sin) if sin > 0.0 else axis


def _rotation(theta) -> np.ndarray:
    """Rotation matrix R of the rotation vector theta (Rodrigues' formula,
    R = cos a I + sin a [k]x + (1 - cos a) k k^T for theta = a k, |k| = 1).

    su2_rotate(s, theta) = D carries the spins by the same rotation:
    D^H sigma_j D = sum_k R[j, k] sigma_k.
    """
    angle = math.hypot(*theta)
    if angle == 0.0:
        return np.eye(3)
    x, y, z = (float(c) / angle for c in theta)
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array([[c + x * x * C, x * y * C - z * s, x * z * C + y * s],
                     [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
                     [z * x * C - y * s, z * y * C + x * s, c + z * z * C]])


@functools.lru_cache(maxsize=16)
def _parity_sectors(d, P):
    """Read-only index arrays of the states of (C^d)^(x P) whose weight
    digits sum to an even and to an odd number.

    exp(-i pi J_z) multiplies |s, s - k> by (-i)^(2s) (-1)^k, so the pi
    rotation about z on every site is diagonal in the weight basis, and
    its two eigenspaces are these sectors.
    """
    total = np.zeros(1, dtype=np.intp)
    for _ in range(P):
        total = (total[:, None] + np.arange(d)).reshape(-1)
    odd = total % 2 == 1
    sectors = (np.flatnonzero(~odd), np.flatnonzero(odd))
    for k in sectors:
        k.flags.writeable = False
    return sectors


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
        # coincidence to roundoff of the positions' own size, at any scale
        _, pos, gap = _scaled_distances(self.positions)
        size = np.linalg.norm(pos, axis=1)
        if np.triu(gap <= 1e-12 * np.maximum.outer(size, size), 1).any():
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
    vectors, `eigenvectors` is None.  An A_M keeps its 3P x 3P coefficient
    matrix C, matrix = sum_ab C[a, b] S_a S_b (_dense_operator), which
    is all that product states read (product_form).

    site_basis is the d x d unitary V of the basis that matrix and
    eigenvectors are written in: matrix = W^H A W with W = V (x) ... (x) V
    and A the operator in the weight basis, which site_basis None stands
    for.  An integer-spin A_M is real symmetric in the basis of _real_bases;
    a planar cluster's A_M is written in its plane's frame
    (_operator_in_frame).  basis, a function of no arguments, returns V on
    site_basis's first read; None stands for the weight basis.
    quadratic_form and ground_eigenspace take and return weight-basis
    vectors, converting one site axis at a time.

    sectors, when given, holds index arrays of basis states that matrix
    does not couple, such as the two of _parity_sectors; together they
    cover every basis state once.  The decomposition then runs on each
    sector's block, its eigenvalues merged in ascending order by a stable
    sort and its eigenvectors embedded in the full space; a dropped block
    above SECTOR_COUPLING_TOL * max|matrix| raises SpinradError.
    """

    matrix: np.ndarray
    vectors: InitVar[bool] = False
    coefficients: np.ndarray | None = field(default=None, repr=False)
    basis: Callable[[], np.ndarray | None] | None = field(default=None,
                                                          repr=False)
    sectors: tuple | None = field(default=None, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)  # ascending
    eigenvectors: np.ndarray | None = field(init=False, repr=False)  # columns

    def __post_init__(self, vectors):
        self.eigenvectors = None
        if self.sectors is None:
            if vectors:
                self.eigenvalues, self.eigenvectors = \
                    np.linalg.eigh(self.matrix)
            else:
                self.eigenvalues = np.linalg.eigvalsh(self.matrix)
            return
        A = self.matrix
        dropped = max((np.abs(A[a[:, None], b]).max(initial=0.0) for a, b
                       in itertools.combinations(self.sectors, 2)),
                      default=0.0)
        if not dropped <= SECTOR_COUPLING_TOL * np.abs(A).max(initial=0.0):
            raise SpinradError(f"spin operator couples its sectors "
                               f"({dropped:.3e})")
        solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
        solved = [solve(A[k[:, None], k]) for k in self.sectors]
        w = np.concatenate([x[0] if vectors else x for x in solved])
        rank = np.argsort(w, kind="stable")
        self.eigenvalues = w[rank]
        if vectors:  # sector column j goes to column slot[j]
            slot = np.empty_like(rank)
            slot[rank] = np.arange(len(rank))
            self.eigenvectors = np.zeros_like(A)
            ends = np.cumsum([len(k) for k in self.sectors])
            for k, cols, (_, v) in zip(self.sectors, np.split(slot, ends),
                                       solved):
                self.eigenvectors[k[:, None], cols] = v

    @functools.cached_property
    def site_basis(self) -> np.ndarray | None:
        return None if self.basis is None else self.basis()

    @property
    def radius(self) -> float:
        """Spectral radius max |eigenvalue|, the scale of relative gates."""
        return float(np.abs(self.eigenvalues[[0, -1]]).max())


def _block_bases(lead, m, negate=False):
    """Read-only lead and the (9, d^2) site and (9, d^4) pair bases of the
    d x d triple m: row 3 j + k is m_j m_k and m_j (x) m_k, flattened
    row-major, negated when negate is true."""
    d = m.shape[1]
    site = np.matmul(m[:, None], m[None]).reshape(9, d * d)
    pair = np.einsum("jab,mcd->jmacbd", m, m).reshape(9, d ** 4)
    bases = (lead, -site, -pair) if negate else (lead, site, pair)
    for arr in bases:
        arr.flags.writeable = False
    return bases


@functools.lru_cache(maxsize=8, typed=True)
def _spin_bases(s):
    """Read-only spin-s bases of Hopf vectors, site blocks and pair blocks.

    Row j of the first, shape (3, d^2), is sigma_j flattened row-major;
    the others are the _block_bases of the sigma_j.  Typed, so that the
    bases of 1.0 are not those of True.
    """
    sig = np.array(spin_matrices(s))
    return _block_bases(sig.reshape(3, -1), sig)


@functools.lru_cache(maxsize=8, typed=True)
def _real_bases(s):
    """Site basis V and real site and pair bases of an integer spin s.

    In the weight basis Y = e^{-i pi J_y} is the antidiagonal
    Y[2s - k, k] = (-1)^k, real symmetric with Y^2 = 1 for integer s.  From
    Y = U diag(w) U^T, V = Y^(1/2) = U diag(sqrt w) U^T is a symmetric
    unitary, and time reversal, Y conj(sigma_j) Y = -sigma_j, makes
    V^H sigma_j V = i R_j with R_j real.  So sigma_j sigma_m reads
    -R_j R_m and sigma_j (x) sigma_m reads -R_j (x) R_m: the real
    counterparts of the last two bases of _spin_bases.  Read-only; typed
    like _spin_bases.
    """
    two_s = _check_half_integer(s)
    d = two_s + 1
    k = np.arange(d)
    Y = np.zeros((d, d))
    Y[two_s - k, k] = (-1.0) ** k
    w, U = np.linalg.eigh(Y)
    V = (U * np.where(w > 0.0, 1.0, 1j)) @ U.T
    R = (V.conj().T @ np.array(spin_matrices(s)) @ V).imag
    return _block_bases(V, R, negate=True)


def _on_each_site(U, X) -> np.ndarray:
    """(U (x) ... (x) U) X along X's last axis, one site at a time.

    X has shape (..., d^P) for the d x d matrix U; no d^P x d^P matrix is
    formed.
    """
    d, shape = U.shape[0], np.shape(X)
    n = math.prod(shape[:-1])
    for k in range(round(math.log(shape[-1], d))):
        X = _on_site(U, X, n * d ** k, d)
    return X


def _site_blocks(C, site_basis) -> np.ndarray:
    """Site blocks sum_jm C[lam j, lam m] sigma_j sigma_m, flattened (P, d^2).

    C is the coefficient matrix reshaped to (P, 3, P, 3) and site_basis the
    (9, d^2) sigma_j sigma_m basis; one matrix product forms all P blocks.
    """
    P = C.shape[0]
    return C.diagonal(axis1=0, axis2=2).transpose(2, 0, 1).reshape(P, 9) \
        @ site_basis


# Largest tensor-product dimension materialized densely (one dense A_M),
# checked by _dense_operator before it allocates.  A complex dim x dim
# matrix takes 16 dim^2 bytes: 64 MiB at 2^11, 256 MiB at 2^12, 1 GiB at
# 2^13.  Process peaks measured at 2^11, each including the interpreter's
# 0.06 GB (scripts/am_scan.py): the build writes its blocks into that one
# array, 0.13 GB; eigvalsh holds about two such arrays, 0.19 GB; eigh
# about five (input copy, eigenvectors, LAPACK workspace), 0.39 GB.  Scaled
# by 4 per doubling (not measured), e2 would take about 0.6 GB at 2^12 and
# 1.4 GB with --eigenbasis, but 2.1 and 5.3 GB at 2^13, on an 8 GB
# machine.  An integer-spin A_M is real, 8 dim^2 bytes: measured at 3^7 =
# 2187 (s = 1) the peaks are 0.09 GB after the build, 0.13 GB after
# eigvalsh and 0.24 GB after eigh, and at 5^5 = 3125 (s = 2) 0.13 GB after
# the build.
MAX_DENSE_DIM = 1 << 12


def _dense_operator(coef, site_basis, pair_basis) -> np.ndarray:
    """Dense sum_{a,b} coef[a, b] S_a S_b, in the basis of its block bases.

    With C = coef indexed [3 lam + j, 3 mu + m], site lam gives the d x d
    block sum_jm C[lam j, lam m] sigma_j sigma_m.  Spins on different sites
    commute, so the pair lam < mu gives the d^2 x d^2 block
    sum_jm (C[lam j, mu m] + C[mu m, lam j]) sigma_j (x) sigma_m.  All site
    blocks come from one matrix product with site_basis (sigma_j sigma_m)
    and all pair blocks from one with pair_basis (sigma_j (x) sigma_m); the
    bases fix the site basis and with coef the dtype of the result.  Each
    block is added through a writeable einsum view of A reshaped to
    (d,) * 2P, the diagonal in every other site.

    Every dense spin-space array is built here, so here is where the dense
    budget and Hermiticity are checked, before anything of size dim^2 is
    allocated: a Hermitian coef gives Hermitian site and pair blocks.
    """
    coef = np.asarray(coef)
    d, P = math.isqrt(site_basis.shape[1]), coef.shape[0] // 3
    dim = d ** P
    if dim > MAX_DENSE_DIM:
        raise ResourceError(f"spin dimension {dim} exceeds the dense budget")
    herm = np.linalg.norm(coef - coef.conj().T)
    if not herm <= 1e-12 * np.linalg.norm(coef):  # a NaN fails too
        raise SpinradError(f"spin operator coefficients are not Hermitian "
                           f"({herm:.3e})")
    C = coef.reshape(P, 3, P, 3)
    lam, mu = np.array(list(itertools.combinations(range(P), 2)),
                       dtype=int).reshape(-1, 2).T
    pair = (C[lam, :, mu] + C[mu, :, lam].transpose(0, 2, 1)).reshape(-1, 9)
    pairs = (pair @ pair_basis).reshape(-1, d, d, d, d)
    A = np.zeros((dim, dim), dtype=np.result_type(coef, site_basis))
    T = A.reshape((d,) * (2 * P))
    # einsum subscripts of T: site k's row digit is rows[k], its column
    # digit cols[k] on the block's sites and rows[k] (the diagonal) elsewhere
    rows, cols = string.ascii_letters[:P], string.ascii_letters[P:2 * P]

    def add(block, sites):
        col = "".join(cols[k] if k in sites else rows[k] for k in range(P))
        out = "".join(rows[k] for k in range(P) if k not in sites) \
            + "".join(rows[k] for k in sites) + "".join(cols[k] for k in sites)
        np.einsum(f"{rows}{col}->{out}", T)[...] += block

    for site, block in enumerate(_site_blocks(C, site_basis).reshape(P, d, d)):
        add(block, (site,))
    for block, sites in zip(pairs, zip(lam, mu)):
        add(block, sites)
    return A


def bilinear_spin_operator(coef: np.ndarray, s) -> np.ndarray:
    """Dense sum_{a,b} coef[a, b] S_a S_b in the weight basis (_dense_operator)."""
    return _dense_operator(coef, *_spin_bases(s)[1:])


def _coefficients(system: SpinSystem, kernel_at) -> np.ndarray:
    """The 3P x 3P coefficient matrix C = -1/2 (M (x) M) o K of A_M.

    K[3 lam + j, 3 mu + m] = kernel_at(x[mu] - x[lam])[j, m], from one
    kernel_at call per site pair and one at the origin; exact because
    kernel_at(d) is real symmetric and even in d.
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
    return -0.5 * np.outer(Mj, Mj) * K.reshape(3 * P, 3 * P)


def _operator_bases(coef, s):
    """Site basis, site-block and pair-block bases of coef's operator.

    A real coef commutes with time reversal; for integer s that makes its
    operator real symmetric in the basis of _real_bases.  Otherwise the
    basis is the weight basis (site basis None), and for half-integer s
    with an odd number of sites time reversal gives Kramers pairs instead.
    """
    if _check_half_integer(s) % 2 == 0 and np.isrealobj(coef):
        return _real_bases(s)
    return (None, *_spin_bases(s)[1:])


def _frame_basis(s, frame, V) -> np.ndarray:
    """D^H V for D = su2_rotate(s, frame), V None for the identity."""
    Dh = su2_rotate(s, frame).conj().T
    return Dh if V is None else Dh @ V


def _operator_in_frame(coef, s, frame):
    """(matrix, basis, sectors) of the operator sum_ab coef[a, b] S_a S_b,
    basis a function of no arguments that returns the matrix's site basis.

    Without a frame: the matrix in the basis of _operator_bases and no
    sectors.  frame is otherwise the rotation vector theta that takes the
    normal of the sites' plane to z (_plane_frame).  The matrix is then the
    operator of C' = R~ C R~^T, R~ = I_P (x) _rotation(theta), in the basis
    of _operator_bases(C'); that is the operator of C in the site basis
    D^H V (_frame_basis), with V the basis of _operator_bases (identity for
    half-integer s), found only when basis is called.  In that frame the
    mirror through the plane is the pi rotation about z, whose sectors are
    _parity_sectors.
    """
    if frame is None:
        V, site_basis, pair_basis = _operator_bases(coef, s)
        return _dense_operator(coef, site_basis, pair_basis), lambda: V, None
    # R~ C R~^T, one 3 x 3 rotation per site axis
    R, n = _rotation(frame), coef.shape[0]
    rotated = (coef.reshape(n, -1, 3) @ R.T).reshape(n, n)
    rotated = (R @ rotated.reshape(-1, 3, n)).reshape(n, n)
    V, site_basis, pair_basis = _operator_bases(rotated, s)
    return (_dense_operator(rotated, site_basis, pair_basis),
            functools.partial(_frame_basis, s, frame, V),
            _parity_sectors(_check_half_integer(s) + 1, n // 3))


def _checked_operator(coef, s, vectors: bool,
                      frame=None) -> HermitianSpinOperator:
    """The operator sum_ab coef[a, b] S_a S_b of an A_M; raises unless NSD.

    _dense_operator checks coef's Hermiticity, in the basis of
    _operator_in_frame, which frame selects.  vectors asks for eigenvectors
    too (see HermitianSpinOperator); the operator keeps coef.
    """
    coef = np.asarray(coef)
    matrix, basis, sectors = _operator_in_frame(coef, s, frame)
    op = HermitianSpinOperator(matrix=matrix, vectors=vectors,
                               coefficients=coef, basis=basis,
                               sectors=sectors)
    if op.eigenvalues[-1] > PSD_VIOLATION_TOL * op.radius:
        raise SpinradError(f"A_M has a positive eigenvalue "
                           f"{op.eigenvalues[-1]:.3e}; kernel/assembly bug")
    return op


def assemble_am(system: SpinSystem, profile: CutoffProfile,
                vectors: bool = False) -> HermitianSpinOperator:
    """Assemble A_M from continuum kernel evaluations.

    vectors asks for eigenvectors, which only ground_eigenspace's basis reads.
    Sites that span exactly a plane are solved in the two sectors of the pi
    rotation about its normal (_operator_in_frame); collinear clusters,
    single sites and 3-D clusters are solved whole.
    """
    coef = _coefficients(system, lambda d: kernel_matrix(profile, d).entries)
    return _checked_operator(coef, system.s, vectors,
                             _plane_frame(system.positions))


def product_form(coef, s, factors) -> np.ndarray:
    """<A X, X> of A = sum_ab coef[a, b] S_a S_b on product states X.

    factors has shape (n, P, d), each factor f_lam normalized; returns one
    real value per product state, with no vector of length d^P formed:
    sum_lam <f_lam| B_lam |f_lam> + sum_{lam != mu} h_lam^T C_lam,mu h_mu,
    with B_lam the site blocks of bilinear_spin_operator and h_lam the Hopf
    vector (<sigma_j>)_j of f_lam.
    """
    coef = np.asarray(coef)
    facs = np.asarray(factors, dtype=complex)
    _require_unit(facs, "product_form requires normalized factors")
    n, P, d = facs.shape
    sig = _spin_bases(s)[0]
    # rho = conj(f) f^T, flattened: <f|O|f> = rho . O for any d x d O
    rho = (facs.conj()[..., :, None] * facs[..., None, :]).reshape(n, P, d * d)
    onsite = rho.reshape(n, -1) @ _site_blocks(coef.reshape(P, 3, P, 3),
                                               _spin_bases(s)[1]).reshape(-1)
    hopf = (rho.reshape(n * P, d * d) @ sig.T).real.reshape(n, 3 * P)
    site = np.repeat(np.arange(P), 3)
    cross = np.where(site[:, None] != site[None], coef, 0.0)
    return onsite.real + np.einsum("na,na->n", hopf @ cross, hopf).real


def quadratic_form(A: HermitianSpinOperator, X):
    """Real Rayleigh value <A X, X> for a normalized X.

    X is one weight-basis state of shape (dim,) or a stack of shape
    (n, dim); a stack gives one value per row.  X is carried into A's
    site basis, and a real symmetric A reads the real and imaginary parts
    of X apart.
    """
    X = np.asarray(X, dtype=complex)
    _require_unit(X, "quadratic_form requires a normalized state")
    if A.site_basis is not None:
        X = _on_each_site(A.site_basis.conj().T, X)
    parts = (X.real, X.imag) if np.isrealobj(A.matrix) else (X,)
    return sum(np.einsum("...i,...i->...", x.conj(), x @ A.matrix.T).real
               for x in parts)


def ground_eigenspace(A: HermitianSpinOperator,
                      degeneracy_tol: float = DEFAULT_DEGENERACY_TOL):
    """Smallest eigenvalue, its cluster multiplicity, and an orthonormal basis.

    The cluster gathers eigenvalues within degeneracy_tol * max|eigenvalue|
    of the minimum, a window that scales with A (for A = 0 it holds the
    whole space).  The basis is None unless A holds eigenvectors; its
    mult columns are weight-basis vectors, carried out of A's site basis.
    """
    lam_min = A.eigenvalues[0]
    width = degeneracy_tol * A.radius
    mult = int(np.sum(A.eigenvalues <= lam_min + width))
    basis = None if A.eigenvectors is None else A.eigenvectors[:, :mult]
    if basis is not None and A.site_basis is not None:
        basis = _on_each_site(A.site_basis, basis.T).T
    return lam_min, mult, basis
