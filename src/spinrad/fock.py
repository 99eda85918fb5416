"""Desk-scale truncated Fock realization of the spin-photon Hamiltonian.

The photon momentum integral is discretized in |k| only, on n_radial
Gauss-Legendre shells |k| = r_s with weights rw_s; each shell's
directions are integrated exactly.  Each (mode, polarization) pair is a
bosonic oscillator of frequency |k|, and the Hamiltonian

    H = dGamma(omega) (x) I + sum_{lam,m} M[lam] Phi_S(B_{m,x[lam]}) (x) sigma_m^[lam]

is assembled sparse on the occupation basis with total photon number
<= n_max, tensored with the spin space (Fock index major).

Only the oscillators the spins couple to are kept (the "effective mode"
reduction: Cederbaum, Gindensperger & Burghardt, PRL 94 (2005) 113003).
All oscillators of one shell share one frequency, so a unitary that mixes
only that shell's oscillators leaves dGamma(omega) unchanged, and H
depends on the shell only through the Gram matrix of its 3P coupling
vectors.  Summed over the two polarizations and all directions u, that
matrix is real and closed in the spherical Bessel functions j_n(rho) at
rho = r_s |x|, x = x_lam - x_mu, d = x / |x| (d = 0 at x = 0):

    G_s[lam j, mu m] = c_s int dOmega (delta_jm - u_j u_m) e^{i r_s u.x}
                     = 4 pi c_s [(j0 - j1/rho) delta_jm + j2 d_j d_m],
    c_s = rw_s r_s^3 phi(r_s)^2 (2 pi)^-3.

As j1/rho = (j0 + j2) / 3, only j2's closed form cancels, below
rho = RHO_SERIES, where its power series replaces it.

Any real W_s with W_s W_s^T = G_s has the Gram matrix of those couplings,
so a unitary of the shell's oscillators turns them into a^dagger(v_a) =
sum_j W_s[a, j] b_j^dagger, one new oscillator b_j per column of W_s, and
the shell's other oscillators do not couple.  The truncated H is then
block diagonal in the number n of photons in those uncoupled
oscillators, and block n has the spectrum of the reduced H at cap
n_max - n shifted by at least n omega_min.  So the ground state, and
every level below E_0 + omega_min, is that of the reduced H at cap n_max
with the uncoupled oscillators empty.  The reduced space grows with the
number of radial shells only.  H and the discrete A_M both read the
lower-triangular shell factors W (shell_couplings) kept on the
ToyHamiltonian: A_M is the second-order operator of H's couplings, real
symmetric and negative semidefinite.

H is assembled in one pass from one spin block C_o per oscillator
(spin_blocks), as one matrix h at unit scale: dGamma(omega) (x) I is its
diagonal, H_int the rest, so H(t) is h with its off-diagonal values
times t (CSRMatrix.scale_off_diagonal).  At n_max = 1 the suites
(quadratic_fit, multiplicity_scan) build no H: there the Feshbach map
onto the vacuum spin space (Bach, Chen, Froehlich & Sigal, J. Funct.
Anal. 203 (2003) 44) is the spin_dim x spin_dim F(E) = -t^2 sum_o C_o^2
/ (omega_o - E), and the ground level is the root of E = lam_min F(E)
(_one_photon_ground).  At n_max >= 2, and for any ground_state call, the
ground state comes from an in-package one-column LOBPCG started at the
root of that map with QHQ taken as its diagonal, which is H's ground
vector at n_max = 1, and the multiplicity of the ground level from the
full map, whose resolvent is applied by CG.  Both are written in numpy
on spin_algebra's CSRMatrix, through its products, dense rows, diagonal
and the states its pattern does not join to the start, never its
layout, so the module needs nothing of scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cutoff import CutoffProfile, phi_eval
from .errors import ConvergenceError, DomainError, ResourceError, \
    _integer
from .spin_algebra import CSRMatrix, _require_unit, site_spin_operators
from .spin_operator import DEFAULT_DEGENERACY_TOL, HermitianSpinOperator, \
    SpinSystem, _checked_operator, bilinear_spin_operator, \
    ground_eigenspace

# Hard ceiling on dim(Fock) * dim(spin) for assembled operators.  The Fock
# space is that of the coupled oscillators only, at most 3P per radial shell.
MAX_TOTAL_DIM = 400_000

# Ceiling on spin_dim * dim, the entries of the spin_dim rows of H that
# _dressed_start (one complex copy) and _feshbach (about eight) make dense.
# Process peaks of the build, one ground_state and one _feshbach at scale
# 0.4: 0.45 GB at 1.7e6 (s = 2, one site, 24 shells, n_max = 3) and
# 0.72 GB at 3.6e6 (s = 3/2, two sites, 7 shells, n_max = 3), the build's
# 0.35 GB each included.  At n_max = 1 the suites build no H, and it
# bounds the stack of the n_osc spin_dim x spin_dim C_o^2 instead
# (_squared_blocks).
MAX_SPIN_ROW_ENTRIES = 1 << 22

# Eigenpair residual tolerance ||H v - E v|| of ground_state (absolute).
DEFAULT_EIGENSOLVER_TOL = 1e-10

# Step limit of the conjugate gradients behind the Feshbach map.
MAX_CG_STEPS = 1000

# Step limit of the LOBPCG behind ground_state.
MAX_LOBPCG_STEPS = 1000

# Step limit of the Newton iteration behind ground_state's start; it
# takes 3-9 steps on Fock H and random dense matrices alike.
MAX_START_NEWTON_STEPS = 100

# Below rho = RHO_SERIES the closed form of j2 loses over 3 ulp to
# cancellation (45 at rho = 1), so its series replaces it there:
# j2 / rho^2 = sum_k (-rho^2/2)^k / (k! (2k + 5)!!), 14 terms, highest
# power first, truncated below 1e-20.
RHO_SERIES = 2.0
_J2_SERIES = [(-0.5) ** k / math.factorial(k)
              / math.prod(range(2 * k + 5, 0, -2)) for k in range(13, -1, -1)]


@dataclass(frozen=True)
class ModeGrid:
    """Photon shells |k| = radius[s], weight radial_weight[s] radius[s]^2
    for the radial part of int dk; the directions are integrated exactly."""

    radius: np.ndarray            # (n_radial,) shell radii |k|
    radial_weight: np.ndarray     # (n_radial,) weights for int d|k|


def build_mode_grid(profile: CutoffProfile, n_radial: int) -> ModeGrid:
    """n_radial Gauss-Legendre nodes on (0, r_far)."""
    if _integer(n_radial, "n_radial") < 2:
        raise DomainError("need n_radial >= 2")
    half, (rn, rw) = 0.5 * profile.far_radius(), leggauss(n_radial)
    return ModeGrid(radius=half * (rn + 1.0), radial_weight=half * rw)


def _angular_factors(rho: np.ndarray):
    """(j0 - j1/rho, j2) at each rho >= 0, with j1/rho = (j0 + j2) / 3."""
    j0, j2 = np.sinc(rho / math.pi), np.empty_like(rho)
    low = rho < RHO_SERIES
    x = rho[low] ** 2
    j2[low] = x * np.polyval(_J2_SERIES, x)
    x = rho[~low] ** 2
    j2[~low] = (3.0 / x - 1.0) * j0[~low] - 3.0 * np.cos(rho[~low]) / x
    return (2.0 * j0 - j2) / 3.0, j2


def shell_couplings(system: SpinSystem, profile: CutoffProfile,
                    grid: ModeGrid):
    """Frequencies and real couplings of the oscillators the spins reach.

    Returns (omega_osc, W): W (3P, 3P n_radial) holds, shell after shell,
    a lower-triangular factor W_s W_s^T = G_s of the shell's closed-form
    Gram matrix (module docstring), one column per coupled oscillator at
    the shell's frequency.  The rule: one batched eigh G_s = U L U^T with
    negative roundoff eigenvalues clipped to 0, so that a singular G_s
    (sites far closer than 1/r_s), where Cholesky fails, factors too; then one
    batched QR of sqrt(L) U^T = Q R, and W_s = R^T.  A dense factor such
    as U sqrt(L) would couple every oscillator of a shell to every site
    spin: the two-site 4 x 6 n_max = 2 H would store 15,696 entries, not
    11,696.
    """
    r, P = grid.radius, system.P
    c = grid.radial_weight * r ** 3 * phi_eval(profile, r) ** 2 \
        / (2.0 * math.pi ** 2)  # 4 pi c_s
    d = system.positions[:, None] - system.positions  # (lam, mu, 3)
    dist = np.linalg.norm(d, axis=-1, keepdims=True)
    d = np.divide(d, dist, out=np.zeros_like(d), where=dist > 0.0)
    a, b = _angular_factors(r[:, None, None, None] * dist)
    G = c[:, None, None, None, None] * (a[..., None] * np.eye(3) + b[..., None]
                                        * d[..., :, None] * d[..., None, :])
    lam, U = np.linalg.eigh(
        G.transpose(0, 1, 3, 2, 4).reshape(len(r), 3 * P, 3 * P))
    R = np.linalg.qr(np.sqrt(np.maximum(lam, 0.0))[:, :, None]
                     * U.transpose(0, 2, 1), mode="r")
    return np.repeat(r, 3 * P), R.transpose(2, 0, 1).reshape(3 * P, -1)


# ---------------------------------------------------------------------------
# Truncated Fock space
# ---------------------------------------------------------------------------

@dataclass
class FockSpace:
    """Occupation basis over n_osc oscillators, total photon number <= n_max.

    Photon sector n is a (C(n_osc + n - 1, n), n) array of occupied
    oscillators, rows in combinations_with_replacement (lexicographic)
    order; the basis is sectors 0..n_max in turn.
    """

    n_max: int
    sectors: list                # sector n: (size_n, n) occupied oscillators
    sector_offsets: list         # first index of each photon sector
    omega_osc: np.ndarray        # (n_osc,) oscillator frequencies
    n_total: np.ndarray          # (dim,) photon number per basis state

    @property
    def dim(self) -> int:
        return len(self.n_total)

    @property
    def n_osc(self) -> int:
        return len(self.omega_osc)


def _sector_sizes(n_osc: int, n_max: int, spin_dim: int) -> list:
    """Sizes of photon sectors 0..n_max over n_osc oscillators, under the
    budgets of build_fock_space; n_max < 1 raises DomainError."""
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    sizes = [math.comb(n_osc + n - 1, n) for n in range(n_max + 1)]
    if sum(sizes) * spin_dim > MAX_TOTAL_DIM:
        raise ResourceError(
            f"Fock dimension {sum(sizes)} x spin {spin_dim} exceeds "
            f"budget {MAX_TOTAL_DIM}")
    if sum(sizes) * spin_dim ** 2 > MAX_SPIN_ROW_ENTRIES:
        raise ResourceError(
            f"{spin_dim} dense spin rows of {sum(sizes) * spin_dim} states "
            f"exceed budget {MAX_SPIN_ROW_ENTRIES} entries")
    return sizes


def build_fock_space(omega_osc: np.ndarray, n_max: int,
                     spin_dim: int = 1) -> FockSpace:
    """Occupation basis of the oscillators omega_osc up to n_max photons.

    Sector n holds the C(n_osc + n - 1, n) multisets of n oscillators in
    combinations_with_replacement order, and the sectors follow one
    another from n = 0 (FockSpace).  The space is sized for a tensor
    product with a spin space of dimension spin_dim, Fock index major,
    under two budgets, each refused with ResourceError: dim * spin_dim
    states at most MAX_TOTAL_DIM, and dim * spin_dim^2 at most
    MAX_SPIN_ROW_ENTRIES, the entries of the spin_dim dense rows that
    the solvers make.  n_max < 1 raises DomainError.
    """
    n_osc = len(omega_osc)
    sizes = _sector_sizes(n_osc, n_max, spin_dim)
    n_max = len(sizes) - 1
    sectors = [np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(n_osc), n)),
        dtype=np.intp, count=size * n).reshape(size, n)
        for n, size in enumerate(sizes)]
    return FockSpace(n_max=n_max, sectors=sectors,
                     sector_offsets=[0, *accumulate(sizes[:-1])],
                     omega_osc=np.asarray(omega_osc, dtype=float),
                     n_total=np.repeat(np.arange(n_max + 1), sizes))


def _creation_pattern(space: FockSpace):
    """Entries of the a_o^dagger ladder restricted to the truncation.

    Returns (rows, cols, occ, osc): a_osc^dagger maps basis state cols to
    sqrt(occ) times basis state rows, occ the occupation of osc in rows,
    with rows in sector n+1 and cols in sector n, ordered by column, then
    oscillator.  Each transition n -> n+1 is one vectorized step: o joins
    every state, and the sorted row is ranked in sector n+1 by binary
    search on its base-n_osc key (exact, as every sector is complete and
    sorted).
    """
    n_osc = space.n_osc
    rows, cols, occ, osc = [], [], [], []
    for n in range(space.n_max):
        src = space.sectors[n]
        o = np.tile(np.arange(n_osc), len(src))
        new = np.sort(np.column_stack([np.repeat(src, n_osc, axis=0), o]),
                      axis=1)
        radix = (n_osc,) * (n + 1)
        keys = np.ravel_multi_index(space.sectors[n + 1].T, radix)
        rank = np.searchsorted(keys, np.ravel_multi_index(new.T, radix))
        rows.append(space.sector_offsets[n + 1] + rank)
        cols.append(space.sector_offsets[n]
                    + np.repeat(np.arange(len(src)), n_osc))
        occ.append(np.sum(new == o[:, None], axis=1))
        osc.append(o)
    return tuple(map(np.concatenate, (rows, cols, occ, osc)))


def segal_field(space: FockSpace, v: np.ndarray) -> CSRMatrix:
    """Phi_S(V) = (a(V) + a(V)^dagger)/sqrt(2) for coupling vector v.

    Oscillators with a zero coupling store no entries.
    """
    rows, cols, occ, osc = _creation_pattern(space)
    vals = np.sqrt(occ) * np.asarray(v, dtype=complex)[osc] / math.sqrt(2.0)
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return CSRMatrix.from_entries(
        np.concatenate([rows, cols]), np.concatenate([cols, rows]),
        np.concatenate([vals, vals.conj()]), (space.dim, space.dim))


@dataclass
class ToyHamiltonian:
    """Sparse H = dGamma(omega) (x) I + H_int on Fock (x) spin, Fock index
    major, kept at unit scale as h.

    Every entry of H_int changes the photon number by one, so
    dGamma(omega) (x) I is exactly h's diagonal and H_int its off-diagonal
    entries: matrix(scale) scales those on h's own pattern, and finds h's
    diagonal entries once for every scale.
    """

    h: CSRMatrix
    space: FockSpace
    spin_dim: int
    coupling: np.ndarray  # (3P, n_osc) real shell_couplings H is built from

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def matrix(self, scale: float = 1.0) -> CSRMatrix:
        """H with the interaction (hence all moments) scaled by `scale`."""
        return self.h.scale_off_diagonal(scale)

    def vacuum_embed(self, X: np.ndarray) -> np.ndarray:
        """Psi_0 (x) X as a full-space vector."""
        out = np.zeros(self.dim, dtype=complex)
        out[: self.spin_dim] = X
        return out

    def photon_number_diag(self) -> np.ndarray:
        """Photon number of each basis state, read-only, made once."""
        return self._photon_numbers

    @functools.cached_property
    def _photon_numbers(self) -> np.ndarray:
        n = np.repeat(self.space.n_total, self.spin_dim)
        n.flags.writeable = False
        return n


def spin_blocks(system: SpinSystem, W: np.ndarray):
    """The spin block C_o = sum_a M[a // 3] W[a, o] S_a / sqrt(2) of each
    oscillator o of the couplings W (shell_couplings), Hermitian.

    Returns (pattern, blocks): pattern the flat indices i * spin_dim + j,
    ascending, where some S_a (site_spin_operators on the identity) has
    an entry, and blocks (n_osc, len(pattern)) with row o holding C_o
    there; C_o is zero elsewhere.
    """
    d = system.spin_dim
    S = site_spin_operators(system.s, system.P, np.eye(d)).reshape(
        3 * system.P, d * d)
    pattern = np.flatnonzero(S.any(axis=0))
    return pattern, (np.repeat(system.moments, 3)[:, None] * W).T \
        @ S[:, pattern] / math.sqrt(2.0)


def build_hamiltonian(system: SpinSystem, profile: CutoffProfile,
                      grid: ModeGrid, n_max: int) -> ToyHamiltonian:
    """Truncated spin-photon Hamiltonian on the coupled oscillators only.

    Each radial shell keeps the oscillators of shell_couplings; the
    dropped ones carry no coupling, so every level below
    E_0 + omega_min, the ground state included, is that of H on all
    the shells' oscillators (module docstring).  H_int = T + T^dagger with
    T = sum_o a_o^dagger (x) C_o, C_o the spin block of oscillator o
    (spin_blocks).  Each a^dagger entry of _creation_pattern gives
    sqrt(occ) times the nonzero entries of its oscillator's C_o, exact
    zeros dropped; T^dagger's entries are T's with rows and columns
    swapped and values conjugated.  Those entries and the nonzero
    diagonal of dGamma(omega) (x) I fill one (rows, cols, vals) triple
    for one CSRMatrix.from_entries.
    """
    spin_dim = system.spin_dim
    omega_osc, W = shell_couplings(system, profile, grid)
    space = build_fock_space(omega_osc, n_max, spin_dim)
    dim = space.dim * spin_dim
    free = np.repeat(np.concatenate(
        [space.omega_osc[occ].sum(axis=1) for occ in space.sectors]),
        spin_dim)
    diag = np.flatnonzero(free)

    pattern, blocks = spin_blocks(system, W)
    rows, cols, occ, osc = _creation_pattern(space)
    keep = (blocks != 0.0)[osc]
    # the diagonal's entries, then T's at (i, j) and T^dagger's at (j, i)
    n = len(diag)
    T = slice(n, n + np.count_nonzero(keep))
    i, j = np.empty((2, 2 * T.stop - n), dtype=np.intp)
    vals = np.empty(len(i), dtype=complex)
    i[:n] = j[:n] = diag
    vals[:n] = free[diag]
    row, col = np.divmod(pattern, spin_dim)
    i[T] = j[T.stop:] = (rows[:, None] * spin_dim + row)[keep]
    j[T] = i[T.stop:] = (cols[:, None] * spin_dim + col)[keep]
    # sqrt(occ) scales the real and imaginary parts as one real array
    vals[T] = (np.sqrt(occ)[:, None]
               * blocks.view(float)[osc]).view(complex)[keep]
    np.conjugate(vals[T], out=vals[T.stop:])
    h = CSRMatrix.from_entries(i, j, vals, (dim, dim))
    return ToyHamiltonian(h=h, space=space, spin_dim=spin_dim, coupling=W)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------

def _dressed_start(H: CSRMatrix, diag: np.ndarray, spin_dim: int):
    """The spin space dressed at the root of its Feshbach map, as a unit
    vector, and the Jacobi preconditioner of H - E at that root E.

    P holds the spin_dim states with the smallest diagonal entries (vacuum
    (x) spin for a Fock H), B the rows PH on the Q = 1 - P columns they
    couple to, and D the diagonal of H on those columns.  With QHQ taken
    as D, the map of _feshbach is F(E) = PHP - B (D - E)^-1 B^H, and
    g(E) = lam_min F(E) - E is concave with slope -(1 + |z|^2),
    z = (D - E)^-1 B^H x, below min D.  Newton on g then falls
    monotonically onto its root from any E to the right of it: each step
    lands on the Rayleigh quotient of x (+) -z under H with QHQ = D, never
    below the root, and it stops when E no longer falls, or after
    MAX_START_NEWTON_STEPS steps.  The first E is such a quotient too, and
    below min D: the lower eigenvalue of H on the state of the smallest
    entry of D and the P vector B couples to it.  The start is x (+) -z at the root: H's
    ground vector when QHQ is diagonal (every n_max = 1 Fock H), and its
    one-photon dressing otherwise.  Only the rows PH are made dense.  The
    preconditioner is 1 / (max(diag, min D) - E), positive as E < min D:
    unclamped, the P entries diag - E ~ |E| would swamp the Q entries of
    the preconditioned residual (a one-site 2 x 6 n_max = 3 fit took 23
    LOBPCG steps in all instead of 12).  H is refused with DomainError
    when a coupled state lies in no component of its pattern that holds a
    P state (CSRMatrix.unreached), as the ground level may lie there; a
    state with only a diagonal entry is an eigenvector at it, not below P's
    smallest.  So if P couples to no Q state, QHQ is diagonal and the start
    is PHP's ground vector, H's (lam_min PHP <= min diag <= lam_min QHQ);
    the preconditioner is then all ones.  diag is H's diagonal, real; P
    and the verdict on it read only the diagonal and the pattern, so they
    are found once per H(t) family, which shares H.memo.
    """
    key = ("dressed start", spin_dim)
    if key not in H.memo:
        cols = np.argsort(diag, kind="stable")[:spin_dim]
        cols.flags.writeable = False
        H.memo[key] = cols, len(H.unreached(cols))
    cols, unreached = H.memo[key]
    if unreached:
        raise DomainError(f"H is reducible: {unreached} coupled states "
                          f"are decoupled from the start states")
    PH = H.rows(cols)
    PHP = PH[:, cols]
    coupled = PH.any(axis=0)
    coupled[cols] = False
    q = np.flatnonzero(coupled)
    B = PH[:, q]
    start = np.zeros(H.shape[0], dtype=complex)
    if not len(q):  # P is an invariant subspace, and QHQ diagonal
        start[cols] = np.linalg.eigh(PHP)[1][:, 0]
        return start, np.ones(len(diag))
    D = diag[q]
    k = np.argmin(D)
    beta = np.linalg.norm(B[:, k])
    a = np.vdot(B[:, k], PHP @ B[:, k]).real / (beta * beta)
    # the 2x2 lower eigenvalue without cancellation, kept off the pole
    # when the coupling is below roundoff of the gap
    energy = min(min(a, D[k]) - beta * beta
                 / (abs(a - D[k]) / 2 + math.hypot((a - D[k]) / 2, beta)),
                 np.nextafter(D[k], -np.inf))
    for step in range(MAX_START_NEWTON_STEPS + 1):
        lam, X = np.linalg.eigh(PHP - (B / (D - energy)) @ B.conj().T)
        x = X[:, 0]
        z = (x @ B.conj()) / (D - energy)
        # a step below half an ulp of E rounds away once |z|^2 > 1
        new = energy + (lam[0] - energy) / (1.0 + np.vdot(z, z).real)
        # at the root to roundoff, NaN, or out of steps: x and z are E's
        if step == MAX_START_NEWTON_STEPS or not new < energy:
            break
        energy = new
    start[cols] = x
    start[q] = -z
    return (start / np.linalg.norm(start),
            1.0 / (np.maximum(diag, D[k]) - energy))


def _gram_schmidt(v: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The row v projected off the orthonormal rows of B and normalized,
    twice over: the second pass restores orthogonality to roundoff.  No
    row is left when a pass leaves nothing of v."""
    B_h = B.conj().T
    for _ in range(2):
        v = v - (v @ B_h) @ B
        norm = np.linalg.norm(v)
        if not norm > 0.0:  # written so that a NaN row is dropped too
            return v[:0]
        v = v / norm
    return v


def _lobpcg(H: CSRMatrix, x: np.ndarray, precond: np.ndarray,
            stop: float):
    """Lowest eigenvector of Hermitian H from the unit start vector x.

    One-column LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) in the
    orthonormal-basis form of Hetmaniuk & Lehoucq, J. Comput. Phys. 218
    (2006) 324: Rayleigh-Ritz on the Ritz vector x, the search direction p
    (orthogonalized in the coefficient space of the step before) and the
    preconditioned residual w = diag(precond) (H x - theta x), projected
    off [x, p]; only w needs a product with H.  The basis is kept as
    contiguous rows, so a step is a few small matrix products.  Ends when
    the residual norm falls to `stop`, or after MAX_LOBPCG_STEPS steps
    with whatever it has.  Returns (Ritz vector, steps).
    """
    # rows [x; p], p empty at first
    B = np.ascontiguousarray(x[None], dtype=complex)
    HB = np.ascontiguousarray((H @ B.T).T)
    theta = np.vdot(B, HB).real
    for step in range(MAX_LOBPCG_STEPS):
        R = HB[:1] - theta * B[:1]
        if np.linalg.norm(R) <= stop:
            return B[0], step
        W = _gram_schmidt(precond * R, B)
        if not len(W):  # the residual lies in span[x, p]: no progress left
            return B[0], step
        Q = np.vstack([B, W])
        HQ = np.vstack([HB, (H @ W.T).T])
        # eigh reads one triangle of the Hermitian projection
        theta, C = np.linalg.eigh(Q.conj() @ HQ.T)
        theta, C = theta[0], C[:, :1]
        # next p: C off x's row, made orthonormal to C
        Y = C.T.copy()
        Y[:, 0] = 0.0
        CY = np.vstack([C.T, _gram_schmidt(Y, C.T)])
        B, HB = CY @ Q, CY @ HQ
    return B[0], MAX_LOBPCG_STEPS


def ground_state(H, tol: float = DEFAULT_EIGENSOLVER_TOL, spin_dim: int = 1):
    """Lowest eigenpair of a sparse Hermitian matrix.

    H is a CSRMatrix or a dense 2-D array (CSRMatrix.of).  One-column
    LOBPCG (_lobpcg) from the spin space dressed at the root E of its
    Feshbach map, preconditioned by the clamped Jacobi inverse of H - E
    (_dressed_start): its scales are those of H.  The energy is the
    Rayleigh quotient of the vector, and the residual ||H v - E v|| comes
    from that same product with H, not from the solver's own.  Returns
    (energy, vector, residual): a float, a unit vector of shape (dim,) and
    a float.  An H with a coupled block that no path of stored entries
    joins to the start raises DomainError (_dressed_start).
    """
    H = CSRMatrix.of(H)
    # at n_max = 1 the start is the ground vector
    x, precond = _dressed_start(H, H.diagonal().real,
                                min(spin_dim, H.shape[0]))
    # The energy error is about residual^2 / gap, and a near-degenerate
    # partner can be that close: on the 4x6 equal-moment pair at t = 0.05,
    # tol/10 gave 3.2e-12 relative.  A stall is left to the residual gate
    # below.
    v = _lobpcg(H, x, precond, tol / 100)[0]
    Hv = H @ v
    energy = float(np.sum(v.conj() * Hv).real / np.sum(np.abs(v) ** 2))
    residual = float(np.linalg.norm(Hv - v * energy))
    # written so that a NaN residual fails too
    if not residual <= tol:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} above tolerance {tol:.3e}")
    return energy, v, residual


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for the rows of C-contiguous complex A and B."""
    return np.einsum("ij,ij->i", A.view(float), B.view(float))


def _feshbach(H, energy: float, spin_dim: int, tol: float):
    """Eigenpairs of F(E) = PHP - PHQ Z with Z = (QHQ - E)^-1 QHP.

    P projects on the first spin_dim states (vacuum (x) spin), Q = 1 - P.
    For E below the spectrum of QHQ, E is an eigenvalue of H of
    multiplicity m exactly when it is one of F(E), with eigenvectors
    X (+) -Z X (Bach, Chen, Froehlich & Sigal, J. Funct. Anal. 203 (2003)
    44).  Z comes from Jacobi-preconditioned CG on all spin_dim columns of
    QHP at once, the conjugated rows P H; products with H stand in for
    QHQ, as every vector is zero on P.  The start, the Jacobi solution, is
    exact when QHQ is diagonal (n_max = 1).  Each column stops at residual
    tol / 100, the residual of H on X (+) -Z X beyond (F(E) - E) X.
    Raises ConvergenceError after MAX_CG_STEPS steps, or if QHQ - E is not
    positive definite.  Returns eig F(E) ascending, its eigenvectors as
    columns, and the columns of Z as rows.
    """
    PH = H.rows(np.arange(spin_dim))
    B = PH.conj()  # the columns of HP as rows; zero on P they are QHP
    B[:, :spin_dim] = 0.0
    precond = np.zeros(H.shape[0])
    precond[spin_dim:] = 1.0 / (H.diagonal()[spin_dim:].real - energy)

    # energy V and alpha D go to one scratch array, and U is kept, so a
    # step allocates only the product's output
    scratch, U = np.empty_like(B), np.empty_like(B)

    def shifted(V):  # rows of (QHQ - E) V for rows V zero on P
        AV = np.ascontiguousarray((H @ V.T).T)
        AV -= np.multiply(energy, V, out=scratch)
        AV[:, :spin_dim] = 0.0
        return AV

    stop = tol / 100
    Z = precond * B
    R = B - shifted(Z)
    D = precond * R
    rho = _row_dots(R, D)
    for step in range(MAX_CG_STEPS + 1):
        live = ~(_row_dots(R, R) <= stop * stop)  # a NaN stays live
        if not live.any():
            break
        if step == MAX_CG_STEPS:
            raise ConvergenceError(
                f"Feshbach CG residual {np.sqrt(_row_dots(R, R).max()):.3e} "
                f"above {stop:.3e} after {MAX_CG_STEPS} steps")
        # every column steps; a converged one with alpha = 0
        AD = shifted(D)
        curv = _row_dots(D, AD)
        if not np.all(curv[live] > 0.0):
            raise ConvergenceError(
                f"QHQ - E not positive definite at E = {energy!r}")
        alpha = np.divide(rho, curv, out=np.zeros_like(rho), where=live)
        Z += np.multiply(alpha[:, None], D, out=scratch)
        AD *= alpha[:, None]  # AD is not read again
        R -= AD
        np.multiply(precond, R, out=U)
        rho, rho_prev = _row_dots(R, U), rho
        D *= np.divide(rho, rho_prev, out=np.zeros_like(rho),
                       where=live)[:, None]
        D += U
    # eigh reads one triangle of F(E), Hermitian up to the CG residual
    lam, X = np.linalg.eigh(PH[:, :spin_dim] - PH @ Z.T)
    return lam, X, Z


def _squared_blocks(system: SpinSystem, omega_osc: np.ndarray,
                    W: np.ndarray) -> np.ndarray:
    """The stack (n_osc, spin_dim, spin_dim) of the squares C_o^2 of the
    oscillators' spin blocks (spin_blocks), for _one_photon_ground.

    It stands for the n_max = 1 H and refuses what build_fock_space would
    refuse there (_sector_sizes): its n_osc spin_dim^2 entries are within
    MAX_SPIN_ROW_ENTRIES.
    """
    d, n_osc = system.spin_dim, len(omega_osc)
    _sector_sizes(n_osc, 1, d)
    pattern, blocks = spin_blocks(system, W)
    C = np.zeros((n_osc, d * d), dtype=complex)
    C[:, pattern] = blocks
    C = C.reshape(n_osc, d, d)
    return C @ C


def _one_photon_ground(C2: np.ndarray, omega_osc: np.ndarray, t: float,
                       tol: float):
    """Ground level of H(t) at n_max = 1 from the spin space alone.

    There H(t) couples the vacuum (x) spin space P only to the one-photon
    states, through t C_o to oscillator o, and QHQ = Omega (x) I is
    diagonal, so the Feshbach map of _feshbach is the spin_dim x spin_dim
    F(E) = -t^2 sum_o C_o^2 / (omega_o - E), with F(0) = t^2 A_disc: E <
    omega_min is an eigenvalue of H exactly when it is one of F(E), with
    eigenvector x (+) -z, z_o = t C_o x / (omega_o - E).  As in
    _dressed_start, g(E) = lam_min F(E) - E is concave with slope
    -(1 + n2), n2 = |z|^2 = <x, N(E) x> and N(E) = t^2 sum_o C_o^2 /
    (omega_o - E)^2, so Newton on g falls monotonically onto its root from
    E = 0, the first step landing on t^2 lam_min(A_disc) / (1 + n2); it
    stops when E no longer falls, or after MAX_START_NEWTON_STEPS steps.
    A step is one contraction of the stack C2 (_squared_blocks) with
    [1/(omega - E), 1/(omega - E)^2] and one eigh of F(E).  The residual
    of H on the unit ground vector is |lam_min F(E) - E| / sqrt(1 + n2);
    above tol it raises ConvergenceError, as ground_state does.  Returns
    (E, eig F(E) ascending, its eigenvectors as columns, N(E)); the
    photon number of the eigenvector X[:, k] is n2 / (1 + n2) with
    n2 = <X[:, k], N(E) X[:, k]>.
    """
    n_osc, d = C2.shape[:2]
    stack = C2.reshape(n_osc, -1).view(float)
    t2 = t * t
    energy = 0.0
    for step in range(MAX_START_NEWTON_STEPS + 1):
        r = t2 / (omega_osc - energy)
        F, N = (np.stack([-r, r / (omega_osc - energy)]) @ stack).view(
            complex).reshape(2, d, d)
        lam, X = np.linalg.eigh(F)
        n2 = np.vdot(X[:, 0], N @ X[:, 0]).real
        new = energy + (lam[0] - energy) / (1.0 + n2)
        if step == MAX_START_NEWTON_STEPS or not new < energy:
            break
        energy = new
    residual = abs(lam[0] - energy) / math.sqrt(1.0 + n2)
    # written so that a NaN residual fails too
    if not residual <= tol:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} above tolerance {tol:.3e}")
    return energy, lam, X, N


# ---------------------------------------------------------------------------
# Discrete kernel and A_M
# ---------------------------------------------------------------------------

def _discrete_coefficients(system: SpinSystem, omega_osc: np.ndarray,
                           W: np.ndarray) -> np.ndarray:
    """Coefficient matrix of A_M with the mode sum replacing the kernel.

    The mode-sum kernel is sum_s G_s / r_s = K = (W / omega) W^T for the
    shell factors W of shell_couplings, and A = -1/2 sum_o B_o^dagger B_o
    / omega_o with B_o = sum_a M[a // 3] W[a, o] S_a: the second-order
    operator of H's couplings, sum_ab C[a, b] S_a S_b with
    C = -1/2 (M (x) M) o K.
    """
    Ww = W / np.sqrt(omega_osc)
    Mj = np.repeat(system.moments, 3)
    return -0.5 * np.outer(Mj, Mj) * (Ww @ Ww.T)


def discrete_am(system: SpinSystem, omega_osc: np.ndarray, W: np.ndarray,
                vectors: bool = False) -> HermitianSpinOperator:
    """A_M of the couplings (omega_osc, W) of shell_couplings, with spectrum.

    vectors asks for eigenvectors too, as in assemble_am.
    """
    return _checked_operator(_discrete_coefficients(system, omega_osc, W),
                             system.s, vectors)


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------

@dataclass
class TrialCheck:
    lhs: float
    rhs: float
    residual: float
    u_norm_dh: float
    k_bound: float


def variational_trial_check(system: SpinSystem, profile: CutoffProfile,
                            grid: ModeGrid, X) -> TrialCheck:
    """Energy of the explicit trial state versus <A_M^disc X, X>.

    The trial state is Psi_0 (x) X - u with u the one-photon correction
    (dGamma(omega)^-1 (x) I) H_int (Psi_0 (x) X); the two sides agree up to
    roundoff because <H_int u, u> vanishes by photon-sector orthogonality.
    The trial state lives in photon sectors 0 and 1, so H is built at
    n_max = 1: a larger cap adds only rows that <phi, H phi> does not read.
    """
    X = np.asarray(X, dtype=complex)
    _require_unit(X, "trial check requires a normalized X")
    toy = build_hamiltonian(system, profile, grid, 1)
    e0x = toy.vacuum_embed(X)
    # the vacuum rows store no diagonal entry, so h's diagonal (x) the
    # vacuum vector vanishes: h_vac lives in the one-photon sector
    h_vac = toy.h @ e0x
    inv_omega = np.zeros(toy.dim)
    inv_omega[toy.spin_dim:] = 1.0 / toy.h.diagonal()[toy.spin_dim:].real
    u = inv_omega * h_vac
    phi_trial = e0x - u
    lhs = np.vdot(phi_trial, toy.matrix() @ phi_trial).real
    omega_osc, W = toy.space.omega_osc, toy.coupling
    A = bilinear_spin_operator(_discrete_coefficients(system, omega_osc, W),
                               system.s)
    rhs = np.vdot(X, A @ X).real

    # D(H) norm of u: u sits in the one-photon sector, where dGamma(omega) u
    # recovers h_vac.
    u_dh = math.sqrt(np.linalg.norm(h_vac) ** 2 + np.linalg.norm(u) ** 2)
    k_bound = _discrete_k_bound(system, omega_osc, W)
    return TrialCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                      u_norm_dh=u_dh, k_bound=k_bound)


def _discrete_k_bound(system: SpinSystem, omega_osc: np.ndarray,
                      W: np.ndarray) -> float:
    """Smallest K with ||u_M(X)||_D(H) <= K |M| |X| in the discrete model.

    Computed as the operator norm of the quadratic form
    X -> ||u||^2 + ||dGamma(omega) u||^2, via its spin-space Gram matrix.
    """
    M = system.moments
    Ww = W / omega_osc
    gram = W @ W.T + Ww @ Ww.T
    Mj = np.repeat(M, 3)
    G = bilinear_spin_operator(0.5 * np.outer(Mj, Mj) * gram, system.s)
    norm_m = float(np.linalg.norm(M))
    if norm_m == 0.0:
        return 0.0
    top = np.linalg.eigvalsh(G)[-1]
    return math.sqrt(max(top, 0.0)) / norm_m


@dataclass
class QuadraticFit:
    c2: float
    residual_slope: float
    a_disc_min: float
    scales: np.ndarray
    energies: np.ndarray
    photon_numbers: np.ndarray
    tolerance_limited: bool


def photon_number(toy: ToyHamiltonian, U: np.ndarray) -> float:
    """Expectation of the total photon number N (x) I in a normalized state."""
    U = np.asarray(U, dtype=complex)
    _require_unit(U, "photon_number requires a normalized state", 1e-10)
    return float(np.sum(toy.photon_number_diag() * np.abs(U) ** 2))


def quadratic_fit(system: SpinSystem, profile: CutoffProfile, grid: ModeGrid,
                  n_max: int, scale_points,
                  tol: float = DEFAULT_EIGENSOLVER_TOL) -> QuadraticFit:
    """Ground energy E(t) of H(t M) fitted against c2 t^2.

    c2 is fitted on the two smallest scales; the log-log slope of the
    remainder E(t) - c2 t^2 is estimated from the remaining scales.  At
    n_max = 1 each E(t) and its photon number come from the spin space
    (_one_photon_ground), and no Fock space is built; otherwise from
    ground_state on the Fock H.
    """
    scales = np.sort(np.asarray(scale_points, dtype=float))
    if len(scales) < 4 or not np.all((scales > 0) & (scales < np.inf)) \
            or np.any(scales[1:] == scales[:-1]):
        raise DomainError("need at least 4 distinct positive finite scale "
                          "points")
    # at M = 0 H is free: E(t) = 0 and no photon, so there is nothing to fit
    if not np.any(system.moments):
        raise DomainError("fock fit needs a nonzero moment")
    one_photon = _integer(n_max, "n_max") == 1
    if one_photon:
        omega_osc, W = shell_couplings(system, profile, grid)
        C2 = _squared_blocks(system, omega_osc, W)
    else:
        toy = build_hamiltonian(system, profile, grid, n_max)
        omega_osc, W = toy.space.omega_osc, toy.coupling
    energies, photons = [], []
    for t in scales:
        if one_photon:
            energy, _, X, N = _one_photon_ground(C2, omega_osc, t, tol)
            n2 = np.vdot(X[:, 0], N @ X[:, 0]).real
            photon = n2 / (1.0 + n2)
        else:
            energy, vector, _ = ground_state(toy.matrix(t), tol=tol,
                                             spin_dim=toy.spin_dim)
            photon = photon_number(toy, vector)
        energies.append(energy)
        photons.append(photon)
    energies = np.array(energies)
    photons = np.array(photons)

    tt = scales[:2]
    c2 = float(np.sum(energies[:2] * tt ** 2) / np.sum(tt ** 4))
    resid = energies - c2 * scales ** 2
    usable = np.abs(resid) > 50.0 * tol
    usable[:2] = False  # fit points carry no remainder information
    tolerance_limited = int(np.sum(usable)) < 2
    if tolerance_limited:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(scales[usable]),
                                 np.log(np.abs(resid[usable])), 1)[0])
    a_min = float(discrete_am(system, omega_osc, W).eigenvalues[0])
    return QuadraticFit(c2=c2, residual_slope=slope, a_disc_min=a_min,
                        scales=scales, energies=energies,
                        photon_numbers=photons,
                        tolerance_limited=tolerance_limited)


@dataclass
class MultiplicityRow:
    g: float
    energy: float
    mult_h: int
    mult_a1: int
    min_overlap: float
    multiplet: np.ndarray  # (spin_dim,) (eig F(E_0) - E_0) / g^2, ascending
    a_disc: np.ndarray     # (spin_dim,) spectrum of A_1^disc, every row alike


def multiplicity_scan(system: SpinSystem, profile: CutoffProfile,
                      grid: ModeGrid, n_max: int, g_points,
                      degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
                      tol: float = DEFAULT_EIGENSOLVER_TOL) -> list:
    """Ground multiplicity of H(g 1) versus that of the minimum of A_1^disc.

    All moments are set equal to g.  mult_h counts the eigenvalues of the
    Feshbach map F(E_0) within degeneracy_tol * g^2 * rho(A_1^disc) above
    the ground energy E_0, rho the spectral radius.  Also reports the
    smallest overlap of those dressed states X (+) -Z X with
    Psi_0 (x) (A_1 ground eigenspace), and the multiplet
    (eig F(E_0) - E_0) / g^2, which tends to eig A_1^disc - min eig A_1^disc
    as g -> 0.  At n_max = 1, E_0, F(E_0) and the norms |Z X|^2 =
    <X, N(E_0) X> come from the spin space (_one_photon_ground), and no
    Fock space is built; otherwise from ground_state and _feshbach on the
    Fock H.
    """
    if np.ptp(system.moments) > 1e-12 * np.abs(system.moments).max():
        raise DomainError("multiplicity scan requires equal moments")
    g_points = np.asarray(g_points, dtype=float)
    # at g = 0 H is free: its ground level is the whole spin space
    if not np.all(np.isfinite(g_points) & (g_points != 0)):
        raise DomainError("multiplicity scan needs nonzero finite g values")
    unit = system.with_moments(np.ones(system.P))
    one_photon = _integer(n_max, "n_max") == 1
    if one_photon:
        omega_osc, W = shell_couplings(unit, profile, grid)
        C2 = _squared_blocks(unit, omega_osc, W)
    else:
        toy = build_hamiltonian(unit, profile, grid, n_max)
        omega_osc, W = toy.space.omega_osc, toy.coupling
    a_disc = discrete_am(unit, omega_osc, W, vectors=True)
    _, mult_a1, a_basis = ground_eigenspace(a_disc, degeneracy_tol)
    rows = []
    for g in g_points:
        if one_photon:
            energy, lam, X, N = _one_photon_ground(C2, omega_osc, g, tol)
        else:
            H = toy.matrix(g)
            energy = ground_state(H, tol=tol, spin_dim=toy.spin_dim)[0]
            lam, X, Z = _feshbach(H, energy, toy.spin_dim, tol)
            N = Z.conj() @ Z.T  # Z^H Z
        # energies scale like g^2 eig(A_1), so the window is that of A_1's
        # own cluster (ground_eigenspace) times g^2: mult_h <= mult_a1
        # then compares like with like
        width = degeneracy_tol * g * g * a_disc.radius
        # every eigenvalue of F(E_0) lies at or above the ground energy E_0
        if not lam[0] >= energy - width:
            raise ConvergenceError(
                f"Feshbach map at g={g!r} has eigenvalue {lam[0]!r} below "
                f"the ground energy {energy!r}")
        mult_h = int(np.sum(lam <= energy + width))
        X = X[:, :mult_h]
        # |X (+) -Z X|^2 = X^H (1 + N) X, and Psi_0 (x) a_basis reads X
        norm2 = 1.0 + np.sum(X.conj() * (N @ X), axis=0).real
        overlaps = np.sum(np.abs(a_basis.conj().T @ X) ** 2, axis=0) / norm2
        rows.append(MultiplicityRow(
            g=float(g), energy=float(energy), mult_h=mult_h, mult_a1=mult_a1,
            min_overlap=float(overlaps.min()),
            multiplet=(lam - energy) / (g * g), a_disc=a_disc.eigenvalues))
    return rows
