"""Desk-scale truncated Fock realization of the spin-photon Hamiltonian.

The photon momentum integral is discretized on a spherical-product grid:
n_radial Gauss-Legendre shells |k| = r_s times one set of unit directions
u_d with weights w_d.  Each (mode, polarization) pair is a bosonic
oscillator of frequency |k|, and the Hamiltonian

    H = dGamma(omega) (x) I + sum_{lam,m} M[lam] Phi_S(B_{m,x[lam]}) (x) sigma_m^[lam]

is assembled sparse on the occupation basis with total photon number
<= n_max, tensored with the spin space (Fock index major).

Only the oscillators the spins couple to are kept (the "effective mode"
reduction: Cederbaum, Gindensperger & Burghardt, PRL 94 (2005) 113003).
All oscillators of one shell share one frequency, so a unitary that mixes
only that shell's oscillators leaves dGamma(omega) unchanged, and H
depends on the shell only through the Gram matrix of its 3P coupling
vectors.  Summed over the two polarizations, the couplings give the
transverse projector, and the sine part cancels between the directions
u and -u of the grid, so that Gram matrix is real:

    G_s[lam j, mu m] = c_s sum_d w_d (delta_jm - u_dj u_dm)
                       cos(r_s u_d.(x_lam - x_mu)),
    c_s = rw_s r_s^3 phi(r_s)^2 (2 pi)^-3.

Any real W_s with W_s W_s^T = G_s has the Gram matrix of those couplings,
so a unitary of the shell's oscillators turns them into a^dagger(v_a) =
sum_j W_s[a, j] b_j^dagger, one new oscillator b_j per column of W_s, and
the shell's other oscillators do not couple.  The truncated H is then
block diagonal in the number n of photons in those uncoupled
oscillators, and block n has the spectrum of the reduced H at cap
n_max - n shifted by at least n omega_min.  So the ground state, and
every level below E_0 + omega_min, is that of the reduced H at cap n_max
with the uncoupled oscillators empty.  The reduced space grows with the
number of radial shells only; angular refinement is free.  H and the
discrete A_M both read the shell factors W kept on the ToyHamiltonian:
A_M is the second-order operator of H's couplings, real symmetric and
negative semidefinite on any grid.

H_int is assembled in one pass from one spin block per oscillator, and
its low eigenpairs come from an in-package block LOBPCG written in
numpy, so the module needs nothing of scipy beyond scipy.sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from .cutoff import CutoffProfile, phi_eval
from .errors import ConvergenceError, DomainError, ResourceError, \
    _integer
from .spin_operator import DEFAULT_DEGENERACY_TOL, HermitianSpinOperator, \
    SpinSystem, _checked_operator, bilinear_spin_operator, \
    ground_eigenspace, site_spin_operators

# Hard ceiling on dim(Fock) * dim(spin) for assembled operators.  The Fock
# space is that of the coupled oscillators only, at most 3P per radial shell.
MAX_TOTAL_DIM = 400_000

# Eigenpair residual tolerance ||H v - E v|| of ground_state (absolute).
DEFAULT_EIGENSOLVER_TOL = 1e-10

# Seed of _start_block's noise; no result depends on it beyond roundoff.
START_NOISE_SEED = 1234


@dataclass(frozen=True)
class ModeGrid:
    """Photon modes k = radius[s] direction[d] of a spherical-product rule.

    Mode (s, d) has frequency radius[s] and weight
    radial_weight[s] radius[s]^2 direction_weight[d] for int dk.
    """

    radius: np.ndarray            # (n_radial,) shell radii |k|
    radial_weight: np.ndarray     # (n_radial,) weights for int d|k|
    direction: np.ndarray         # (n_dirs, 3) unit directions
    direction_weight: np.ndarray  # (n_dirs,) weights for int dOmega

    @property
    def n_modes(self) -> int:
        return len(self.radius) * len(self.direction_weight)


def build_mode_grid(profile: CutoffProfile, n_radial: int,
                    n_angular: int) -> ModeGrid:
    """Spherical-product quadrature grid, closed under u -> -u.

    Radial: n_radial Gauss-Legendre nodes on (0, r_far).  Angular:
    (n_angular/2) Gauss-Legendre polar nodes x n_angular uniform azimuths,
    azimuth fastest.
    """
    n_radial = _integer(n_radial, "n_radial")
    n_angular = _integer(n_angular, "n_angular")
    if n_radial < 2:
        raise DomainError("need n_radial >= 2")
    if n_angular < 6 or n_angular % 2:
        raise DomainError("need even n_angular >= 6")
    r_far = profile.far_radius()
    rn, rw = np.polynomial.legendre.leggauss(n_radial)
    cn, cw = np.polynomial.legendre.leggauss(n_angular // 2)
    C, F = np.meshgrid(cn, 2.0 * math.pi * np.arange(n_angular) / n_angular,
                       indexing="ij")
    S = np.sqrt(1.0 - C * C)
    return ModeGrid(
        radius=0.5 * r_far * (rn + 1.0), radial_weight=0.5 * r_far * rw,
        direction=np.stack([S * np.cos(F), S * np.sin(F), C],
                           axis=-1).reshape(-1, 3),
        direction_weight=np.repeat(cw * (2.0 * math.pi / n_angular),
                                   n_angular))


def shell_couplings(system: SpinSystem, profile: CutoffProfile,
                    grid: ModeGrid):
    """Frequencies and real couplings of the oscillators the spins reach.

    Returns (omega_osc, W): W (3P, n_osc) holds, shell after shell, a real
    factor W_s W_s^T = G_s of the shell's Gram matrix (module docstring),
    one column per coupled oscillator at the shell's frequency.  With
    f_0 = cos and f_1 = sin,

        Y_s[lam j, (d, t, n)] = sqrt(c_s w_d) f_t(r_s u_d.x_lam)
                                (delta_jn - u_dj u_dn)

    has Y_s Y_s^T = G_s, as cos(a - b) = cos a cos b + sin a sin b and the
    transverse projector is symmetric and idempotent.  One QR of the stack
    of every Y_s^T = Q_s R_s gives W_s = R_s^T, with min(3P, 6 n_dirs)
    columns.  That is 3P, at most the 2 n_dirs >= 36 oscillators of the
    shell, unless P > 12, where no Fock space fits MAX_TOTAL_DIM.
    """
    r, u = grid.radius, grid.direction
    c = grid.radial_weight * r ** 3 * phi_eval(profile, r) ** 2 \
        * (2.0 * math.pi) ** -3
    phase = r[:, None, None] * (u @ system.positions.T)  # (shell, d, lam)
    amp = np.sqrt(c[:, None] * grid.direction_weight)[:, :, None, None]
    trig = amp * np.stack([np.cos(phase), np.sin(phase)], axis=2)
    proj = np.eye(3) - u[:, :, None] * u[:, None, :]  # (d, n, j)
    Yt = trig[:, :, :, None, :, None] * proj[None, :, None, :, None, :]
    R = np.linalg.qr(Yt.reshape(len(r), 6 * len(u), 3 * system.P),
                     mode="r")
    return np.repeat(r, R.shape[1]), \
        R.transpose(2, 0, 1).reshape(3 * system.P, -1)


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


def build_fock_space(omega_osc: np.ndarray, n_max: int,
                     spin_dim: int = 1) -> FockSpace:
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    n_osc = len(omega_osc)
    sizes = [math.comb(n_osc + n - 1, n) for n in range(n_max + 1)]
    if sum(sizes) * spin_dim > MAX_TOTAL_DIM:
        raise ResourceError(
            f"Fock dimension {sum(sizes)} x spin {spin_dim} exceeds "
            f"budget {MAX_TOTAL_DIM}")
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

    Returns (rows, cols, amp, osc): a_osc^dagger maps basis state cols to
    amp times basis state rows, with rows in sector n+1 and cols in sector
    n, ordered by column, then oscillator.  Each transition n -> n+1 is one
    vectorized step: o joins every state, the sorted row is ranked in sector
    n+1 by binary search on its base-n_osc key (exact, as every sector is
    complete and sorted), and amp is sqrt(occupation of o) in that row.
    """
    n_osc = space.n_osc
    rows, cols, amp, osc = [], [], [], []
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
        amp.append(np.sqrt(np.sum(new == o[:, None], axis=1)))
        osc.append(o)
    return tuple(map(np.concatenate, (rows, cols, amp, osc)))


def segal_field(space: FockSpace, v: np.ndarray) -> sp.csr_matrix:
    """Phi_S(V) = (a(V) + a(V)^dagger)/sqrt(2) for coupling vector v."""
    rows, cols, amp, osc = _creation_pattern(space)
    vals = amp * np.asarray(v, dtype=complex)[osc]
    T = sp.csr_matrix((vals / math.sqrt(2.0), (rows, cols)),
                      shape=(space.dim, space.dim))
    return T + T.conj().T


@dataclass
class ToyHamiltonian:
    """Sparse H = h_free + h_int on Fock (x) spin, Fock index major."""

    h_free: sp.csr_matrix
    h_int: sp.csr_matrix
    space: FockSpace
    spin_dim: int
    coupling: np.ndarray  # (3P, n_osc) real shell_couplings H is built from

    @property
    def dim(self) -> int:
        return self.h_free.shape[0]

    def matrix(self, scale: float = 1.0) -> sp.csr_matrix:
        """H with the interaction (hence all moments) scaled by `scale`."""
        return self.h_free + scale * self.h_int

    def vacuum_embed(self, X: np.ndarray) -> np.ndarray:
        """Psi_0 (x) X as a full-space vector."""
        out = np.zeros(self.dim, dtype=complex)
        out[: self.spin_dim] = X
        return out

    def photon_number_diag(self) -> np.ndarray:
        return np.repeat(self.space.n_total, self.spin_dim)


def build_hamiltonian(system: SpinSystem, profile: CutoffProfile,
                      grid: ModeGrid, n_max: int) -> ToyHamiltonian:
    """Truncated spin-photon Hamiltonian on the coupled oscillators only.

    Each radial shell keeps the oscillators of shell_couplings; the
    dropped ones carry no coupling, so every level below
    E_0 + omega_min, the ground state included, is that of the full grid
    (module docstring).  h_int = T + T^dagger with
    T = sum_o a_o^dagger (x) C_o and the spin block
    C_o = sum_a M[a // 3] W[a, o] S_a / sqrt(2) of oscillator o: each entry
    of the ladder pattern carries the nonzeros of its oscillator's block.
    """
    spin_dim = system.spin_dim
    omega_osc, W = shell_couplings(system, profile, grid)
    space = build_fock_space(omega_osc, n_max, spin_dim)
    dim = space.dim * spin_dim
    h_free = sp.kron(
        sp.diags(np.concatenate([space.omega_osc[occ].sum(axis=1)
                                 for occ in space.sectors])),
        sp.identity(spin_dim), format="csr")

    # C_o on the union pattern of the S_a, zeros dropped: (osc, i, j, value)
    S = site_spin_operators(system.s, system.P).tocoo()
    site_row, i = np.divmod(S.row, spin_dim)
    pattern, slot = np.unique(i * spin_dim + S.col, return_inverse=True)
    stack = np.zeros((len(W), len(pattern)), dtype=complex)
    stack[site_row, slot] = S.data
    blocks = (np.repeat(system.moments, 3)[:, None] * W).T \
        @ stack / math.sqrt(2.0)
    block_osc, entry = np.nonzero(blocks)
    block_i, block_j = np.divmod(pattern[entry], spin_dim)
    block_val = blocks[block_osc, entry]
    count = np.bincount(block_osc, minlength=space.n_osc)
    first = np.cumsum(count) - count

    # every ladder entry repeated once per nonzero of its oscillator's block
    rows, cols, amp, osc = _creation_pattern(space)
    per = count[osc]
    ladder = np.repeat(np.arange(len(osc)), per)
    k = np.arange(len(ladder)) - np.repeat(np.cumsum(per) - per, per) \
        + np.repeat(first[osc], per)
    r = rows[ladder] * spin_dim + block_i[k]
    c = cols[ladder] * spin_dim + block_j[k]
    t = amp[ladder] * block_val[k]
    h_int = sp.csr_matrix((np.concatenate([t, t.conj()]),
                           (np.concatenate([r, c]), np.concatenate([c, r]))),
                          shape=(dim, dim))
    return ToyHamiltonian(h_free=h_free, h_int=h_int, space=space,
                          spin_dim=spin_dim, coupling=W)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------

def _start_block(diag: np.ndarray, m: int, spin_dim: int) -> np.ndarray:
    """Unit vectors on the m smallest diagonal entries (stable order).

    The first spin_dim span the free ground space vacuum (x) spin, so every
    dressed spin state is in reach, degenerate or not.  The others sit on
    the one-photon continuum edge, which H maps into the vacuum columns'
    span; 1e-3 noise keeps them from stalling the block there.
    """
    X = np.zeros((len(diag), m))
    X[np.argsort(diag, kind="stable")[:m], np.arange(m)] = 1.0
    X[:, spin_dim:] += 1e-3 * np.random.default_rng(START_NOISE_SEED).normal(
        size=(len(diag), m - spin_dim))
    return X


def _ritz_start(H: sp.csr_matrix, diag: np.ndarray, spin_dim: int,
                precond: np.ndarray) -> np.ndarray:
    """Lowest Rayleigh-Ritz vector of H on span[V, M H V], one column.

    V holds the unit vectors on the spin_dim smallest diagonal entries
    (vacuum (x) spin) and M = diag(precond).  The span is the dressed spin
    space to first order, so its lowest Ritz vector is the lowest state of
    the second-order operator of H itself.  [V, M H V] is zero outside the
    rows of V and the columns H couples to them; the projected
    eigenproblem runs on those rows only.  If H is diagonal on V, the
    directions of M H V already in span V are dropped.
    """
    cols = np.argsort(diag, kind="stable")[:spin_dim]
    Hc = H[cols]
    support = np.zeros(H.shape[0], dtype=bool)
    support[cols] = True
    support[Hc.indices] = True
    rows = np.flatnonzero(support)
    Hr = H if support.all() else H[rows][:, rows]
    # basis vectors as rows: V, then M H V = M (V^H H)^H
    B = np.zeros((2 * spin_dim, len(rows)), dtype=complex)
    B[np.arange(spin_dim), np.searchsorted(rows, cols)] = 1.0
    B[spin_dim:] = Hc.toarray()[:, rows].conj() * precond[rows]
    B = _orthonormal_rows(B)
    _, y = np.linalg.eigh(B.conj() @ (Hr @ B.T))
    x = np.zeros((H.shape[0], 1), dtype=complex)
    x[rows, 0] = y[:, 0] @ B
    return x


def _orthonormalizer(G: np.ndarray) -> np.ndarray:
    """T with T^H G T = I for the Gram matrix G of a block of vectors.

    Cholesky-QR: T = L^-H for G = L L^H.  If G is not numerically positive
    definite, SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002)
    2165) instead: the eigenvectors of G with the vectors scaled to unit
    length, divided by the square roots of their eigenvalues, with the
    directions whose eigenvalue is below 1e-12 of the largest dropped.
    Either loses orthogonality like eps cond^2.
    """
    if G.shape == (1, 1) and G[0, 0].real > 0.0:  # one vector: its norm
        return 1.0 / np.sqrt(G.real)
    try:
        return np.linalg.inv(np.linalg.cholesky(G)).conj().T
    except np.linalg.LinAlgError:
        pass
    scale = 1.0 / np.sqrt(np.maximum(G.diagonal().real, np.finfo(float).tiny))
    s, U = np.linalg.eigh(scale[:, None] * G * scale)
    keep = s > 1e-12 * s[-1]
    return scale[:, None] * U[:, keep] / np.sqrt(s[keep])


def _orthonormal_rows(V: np.ndarray, B: np.ndarray | None = None):
    """The rows of V projected off the orthonormal rows of B and made
    orthonormal, twice over: the second pass restores orthogonality to
    roundoff, and nearly dependent rows end up dropped or orthonormal."""
    B_h = None if B is None else B.conj().T
    for _ in range(2):
        if B is not None:
            V = V - (V @ B_h) @ B
        V = _orthonormalizer(V.conj() @ V.T).T @ V
    return V


def _lobpcg(H: sp.csr_matrix, X: np.ndarray, precond: np.ndarray,
            stop: float, wanted: int):
    """Lowest eigenvectors of Hermitian H from the start block X.

    Block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) in the
    orthonormal-basis form of Hetmaniuk & Lehoucq, J. Comput. Phys. 218
    (2006) 324: each step is Rayleigh-Ritz on an orthonormal basis
    [X, P, W] of the Ritz vectors X, the previous search directions P and
    the preconditioned residuals W = diag(precond) (H X - X Theta), a
    standard Hermitian eigenproblem of size at most 3 m.  P is made
    orthonormal and orthogonal to X in the coefficient space of the step
    before, and W is projected off [X, P] and orthonormalized twice, so
    only W needs a product with H; H X and H P are carried along.  A
    column whose residual norm falls to `stop` stops contributing to W and
    P (soft locking); the solve ends when the lowest `wanted` columns
    have, or after 1000 steps with whatever it has.  Vectors are kept
    as rows, each contiguous.  Returns (vectors as columns, steps).
    """
    X = _orthonormal_rows(np.ascontiguousarray(X.T, dtype=complex))
    m = len(X)
    HX = np.ascontiguousarray((H @ X.T).T)
    theta, C = np.linalg.eigh(X.conj() @ HX.T)
    B, HB = C.T @ X, C.T @ HX  # rows [X; P], P empty at first
    active = np.ones(m, dtype=bool)
    for step in range(1000):
        R = HB[:m] - theta[:, None] * B[:m]
        active &= np.linalg.norm(R, axis=1) > stop
        if not active[:wanted].any():
            return B[:m].T, step
        W = _orthonormal_rows(precond * R[active], B)
        if not len(W):  # the residuals lie in span[X, P]: no progress left
            return B[:m].T, step
        Q = np.vstack([B, W])
        HQ = np.vstack([HB, (H @ W.T).T])
        # eigh reads one triangle of the Hermitian projection
        theta, C = np.linalg.eigh(Q.conj() @ HQ.T)
        theta, C = theta[:m], C[:, :m]
        # next P: the active columns of C off X's rows, made orthonormal and
        # orthogonal to C.  One pass: the part of such a column along C is
        # the square of its length, so nothing cancels.
        Y = C[:, active].T.copy()
        Y[:, :m] = 0.0
        Y -= (Y @ C.conj()) @ C.T
        CY = np.vstack([C.T, _orthonormalizer(Y.conj() @ Y.T).T @ Y])
        B, HB = CY @ Q, CY @ HQ
    return B[:m].T, 1000


def ground_state(H, tol: float = DEFAULT_EIGENSOLVER_TOL, k_pairs: int = 1,
                 spin_dim: int = 1):
    """Lowest k_pairs eigenpairs of a sparse Hermitian matrix.

    Block LOBPCG (_lobpcg) preconditioned by the shifted inverse diagonal.
    One pair iterates the single column _ritz_start; more pairs iterate the
    block _start_block, two columns wider when k_pairs exceeds spin_dim.
    Small matrices, and blocks wider than a fifth of the dimension, go to
    a dense eigh.  Each energy is the Rayleigh quotient of its vector, and
    each residual ||H v - E v|| comes from that same product with H, not
    from the solver's own.  Returns (energies, vectors, residuals) with
    vectors as columns.
    """
    H = sp.csr_matrix(H)
    dim = H.shape[0]
    spin_dim = min(spin_dim, dim)
    # A block spans the dressed spin space.  Pairs past it reach into the
    # one-photon continuum, where a block only as wide as k_pairs stalls:
    # on configs/single_spin.yaml the third pair lies in a 6-fold cluster
    # at 0.020656.  Two guard columns, which need not converge, take those
    # solves from the 1000-step limit to 13 steps; narrower blocks need none.
    wanted = 1 if k_pairs == 1 else max(k_pairs, spin_dim)
    width = wanted + 2 * (k_pairs > spin_dim)
    if dim <= 32 or dim < 5 * width:
        vecs = np.linalg.eigh(H.toarray())[1][:, :width]
    else:
        d = H.diagonal().real
        # Shift 0.1: on the 24x12 fit a one-column solve takes 10-13
        # iterations; a shift of 1.0 took 17-24.
        precond = 1.0 / (d - d.min() + 0.1)
        if k_pairs == 1:
            X = _ritz_start(H, d, spin_dim, precond)
            # The energy error is about residual^2 / gap, and a lone column
            # leaves a near-degenerate partner outside the block: on the 4x6
            # equal-moment pair at t = 0.05, tol/10 gave 3.2e-12 relative.
            stop = tol / 100
        else:
            X = _start_block(d, width, spin_dim)
            stop = tol / 10
        # A stalled block is left to the residual gate below.
        vecs = _lobpcg(H, X, precond, stop, wanted)[0]
    HV = H @ vecs
    vals = np.sum(vecs.conj() * HV, axis=0).real \
        / np.sum(np.abs(vecs) ** 2, axis=0)
    order = np.argsort(vals)[:k_pairs]
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(HV[:, order] - vecs * vals, axis=0)
    # written so that a NaN residual fails too
    if not np.all(residuals <= tol):
        raise ConvergenceError(
            f"eigenpair residual {residuals.max():.3e} above tolerance {tol:.3e}")
    return vals, vecs, residuals


# ---------------------------------------------------------------------------
# Discrete kernel and A_M
# ---------------------------------------------------------------------------

def _discrete_am_matrix(system: SpinSystem, omega_osc: np.ndarray,
                        W: np.ndarray) -> np.ndarray:
    """Dense matrix of A_M with the mode sum replacing the kernel integral.

    The mode-sum kernel is sum_s G_s / r_s = K = (W / omega) W^T for the
    shell factors W of shell_couplings, and A = -1/2 sum_o B_o^dagger B_o
    / omega_o with B_o = sum_a M[a // 3] W[a, o] S_a: the second-order
    operator of H's couplings.
    """
    Ww = W / np.sqrt(omega_osc)
    Mj = np.repeat(system.moments, 3)
    return bilinear_spin_operator(-0.5 * np.outer(Mj, Mj) * (Ww @ Ww.T),
                                  system.s)


def discrete_am(system: SpinSystem, omega_osc: np.ndarray, W: np.ndarray,
                vectors: bool = False) -> HermitianSpinOperator:
    """A_M of the couplings (omega_osc, W) of shell_couplings, with spectrum.

    vectors asks for eigenvectors too, as in assemble_am.
    """
    return _checked_operator(_discrete_am_matrix(system, omega_osc, W),
                             vectors)


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
                            grid: ModeGrid, n_max: int, X) -> TrialCheck:
    """Energy of the explicit trial state versus <A_M^disc X, X>.

    The trial state is Psi_0 (x) X - u with u the one-photon correction
    (dGamma(omega)^-1 (x) I) H_int (Psi_0 (x) X); the two sides agree up to
    roundoff because <H_int u, u> vanishes by photon-sector orthogonality.
    """
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    X = np.asarray(X, dtype=complex)
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(X) - 1.0) <= 1e-12:
        raise DomainError("trial check requires a normalized X")
    toy = build_hamiltonian(system, profile, grid, n_max)
    e0x = toy.vacuum_embed(X)
    h_vac = toy.h_int @ e0x  # lives in the one-photon sector
    inv_omega = np.zeros(toy.dim)
    s1 = slice(toy.spin_dim, (1 + toy.space.n_osc) * toy.spin_dim)
    inv_omega[s1] = 1.0 / np.repeat(toy.space.omega_osc, toy.spin_dim)
    u = inv_omega * h_vac
    phi_trial = e0x - u
    H = toy.matrix()
    lhs = np.vdot(phi_trial, H @ phi_trial).real
    omega_osc, W = toy.space.omega_osc, toy.coupling
    rhs = np.vdot(X, _discrete_am_matrix(system, omega_osc, W) @ X).real

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
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(U) - 1.0) <= 1e-10:
        raise DomainError("photon_number requires a normalized state")
    return float(np.sum(toy.photon_number_diag() * np.abs(U) ** 2))


def quadratic_fit(system: SpinSystem, profile: CutoffProfile, grid: ModeGrid,
                  n_max: int, scale_points,
                  tol: float = DEFAULT_EIGENSOLVER_TOL) -> QuadraticFit:
    """Ground energy E(t) of H(t M) fitted against c2 t^2.

    c2 is fitted on the two smallest scales; the log-log slope of the
    remainder E(t) - c2 t^2 is estimated from the remaining scales.
    """
    scales = np.sort(np.asarray(scale_points, dtype=float))
    if len(scales) < 4 or not np.all((scales > 0) & (scales < np.inf)) \
            or np.any(scales[1:] == scales[:-1]):
        raise DomainError("need at least 4 distinct positive finite scale "
                          "points")
    # at M = 0 H is free: E(t) = 0 and no photon, so there is nothing to fit
    if not np.any(system.moments):
        raise DomainError("fock fit needs a nonzero moment")
    toy = build_hamiltonian(system, profile, grid, n_max)
    energies, photons = [], []
    for t in scales:
        vals, vecs, _ = ground_state(toy.matrix(t), tol=tol, k_pairs=1,
                                     spin_dim=toy.spin_dim)
        energies.append(vals[0])
        photons.append(photon_number(toy, vecs[:, 0]))
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
    a_min = float(discrete_am(system, toy.space.omega_osc,
                              toy.coupling).eigenvalues[0])
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


def multiplicity_scan(system: SpinSystem, profile: CutoffProfile,
                      grid: ModeGrid, n_max: int, g_points,
                      degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
                      tol: float = DEFAULT_EIGENSOLVER_TOL) -> list:
    """Ground multiplicity of H(g 1) versus that of the minimum of A_1^disc.

    All moments are set equal to g; also reports the smallest overlap of the
    H ground vectors with Psi_0 (x) (A_1 ground eigenspace).
    """
    if np.ptp(system.moments) > 1e-12:
        raise DomainError("multiplicity scan requires equal moments")
    g_points = np.asarray(g_points, dtype=float)
    # at g = 0 H is free: its ground level is the whole spin space
    if not np.all(np.isfinite(g_points) & (g_points != 0)):
        raise DomainError("multiplicity scan needs nonzero finite g values")
    unit = system.with_moments(np.ones(system.P))
    toy = build_hamiltonian(unit, profile, grid, n_max)
    _, mult_a1, a_basis = ground_eigenspace(
        discrete_am(unit, toy.space.omega_osc, toy.coupling, vectors=True),
        degeneracy_tol)
    proj_basis = np.array([toy.vacuum_embed(v)
                           for v in a_basis.T])  # rows orthonormal
    rows = []
    # One pair past the bound decides PASS; mult_h is capped at mult_a1 + 1.
    k_pairs = min(mult_a1 + 1, toy.dim - 2)
    for g in g_points:
        vals, vecs, _ = ground_state(toy.matrix(g), tol=tol, k_pairs=k_pairs,
                                     spin_dim=toy.spin_dim)
        # energies scale like g^2 eig(A_1), so the cluster window must too
        width = degeneracy_tol * max(g * g, abs(vals[0]))
        mult_h = int(np.sum(vals <= vals[0] + width))
        overlaps = [float(np.sum(np.abs(proj_basis.conj() @ vecs[:, i]) ** 2))
                    for i in range(mult_h)]
        rows.append(MultiplicityRow(g=float(g), energy=float(vals[0]),
                                    mult_h=mult_h, mult_a1=mult_a1,
                                    min_overlap=min(overlaps)))
    return rows
