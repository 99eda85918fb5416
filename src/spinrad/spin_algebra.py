"""Spin-s matrices, site embeddings, Hopf maps and SU(2) rotations.

Conventions: sigma_j(s) = 2 J_j in the weight basis |s,s>, ..., |s,-s>, so
that s = 1/2 reproduces the Pauli matrices, [sigma_1, sigma_2] = 2i sigma_3
(and cyclic) and sum_j sigma_j(s)^2 = 4 s (s+1) I exactly.

Site spins act on (C^d)^(x P) by contraction along one site axis
(_on_site); no d^P x d^P operator is formed.  The Fock Hamiltonian, and
embed_site_operator as a reference, are CSRMatrix: compressed sparse rows
in numpy, the canonical layout of scipy.sparse (rows in order, columns
ascending and unique in each row), read-only.  This module is the only one
that knows that layout: the package uses only construction (from entries
and from a dense array), products, dense rows, the diagonal, the
off-diagonal part scaled (H(t) of the Fock Hamiltonian, which shares the
diagonal with h), the states a walk of the pattern cannot reach, the
stored values (data) and the dense matrix (toarray).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """Sparse matrix in canonical compressed sparse rows.

    Row i holds the columns indices[indptr[i]:indptr[i + 1]], ascending
    and unique, with their values in data; indptr and indices are intp.
    Stored zeros stay stored.  The three arrays are made read-only when
    the matrix is made, so matrices may share them.
    """

    indptr: np.ndarray  # (shape[0] + 1,)
    indices: np.ndarray  # (nnz,)
    data: np.ndarray  # (nnz,)
    shape: tuple

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "CSRMatrix":
        """The matrix with vals at (rows, cols), duplicates summed in order.

        Its arrays hold what scipy's canonical CSR of the same entries
        holds, the index arrays as intp.  The entries are put in order by
        one stable sort of the int64 key row n_cols + col, so a shape of
        2^63 entries or more is refused.
        """
        rows, cols = np.asarray(rows, np.intp), np.asarray(cols, np.intp)
        vals = np.asarray(vals)
        n_rows, n_cols = map(int, shape)
        if n_rows * n_cols >= 2 ** 63:
            raise DomainError(f"shape {shape} has too many entries for "
                              f"int64 keys")
        if rows.size and not (0 <= rows.min() and rows.max() < n_rows
                              and 0 <= cols.min() and cols.max() < n_cols):
            raise DomainError(f"sparse entries outside shape {shape}")
        key = rows.astype(np.int64, copy=False) * n_cols + cols
        order = np.argsort(key, kind="stable")
        key = key[order]  # one gather at a time keeps the peak down
        vals = vals[order]
        del order
        cols = key % n_cols  # read back, not gathered: one array fewer
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        if not new.all():  # sum each run of duplicates, in entry order
            summed = np.zeros(np.count_nonzero(new), dtype=vals.dtype)
            np.add.at(summed, np.cumsum(new) - 1, vals)
            rows, cols, vals = key[new] // n_cols, cols[new], summed
        # without duplicates, the rows' counts are those of the unsorted rows
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(indptr, cols, vals, (n_rows, n_cols))

    @classmethod
    def of(cls, A) -> "CSRMatrix":
        """A itself, or the CSRMatrix of a dense 2-D array (its nonzero
        entries)."""
        if isinstance(A, cls):
            return A
        A = np.asarray(A)
        if A.ndim != 2:
            raise DomainError(f"a matrix needs two axes, not {A.ndim}")
        rows, cols = np.nonzero(A)
        return cls.from_entries(rows, cols, A[rows, cols], A.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _row_ids(self) -> np.ndarray:
        """Row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @functools.cached_property
    def _row_blocks(self) -> list:
        """(entries, rows, starts) of each block of the rows that store an
        entry: the block's slice of the stored entries, its rows (a slice
        when they are consecutive) and where each row starts in the
        block's entries.  A block spans about 2^16 entries, so a product's
        temporaries take about 1 MiB per complex column whatever the
        matrix's size."""
        filled = np.flatnonzero(np.diff(self.indptr))
        starts = self.indptr[filled]
        # a block holds the rows whose first entries share one window of
        # 2^16 entries
        cuts = np.append(np.flatnonzero(np.diff(starts >> 16, prepend=-1)),
                         len(filled))
        blocks = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            rows = filled[a:b]
            if rows[-1] - rows[0] == b - a - 1:
                rows = slice(rows[0], rows[-1] + 1)
            lo, hi = starts[a], self.indptr[filled[b - 1] + 1]
            blocks.append((slice(lo, hi), rows, starts[a:b] - lo))
        return blocks

    def __matmul__(self, x) -> np.ndarray:
        """A x for x of shape (n_cols,) or (n_cols, k)."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise DomainError(f"cannot multiply {self.shape} by {x.shape}")
        # entry products with x's columns as rows, summed row by row, one
        # block of rows at a time; a row that stores nothing stays zero
        xt = np.ascontiguousarray(x.T, dtype=np.result_type(x, self.data))
        out = np.zeros(xt.shape[:-1] + (self.shape[0],), dtype=xt.dtype)
        for entries, rows, starts in self._row_blocks:
            prod = np.take(xt, self.indices[entries], axis=-1)
            prod *= self.data[entries]
            out[..., rows] = np.add.reduceat(prod, starts, axis=-1)
        return out.T

    def rows(self, idx) -> np.ndarray:
        """Dense rows idx, shape (len(idx), n_cols)."""
        out = np.zeros((len(idx), self.shape[1]), dtype=self.data.dtype)
        for k, i in enumerate(idx):
            row = slice(self.indptr[i], self.indptr[i + 1])
            out[k, self.indices[row]] = self.data[row]
        return out

    @functools.cached_property
    def _diagonal_mask(self) -> np.ndarray:
        """Whether each stored entry is on the main diagonal; read-only."""
        mask = self.indices == self._row_ids()
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def _diagonal(self) -> np.ndarray:
        on = self._diagonal_mask
        out = np.zeros(min(self.shape), dtype=self.data.dtype)
        out[self.indices[on]] = self.data[on]
        out.flags.writeable = False
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal, zero where no entry is stored; read-only."""
        return self._diagonal

    @functools.cached_property
    def _components(self) -> np.ndarray:
        """First state of each state's component in the pattern, -1 for a
        state that stores no off-diagonal entry; read-only.  The pattern
        is a Hermitian matrix's, so the entries above the diagonal hold
        every link.  Each pass hooks every tree's root onto the least root
        it shares an entry with, then flattens the trees by pointer
        jumping; entries inside one tree drop out.  The trees halve at
        least every two passes, so a chain of n states takes O(log n)
        passes, where a breadth-first walk takes n steps."""
        n = self.shape[0]
        rows, cols = self._row_ids(), self.indices
        upper = (rows < cols) & (cols < n)  # columns past the rows are
        lo, hi = rows[upper], cols[upper]   # no states
        linked = np.zeros(n, dtype=bool)
        linked[lo] = linked[hi] = True
        root = np.arange(n)
        while len(lo):
            np.minimum.at(root, hi, lo)
            up = root[root]
            while not np.array_equal(up, root):
                root, up = up, up[up]
            lo, hi = root[lo], root[hi]
            apart = lo != hi
            lo, hi = np.minimum(lo[apart], hi[apart]), \
                np.maximum(lo[apart], hi[apart])
        label = np.where(linked, root, -1)
        label.flags.writeable = False
        return label

    def unreached(self, starts) -> np.ndarray:
        """The states, ascending, that store an off-diagonal entry in a
        component of the pattern without starts: those that a walk along
        a Hermitian matrix's entries from starts does not reach."""
        label = self._components
        met = np.zeros(len(label) + 1, dtype=bool)  # met[-1]: no component
        met[label[starts]] = True
        return np.flatnonzero((label >= 0) & ~met[label])

    def scale_off_diagonal(self, t) -> "CSRMatrix":
        """The matrix with every stored off-diagonal value times t, on
        this matrix's own indptr and indices; the diagonal is kept bit
        for bit.  It shares this matrix's row blocks, diagonal mask and
        components, which depend on indptr and indices alone, and its
        diagonal, so a family of scales finds them once."""
        data = t * self.data
        np.copyto(data, self.data, where=self._diagonal_mask)
        scaled = CSRMatrix(self.indptr, self.indices, data, self.shape)
        vars(scaled).update(_row_blocks=self._row_blocks,
                            _diagonal_mask=self._diagonal_mask,
                            _components=self._components,
                            _diagonal=self._diagonal)
        return scaled

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self._row_ids(), self.indices] = self.data
        return out


def _require_unit(X, message: str, tol: float = _NORM_TOL):
    """Raise DomainError(message) unless X's last axis has unit norm to tol."""
    if not np.all(np.abs(np.linalg.norm(X, axis=-1) - 1.0) <= tol):
        raise DomainError(message)  # a NaN norm fails too


def _check_half_integer(s) -> int:
    """2s of a positive half-integer spin s; booleans are not spins."""
    two_s = 2 * s
    if isinstance(s, (bool, np.bool_)) or not math.isfinite(two_s) \
            or abs(two_s - round(two_s)) > 1e-12 or round(two_s) < 1:
        raise DomainError(f"spin must be a positive half-integer, got {s}")
    return int(round(two_s))


def spin_matrices(s) -> tuple:
    """(sigma_1, sigma_2, sigma_3) = 2 J_j, built from ladder operators."""
    two_s = _check_half_integer(s)
    s = two_s / 2.0
    m = np.arange(s, -s - 1.0, -1.0)
    # <s, m+1| J_+ |s, m> = sqrt(s(s+1) - m(m+1))
    jp = np.diag(np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    jz = np.diag(m)
    return (2.0 * jx.astype(complex), 2.0 * jy.astype(complex),
            2.0 * jz.astype(complex))


def embed_site_operator(op: np.ndarray, lam: int, P: int) -> CSRMatrix:
    """Sparse I (x) ... (x) op (x) ... (x) I with op at slot lam (1-based).

    Nonzero op[a, b] sits at ((l d + a) R + r, (l d + b) R + r) for every
    left index l and right index r < R: one (left, nnz, right) grid.
    """
    op = np.asarray(op)
    d = op.shape[0]
    if not 1 <= lam <= P:
        raise DomainError(f"site index {lam} outside 1..{P}")
    a, b = np.nonzero(op)
    left = d * np.arange(d ** (lam - 1))[:, None, None]
    right = np.arange(d ** (P - lam))
    rows = (left + a[:, None]) * len(right) + right
    cols = (left + b[:, None]) * len(right) + right
    vals = np.broadcast_to(op[a, b][:, None], rows.shape)
    return CSRMatrix.from_entries(rows.ravel(), cols.ravel(), vals.ravel(),
                                  (d ** P, d ** P))


def hopf_map(X, s) -> np.ndarray:
    """Spin-expectation vector (<sigma_1 X, X>, <sigma_2 X, X>, <sigma_3 X, X>)."""
    X = np.asarray(X, dtype=complex)
    _require_unit(X, "hopf_map requires a normalized state")
    return np.array([np.vdot(X, m @ X).real for m in spin_matrices(s)])


def omega_state(s) -> np.ndarray:
    """Reference state X0 with unit-length spin vector (0, 0, 1).

    X0 = cos t |s,s> + sin t |s,-s> with cos 2t = 1/(2s); the two extreme
    weights differ by 2s > 1 for s > 1/2, so the transverse expectations
    vanish, and <sigma_3> = 2s cos 2t = 1.
    """
    two_s = _check_half_integer(s)
    s = two_s / 2.0
    t = 0.5 * np.arccos(1.0 / (2.0 * s))
    X0 = np.zeros(two_s + 1, dtype=complex)
    X0[0] = np.cos(t)
    X0[-1] = np.sin(t)
    return X0


@functools.lru_cache(maxsize=8)
def _spin_matrices_read_only(two_s) -> np.ndarray:
    """spin_matrices(two_s / 2), one (3, d, d) array, read-only."""
    sig = np.array(spin_matrices(two_s / 2.0))
    sig.flags.writeable = False
    return sig


def _on_site(ops, X, lead, d, out=None) -> np.ndarray:
    """d x d matrices ops (..., d, d) on the middle axis of X read as
    (lead, d, rest), one matmul, into out if given (C-contiguous); shape
    ops.shape[:-2] + X.shape.  For n states of (C^d)^(x P) along X's
    leading axes, lead = n d^lam makes the middle axis site lam (0-based).
    """
    Xr, k = X.reshape(lead, d, -1), ops.shape[:-2]
    if out is None:
        out = np.empty(k + X.shape, dtype=np.result_type(ops, X))
    np.matmul(ops[..., None, :, :], Xr, out=out.reshape(k + Xr.shape))
    return out


def site_spin_operators(s, P, X) -> np.ndarray:
    """S_a X, shape (P, 3) + X.shape, for X of shape (d^P,) or (d^P, k):
    [lam, m] holds sigma_(m+1) on site lam + 1 (_on_site), the dense S_a
    when X is the identity.  Booleans are not spins."""
    sig = _spin_matrices_read_only(_check_half_integer(s))
    d, X = len(sig[0]), np.asarray(X)
    if X.ndim not in (1, 2) or len(X) != d ** P:
        raise DomainError(f"{P} spin-{s} sites act on {d ** P} components, "
                          f"not on shape {X.shape}")
    out = np.empty((P, 3) + X.shape, dtype=np.result_type(sig, X))
    for lam in range(P):
        _on_site(sig, X, d ** lam, d, out[lam])
    return out


def su2_rotate(s, theta) -> np.ndarray:
    """Unitary exp(-(i/2) sum_j theta_j sigma_j(s)) on C^(2s+1).

    The generator is Hermitian, gen = V diag(w) V^H, so the exponential is
    V diag(e^{-i w / 2}) V^H.
    """
    theta = np.asarray(theta, dtype=float)
    gen = sum(t * m for t, m in
              zip(theta, _spin_matrices_read_only(_check_half_integer(s))))
    w, V = np.linalg.eigh(gen)
    return (V * np.exp(-0.5j * w)) @ V.conj().T


@dataclass(frozen=True)
class ProductState:
    """Tensor product V1 (x) ... (x) VP with per-site Hopf images."""

    vector: np.ndarray
    spin_vectors: np.ndarray  # (P, 3) Hopf image of each factor


def product_state(factors, s) -> ProductState:
    """Assemble a product state from P normalized single-site vectors.

    The vector is the Kronecker product V1 (x) ... (x) VP, shape (d^P,).
    """
    facs = np.asarray(factors, dtype=complex)
    # written so that a NaN norm fails too
    bad = np.flatnonzero(~(abs(np.linalg.norm(facs, axis=-1) - 1.0)
                           <= _NORM_TOL))
    if bad.size:
        raise DomainError(f"factor {bad[0] + 1} is not normalized")
    vec = facs[0]
    for f in facs[1:]:
        vec = (vec[:, None] * f).reshape(-1)
    spins = np.array([hopf_map(f, s) for f in facs])
    return ProductState(vector=vec, spin_vectors=spins)
