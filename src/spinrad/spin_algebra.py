"""Spin-s matrices, site embeddings, Hopf maps and SU(2) rotations.

Conventions: sigma_j(s) = 2 J_j in the weight basis |s,s>, ..., |s,-s>, so
that s = 1/2 reproduces the Pauli matrices, [sigma_1, sigma_2] = 2i sigma_3
(and cyclic) and sum_j sigma_j(s)^2 = 4 s (s+1) I exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError

# Largest tensor-product dimension materialized densely (one dense A_M),
# checked by spin_operator.bilinear_spin_operator before it allocates.
# A complex dim x dim matrix takes 16 dim^2 bytes: 64 MiB at 2^11, 256 MiB
# at 2^12, 1 GiB at 2^13.  Process peaks measured at 2^11, each including
# the interpreter's 0.06 GB (scripts/am_scan.py): the build writes its
# blocks into that one array, 0.13 GB; eigvalsh holds about two such
# arrays, 0.19 GB; eigh about five (input copy, eigenvectors, LAPACK
# workspace), 0.39 GB.  Scaled by 4 per doubling (not measured), e2 would
# take about 0.6 GB at 2^12 and 1.4 GB with --eigenbasis, but 2.1 and
# 5.3 GB at 2^13, on an 8 GB machine.
MAX_DENSE_DIM = 1 << 12

_NORM_TOL = 1e-12


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


def embedded_entries(op: np.ndarray, sites, d: int, P: int):
    """Entries of op (x) I on (C^d)^(x P), op acting on `sites` (0-based).

    op is d^k x d^k on the k sites, in increasing order.  With b the
    base-d digits of those sites in column index i, column i holds op[a, b]
    in the row that has digits a there and agrees with i elsewhere.
    Returns rows (d^k, d^P), cols (d^P,) and values (d^k, d^P); no
    (row, column) pair repeats.
    """
    cols = np.arange(d ** P)
    a = np.arange(d ** len(sites))
    b = np.zeros_like(cols)
    rows = cols.copy()
    row_shift = np.zeros_like(a)
    for k, site in enumerate(sites):
        stride = d ** (P - 1 - site)
        digit = cols // stride % d
        b = b * d + digit
        rows -= digit * stride
        row_shift += a // d ** (len(sites) - 1 - k) % d * stride
    return rows + row_shift[:, None], cols, np.asarray(op)[:, b]


def embed_site_operator(op: np.ndarray, lam: int, P: int) -> sp.csr_matrix:
    """Sparse I (x) ... (x) op (x) ... (x) I with op at slot lam (1-based)."""
    op = np.asarray(op)
    d = op.shape[0]
    if not 1 <= lam <= P:
        raise DomainError(f"site index {lam} outside 1..{P}")
    rows, cols, vals = embedded_entries(op, (lam - 1,), d, P)
    keep = vals != 0
    return sp.csr_matrix(
        (vals[keep], (rows[keep], np.broadcast_to(cols, rows.shape)[keep])),
        shape=(d ** P, d ** P))


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


def su2_rotate(s, theta) -> np.ndarray:
    """Unitary exp(-(i/2) sum_j theta_j sigma_j(s)) on C^(2s+1).

    The generator is Hermitian, gen = V diag(w) V^H, so the exponential is
    V diag(e^{-i w / 2}) V^H.
    """
    theta = np.asarray(theta, dtype=float)
    gen = sum(t * m for t, m in zip(theta, spin_matrices(s)))
    w, V = np.linalg.eigh(gen)
    return (V * np.exp(-0.5j * w)) @ V.conj().T


@dataclass(frozen=True)
class ProductState:
    """Tensor product V1 (x) ... (x) VP with per-site Hopf images."""

    vector: np.ndarray
    spin_vectors: np.ndarray  # (P, 3) Hopf image of each factor


def product_vectors(factors) -> np.ndarray:
    """Kronecker products V1 (x) ... (x) VP of a stack of factor lists.

    factors has shape (n, P, d), each factor normalized; returns (n, d^P).
    """
    facs = np.asarray(factors, dtype=complex)
    # written so that a NaN norm fails too
    bad = np.nonzero(~(abs(np.linalg.norm(facs, axis=-1) - 1.0) <= _NORM_TOL))
    if bad[0].size:
        raise DomainError(f"factor {bad[1][0] + 1} is not normalized")
    n, P, d = facs.shape
    vec = facs[:, 0]
    for lam in range(1, P):
        vec = (vec[:, :, None] * facs[:, lam, None, :]).reshape(n, -1)
    return vec


def product_state(factors, s) -> ProductState:
    """Assemble a product state from P normalized single-site vectors."""
    facs = np.asarray(factors, dtype=complex)
    vec = product_vectors(facs[None])[0]
    spins = np.array([hopf_map(f, s) for f in facs])
    return ProductState(vector=vec, spin_vectors=spins)
