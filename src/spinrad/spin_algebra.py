"""Spin-s matrices, sparse site embeddings, Hopf maps and SU(2) rotations.

Conventions: sigma_j(s) = 2 J_j in the weight basis |s,s>, ..., |s,-s>, so
that s = 1/2 reproduces the Pauli matrices, [sigma_1, sigma_2] = 2i sigma_3
(and cyclic) and sum_j sigma_j(s)^2 = 4 s (s+1) I exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .errors import DomainError

# Largest tensor-product dimension materialized densely (one dense A_M).
# A complex dim x dim matrix takes 16 dim^2 bytes: 256 MiB at 2^12, 1 GiB at
# 2^13.  The sparse site-spin stack and coef (x) I that build it hold
# O(P^2 dim) entries, 5.3e6 at 2^12 against the 1.7e7 of the dense result
# (0.37 GB process peak for the whole build).  The peak is the eigh of A_M,
# which holds about five dense dim x dim arrays (input copy, eigenvectors,
# LAPACK workspace): 0.34 GB measured at 2^11, so about 1.4 GB at 2^12 but
# 5.5 GB at 2^13, on an 8 GB machine.
MAX_DENSE_DIM = 1 << 12

_NORM_TOL = 1e-12


def _check_half_integer(s) -> int:
    two_s = 2 * s
    if abs(two_s - round(two_s)) > 1e-12 or round(two_s) < 1:
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


def embed_site_operator(op: np.ndarray, lam: int, P: int) -> sp.csr_matrix:
    """Sparse I (x) ... (x) op (x) ... (x) I with op at slot lam (1-based).

    With b the base-d digit of site lam in column index i, column i holds
    op[a, b] in the row that has digit a there and agrees with i elsewhere.
    """
    op = np.asarray(op)
    d = op.shape[0]
    if not 1 <= lam <= P:
        raise DomainError(f"site index {lam} outside 1..{P}")
    stride = d ** (P - lam)
    cols = np.broadcast_to(np.arange(d ** P), (d, d ** P))
    b = cols[0] // stride % d
    rows = cols + (np.arange(d)[:, None] - b) * stride
    vals = op[:, b]
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(d ** P, d ** P))


def hopf_map(X, s) -> np.ndarray:
    """Spin-expectation vector (<sigma_1 X, X>, <sigma_2 X, X>, <sigma_3 X, X>)."""
    X = np.asarray(X, dtype=complex)
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(X) - 1.0) <= _NORM_TOL:
        raise DomainError("hopf_map requires a normalized state")
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
    """Unitary exp(-(i/2) sum_j theta_j sigma_j(s)) on C^(2s+1)."""
    theta = np.asarray(theta, dtype=float)
    gen = sum(t * m for t, m in zip(theta, spin_matrices(s)))
    return expm(-0.5j * gen)


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
