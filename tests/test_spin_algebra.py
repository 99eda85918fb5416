import ast
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from spinrad.errors import DomainError
from spinrad.spin_algebra import CSRMatrix, embed_site_operator, hopf_map, \
    omega_state, product_state, site_spin_operators, spin_matrices, \
    su2_rotate
from spinrad.spin_operator import SpinSystem

ALL_SPINS = [0.5, 1.0, 1.5, 2.0, 2.5]

PAULI = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex)]


def normalized(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("s", ALL_SPINS)
def test_casimir_and_commutators(s):
    sig = spin_matrices(s)
    dim = sig[0].shape[0]
    cas = sum(m @ m for m in sig)
    assert np.abs(cas - 4.0 * s * (s + 1.0) * np.eye(dim)).max() <= 1e-13
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = sig[a] @ sig[b] - sig[b] @ sig[a]
        assert np.abs(comm - 2j * sig[c]).max() <= 1e-13
    for m in sig:
        assert np.abs(m - m.conj().T).max() == 0.0


def test_spin_half_is_pauli():
    sig = spin_matrices(0.5)
    for m, ref in zip(sig, PAULI):
        assert np.array_equal(m, ref)


def test_spin_three_half_weights():
    sig = spin_matrices(1.5)
    assert np.allclose(np.diag(sig[2]), [3.0, 1.0, -1.0, -3.0])


def test_non_half_integer_rejected():
    with pytest.raises(DomainError):
        spin_matrices(0.75)


@pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan, True, np.True_, 0.0])
@pytest.mark.parametrize("build", [
    spin_matrices, omega_state,
    lambda s: SpinSystem(positions=[[0.0, 0.0, 0.0]], moments=[1.0], s=s)])
def test_non_finite_or_boolean_spin_rejected(build, s):
    with pytest.raises(DomainError, match="positive half-integer"):
        build(s)


def test_embed_site_operator():
    sz = PAULI[2]
    e1, e2 = embed_site_operator(sz, 1, 2), embed_site_operator(sz, 2, 2)
    assert np.array_equal(e1.toarray(), np.kron(sz, np.eye(2)))
    assert np.array_equal(e2.toarray(), np.kron(np.eye(2), sz))
    assert np.allclose(e1.diagonal(), [1, 1, -1, -1])
    assert np.allclose(e2.diagonal(), [1, -1, 1, -1])


def test_embedded_disjoint_slots_commute():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ea = embed_site_operator(A, 1, 3)
    eb = embed_site_operator(B, 2, 3)
    assert np.abs(ea @ eb.toarray() - eb @ ea.toarray()).max() <= 1e-13


def test_embed_preserves_hermiticity():
    H = PAULI[0] + 0.3 * PAULI[2]
    E = embed_site_operator(H, 2, 3).toarray()
    assert np.abs(E - E.conj().T).max() == 0.0


@st.composite
def spin_clusters(draw):
    """s in {1/2, ..., 5/2} and 1 <= P <= 4 with (2s+1)^P <= 256."""
    two_s = draw(st.integers(1, 5))
    P_max = int(np.floor(np.log(256) / np.log(two_s + 1) + 1e-12))
    return two_s / 2.0, draw(st.integers(1, min(P_max, 4)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spin_clusters(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_site_spins_act_as_their_embeddings(cluster, seed, k):
    # sigma_m on site lam by contraction, against its CSR embedding, on one
    # vector and on a stack of k columns; a spin-1/2 row holds one entry
    s, P = cluster
    rng = np.random.default_rng(seed)
    sig = spin_matrices(s)
    dim = len(sig[0]) ** P
    for shape in ((dim,), (dim, k)):
        X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = site_spin_operators(s, P, X)
        ref = np.array([[embed_site_operator(m, lam + 1, P) @ X
                         for m in sig] for lam in range(P)])
        assert got.shape == (P, 3) + shape
        if s == 0.5:
            assert np.array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_site_spins_refuse_booleans_and_misshapen_states():
    assert site_spin_operators(1.0, 1, np.eye(3)).shape == (1, 3, 3, 3)
    with pytest.raises(DomainError, match="half-integer"):
        site_spin_operators(True, 2, np.ones(4))
    for X in (np.ones(4), np.ones((8, 2, 2)), np.ones(())):
        with pytest.raises(DomainError, match="components"):
            site_spin_operators(0.5, 3, X)


def test_hopf_reference_points():
    assert np.allclose(hopf_map([1, 0], 0.5), [0, 0, 1])
    assert np.allclose(hopf_map(np.array([1, 1]) / np.sqrt(2), 0.5), [1, 0, 0])
    assert np.allclose(hopf_map(np.array([1, 1j]) / np.sqrt(2), 0.5), [0, 1, 0])


def test_hopf_rejects_unnormalized():
    with pytest.raises(DomainError):
        hopf_map([1.0, 1.0], 0.5)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_hopf_spin_half_lands_on_sphere(seed):
    X = normalized(np.random.default_rng(seed), 2)
    assert abs(np.linalg.norm(hopf_map(X, 0.5)) - 1.0) <= 1e-12


@pytest.mark.parametrize("s", ALL_SPINS)
def test_omega_state(s):
    X0 = omega_state(s)
    assert abs(np.linalg.norm(X0) - 1.0) <= 1e-12
    v = hopf_map(X0, s)
    assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-12)


def test_omega_state_spin_one_structure():
    X0 = omega_state(1.0)
    assert X0[0] == pytest.approx(np.cos(np.pi / 6.0))
    assert X0[1] == 0.0
    assert X0[2] == pytest.approx(np.sin(np.pi / 6.0))


@pytest.mark.parametrize("s", ALL_SPINS)
def test_su2_rotate_matches_expm(s):
    rng = np.random.default_rng(23)
    for _ in range(20):
        theta = 2.0 * rng.normal(size=3)
        gen = sum(t * m for t, m in zip(theta, spin_matrices(s)))
        assert np.abs(su2_rotate(s, theta) - expm(-0.5j * gen)).max() <= 1e-13


def test_su2_rotate_identity_and_flip():
    assert np.allclose(su2_rotate(0.5, [0, 0, 0]), np.eye(2))
    X = su2_rotate(0.5, [0.0, np.pi, 0.0]) @ np.array([1.0, 0.0])
    assert np.allclose(hopf_map(X, 0.5), [0, 0, -1], atol=1e-12)


@pytest.mark.parametrize("s", ALL_SPINS)
def test_orbit_states_land_on_sphere(s):
    rng = np.random.default_rng(17)
    X0 = omega_state(s)
    for _ in range(20):
        U = su2_rotate(s, rng.normal(size=3) * 2.0)
        assert np.abs(U @ U.conj().T - np.eye(U.shape[0])).max() <= 1e-12
        X = U @ X0
        assert abs(np.linalg.norm(hopf_map(X, s)) - 1.0) <= 1e-10


def test_product_state_assembly():
    ps = product_state([[1.0, 0.0], [1.0, 0.0]], 0.5)
    assert np.allclose(ps.vector, [1, 0, 0, 0])
    rng = np.random.default_rng(3)
    facs = [normalized(rng, 2) for _ in range(3)]
    ps = product_state(facs, 0.5)
    assert abs(np.linalg.norm(ps.vector) - 1.0) <= 1e-12
    for f, sv in zip(facs, ps.spin_vectors):
        assert np.allclose(sv, hopf_map(f, 0.5))


def test_product_state_matches_kron_chain():
    rng = np.random.default_rng(8)
    for d, P in [(2, 1), (2, 4), (3, 3), (6, 2)]:
        facs = np.array([[normalized(rng, d) for _ in range(P)]
                         for _ in range(5)])
        for fs in facs:
            vec = product_state(fs, (d - 1) / 2).vector
            assert vec.shape == (d ** P,)
            ref = fs[0]
            for f in fs[1:]:
                ref = np.kron(ref, f)
            assert np.array_equal(vec, ref)
    facs[2, 1] *= 2.0
    with pytest.raises(DomainError, match="factor 2"):
        product_state(facs[2], (d - 1) / 2)


def test_product_state_rejects_unnormalized():
    with pytest.raises(DomainError):
        product_state([[1.0, 1.0], [1.0, 0.0]], 0.5)


def _random_entries(rng, shape, n, dtype=complex):
    """n entries at random positions, duplicates and empty rows likely."""
    rows = rng.integers(0, shape[0], n)
    cols = rng.integers(0, shape[1], n)
    vals = rng.normal(size=n)
    if dtype is complex:
        vals = vals + 1j * rng.normal(size=n)
    vals[rng.random(n) < 0.1] = 0.0  # stored zeros stay stored
    return rows, cols, vals


def _assert_same_csr(got, ref):
    """got's arrays equal scipy's canonical CSR ref's, the values bit for
    bit; the index arrays are intp where scipy picks its own width."""
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.dtype == ref.data.dtype
    assert got.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (5, 9), (40, 40),
                                   (7, 2 ** 31 + 9)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_csr_from_entries_is_scipys_canonical_csr(seed, shape, dtype):
    rng = np.random.default_rng(seed)
    entries = _random_entries(rng, shape, 3 * shape[0], dtype)
    got = CSRMatrix.from_entries(*entries, shape)
    ref = sp.csr_matrix((entries[2], entries[:2]), shape=shape)
    ref.sum_duplicates()
    _assert_same_csr(got, ref)
    # the same entries from the dense array
    if shape[1] > 2 ** 31:  # columns past int32, too wide to make dense
        return
    dense = ref.toarray()
    assert np.array_equal(got.toarray(), dense)
    nonzero = sp.csr_matrix(dense)
    _assert_same_csr(CSRMatrix.of(dense), nonzero)
    assert CSRMatrix.of(got) is got


@pytest.mark.parametrize("dtype", [float, complex])
def test_csr_from_entries_sums_far_apart_duplicates_in_entry_order(dtype):
    # three entries at (3, 2), first, middle and last among 301, whose sum
    # depends on its order: (1 + 1e16) - 1e16 = 0, (-1e16 + 1e16) + 1 = 1.
    # Rows hold about 5 entries, which scipy sorts stably (insertion sort).
    rng = np.random.default_rng(5)
    rows, cols, vals = _random_entries(rng, (60, 400), 298, dtype)
    rows = np.insert(rows, [0, 149, 298], 3)
    cols = np.insert(cols, [0, 149, 298], 2)
    vals = np.insert(vals, [0, 149, 298], [1.0, 1e16, -1e16])
    got = CSRMatrix.from_entries(rows, cols, vals, (60, 400))
    ref = sp.csr_matrix((vals, (rows, cols)), shape=(60, 400))
    ref.sum_duplicates()
    _assert_same_csr(got, ref)
    at = got.indptr[3] + np.searchsorted(
        got.indices[got.indptr[3]:got.indptr[4]], 2)
    dup = (rows == 3) & (cols == 2)
    assert got.indices[at] == 2 and got.data[at] == sum(vals[dup]) == 0.0


def test_csr_from_entries_refuses_keys_past_int64():
    # row n_cols + col must stay below 2^63
    for shape in [(2, 2 ** 62), (4, 2 ** 62), (3, 2 ** 63)]:
        with pytest.raises(DomainError, match="int64"):
            CSRMatrix.from_entries([0], [1], [1.0], shape)
    widest = CSRMatrix.from_entries([0, 0], [2 ** 63 - 2, 3], [1.0, 2.0],
                                    (1, 2 ** 63 - 1))
    assert np.array_equal(widest.indices, [3, 2 ** 63 - 2])
    assert np.array_equal(widest.data, [2.0, 1.0])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (5, 9), (40, 40)])
def test_csr_products_rows_and_diagonal_match_dense(seed, shape):
    rng = np.random.default_rng(seed)
    rows, cols, vals = _random_entries(rng, shape, 2 * shape[0])
    empty = rng.random(shape[0]) < 0.3  # and the last row, past the first
    empty[-1] = shape[0] > 1
    keep = ~empty[rows]
    A = CSRMatrix.from_entries(rows[keep], cols[keep], vals[keep], shape)
    dense = A.toarray()
    x = rng.normal(size=shape[1]) + 1j * rng.normal(size=shape[1])
    X = rng.normal(size=(shape[1], 3)) + 1j * rng.normal(size=(shape[1], 3))
    for operand in (x, X, X.real, X[:, :1], np.ascontiguousarray(X.T).T):
        got = A @ operand
        assert got.shape == (shape[0],) + operand.shape[1:]
        assert np.abs(got - dense @ operand).max(initial=0.0) <= 1e-13
    idx = rng.integers(0, shape[0], 4)
    assert np.array_equal(A.rows(idx), dense[idx])
    assert np.array_equal(A.rows(np.arange(0)), dense[:0])
    assert np.array_equal(A.diagonal(), np.diagonal(dense))
    assert A.nnz == len(A.data) == A.indptr[-1]


def test_csr_product_by_row_blocks_matches_one_pass():
    # 250,000 entries make several blocks of about 2^16; row 7 alone
    # stores more than a block, and a third of the rows store nothing
    rng = np.random.default_rng(3)
    shape = (3000, 100_000)
    rows, cols, vals = _random_entries(rng, shape, 250_000, complex)
    rows[:120_000] = 7
    empty = rng.random(shape[0]) < 1 / 3
    empty[7] = False
    keep = ~empty[rows]
    A = CSRMatrix.from_entries(rows[keep], cols[keep], vals[keep], shape)
    assert np.diff(A.indptr)[7] > 2 ** 16 and len(A._row_blocks) > 2
    X = rng.normal(size=(shape[1], 3)) + 1j * rng.normal(size=(shape[1], 3))
    # the blocks move no bit of the sums of one pass over all entries
    filled = np.flatnonzero(np.diff(A.indptr))
    one_pass = np.zeros((3, shape[0]), dtype=complex)
    one_pass[:, filled] = np.add.reduceat(
        X.T[:, A.indices] * A.data, A.indptr[filled], axis=-1)
    assert np.array_equal(A @ X, one_pass.T)
    assert np.array_equal(A @ X[:, 0], one_pass[0])
    ref = sp.csr_matrix((A.data, A.indices, A.indptr), shape=shape)
    assert np.abs(A @ X - ref @ X).max() <= 1e-10  # row 7 sums 70,000


def test_csr_edge_cases():
    empty = CSRMatrix.from_entries([], [], np.zeros(0, complex), (3, 4))
    assert empty.nnz == 0
    assert np.array_equal(empty @ np.ones(4), np.zeros(3))
    assert np.array_equal(empty @ np.ones((4, 2)), np.zeros((3, 2)))
    assert np.array_equal(empty.diagonal(), np.zeros(3))
    # the last rows store nothing
    A = CSRMatrix.from_entries([0, 0, 1], [2, 0, 1], [1.0, 2.0, 3.0], (4, 3))
    assert np.array_equal(A.indptr, [0, 2, 3, 3, 3])
    assert np.array_equal(A.indices, [0, 2, 1])
    assert np.array_equal(A @ np.array([1.0, 10.0, 100.0]),
                          [102.0, 30.0, 0.0, 0.0])
    with pytest.raises(DomainError, match="outside"):
        CSRMatrix.from_entries([0, 4], [0, 0], [1.0, 1.0], (4, 3))
    with pytest.raises(DomainError, match="outside"):
        CSRMatrix.from_entries([0], [-1], [1.0], (4, 3))
    with pytest.raises(DomainError, match="cannot multiply"):
        A @ np.ones(4)
    with pytest.raises(DomainError, match="cannot multiply"):
        A @ np.ones((3, 2, 2))
    with pytest.raises(DomainError, match="two axes"):
        CSRMatrix.of(np.ones(3))
    # a scipy matrix is no dense array: numpy sees one object, no axes
    with pytest.raises(DomainError, match="two axes"):
        CSRMatrix.of(sp.csr_matrix(np.eye(3)))


@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (5, 9), (40, 40)])
@pytest.mark.parametrize("t", [0.0, 0.05, -1.3])
def test_csr_scale_off_diagonal(shape, t):
    # some diagonal entries are not stored, and some stored ones are zero
    rng = np.random.default_rng(7)
    A = CSRMatrix.from_entries(*_random_entries(rng, shape, 3 * shape[0],
                                                complex), shape)
    on = A.indices == np.repeat(np.arange(shape[0]), np.diff(A.indptr))
    B = A.scale_off_diagonal(t)
    assert B.indptr is A.indptr and B.indices is A.indices
    assert B.shape == A.shape and B.data.dtype == A.data.dtype
    assert B.data[on].tobytes() == A.data[on].tobytes()
    assert B.data[~on].tobytes() == (t * A.data[~on]).tobytes()
    assert np.array_equal(B.diagonal(), A.diagonal())


@pytest.mark.parametrize("t", [0.0, 0.3, -1.3])
def test_csr_scaled_matrix_shares_row_blocks_and_diagonal_mask(t):
    # 200,000 entries make several row blocks; H(t) reuses those of the
    # matrix it scales, and its products and diagonal are those of a fresh
    # matrix on its own arrays, bit for bit
    rng = np.random.default_rng(11)
    shape = (3000, 3000)
    A = CSRMatrix.from_entries(*_random_entries(rng, shape, 200_000), shape)
    B = A.scale_off_diagonal(t)
    assert B._row_blocks is A._row_blocks and len(A._row_blocks) > 2
    assert B._diagonal_mask is A._diagonal_mask
    assert not A._diagonal_mask.flags.writeable
    fresh = CSRMatrix(B.indptr, B.indices, B.data, B.shape)
    X = rng.normal(size=(shape[1], 4)) + 1j * rng.normal(size=(shape[1], 4))
    assert (B @ X).tobytes() == (fresh @ X).tobytes()
    assert (B @ X[:, 0]).tobytes() == (fresh @ X[:, 0]).tobytes()
    assert B.diagonal().tobytes() == fresh.diagonal().tobytes()
    assert fresh._row_blocks is not A._row_blocks  # fresh found its own


def test_csr_unreached_states_by_components():
    # blocks {0, 1} and {2, 3}, state 4 with only a diagonal entry and
    # the empty state 5
    H = np.diag([0.0, 0.5, 0.5, 0.5, 2.0, 0.0])
    H[0, 1] = H[1, 0] = 0.1
    H[2, 3] = H[3, 2] = 1.0
    A = CSRMatrix.of(H)
    assert A.unreached([0]).tolist() == [2, 3]
    assert A.unreached([3, 5]).tolist() == [0, 1]
    assert A.unreached([4]).tolist() == [0, 1, 2, 3]
    assert A.unreached([1, 2]).tolist() == []
    assert not A._components.flags.writeable
    # a path is one component, which its scaled copies share
    n = 60
    ends = (np.arange(n - 1), np.arange(1, n))
    path = CSRMatrix.from_entries(np.concatenate(ends),
                                  np.concatenate(ends[::-1]),
                                  np.ones(2 * n - 2), (n, n))
    assert path.unreached([n - 1]).tolist() == []
    assert path._components.tolist() == [0] * n
    assert path.scale_off_diagonal(0.3)._components is path._components


def links(pairs, n, diagonal=()):
    """The symmetric pattern of the linked state pairs (rows of pairs) on n
    states, with a diagonal entry on each state in diagonal."""
    a, b = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    rows = np.concatenate([a, b, diagonal]).astype(np.intp)
    cols = np.concatenate([b, a, diagonal]).astype(np.intp)
    return CSRMatrix.from_entries(rows, cols, np.ones(len(rows)), (n, n))


def scipy_first_states(A):
    """First state of each state's component by scipy's connected
    components, -1 for a state linked to no other."""
    from scipy.sparse.csgraph import connected_components
    off = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    off.setdiag(0)
    off.eliminate_zeros()
    _, comp = connected_components(off, directed=False)
    first = np.full(comp.max() + 1, len(comp))
    np.minimum.at(first, comp, np.arange(len(comp)))
    return np.where(np.diff(off.indptr) > 0, first[comp], -1)


def test_csr_components_match_scipy():
    # each pass hooks and flattens every tree at once, so every pattern
    # here, the 20,000-state chain included, takes O(log n) passes
    rng = np.random.default_rng(11)
    n = 20_000
    cases = {
        "chain 2000": links(np.c_[np.arange(1999), np.arange(1, 2000)], 2000),
        "chain 20000": links(np.c_[np.arange(n - 1), np.arange(1, n)], n),
        "pairs 10000": links(np.arange(n).reshape(-1, 2), n),
        "shuffled chain": links(rng.permutation(n)[np.c_[np.arange(n - 1),
                                                         np.arange(1, n)]], n),
        # the hub hooks onto its least leaf at once
        "star, hub last": links(np.c_[np.arange(n - 1), np.full(n - 1, n - 1)],
                                n),
        "random, some diagonal-only": links(
            rng.integers(0, 3000, size=(2500, 2)), 3000,
            diagonal=rng.integers(0, 3000, size=500)),
    }
    for name, A in cases.items():
        start = time.perf_counter()
        label = A._components
        assert time.perf_counter() - start < 0.05, name
        assert label.tolist() == scipy_first_states(A).tolist(), name
    assert cases["chain 20000"]._components.tolist() == [0] * n


def test_csr_arrays_refuse_writes():
    A = CSRMatrix.from_entries([0, 1, 1], [1, 0, 1], [1.0, 2.0, 3.0], (2, 2))
    for M in (A, CSRMatrix.of(np.eye(3)), A.scale_off_diagonal(0.5)):
        for arr in (M.indptr, M.indices, M.data):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
    # the caller's arrays are not frozen with the matrix's
    rows = np.array([0, 1])
    CSRMatrix.from_entries(rows, rows, np.ones(2), (2, 2))
    assert rows.flags.writeable


SRC = Path(__file__).resolve().parent.parent / "src" / "spinrad"


def _layout_uses(tree, private):
    """(line, use) of every use of the CSR layout in a module's tree: a
    read of indptr, indices or a private CSRMatrix member, a direct
    CSRMatrix(...) call, or a freeze (flags.writeable) of .data, .indptr
    or .indices, written out or through a loop over them.  Reading data
    is no use of the layout."""
    def csr_array(node):
        return isinstance(node, ast.Attribute) \
            and node.attr in ("data", "indptr", "indices")

    def frozen(node):  # the X of an assignment to X.flags.writeable
        for target in getattr(node, "targets", ()):
            if isinstance(target, ast.Attribute) \
                    and target.attr == "writeable" \
                    and isinstance(target.value, ast.Attribute) \
                    and target.value.attr == "flags":
                yield target.value.value

    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and node.attr in {"indptr", "indices"} | private:
            uses.append((node.lineno, f"reads .{node.attr}"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "CSRMatrix":
            uses.append((node.lineno, "calls CSRMatrix(...)"))
        uses += [(node.lineno, "freezes a CSR array")
                 for x in frozen(node) if csr_array(x)]
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and any(csr_array(n) for n in ast.walk(node.iter)):
            uses += [(inner.lineno, "freezes a CSR array")
                     for inner in ast.walk(node) for x in frozen(inner)
                     if getattr(x, "id", None) == node.target.id]
    return uses


def test_only_spin_algebra_knows_the_csr_layout():
    home = ast.parse((SRC / "spin_algebra.py").read_text())
    [csr] = [n for n in home.body
             if isinstance(n, ast.ClassDef) and n.name == "CSRMatrix"]
    private = {n.name for n in csr.body if isinstance(n, ast.FunctionDef)
               and n.name.startswith("_") and not n.name.endswith("__")}
    assert {"_row_ids", "_row_blocks"} <= private
    # the check finds the layout where it lives
    assert {use for _, use in _layout_uses(home, private)} \
        >= {"reads .indptr", "reads .indices"}
    found = {path.name: _layout_uses(ast.parse(path.read_text()), private)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "spin_algebra.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}


def _names(tree):
    """The identifiers a module's tree reads, binds, imports or reads as
    an attribute."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} \
        | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} \
        | {a.name for n in ast.walk(tree)
           if isinstance(n, ast.ImportFrom) for a in n.names}


def test_only_spin_algebra_and_fock_name_the_csr_type():
    # site spins act by contraction, so the sparse type is the Fock H's
    naming = [path.name for path in sorted(SRC.glob("*.py"))
              if "CSRMatrix" in _names(ast.parse(path.read_text()))]
    assert naming == ["fock.py", "spin_algebra.py"]
    assert "CSRMatrix" in _names(ast.parse(
        "from .spin_algebra import CSRMatrix as C"))


def test_layout_check_catches_each_use():
    private = {"_row_ids"}
    for code, use in [
            ("n = h.indptr[1]", "reads .indptr"),
            ("c = h.indices", "reads .indices"),
            ("r = h._row_ids()", "reads ._row_ids"),
            ("H = CSRMatrix(p, i, d, s)", "calls CSRMatrix(...)"),
            ("h.data.flags.writeable = False", "freezes a CSR array"),
            ("for a in (h.data,):\n    a.flags.writeable = False",
             "freezes a CSR array")]:
        assert [u for _, u in _layout_uses(ast.parse(code), private)] \
            == [use], code
    for code in ("x = h.data.sum()", "H = CSRMatrix.from_entries(r, c, v, s)",
                 "for a in (x, y):\n    a.flags.writeable = False"):
        assert _layout_uses(ast.parse(code), private) == [], code
