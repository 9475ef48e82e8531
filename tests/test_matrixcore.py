import numpy as np
import pytest

from specincl import pseudospec as ps
from specincl.errors import DomainError, PartitionError, PiMethodUnsupported
from specincl.matrixcore import (
    BlockPartition,
    as_matrix,
    detect_bandwidth,
    embedding_selector,
    make_view,
    offdiag_norms,
    remaining_norm,
    resolve_partition,
    split_tridiagonal,
    submatrix_pi,
    submatrix_tau,
    submatrix_tau1,
)
from specincl.toeplitz import build_toeplitz, jordan, laplacian, toeplitz_spec

from support import (
    reference_embedding_selector,
    reference_submatrix_pi,
    reference_submatrix_tau,
    reference_submatrix_tau1,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def scalar_view(A):
    A = np.asarray(A)
    return make_view(A, BlockPartition((1,) * A.shape[0]))


# ---------------------------------------------------------------------------
# views and partitions
# ---------------------------------------------------------------------------

def test_make_view_two_blocks():
    A = np.arange(16, dtype=float).reshape(4, 4)
    view = make_view(A, BlockPartition((2, 2)))
    assert np.array_equal(view.block(0, 0), A[:2, :2])
    assert np.array_equal(view.block(1, 0), A[2:, :2])
    assert np.array_equal(view.block(1, 1), A[2:, 2:])


def test_make_view_twelve_by_twelve_layout():
    rng = np.random.default_rng(3)
    A = rand_complex(rng, (12, 12))
    view = make_view(A, BlockPartition((3, 3, 3, 3)))
    assert view.block_count == 4
    for i in range(4):
        for j in range(4):
            assert np.array_equal(view.block(i, j),
                                  A[3 * i:3 * i + 3, 3 * j:3 * j + 3])


def test_block_out_of_range_raises():
    view = make_view(np.eye(4), BlockPartition((2, 2)))
    for i, j in [(-1, 0), (0, -1), (2, 1), (1, 2)]:
        with pytest.raises(IndexError):
            view.block(i, j)


def test_make_view_size_mismatch():
    A = np.eye(5)
    with pytest.raises(PartitionError):
        make_view(A, BlockPartition((2, 2)))


def test_partition_validation():
    with pytest.raises(PartitionError):
        BlockPartition((4,))          # N must exceed 1
    with pytest.raises(PartitionError):
        BlockPartition((2, 0, 2))
    p = BlockPartition((2, 3, 1))
    assert p.offsets == (0, 2, 5, 6)
    assert not p.uniform
    assert BlockPartition((2, 2)).uniform


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(DomainError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DomainError):
        as_matrix(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# tridiagonal split
# ---------------------------------------------------------------------------

def test_split_block_tridiagonal_has_zero_remainder():
    spec = toeplitz_spec({-2: 0.5, -1: 1.0, 0: 2.0, 1: 1.0, 2: 0.25})
    A = build_toeplitz(spec, 12)
    view = make_view(A, BlockPartition((3, 3, 3, 3)))  # block sizes >= band
    B, C = split_tridiagonal(view)
    assert not np.any(C)
    assert np.array_equal(B, A)


def test_split_dense_scalar_blocks():
    rng = np.random.default_rng(5)
    A = rand_complex(rng, (4, 4))
    B, C = split_tridiagonal(scalar_view(A))
    expected_B = np.triu(np.tril(A, 1), -1)
    assert np.array_equal(B, expected_B)
    # remainder sits strictly outside the scalar band
    assert C[0, 2] == A[0, 2] and C[3, 0] == A[3, 0]
    assert not np.any(np.triu(np.tril(C, 1), -1))


def test_split_remainder_vanishes_inside_band():
    # symbol wider than the block size: the remainder is zero inside |i-j|<=w
    spec = toeplitz_spec({j: 1.0 / (1 + abs(j)) for j in range(-4, 5)})
    A = build_toeplitz(spec, 12)
    w = 2
    view = make_view(A, BlockPartition((w,) * 6))
    _, C = split_tridiagonal(view)
    assert np.any(C)
    ii, jj = np.indices(C.shape)
    assert not np.any(C[np.abs(ii - jj) <= w])


def test_split_exact_complement():
    rng = np.random.default_rng(7)
    A = rand_complex(rng, (10, 10))
    view = make_view(A, BlockPartition((2, 3, 1, 4)))
    B, C = split_tridiagonal(view)
    assert np.array_equal(B + C, np.asarray(view.matrix))


def test_split_and_tau_match_blockwise_copy():
    # reference: copy block by block; bytes compared, so signed zeros count
    rng = np.random.default_rng(8)
    for _ in range(20):
        sizes = tuple(int(s) for s in rng.integers(1, 4, rng.integers(2, 7)))
        M = sum(sizes)
        A = rand_complex(rng, (M, M))
        A[rng.random((M, M)) < 0.3] = complex(-0.0, -0.0)
        view = make_view(A, BlockPartition(sizes))
        o, N = view.offsets, len(sizes)
        B_ref = np.zeros((M, M), dtype=complex)
        C_ref = np.array(view.matrix)
        for i in range(N):
            for j in range(max(0, i - 1), min(N, i + 2)):
                B_ref[o[i]:o[i + 1], o[j]:o[j + 1]] = view.block(i, j)
                C_ref[o[i]:o[i + 1], o[j]:o[j + 1]] = 0.0
        B, C = split_tridiagonal(view)
        assert B.tobytes() == B_ref.tobytes()
        assert C.tobytes() == C_ref.tobytes()
        for n in range(1, N + 1):
            for k in range(N - n + 1):
                s = view.slice_range(k, n)
                assert submatrix_tau(view, n, k).tobytes() == B_ref[s, s].tobytes()


def _truncation_views():
    """The verifier's corpus views, then random partitions and uniform
    ones, both with signed-zero entries."""
    from specincl.corpus import build_corpus

    for item in build_corpus(seed=1, count=12, orders=(6, 16)):
        yield make_view(item.matrix, item.partition)
    rng = np.random.default_rng(41)
    for uniform in (False, True) * 12:
        N = int(rng.integers(2, 7))
        sizes = ((int(rng.integers(1, 4)),) * N if uniform
                 else tuple(int(s) for s in rng.integers(1, 4, N)))
        M = sum(sizes)
        A = rand_complex(rng, (M, M))
        A[rng.random((M, M)) < 0.3] = complex(-0.0, -0.0)
        A.real[rng.random((M, M)) < 0.1] = -0.0
        yield make_view(A, BlockPartition(sizes))


def test_truncations_match_blockwise_reference():
    # slices of the bordered B against block-by-block assembly with virtual
    # zero blocks; bytes compared, so signed zeros count
    ts = (1.0, -1.0, 1j, np.exp(0.3j))
    for view in _truncation_views():
        N = view.block_count
        for n in range(1, N + 1):
            for k in range(N - n + 1):
                pairs = [
                    (submatrix_tau(view, n, k),
                     reference_submatrix_tau(view, n, k)),
                    (submatrix_tau1(view, n, k),
                     reference_submatrix_tau1(view, n, k)),
                    (embedding_selector(n, k, view),
                     reference_embedding_selector(n, k, view)),
                ]
                if view.partition.uniform:
                    pairs += [(submatrix_pi(view, n, k, t),
                               reference_submatrix_pi(view, n, k, t))
                              for t in ts]
                for got, want in pairs:
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# square truncations
# ---------------------------------------------------------------------------

def test_tau_full_range_is_tridiagonal_part():
    rng = np.random.default_rng(11)
    A = rand_complex(rng, (8, 8))
    view = make_view(A, BlockPartition((2, 2, 2, 2)))
    B, _ = split_tridiagonal(view)
    assert np.array_equal(submatrix_tau(view, 4, 0), B)


def test_tau_three_windows_of_order_six():
    rng = np.random.default_rng(13)
    A = rand_complex(rng, (12, 12))
    view = make_view(A, BlockPartition((3, 3, 3, 3)))
    B, _ = split_tridiagonal(view)
    for k in range(3):
        sub = submatrix_tau(view, 2, k)
        assert sub.shape == (6, 6)
        assert np.array_equal(sub, B[3 * k:3 * k + 6, 3 * k:3 * k + 6])


def test_tau_single_block_is_diagonal_block():
    rng = np.random.default_rng(17)
    A = rand_complex(rng, (9, 9))
    view = make_view(A, BlockPartition((3, 3, 3)))
    for j in range(3):
        assert np.array_equal(submatrix_tau(view, 1, j), view.block(j, j))


def test_tau_nesting():
    rng = np.random.default_rng(19)
    A = rand_complex(rng, (10, 10))
    view = make_view(A, BlockPartition((2,) * 5))
    big = submatrix_tau(view, 4, 1)
    small = submatrix_tau(view, 2, 2)
    # window [2..3] sits inside [1..4] with offset one block (2 rows)
    assert np.array_equal(small, big[2:6, 2:6])


def test_tau_out_of_range():
    view = scalar_view(np.eye(4))
    with pytest.raises(IndexError):
        submatrix_tau(view, 5, 0)
    with pytest.raises(IndexError):
        submatrix_tau(view, 2, 3)


# ---------------------------------------------------------------------------
# periodised truncations
# ---------------------------------------------------------------------------

def test_pi_jordan_interior():
    view = scalar_view(jordan(8))
    t = np.exp(1j * 0.7)
    sub = submatrix_pi(view, 3, 2, t)
    expected = np.eye(3, k=1, dtype=complex)
    expected[2, 0] = np.conj(t)
    assert np.allclose(sub, expected, atol=1e-15)


def test_pi_bottom_edge_only_conj_corner():
    view = scalar_view(laplacian(6))
    n, k = 3, 3          # k = N - n: the lower wrap block does not exist
    t = -1.0 + 0.0j
    sub = submatrix_pi(view, n, k, t)
    assert sub[0, n - 1] == 0.0          # the t corner is absent
    assert sub[n - 1, 0] == np.conj(t)   # only the conjugate corner
    assert sub[0, 1] == 1.0 and sub[1, 0] == 1.0


def test_pi_block_toeplitz_gives_block_circulant():
    rng = np.random.default_rng(23)
    D, S, U = (rand_complex(rng, (2, 2)) for _ in range(3))
    N, m = 5, 2
    A = np.zeros((N * m, N * m), dtype=complex)
    for i in range(N):
        A[i * m:(i + 1) * m, i * m:(i + 1) * m] = D
        if i + 1 < N:
            A[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = S
            A[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = U
    view = make_view(A, BlockPartition((m,) * N))
    sub = submatrix_pi(view, 3, 1, 1.0)
    circ = np.zeros((3 * m, 3 * m), dtype=complex)
    blocks = {0: D, 1: U, -1: S}
    for i in range(3):
        for j in range(3):
            off = j - i
            if off in blocks:
                circ[i * m:(i + 1) * m, j * m:(j + 1) * m] += blocks[off]
    circ[0:m, 2 * m:3 * m] += S      # wrap of the subdiagonal
    circ[2 * m:3 * m, 0:m] += U      # wrap of the superdiagonal
    assert np.allclose(sub, circ, atol=1e-15)


def test_pi_requires_uniform_partition():
    rng = np.random.default_rng(29)
    A = rand_complex(rng, (5, 5))
    view = make_view(A, BlockPartition((2, 3)))
    with pytest.raises(PiMethodUnsupported):
        submatrix_pi(view, 1, 0, 1.0)


def test_pi_requires_unit_modulus():
    view = scalar_view(jordan(4))
    with pytest.raises(DomainError):
        submatrix_pi(view, 2, 1, 1.1)


# ---------------------------------------------------------------------------
# one-sided truncations and the embedded identity
# ---------------------------------------------------------------------------

def test_tau1_jordan_interior_and_origin():
    view = scalar_view(jordan(8))
    n = 3
    interior = submatrix_tau1(view, n, 2)
    top = np.zeros((1, n)); top[0, 0] = 1.0
    assert np.array_equal(interior[:1], top)
    assert np.array_equal(interior[1:n + 1], jordan(n))
    assert not np.any(interior[n + 1:])
    at_zero = submatrix_tau1(view, n, 0)      # both borders vanish
    assert not np.any(at_zero[:1]) and not np.any(at_zero[n + 1:])
    assert np.array_equal(at_zero[1:n + 1], jordan(n))


def test_tau1_laplacian_interior():
    view = scalar_view(laplacian(9))
    n = 4
    sub = submatrix_tau1(view, n, 2)
    assert sub.shape == (n + 2, n)
    assert sub[0, 0] == 1.0 and not np.any(sub[0, 1:])
    assert sub[-1, -1] == 1.0 and not np.any(sub[-1, :-1])
    assert np.array_equal(sub[1:n + 1], laplacian(n))


def test_tau1_covers_all_nonzero_blocks_in_columns():
    rng = np.random.default_rng(31)
    spec = toeplitz_spec({-1: 1.0, 0: 0.3, 1: 0.7, 2: 0.2})
    A = build_toeplitz(spec, 14) * (1 + 0.1j)
    view = make_view(A, BlockPartition((2,) * 7))
    B, _ = split_tridiagonal(view)
    N = view.block_count
    for n, k in [(2, 0), (2, 3), (3, 4), (1, 6)]:
        cols = view.slice_range(k, n)
        rows_lo = view.offsets[max(k - 1, 0)]
        rows_hi = view.offsets[min(k + n + 1, N)]
        outside = np.delete(B[:, cols], np.s_[rows_lo:rows_hi], axis=0)
        assert not np.any(outside)


def test_embedding_selector_shapes_and_column():
    view = scalar_view(laplacian(6))
    sel = embedding_selector(1, 2, view)
    assert np.array_equal(sel, np.array([[0.0], [1.0], [0.0]]))
    for n, k in [(2, 0), (3, 3), (2, 2)]:
        bp = submatrix_tau1(view, n, k)
        ip = embedding_selector(n, k, view)
        assert ip.shape == bp.shape
        assert np.array_equal(bp - 0.0 * ip, bp)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_offdiag_norms_examples():
    assert offdiag_norms(scalar_view(jordan(6))) == (0.0, 1.0, 1.0)
    assert offdiag_norms(scalar_view(laplacian(6))) == (1.0, 1.0, 2.0)
    block_diag = np.kron(np.eye(3), np.array([[1.0, 2.0], [0.0, 1.0]]))
    view = make_view(block_diag, BlockPartition((2, 2, 2)))
    assert offdiag_norms(view) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_batched_block_norms_equal_one_svd_per_block(seed):
    # one stacked SVD per block shape gives the per-block loop's bits, with
    # all-zero blocks (some of -0.0 entries) exactly 0.0 and the radii
    # summed in column order
    rng = np.random.default_rng(seed)
    for _ in range(20):
        sizes = tuple(rng.integers(1, 7, size=rng.integers(2, 9)).tolist())
        M = sum(sizes)
        A = rand_complex(rng, (M, M))
        A[rng.random((M, M)) < 0.5] = 0.0
        A[rng.random((M, M)) < 0.1] = -0.0
        view = make_view(A, BlockPartition(sizes))
        N = len(sizes)
        radii = [0.0] * N
        for i in range(N):
            for j in range(N):
                if i != j:
                    radii[i] += np.linalg.norm(view.block(i, j), 2)
        r_L = max([0.0] + [np.linalg.norm(view.block(i + 1, i), 2)
                           for i in range(N - 1)])
        r_U = max([0.0] + [np.linalg.norm(view.block(i, i + 1), 2)
                           for i in range(N - 1)])
        assert [r.hex() for r in view.block_radii] == [r.hex() for r in radii]
        assert [r.hex() for r in offdiag_norms(view)] == [
            r.hex() for r in (r_L, r_U, r_L + r_U)]


def test_offdiag_norms_blockdiag_unitary_invariance():
    rng = np.random.default_rng(37)
    sizes = (2, 3, 2, 1)
    A = rand_complex(rng, (8, 8))
    view = make_view(A, BlockPartition(sizes))
    blocks = []
    for s in sizes:
        q, _ = np.linalg.qr(rand_complex(rng, (s, s)))
        blocks.append(q)
    Q = np.zeros((8, 8), dtype=complex)
    at = 0
    for q in blocks:
        s = q.shape[0]
        Q[at:at + s, at:at + s] = q
        at += s
    conj_view = make_view(Q @ A @ Q.conj().T, BlockPartition(sizes))
    r1 = offdiag_norms(view)
    r2 = offdiag_norms(conj_view)
    assert np.allclose(r1, r2, atol=1e-10)


def test_remaining_norm_modes():
    Z = np.zeros((4, 4))
    for mode in ("exact", "mixed"):
        assert remaining_norm(Z, mode) == 0.0
    single = np.zeros((4, 4), dtype=complex)
    single[1, 3] = 2.0 - 1.0j
    for mode in ("exact", "mixed"):
        assert remaining_norm(single, mode) == pytest.approx(abs(single[1, 3]),
                                                             abs=1e-14)
    rng = np.random.default_rng(41)
    C = rand_complex(rng, (8, 8))
    signed = rand_complex(rng, (6, 6))
    signed[rng.random((6, 6)) < 0.4] = -0.0
    for mat in (C, signed):
        # the largest singular value of the same LAPACK SVD, bit for bit
        top = np.linalg.svd(mat, compute_uv=False)[0]
        assert remaining_norm(mat, "exact").hex() == float(top).hex()
    exact = remaining_norm(C, "exact")
    assert remaining_norm(C, "mixed") >= exact - 1e-12
    for mode in ("frobenius", "nope"):
        with pytest.raises(DomainError):
            remaining_norm(C, mode)


# ---------------------------------------------------------------------------
# partition directives
# ---------------------------------------------------------------------------

def test_resolve_partition_directives():
    A = np.eye(12)
    assert resolve_partition("3,3,3,3", A).sizes == (3, 3, 3, 3)
    assert resolve_partition([4, 4, 4], A).sizes == (4, 4, 4)
    assert resolve_partition("uniform:6", A).sizes == (6, 6)
    with pytest.raises(PartitionError):
        resolve_partition("uniform:5", A)
    with pytest.raises(PartitionError):
        resolve_partition("3,3", A)


def test_resolve_partition_autoband():
    spec = toeplitz_spec({-1: 1.0, 0: 2.0, 1: 1.0, 3: 0.5})
    A = build_toeplitz(spec, 12)
    assert detect_bandwidth(A) == 3
    p = resolve_partition("auto-band", A)
    assert p.sizes == (3, 3, 3, 3)
    _, C = split_tridiagonal(make_view(A, p))
    assert not np.any(C)
