"""Block-matrix data model.

A square complex matrix together with a block partition gives a block view
``A = [a_ij]``.  From the view we split off the block-tridiagonal part ``B``
(blocks with ``|i - j| <= 1``) and the remaining part ``C = A - B``, and
extract the three families of submatrices that the inclusion-set methods are
built from: square truncations, periodised truncations, and one-sided
(rectangular) truncations of ``B``.

Block indices are 0-based throughout; truncations are addressed by the block
count ``n`` (1 <= n <= N) and the offset ``k`` (0 <= k <= N - n), so the
truncation covers block rows/columns ``k .. k+n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, PartitionError, PiMethodUnsupported

__all__ = [
    "as_matrix",
    "BlockPartition",
    "BlockMatrixView",
    "make_view",
    "split_tridiagonal",
    "submatrix_tau",
    "submatrix_pi",
    "submatrix_tau1",
    "embedding_selector",
    "offdiag_norms",
    "remaining_norm",
    "detect_bandwidth",
    "resolve_partition",
]

_UNIT_MODULUS_TOL = 1e-12
_CNORM_EXACT_MAX_ORDER = 1024
# most blocks whose norms ``block_radii`` stacks at once
_NORM_BATCH = 1 << 14


def as_matrix(a) -> np.ndarray:
    """Validate and normalize a dense complex matrix.

    Returns a read-only C-contiguous complex128 copy.  Rejects empty or
    non-2-D input and non-finite entries.
    """
    m = np.array(a, dtype=np.complex128, order="C", copy=True)
    if m.ndim != 2 or m.size == 0:
        raise DomainError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DomainError("matrix entries must be finite")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class BlockPartition:
    """Row/column block sizes ``m_1 .. m_N`` of an order-M matrix."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 2:
            raise PartitionError("a partition needs at least two blocks (N > 1)")
        if any(s < 1 for s in sizes):
            raise PartitionError(f"block sizes must be positive, got {sizes}")

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def order(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Cumulative block boundaries ``0 = o_0 < o_1 < ... < o_N = M``."""
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    @property
    def uniform(self) -> bool:
        return len(set(self.sizes)) == 1


@dataclass(frozen=True)
class BlockMatrixView:
    """A matrix together with a partition, exposing the blocks ``a_ij``;
    B (bordered, every truncation is a slice of it), the penalty inputs and
    the block Gershgorin radii are derived once per view."""

    matrix: np.ndarray
    partition: BlockPartition
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offsets", self.partition.offsets)

    @property
    def block_count(self) -> int:
        return self.partition.count

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        """Block ``a_ij`` (0-based); raises IndexError outside 0..N-1."""
        n = self.block_count
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"block ({i}, {j}) is outside 0..{n - 1}")
        o = self.offsets
        return self.matrix[o[i]:o[i + 1], o[j]:o[j + 1]]

    def slice_range(self, k: int, n: int) -> slice:
        """Scalar index range covered by block rows/cols ``k .. k+n-1``."""
        o = self.offsets
        return slice(o[k], o[k + n])

    @cached_property
    def bordered(self) -> np.ndarray:
        """Read-only ``B`` (the blocks with ``|i - j| <= 1``, zero elsewhere)
        inside a zero border one row and one column wide: the block rows and
        columns -1 and N, as high as the one-sided truncation needs them."""
        M = self.order
        out = np.zeros((M + 2, M + 2), dtype=np.complex128)
        np.copyto(out[1:-1, 1:-1], self.matrix,
                  where=_block_band(self.partition.sizes))
        out.setflags(write=False)
        return out

    @cached_property
    def border_offsets(self) -> tuple[int, ...]:
        """Block boundaries in ``bordered``: block i starts at ``[i + 1]``."""
        return (0,) + tuple(x + 1 for x in self.offsets) + (self.order + 2,)

    @property
    def cnorm_mode(self) -> str:
        """Norm of C in the penalties: the exact spectral norm up to order
        1024, the bound ``sqrt(||C||_1 ||C||_inf)`` above."""
        return "exact" if self.order <= _CNORM_EXACT_MAX_ORDER else "mixed"

    @cached_property
    def penalty_inputs(self) -> tuple[float, float, float]:
        """``(r_L, r_U, ||C||)``, the norm of C in ``cnorm_mode``."""
        r_L, r_U, _ = offdiag_norms(self)
        _, C = split_tridiagonal(self)
        return r_L, r_U, remaining_norm(C, self.cnorm_mode)

    @cached_property
    def block_radii(self) -> tuple[float, ...]:
        """r_k of every block row: the sum of the spectral norms of its
        off-diagonal blocks, in column order.  Only the blocks holding a
        nonzero entry are summed; a zero block adds 0.0, which is exact.
        The norms come from ``_spectral_norms``, at most ``_NORM_BATCH``
        blocks at a time."""
        count = self.block_count
        block_of = np.repeat(np.arange(count), self.partition.sizes)
        rows, cols = np.nonzero(self.matrix)
        # the distinct (block row, block column) pairs, in order (np.unique
        # would import numpy.ma)
        pairs = np.sort(block_of[rows] * count + block_of[cols])
        pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
        keys = [divmod(key, count) for key in pairs.tolist()
                if key // count != key % count]
        radii = [0.0] * count
        for start in range(0, len(keys), _NORM_BATCH):
            batch = keys[start:start + _NORM_BATCH]
            norms = _spectral_norms([self.block(i, j) for i, j in batch])
            for (i, _), norm in zip(batch, norms):
                radii[i] += norm
        return tuple(radii)


def make_view(A, p: BlockPartition) -> BlockMatrixView:
    """Attach a block partition to a square matrix."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PartitionError(f"matrix must be square, got shape {A.shape}")
    if p.order != A.shape[0]:
        raise PartitionError(
            f"partition sizes sum to {p.order}, matrix order is {A.shape[0]}"
        )
    return BlockMatrixView(A, p)


def _block_band(sizes) -> np.ndarray:
    """Entry mask of the blocks ``(i, j)`` with ``|i - j| <= 1``."""
    blk = np.repeat(np.arange(len(sizes)), sizes)
    return np.abs(blk[:, None] - blk[None, :]) <= 1


def split_tridiagonal(view: BlockMatrixView) -> tuple[np.ndarray, np.ndarray]:
    """Split ``A`` into its block-tridiagonal part ``B`` and remainder ``C``.

    B keeps the blocks with ``|i - j| <= 1`` and is zero elsewhere; C is
    the entrywise complement, so ``B + C == A`` exactly (entries are copied,
    never recomputed).
    """
    B = view.bordered[1:-1, 1:-1]
    C = np.where(_block_band(view.partition.sizes), 0.0, view.matrix)
    C.setflags(write=False)
    return B, C


def _check_nk(view: BlockMatrixView, n: int, k: int) -> None:
    N = view.block_count
    if not (1 <= n <= N):
        raise IndexError(f"n must be in 1..{N}, got {n}")
    if not (0 <= k <= N - n):
        raise IndexError(f"k must be in 0..{N - n} for n={n}, got {k}")


def submatrix_tau(view: BlockMatrixView, n: int, k: int) -> np.ndarray:
    """Square truncation of the tridiagonal part: blocks ``k .. k+n-1``.

    Only the tridiagonal blocks are kept, so the result is block-tridiagonal
    even when the parent matrix is dense.
    """
    _check_nk(view, n, k)
    b = view.border_offsets
    s = slice(b[k + 1], b[k + n + 1])
    return view.bordered[s, s].copy()


def submatrix_pi(view: BlockMatrixView, n: int, k: int, t: complex) -> np.ndarray:
    """Periodised truncation: the square truncation plus wrap-around corners.

    The block at corner (0, n-1) gains ``t * b[k+n, k+n-1]`` and the corner
    (n-1, 0) gains ``conj(t) * b[k-1, k]``; blocks with an index outside the
    partition are zero.  For n <= 2 the corner terms are added onto the
    existing entries.  Requires a uniform partition and ``|t| = 1``.
    """
    if not view.partition.uniform:
        raise PiMethodUnsupported(
            "periodised truncations need a uniform partition"
        )
    t = complex(t)
    if not abs(abs(t) - 1.0) <= _UNIT_MODULUS_TOL:  # false for NaN too
        raise DomainError(f"|t| must be 1 (within {_UNIT_MODULUS_TOL}), got |t|={abs(t)}")
    t = t / abs(t)
    _check_nk(view, n, k)
    sub = submatrix_tau(view, n, k)
    N, m = view.block_count, view.partition.sizes[0]
    B = view.bordered[1:-1, 1:-1]
    zero = np.zeros((m, m), dtype=np.complex128)
    # the first blocks below and above the window, zero outside the partition
    lower = (B[(k + n) * m:(k + n + 1) * m, (k + n - 1) * m:(k + n) * m]
             if k + n < N else zero)
    upper = B[(k - 1) * m:k * m, k * m:(k + 1) * m] if k > 0 else zero
    sub[0:m, (n - 1) * m:n * m] += t * lower
    sub[(n - 1) * m:n * m, 0:m] += np.conj(t) * upper
    return sub


def submatrix_tau1(view: BlockMatrixView, n: int, k: int) -> np.ndarray:
    """One-sided (rectangular) truncation of the tridiagonal part.

    The block columns ``k .. k+n-1`` of B, block rows ``k-1 .. k+n``: the
    square truncation bordered above by ``b[k-1, k]`` in the first block
    column and below by ``b[k+n, k+n-1]`` in the last.  At k = 0 and
    k = N - n the missing border block is a single zero row, which leaves
    all singular values unchanged but keeps the shapes uniform.  The result
    contains every nonzero block of B whose column lies in the window.
    """
    _check_nk(view, n, k)
    b = view.border_offsets
    return view.bordered[b[k]:b[k + n + 2], b[k + 1]:b[k + n + 1]].copy()


def embedding_selector(n: int, k: int, view: BlockMatrixView) -> np.ndarray:
    """Rectangular identity matching the one-sided truncation's shape.

    Identity in the middle band, zero border rows above and below; used to
    form shifted rectangular matrices ``B+ - lambda * I+``.
    """
    _check_nk(view, n, k)
    b = view.border_offsets
    return np.eye(b[k + n + 2] - b[k], b[k + n + 1] - b[k + 1],
                  k=b[k] - b[k + 1], dtype=np.complex128)


def _spectral_norms(blocks) -> list[float]:
    """``np.linalg.norm(block, 2)`` of every block, bit for bit, from one
    stacked SVD per block shape: numpy's batched SVD runs LAPACK on each
    matrix of a stack as on a single one.  An all-zero block stays exactly
    0.0."""
    norms = [0.0] * len(blocks)
    shapes: dict[tuple, list[int]] = {}
    for k, block in enumerate(blocks):
        if np.any(block):
            shapes.setdefault(block.shape, []).append(k)
    for members in shapes.values():
        stack = np.stack([blocks[k] for k in members], dtype=np.complex128)
        top = np.linalg.svd(stack, compute_uv=False)[:, 0]
        for k, norm in zip(members, top.tolist()):
            norms[k] = norm
    return norms


def offdiag_norms(view: BlockMatrixView) -> tuple[float, float, float]:
    """Max spectral norms on the first block sub/superdiagonal.

    Returns ``(r_L, r_U, r)`` with ``r = r_L + r_U``.
    """
    N = view.block_count
    norms = _spectral_norms([view.block(i + 1, i) for i in range(N - 1)]
                            + [view.block(i, i + 1) for i in range(N - 1)])
    r_L = max([0.0] + norms[:N - 1])
    r_U = max([0.0] + norms[N - 1:])
    return r_L, r_U, r_L + r_U


def remaining_norm(C, mode: str = "exact") -> float:
    """Spectral norm of the remaining part, or an upper bound for it.

    mode 'exact' returns ||C||_2; 'mixed' the bound sqrt(||C||_1 ||C||_inf),
    which dominates it.
    """
    C = np.asarray(C, dtype=np.complex128)
    if C.size == 0 or not np.any(C):
        return 0.0
    if mode == "exact":
        return float(np.linalg.norm(C, 2))
    if mode == "mixed":
        absC = np.abs(C)
        one = float(absC.sum(axis=0).max())
        inf = float(absC.sum(axis=1).max())
        return float(np.sqrt(one * inf))
    raise DomainError(f"unknown norm mode {mode!r}")


def detect_bandwidth(A) -> int:
    """Smallest w such that A[i, j] = 0 whenever |i - j| > w."""
    A = np.asarray(A)
    nz = np.argwhere(A != 0)
    if nz.size == 0:
        return 0
    return int(np.max(np.abs(nz[:, 0] - nz[:, 1])))


def _parse_size(text: str, directive) -> int:
    try:
        return int(text)
    except ValueError:
        raise PartitionError(f"cannot parse partition {directive!r}: "
                             f"{text.strip()!r} is not a block size") from None


def resolve_partition(directive, A) -> BlockPartition:
    """Build a partition from a directive.

    Accepts an explicit size list (sequence or comma-separated string), the
    string ``uniform:m``, or ``auto-band`` which detects the band-width and
    delegates to the banded-Toeplitz partition recipe.
    """
    A = as_matrix(A)
    M = A.shape[0]
    if isinstance(directive, str):
        d = directive.strip()
        if d.startswith("uniform:"):
            m = _parse_size(d.split(":", 1)[1], directive)
            if m < 1 or M % m != 0 or M // m < 2:
                raise PartitionError(
                    f"uniform block size {m} does not split order {M} into N > 1 blocks"
                )
            return BlockPartition((m,) * (M // m))
        if d == "auto-band":
            from .toeplitz import banded_partition

            w = max(1, detect_bandwidth(A))
            return banded_partition(M, w)
        sizes = tuple(_parse_size(x, directive)
                      for x in d.replace(";", ",").split(",") if x.strip())
    else:
        sizes = tuple(int(x) for x in directive)
    p = BlockPartition(sizes)
    if p.order != M:
        raise PartitionError(f"sizes {sizes} sum to {p.order}, matrix order is {M}")
    return p
