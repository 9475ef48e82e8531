"""Smallest-singular-value engine, grid pseudospectra, and grid sets.

A Region is a boolean mask over a rectangular grid of complex nodes,
optionally carrying a field and a level: the set is the field's sublevel
set, and the mask its sampling at the nodes.  ``level_mask`` gives the
masks at several levels at once from far fewer nodes than a full sweep,
certified by the Lipschitz continuity of smin, together with a band field:
the values where they were evaluated, NaN elsewhere.  ``TermFields``
evaluates terms, each the least smin over a list of matrices, at grid nodes
or at any points, and each matrix only where it can be its term's minimum;
``TermFields.bounded`` only where it can change a term's maximum or a
comparison with a level.  ``certified_regions`` is the one constructor of
swept grid sets: the sublevel sets of groups of terms from one
``level_mask`` sweep of one ``TermFields``, each group at the allowance
``smin_slack`` of its own matrices, intersected into sets with one
field and one level, or mask-only.  It completes the band
fields at the nodes ``contour_extract`` reads, in one evaluation for all
groups.  A mask-only sweep decides a component of one square matrix, or a
term whose square matrices are all Hermitian, bidiagonal or of order 1, from
certified bounds on their smin and certified Sturm counts of the bidiagonal
ones, wherever they put it on one side of every level, and sends only the
other nodes to the SVD.  Every swept grid set of the
package comes from it, ``pseudospectrum`` included, which returns a band
field.  The others are masks alone: ``region_from_points`` marks the nodes
nearest to a point set, and ``inclusion.gershgorin`` its discs, computed
analytically.

All sweeps run through one batched-SVD kernel, ``smin_fields``.  It stacks
the shifted copies of every matrix of one shape, over the (matrix x node)
pairs a call asks for, and cuts the stack into blocks of at most about 4 MiB
of complex entries.  A call with ``jobs`` > 1 forms at least that many
blocks when each still carries enough SVD work to repay a thread hand-off,
and runs them on a thread pool of at most ``jobs`` workers, never more than
the usable CPUs (LAPACK releases the GIL), so at most ``jobs`` blocks are in
memory at once.  The pool of each worker count is started once and kept for
the life of the process, and a call returns only when all its blocks have
ended, an error included.  Each block writes its own result slots, and the
batched SVD returns the same bits however a batch is split or stacked, so
the output is identical for any worker count.

``covers_points`` and ``hausdorff`` find nearest masked nodes by searching
grid columns in numpy, with the distances a k-d tree computes, bit for bit.
Nothing here imports scipy.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DomainError, EmptyRegionError, GridMismatch

__all__ = [
    "GridSpec",
    "Region",
    "smin",
    "smin_fields",
    "smin_grid",
    "usable_cpus",
    "pseudospectrum",
    "smin_slack",
    "TermFields",
    "level_mask",
    "certified_regions",
    "region_from_points",
    "region_points",
    "covers_points",
    "hausdorff",
    "contour_extract",
    "eig",
    "default_grid",
    "region_to_csv",
    "region_doc",
    "region_from_doc",
]

# largest block of stacked shifted copies (and their embedded shifts), in
# bytes of complex entries
_BLOCK_BYTES = 4 << 20
# least SVD work of a block handed to a worker thread, in real flops.  The
# threads persist (``_pool``), so a call pays the hand-offs only, not the
# 0.7 ms that starting a two-thread pool takes on 2 vCPU with OpenBLAS
# 0.3.31.  The batched SVD runs at up to 3 Gflop/s (order 48 and up; far
# slower below), so such a block takes over 1 ms
_MIN_BLOCK_FLOPS = 4e6
# points per batch of a nearest-node search (``_nearest_sq``), which keeps a
# few hundred bytes of state per point of the batch
_QUERY_CHUNK = 1 << 15
# least node spacing of a grid: 2**22 above the smallest normal float, so
# 1/spacing and a pixel scale of 2**20 per axis stay finite
_MIN_SPACING = 2.0 ** -1000
# least node spacing of ``default_grid``, in units in the last place of the
# box centre's largest coordinate
_GRID_ULPS = 64


def smin(E) -> float:
    """Smallest singular value of a nonempty matrix (rows >= cols)."""
    E = np.asarray(E, dtype=np.complex128)
    if E.ndim != 2 or E.size == 0:
        raise DomainError(f"smin needs a nonempty 2-D matrix, got shape {E.shape}")
    if E.shape[0] < E.shape[1]:
        raise DomainError(f"smin needs rows >= cols, got shape {E.shape}")
    return float(np.linalg.svd(E, compute_uv=False)[-1])


def usable_cpus() -> int:
    """Number of CPUs this process may run on; no sweep uses more threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(jobs: int | None) -> int:
    """Worker threads a sweep may use: ``jobs`` capped at ``usable_cpus``."""
    if jobs is None:
        return 1
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, usable_cpus())


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads, one per count for the life of the
    process: a fresh pool per sweep would start fresh threads, and each new
    thread grows fresh malloc arenas."""
    return ThreadPoolExecutor(max_workers=workers)


# a forked child has none of its parent's threads, so it starts its own pools
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _svd_flops(rows: int, cols: int) -> float:
    """Real flops of one singular-values-only complex SVD (rows >= cols):
    the bidiagonalisation count ``4 m n^2 - 4 n^3 / 3``, times 4 for complex
    arithmetic."""
    return 4.0 * (4.0 * rows * cols ** 2 - 4.0 * cols ** 3 / 3.0)


def _blocks(units: int, rows: int, cols: int, embedded: bool,
            workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` spans of ``units`` stacked shifted copies
    of rows x cols matrices, one span per block.

    A block holds at most ``_BLOCK_BYTES`` of copies (twice the entries with
    an embedding, whose scaled copy is formed beside them).  There are at
    least ``workers`` blocks when each still gets ``_MIN_BLOCK_FLOPS``.
    """
    per_unit = 16 * rows * cols * (2 if embedded else 1)
    cap = max(1, _BLOCK_BYTES // per_unit)
    worth = int(units * _svd_flops(rows, cols) // _MIN_BLOCK_FLOPS)
    count = min(units, max(-(-units // cap), min(workers, worth)))
    edges = [units * k // count for k in range(count + 1)] if count else []
    return list(zip(edges, edges[1:]))


def _sweep_block(stack, embeds, shifts, out, units) -> None:
    """smin of the stacked ``units``; unit u is matrix ``u // len(shifts)``
    shifted by ``shifts[u % len(shifts)]``, and its value goes to
    ``out[u]``."""
    which, node = np.divmod(units, len(shifts))
    batch = stack[which]
    shift = shifts[node]
    if embeds is None:
        idx = np.arange(batch.shape[1])
        batch[:, idx, idx] -= shift[:, None]
    else:
        scaled = embeds[which]
        np.multiply(shift[:, None, None], scaled, out=scaled)
        batch -= scaled
    out[units] = np.linalg.svd(batch, compute_uv=False)[:, -1]


def smin_fields(items, lambdas, jobs: int | None = None,
                want=None) -> list[np.ndarray]:
    """``smin(E - lam*I)`` (``smin(E - lam*embed)`` where an embedding is
    given) of every ``(E, embed)`` item over the same array of shifts.

    Returns one array of the shape of ``lambdas`` per item, in item order.
    ``want``, a boolean array of shape (items, shifts), marks the (item,
    shift) pairs to evaluate; the others are NaN.  Without it every pair is
    evaluated.  The wanted pairs of the items of one shape, with or without
    an embedding, are stacked and swept in blocks of at most about 4 MiB of
    complex entries, in one batched LAPACK SVD per block.  With ``jobs`` > 1
    the blocks run on at most ``jobs`` threads, never more than
    ``usable_cpus``, largest SVD work first; a call forms at least that many
    blocks when the work allows, and stays on the calling thread when no two
    blocks would repay the hand-off.
    """
    items = list(items)
    lam = np.asarray(lambdas, dtype=np.complex128)
    shifts = lam.ravel()
    if want is not None:
        want = np.asarray(want, dtype=bool).reshape(len(items), shifts.size)
    workers = _workers(jobs)
    groups: dict[tuple, list[int]] = {}
    for i, (E, embed) in enumerate(items):
        rows, cols = np.shape(E)
        if embed is None and rows != cols:
            raise DomainError("rectangular matrices need an explicit embedding")
        groups.setdefault((rows, cols, embed is None), []).append(i)

    fields: list = [None] * len(items)
    tasks, flops = [], 0.0
    for (rows, cols, square), members in groups.items():
        stack = np.stack([items[i][0] for i in members], dtype=np.complex128)
        embeds = None if square else np.stack(
            [items[i][1] for i in members], dtype=np.complex128)
        out = np.full((len(members), shifts.size), np.nan)
        for k, i in enumerate(members):
            fields[i] = out[k].reshape(lam.shape)
        units = (np.arange(out.size) if want is None
                 else np.flatnonzero(want[members]))
        for start, stop in _blocks(units.size, rows, cols, not square,
                                   workers):
            tasks.append(((stop - start) * _svd_flops(rows, cols),
                          partial(_sweep_block, stack, embeds, shifts,
                                  out.reshape(-1), units[start:stop])))
        flops += units.size * _svd_flops(rows, cols)
    workers = min(workers, len(tasks), int(flops // _MIN_BLOCK_FLOPS))
    # largest blocks first, so that the small ones fill the threads' tails
    tasks = [task for _, task in sorted(tasks, key=lambda t: -t[0])]
    if workers > 1:
        futures = [_pool(workers).submit(task) for task in tasks]
        # every block has finished writing ``out`` before any error is raised
        wait(futures)
        for done in futures:
            done.result()
    else:
        for task in tasks:
            task()
    return fields


def smin_grid(E, lambdas, embed=None, jobs: int | None = None) -> np.ndarray:
    """Vectorized ``smin(E - lam*I)`` over an array of shifts.

    Returns an array of the same shape as ``lambdas``: the one-matrix case
    of ``smin_fields``, swept in blocks of at most about 4 MiB of complex
    entries, on up to ``jobs`` threads (capped at ``usable_cpus``).
    """
    return smin_fields([(E, embed)], lambdas, jobs)[0]


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling box in the complex plane.

    The bounds must be finite with ``re_min < re_max`` and ``im_min <
    im_max``, and each axis needs at least 2 nodes.  The node spacings ``dx``
    and ``dy`` must be finite (the extent ``re_max - re_min`` must not
    overflow) and at least ``2**-1000``, about 9.3e-302, so that the inverse
    spacings, and pixel scales of up to ``2**20`` pixels per axis (the SVG
    uses 540), are finite too.  Any other box raises ``DomainError``.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int = 256
    ny: int = 256

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise DomainError("grid bounds must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError("grid box must have positive extent")
        if self.nx < 2 or self.ny < 2:
            raise DomainError("grid needs at least 2 nodes per axis")
        spacing = (self.dx, self.dy)
        if not all(map(math.isfinite, spacing)):
            raise DomainError("grid extent overflows: re_max - re_min and "
                              "im_max - im_min must be finite")
        if min(spacing) < _MIN_SPACING:
            raise DomainError(f"grid spacing {min(spacing):.3g} is below "
                              f"{_MIN_SPACING:.3g}")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    @property
    def dx(self) -> float:
        return (self.re_max - self.re_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.im_max - self.im_min) / (self.ny - 1)

    @property
    def cell_diag(self) -> float:
        return float(np.hypot(self.dx, self.dy))

    def nodes(self) -> np.ndarray:
        """Complex node array of shape (ny, nx)."""
        return self.xs[None, :] + 1j * self.ys[:, None]


@dataclass(frozen=True)
class Region:
    """Discretized subset of the complex plane on a fixed grid.

    ``mask[iy, ix]`` marks node ``xs[ix] + 1j*ys[iy]``.  ``values`` holds the
    field whose sublevel set at ``level`` the mask samples, when available:
    an smin field, or the field of a combination of them
    (``certified_regions``); a band field is NaN where it was not evaluated.
    """

    grid: GridSpec
    mask: np.ndarray
    values: np.ndarray | None = None
    level: float | None = None

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.grid.ny, self.grid.nx):
            raise DomainError(
                f"mask shape {mask.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        object.__setattr__(self, "mask", mask)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.float64)
            if vals.shape != mask.shape:
                raise DomainError("values shape must match the mask")
            if np.any(vals < 0):
                raise DomainError("smin field must be nonnegative")
            object.__setattr__(self, "values", vals)

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def area(self) -> float:
        """Masked area, counting one grid cell per masked node."""
        return float(self.mask.sum()) * self.grid.dx * self.grid.dy


def pseudospectrum(E, eps: float, grid: GridSpec, embed=None,
                   jobs: int | None = None, with_field: bool = True) -> Region:
    """Closed eps-pseudospectrum of E on a grid.

    Marks the nodes where ``smin(E - lam*I) <= eps`` (with the rectangular
    embedding when given) from one certified sweep, ``certified_regions``,
    and keeps the band field, or no field without ``with_field``.
    """
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    if not isinstance(grid, GridSpec):
        raise DomainError("grid must be a GridSpec")
    [[region]] = certified_regions([([[(None, E, embed)]], [[eps]])], grid,
                                   jobs, with_field=with_field)
    return region


# constant c of the singular-value error bound in ``smin_slack``
_SLACK_C = 4
# relative widening of node distances in ``level_mask`` and ``TermFields``;
# covers the rounding of their own margin arithmetic
_DIST_WIDEN = 1.0 + 2.0 ** -30
# unit roundoff of float64
_U = 2.0 ** -53


def _nudge(level: float) -> float:
    """Offset by which ``contour_extract`` moves values within it of the
    level inside, so that no contour vertex sits on a grid node."""
    return (abs(level) + 1.0) * 1e-7


def _radius(grid: GridSpec) -> float:
    """Largest modulus of a point of the grid's box."""
    return math.hypot(max(abs(grid.re_min), abs(grid.re_max)),
                      max(abs(grid.im_min), abs(grid.im_max)))


def smin_slack(matrices, grid: GridSpec) -> float:
    """Rounding allowance of ``smin_grid`` values of ``matrices`` on ``grid``.

    Let f(z) = smin(E - z I) (or ``E - z I_plus``) be the exact value and
    f~(z) the one ``smin_grid`` computes.  Forming the shift rounds each
    diagonal entry, a perturbation of 2-norm at most u (||E||_2 + |z|),
    u = 2^-53.  The SVD reduces E - zI to bidiagonal form by 2n Householder
    reflections, which is backward stable: the singular values it returns
    are those of a matrix within c m n u ||E - zI||_2 of its input, m x n
    being the shape of E (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sections 19.3 and 20.1; the bidiagonal singular
    values are then computed to high relative accuracy).  By Weyl's
    inequality a singular value moves no more than the 2-norm of the
    perturbation, so
        |f~(z) - f(z)| <= delta = (c m n + 1) u (||E||_F + R),
    with ||E||_2 <= ||E||_F and R >= |z| the largest modulus of the grid.
    f is 1-Lipschitz, so any two computed values obey
        |f~(a) - f~(b)| <= |a - b| + 2 delta.
    ``level_mask`` measures |a - b| from index offsets times the spacing.
    ``linspace`` rounds each stored coordinate once in its product and
    once in its sum, so a stored node is within 4 u R of its ideal position
    on each axis, and the measured distance is off by at most 8 u R.  The
    allowance returned is 2 delta + 8 u R.  A pointwise minimum of several
    such fields obeys the same bound with the largest allowance of its
    matrices.
    """
    radius = _radius(grid)
    delta = max((_SLACK_C * E.shape[0] * E.shape[1] + 1) * _U
                * (float(np.linalg.norm(E)) + radius)
                for E in map(np.asarray, matrices))
    return 2.0 * delta + 8.0 * _U * radius


def _smin_bounds(E, radius: float):
    """Bounds ``lo <= f~(z) <= hi`` of the value f~ that ``smin_fields``
    computes for f(z) = smin(E - z I), E square of order n, at nodes z of
    modulus at most R = ``radius``.  Returns ``bounds(points, slack)``,
    ``slack`` being at least 2 delta, delta the error bound |f~ - f| of
    ``smin_slack`` (whose allowance is such a slack).

    Exact bounds.  Let r_i and c_i be the sums of |e_ij| over the
    off-diagonal entries of row i and of column i, h_i = (r_i + c_i) / 2,
    and rho_i the lesser 2-norm of those two off-diagonal parts.  Johnson's
    Gershgorin-type bound (*Linear Algebra Appl.* 112, 1989) gives
        f(z) >= min_i |e_ii - z| - h_i,
    and column i of E - zI, and row i (a square matrix and its adjoint have
    the same singular values), give
        f(z) <= min_i hypot(|e_ii - z|, rho_i).
    For E equal to E^H bit for bit, E is normal and f(z) is the distance
    from z to its eigenvalues (Trefethen & Embree, *Spectra and
    Pseudospectra*, 2005, ch. 2).  ``eigvalsh`` is backward stable: its
    eigenvalues are those of a Hermitian matrix within eta = (c n^2 + 1) u
    ||E||_F of E in 2-norm (the c of ``smin_slack``), so by Weyl's
    inequality each is within eta of an exact one, and the distance to
    them is within eta of f(z).  This replaces both bounds above: the terms
    become |lambda_i - z|, with h_i = rho_i = 0.

    Rounding.  With S = R + max_i (|e_ii| + h_i) (R + ||E||_F for E = E^H),
    every quantity formed is at most S, since rho_i <= h_i.  The sums and
    norms of n - 1 entries carry at most (n + 2) u of relative error, the
    difference e_ii - z with its modulus 3u, hypot and the difference of a
    term u each, so each computed term is within kappa = (n + 8) u S of its
    exact one to first order (kappa = eta + 4 u S for E = E^H).  lo and hi
    are the least terms shifted by a = W (slack + 2 kappa), W = 1 + 2^-30 as
    in ``TermFields``: the second kappa covers the second-order terms and
    the final shift's rounding, at most u (S + a).  So lo <= f - slack <=
    f~ and hi >= f + slack >= f~ at every node.
    """
    E = np.asarray(E, dtype=np.complex128)
    n = len(E)
    if np.array_equal(E, E.conj().T):
        norm = float(np.linalg.norm(E))
        kappa = ((_SLACK_C * n * n + 1) * norm + 4.0 * (radius + norm)) * _U
        centres = np.linalg.eigvalsh(E)
        half = rest = np.zeros(n)
    else:
        off = np.abs(E)
        np.fill_diagonal(off, 0.0)
        centres = np.diag(E)
        half = (off.sum(axis=0) + off.sum(axis=1)) / 2.0
        rest = np.minimum(np.linalg.norm(off, axis=0),
                          np.linalg.norm(off, axis=1))
        kappa = (n + 8) * _U * (radius + float((abs(centres) + half).max()))
    # equal diagonal entries of equal rows and columns are one term
    terms = dict.fromkeys(zip(centres.tolist(), half.tolist(), rest.tolist()))

    def bounds(points, slack):
        lo = np.full(points.shape, np.inf)
        hi = np.full(points.shape, np.inf)
        for centre, h, rho in terms:
            gap = np.abs(points - centre)
            np.fmin(lo, gap - h, out=lo)
            np.fmin(hi, np.hypot(gap, rho), out=hi)
        allow = (slack + 2.0 * kappa) * _DIST_WIDEN
        return lo - allow, hi + allow

    return bounds


# ``_bidiagonal_test``: a pivot of modulus below _PIVMIN is replaced by
# -_PIVMIN, and _STURM_LEAST is the least shift it counts at, both in scaled
# units
_PIVMIN = 2.0 ** -1000
_STURM_LEAST = 2.0 ** -480


def _bidiagonal_test(E, radius: float, low: float, high: float,
                     slack: float):
    """Certified tests ``f~ < low`` and ``f~ > high`` of the value f~ that
    ``smin_fields`` computes for f(z) = smin(E - z I), at nodes of modulus at
    most R = ``radius``, for E upper or lower bidiagonal of order M >= 2 and
    not Hermitian; ``slack`` is at least 2 delta, delta the error bound |f~ -
    f| of ``smin_slack``.  Returns ``decide(points)``, which gives ``low``
    where f~ < low is certified, the next float above ``high`` where f~ >
    high is, and NaN elsewhere; or None for any other E.

    The count.  E - zI is bidiagonal, and diagonal unitary scalings turn it
    into the real bidiagonal B of the moduli of its entries, of the same
    singular values s_i.  The Golub-Kahan matrix T of B, of order 2M, has a
    zero diagonal and the off-diagonals b_1, ..., b_2M-1 = |e_11 - z|, |e_12|,
    |e_22 - z|, ... (|e_21| for a lower E), and its eigenvalues are +-s_i.  So
    for sigma > 0, T - sigma I has M + #{s_i < sigma} negative eigenvalues,
    and by Sylvester's law of inertia as many negative pivots q_1 = -sigma,
    q_k+1 = -sigma - b_k^2 / q_k: f(z) < sigma exactly when more than M are
    negative.  The count runs in units scaled by a power of two that puts
    max(|e_ii| + R, |e_i,i+-1|, the outside shift) in [1/2, 1), so every b_k
    and every shift is below 1 and no quotient exceeds 2^1000.

    Rounding.  (i) Relative.  Each b_k^2 is formed from scaled parts as a
    sum of two squares (of differences, on the diagonal) within a factor 1
    +- 4u of its exact value, u = 2^-53; scaling by a power of two is exact.
    A step rounds its quotient and its difference (-sigma is exact).
    Divided by the rounding factor of its difference, which keeps its sign,
    each computed pivot obeys the recurrence exactly with b_k^2 off by two
    more factors 1 +- u (Kahan, 1966; Demmel, *Applied Numerical Linear
    Algebra*, 1997, section 5.3.4).  So the count is exact for the
    Golub-Kahan matrix of a bidiagonal with entries b_k (1 + psi_k), |psi_k|
    <= psi = 4u (3u to first order), whose singular values are those of B
    within the factor alpha = (1 - psi)^-(2M-1) <= 1 + 2 (2M - 1) psi
    (Demmel & Kahan, "Accurate singular values of bidiagonal matrices",
    *SIAM J. Sci. Stat. Comput.* 11, 1990, Theorem 2).  (ii) Absolute.  A
    pivot below _PIVMIN in modulus, replaced by -_PIVMIN, moves a diagonal
    entry of T by less than 2^-998.  Underflow in the scaled parts, squares
    and quotients moves b_k^2 by at most 2^-1070, so b_k by at most 2^-535,
    or a diagonal entry of T by at most 2^-1074.  By Weyl's inequality these
    move the eigenvalues of T by less than omega = 2^-530.  So
    a count above M at sigma proves f < alpha (sigma + omega), and one of at
    most M proves f >= (sigma - omega) / alpha, in scaled units.

    Shifts.  s_in = (low - slack) / gamma and s_out = (high + slack) gamma,
    scaled, with gamma = (1 + 2 (2M - 1) psi)(1 + 2^-40).  A shift below
    _STURM_LEAST = 2^-480, or not finite, makes no test, so omega is at most
    2^-50 of a shift; the factor 1 + 2^-40 covers that and the few roundings
    in forming the shifts.  A count above M at s_in then proves f < low -
    slack, so f~ <= f + delta < low; one of at most M at s_out proves f >=
    high + slack, so f~ >= f - delta > high (delta > 0, E not being zero).
    Either value returned lies on f~'s side of every level, no farther from
    it than f~, as ``_bounds_tier`` needs.
    """
    E = np.asarray(E, dtype=np.complex128)
    M = len(E)
    if M < 2 or np.array_equal(E, E.conj().T):
        return None
    if not (np.triu(E, 2).any() or np.tril(E, -1).any()):
        off = np.diagonal(E, 1)
    elif not (np.tril(E, -2).any() or np.triu(E, 1).any()):
        off = np.diagonal(E, -1)
    else:
        return None
    diag = np.diagonal(E)
    gamma = (1.0 + 8.0 * (2 * M - 1) * _U) * (1.0 + 2.0 ** -40)
    top = max(float(np.abs(diag).max()) + radius, float(np.abs(off).max()),
              (high + slack) * gamma)
    # the scale, at most 2^1000, must be finite
    if not math.isfinite(top) or top < 2.0 ** -1000:
        return None
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    shifts = np.array([(low - slack) * scale / gamma,
                       (high + slack) * scale * gamma])
    made = np.isfinite(shifts) & (shifts >= _STURM_LEAST)
    if not made.any():
        return None
    shifts = shifts[made, None]
    re, im = diag.real * scale, diag.imag * scale
    off2 = (off.real * scale) ** 2 + (off.imag * scale) ** 2
    marks = np.array([low, np.nextafter(high, np.inf)])[made]
    inside = np.array([True, False])[made, None]

    def decide(points):
        x, y = points.real * scale, points.imag * scale
        q = np.repeat(-shifts, x.size, axis=1)
        negative = np.ones(q.shape, dtype=np.intp)
        for k in range(2 * M - 1):
            if k % 2:
                b2 = off2[k // 2]
            else:
                dx, dy = re[k // 2] - x, im[k // 2] - y
                b2 = dx * dx + dy * dy
            q = -shifts - b2 / q
            np.copyto(q, -_PIVMIN, where=np.abs(q) < _PIVMIN)
            negative += q < 0
        out = np.full(points.shape, np.nan)
        # inside where s_in's count exceeds M, outside where s_out's does not
        for mark, hit in zip(marks, (negative > M) == inside):
            out[hit] = mark
        return out

    return decide


def _content_key(mat, embed) -> bytes:
    key = np.asarray(mat).tobytes()
    return key if embed is None else key + b"|" + np.asarray(embed).tobytes()


class TermFields:
    """The field of terms over one sweep: the least smin over each term's
    contributions.

    A term is a list of ``(descriptor, E, embed)`` contributions (the
    descriptor is report data and is not read here), and its value at z is
    the least ``smin(E - z I)`` (``smin(E - z embed)`` with an embedding)
    over them; contributions of equal content are evaluated once.
    ``field(points, want)`` returns the terms' values at the points, stacked
    along the first axis.  ``want`` has one boolean row per term.  A term
    is evaluated at its wanted points, and
    also where the contributions other terms of its group need there cover
    it; it is NaN elsewhere.  ``groups`` gives the number of terms of each
    group, in term order (one group of all terms by default): the sets of
    one sweep, whose contributions are evaluated once however many groups
    hold them, while each term takes values from its own group's needs
    only.  With ``memo`` the values of the contributions of several groups
    are kept, so that no later call evaluates such a pair again.

    The first call evaluates every contribution at every point where a term
    holding it is wanted (the coarse lattice of ``level_mask``, in a sweep)
    and keeps those values f~_c(a) at the points a as anchors.  A later call
    evaluates, in a term of two or more content-distinct contributions, only
    those whose lower bound

        L_c(y) = max over anchors a of  f~_c(a) - (W |a - y| + s')

    does not exceed the least value m(y) of the term evaluated so far: first
    the contribution of least bound, which gives m(y), then the others with
    L_c(y) <= m(y).  Each round is one ``smin_fields`` call.  The bound
    holds for computed values: with delta the error bound of ``smin_slack``
    (|f~ - f| <= delta) and f 1-Lipschitz in z,

        f~_c(y) >= f_c(y) - delta >= f_c(a) - |a - y| - delta
                >= f~_c(a) - |a - y| - 2 delta,

    and s = ``slack``, the sweep's ``smin_slack``, is at least 2 delta.  Its
    rounding allowance: |a - y| is computed from the stored points, so only
    its own arithmetic rounds (one rounding per coordinate difference and
    one in ``abs``), and it is at least (1 - 3u) times the exact distance
    (u = 2^-53).  W = ``_DIST_WIDEN`` = 1 + 2^-30 outweighs that; with
    s' = W (s + u T), T the largest anchor value, the computed g = W |a - y|
    + s' (two more roundings, and two in s') is at least (1 + 2^-31)(|a - y|
    + s + u T), and the final difference f~_c(a) - g rounds by at most
    u max(f~_c(a), g) <= u T + 2^-31 g, which that excess covers.  So the
    computed L_c(y) is at most f~_c(y), and a contribution with L_c(y) >
    m(y) lies strictly above the term's minimum: skipping it changes no
    value, bit for bit.  Without a ``slack`` no bound is finite, so nothing
    is skipped.

    ``field.bounded`` answers the questions a pointwise check asks, the
    largest value and the comparisons with a level, from fewer pairs; see
    there.
    """

    def __init__(self, terms, slack: float = math.inf,
                 jobs: int | None = None, groups=None, memo: bool = True):
        index: dict[bytes, int] = {}
        self.items, self.members = [], []
        for contribs in terms:
            term = {}
            for _, E, embed in contribs:
                key = _content_key(E, embed)
                if key not in index:
                    index[key] = len(self.items)
                    self.items.append((E, embed))
                term[index[key]] = None
            self.members.append(np.array(list(term), dtype=np.intp))
        ends = np.cumsum([len(self.members)] if groups is None
                         else groups).tolist()
        self.groups = [range(a, b) for a, b in zip([0] + ends, ends)]
        # the contributions of several groups, whose values ``memo`` keeps
        held = np.zeros((len(self.groups), len(self.items)), dtype=bool)
        for g, group in enumerate(self.groups):
            for i in group:
                held[g, self.members[i]] = True
        self.shared = (held.sum(axis=0) > 1) & memo
        self.memo: dict[tuple, float] = {}
        self.slack = slack
        self.jobs = jobs
        self.anchors = None
        self.spectra = None

    def __call__(self, points, want) -> np.ndarray:
        points = np.asarray(points).ravel()
        need = np.zeros((len(self.items), points.size), dtype=bool)
        cover = np.zeros(want.shape, dtype=bool)
        for group in self.groups:
            own = np.zeros(need.shape, dtype=bool)
            for i in group:
                own[self.members[i]] |= want[i]
            cover[group] = [own[self.members[i]].all(axis=0) for i in group]
            need |= own
        vals = np.full(need.shape, np.nan)
        if self.anchors is None:
            self._evaluate(vals, points, need)
            self.anchors = (points, np.nan_to_num(vals, nan=-np.inf))
        else:
            self._pruned(vals, points, cover)
        out = np.full(want.shape, np.nan)
        for row, idx, cols in zip(out, self.members, cover):
            if cols.any():
                row[cols] = np.fmin.reduce(vals[idx][:, cols], axis=0)
        return out

    def bounded(self, points, levels, want=None) -> np.ndarray:
        """Upper bounds u of the terms' values at the wanted points (NaN
        elsewhere): u is at least the value, equals it wherever u exceeds
        the term's level, and has the same maximum, bit for bit.  So
        ``u <= level`` and ``u.max()`` answer as the values would.

        ``levels`` holds one level per term, or one row of levels per term.
        The guess of a contribution at z, which only orders the work, is
        the distance from z to its spectrum (to that of ``embed^H E``, the
        square middle part, with an embedding): ``smin(E - z I)`` does not
        exceed it, and equals it for a normal E.

        Two ``smin_fields`` calls.  The first evaluates, in each term, the
        contribution of least guess at every wanted point, and every
        contribution at the point whose least guess is largest.  u is the
        least value found, exact where every contribution was evaluated; m
        is the largest exact u.  The second evaluates the other
        contributions where u exceeds min(m, level).  A point it skips has
        u <= m, so the maximum is exact, and u exceeds the level only where
        it is exact.  No rounding allowance enters: min and max select
        computed values, and ``smin_fields`` returns the same bits however
        a call is batched.
        """
        points = np.asarray(points).ravel()
        out = np.full((len(self.members), points.size), np.nan)
        want = (np.ones(out.shape, dtype=bool) if want is None
                else np.asarray(want, dtype=bool))
        terms = np.flatnonzero(want.any(axis=1))
        if terms.size == 0:
            return out
        cut = np.broadcast_to(np.asarray(levels, dtype=np.float64).reshape(
            len(self.members), -1), out.shape)
        want, cut = want[terms], cut[terms]
        # the wanted terms' contributions (``keys``), and per term a row of
        # indices into them, padded with an extra index that counts as
        # evaluated (+inf) and is guessed last
        keys = self._contributions(terms)
        pad = keys.size
        table = np.full((terms.size, max(self.members[i].size
                                         for i in terms)), pad)
        for row, i in zip(table, terms):
            row[:self.members[i].size] = np.searchsorted(keys, self.members[i])
        ranks = np.full((pad + 1, points.size), np.inf)
        # one eigenvalue column at a time, in (contributions, points) memory
        for lam in self._spectra()[keys].T:
            np.fmin(ranks[:pad], abs(lam[:, None] - points), out=ranks[:pad])
        vals = np.full((pad + 1, points.size), np.nan)
        vals[pad] = np.inf
        first = np.zeros(vals.shape, dtype=bool)
        best = np.take_along_axis(table, ranks[table].argmin(axis=1), axis=1)
        first[best[want], np.nonzero(want)[1]] = True
        least = np.where(want, ranks[table].min(axis=1), -np.inf)
        first[table, least.argmax(axis=1)[:, None]] = True
        self._evaluate(vals[:pad], points, first[:pad], keys)
        done = ~np.isnan(vals[table])
        u = np.fmin.reduce(vals[table], axis=1)
        top = np.where(want & done.all(axis=1), u, -np.inf).max(axis=1)
        redo = want & (u > np.minimum(top[:, None], cut))
        t, c, j = np.nonzero(redo[:, None, :] & ~done)
        second = np.zeros(vals.shape, dtype=bool)
        second[table[t, c], j] = True
        self._evaluate(vals[:pad], points, second[:pad], keys)
        out[terms] = np.where(want, np.fmin.reduce(vals[table], axis=1),
                              np.nan)
        return out

    def _contributions(self, terms) -> np.ndarray:
        """The distinct contributions of these terms, in index order (not
        np.unique, which imports numpy.ma: over 1 MB of resident memory)."""
        keys = np.zeros(len(self.items), dtype=bool)
        for i in terms:
            keys[self.members[i]] = True
        return np.flatnonzero(keys)

    def _spectra(self) -> np.ndarray:
        """One row per contribution: its eigenvalues (those of ``embed^H E``
        with an embedding), padded with NaN; computed at the first call, in
        one ``eigvals`` call per order that decomposes each distinct square
        once (a middle ``embed^H E`` often equals a square truncation)."""
        if self.spectra is None:
            # per order: the distinct squares, their index by content, and
            # the (contribution, square) pairs
            orders: dict[int, tuple] = {}
            for k, (E, embed) in enumerate(self.items):
                square = np.asarray(E if embed is None
                                    else embed.conj().T @ E, dtype=complex)
                index, squares, pairs = orders.setdefault(len(square),
                                                          ({}, [], []))
                row = index.setdefault(square.tobytes(), len(squares))
                if row == len(squares):
                    squares.append(square)
                pairs.append((k, row))
            self.spectra = np.full((len(self.items), max(orders, default=0)),
                                   np.nan, dtype=complex)
            for order, (_, squares, pairs) in orders.items():
                keys, rows = map(list, zip(*pairs))
                self.spectra[keys, :order] = np.linalg.eigvals(
                    np.stack(squares))[rows]
        return self.spectra

    def _evaluate(self, vals, points, want, keys=None) -> None:
        """Fill ``vals`` at the wanted (contribution, point) pairs, in one
        ``smin_fields`` call; row r of ``vals`` and ``want`` is contribution
        ``keys[r]`` (contribution r without ``keys``)."""
        rows = np.flatnonzero(want.any(axis=1))
        cols = np.flatnonzero(want.any(axis=0))
        if rows.size == 0:
            return
        sub = want[np.ix_(rows, cols)]
        items = rows if keys is None else keys[rows]
        share = np.nonzero(sub & self.shared[items][:, None])
        pairs = list(zip(items[share[0]].tolist(),
                         points[cols[share[1]]].tolist()))
        for i, j, pair in zip(*share, pairs):
            if pair in self.memo:
                vals[rows[i], cols[j]] = self.memo[pair]
                sub[i, j] = False
        if sub.any():
            fields = smin_fields([self.items[k] for k in items], points[cols],
                                 self.jobs, want=sub)
            ii, jj = np.nonzero(sub)
            vals[rows[ii], cols[jj]] = np.array(fields)[ii, jj]
        for i, j, pair in zip(*share, pairs):
            self.memo[pair] = float(vals[rows[i], cols[j]])

    def _bounds(self, points, keys) -> np.ndarray:
        """Lower bounds of contributions ``keys`` at the points, from the
        anchors: ``max_a f~(a) - (|a - y| W + s')``."""
        at, known = self.anchors
        known = known[keys]
        top = known.max(initial=0.0, where=np.isfinite(known))
        allow = (self.slack + _U * top) * _DIST_WIDEN
        bound = np.full((len(keys), points.size), -np.inf)
        for a, vals in zip(at, known.T):
            gap = np.abs(a - points) * _DIST_WIDEN + allow
            np.maximum(bound, vals[:, None] - gap, out=bound)
        return bound

    def _pruned(self, vals, points, cover) -> None:
        """Fill ``vals`` wherever a covered term can take its minimum: the
        contribution of least bound in each term, then those of the term
        whose bound does not exceed the least value found."""
        multi = [i for i, idx in enumerate(self.members) if idx.size > 1]
        bound = np.full(vals.shape, -np.inf)
        if multi:
            keys = self._contributions(multi)
            cols = np.logical_or.reduce(cover[multi])
            bound[np.ix_(keys, cols)] = self._bounds(points[cols], keys)
        first = np.zeros(vals.shape, dtype=bool)
        for idx, at in zip(self.members, map(np.flatnonzero, cover)):
            first[idx[np.argmin(bound[idx][:, at], axis=0)], at] = True
        self._evaluate(vals, points, first)
        second = np.zeros(vals.shape, dtype=bool)
        for i in multi:
            block = np.ix_(self.members[i], np.flatnonzero(cover[i]))
            low = np.fmin.reduce(vals[block], axis=0)
            second[block] |= (bound[block] <= low) & np.isnan(vals[block])
        self._evaluate(vals, points, second)


def _lattice(count: int, stride: int) -> np.ndarray:
    """Every ``stride``-th index below ``count``, and the last one."""
    idx = np.arange(0, count, stride)
    return idx if idx[-1] == count - 1 else np.append(idx, count - 1)


def _around(lattice: np.ndarray, idx: np.ndarray):
    """The lattice indices just below and just above each index."""
    below = lattice[np.searchsorted(lattice, idx, "right") - 1]
    above = lattice[np.searchsorted(lattice, idx, "left")]
    return below, above


def level_mask(field, grid: GridSpec, levels, slack, nudge=None):
    """Masks ``f_i(grid.nodes()) <= level`` of each component f_i of a field
    at each of its levels, from the field at as few nodes as certify them
    all.

    ``levels`` has shape (F, L), one row of levels per component of the
    field.  ``field(points, want)`` takes a 1-D array of k grid nodes and an
    (F, k) boolean array of the values needed, and returns shape (F, k), NaN
    where it evaluated nothing.  Any two computed values of one component
    must obey ``|f(a) - f(b)| <= |a - b| + slack``, with |a - b| measured
    from the nodes' index offsets: the exact field is 1-Lipschitz in z, and
    ``slack`` allows for rounding (``smin_slack`` gives it for smin fields
    and their pointwise minima).  ``slack`` is one allowance for every
    component or an (F,) array of them.

    Returns ``(masks, band)``: the masks, of shape (F, L, ny, nx), and the
    band field, of shape (F, ny, nx), which holds the values where the field
    was evaluated and NaN elsewhere.

    The field is evaluated on the lattice of every 2^k-th node (and the last
    row and column); then the stride is halved down to 1.  An evaluated
    value v of a component has margin ``min |v - level| - slack - w`` over
    the component's levels, w being the largest ``contour_extract`` nudge
    of all levels, or the component's entry of the (F,) array ``nudge``
    when given (at least the nudge of each of its levels).  A component of
    a new node at distance d from a node of the coarser lattice whose
    margin m for it exceeds d is decided without evaluation: its value lies
    on that node's side of each level, farther than w from it, and it
    passes on the margin m - d.  The values that no
    neighbour decides go to ``field`` in one call per stride.  A value that
    ties with a level is never decided by a neighbour, so every mask equals
    the full sweep bit for bit, and every value the nudge would move is in
    the band.
    """
    nodes = grid.nodes()
    comps = np.asarray(levels, dtype=np.float64)
    nudge = _nudge(float(np.abs(comps).max())) if nudge is None else nudge
    slack = np.broadcast_to(np.add(slack, nudge), comps.shape[:1])
    inside = np.zeros(comps.shape + nodes.shape, dtype=bool)
    band = np.full(comps.shape[:1] + nodes.shape, np.nan)
    margin = np.full(band.shape, -np.inf)

    def evaluate(iy, ix, want):
        cols = want.any(axis=0)
        if not cols.any():
            return
        iy, ix, want = iy[cols], ix[cols], want[:, cols]
        vals = np.asarray(field(nodes[iy, ix], want), dtype=np.float64)
        fs, js = np.nonzero(~np.isnan(vals))
        v, y, x = vals[fs, js], iy[js], ix[js]
        band[fs, y, x] = v
        inside[fs, :, y, x] = v[:, None] <= comps[fs]
        margin[fs, y, x] = (np.abs(v[:, None] - comps[fs]).min(axis=1)
                            - slack[fs])

    ny, nx = nodes.shape
    stride = 1 << max(0, (min(ny, nx) - 1).bit_length() - 3)
    ly, lx = _lattice(ny, stride), _lattice(nx, stride)
    iy, ix = (a.ravel() for a in np.meshgrid(ly, lx, indexing="ij"))
    evaluate(iy, ix, np.ones((len(comps), iy.size), dtype=bool))
    while stride > 1:
        stride //= 2
        fy, fx = _lattice(ny, stride), _lattice(nx, stride)
        iy, ix = (a.ravel() for a in np.meshgrid(fy, fx, indexing="ij"))
        new = ~(np.isin(iy, ly) & np.isin(ix, lx))
        iy, ix = iy[new], ix[new]
        # the best margin of each new value, and the flat index of the node
        # it comes from
        best = np.full((len(comps), iy.size), -np.inf)
        at = np.zeros(best.shape, dtype=np.intp)
        for cy in _around(ly, iy):
            for cx in _around(lx, ix):
                dist = np.hypot((iy - cy) * grid.dy, (ix - cx) * grid.dx)
                m = margin[:, cy, cx] - dist * _DIST_WIDEN
                better = m > best
                best = np.where(better, m, best)
                at = np.where(better, cy * nx + cx, at)
        # new nodes are still unknown: margin -inf, outside every level
        done = best > 0
        margin[:, iy, ix] = np.where(done, best, -np.inf)
        copied = inside.reshape(comps.shape + (-1,))[
            np.arange(len(comps))[:, None], :, at]
        inside[:, :, iy, ix] = np.swapaxes(copied, 1, 2) & done[:, None]
        evaluate(iy, ix, ~done)
        ly, lx = fy, fx
    return inside, band


def _corner_need(regions) -> np.ndarray:
    """The unknown corners of the regions' boundary cells, of the mask or
    of the mask ``contour_extract`` nudges: the only values it reads.
    ``regions`` lie on one grid and share one field (NaN where unknown),
    which must hold every value within the nudge of a level, as the bands
    of ``level_mask`` do."""
    need = np.zeros(regions[0].mask.shape, dtype=bool)
    for r in regions:
        need |= (_contour_corners(np.pad(r.mask, 1))
                 | _contour_corners(_contour_input(r)[0]))
    return need & np.isnan(regions[0].values)


def _bounds_tier(field: TermFields, levels, slacks, grid: GridSpec):
    """``field`` as ``level_mask`` calls it, with the pairs that certified
    bounds decide taken from them.

    A component qualifies when its term holds one distinct square matrix,
    or when every contribution of its term is square, has no embedding and
    a tight certificate: it is Hermitian bit for bit (``_smin_bounds`` then
    bounds the distance to its ``eigvalsh`` eigenvalues), has order 1, or is
    bidiagonal (``_bidiagonal_test``).  Each contribution gets the bounds
    ``lo <= f~ <= hi`` of ``_smin_bounds``, built once per distinct matrix,
    at its component's ``slacks`` entry, and the Sturm count of
    ``_bidiagonal_test`` at the nodes these leave.  A contribution is
    certified at or below the least level of its row of ``levels`` where hi
    is (with hi as its certified value) or where the count puts f~ below
    it (with that level), and certified above the greatest level where lo
    is (with lo) or the count puts f~ above it (with the next float above
    that level).

    The term, the least f~ over its contributions, is inside at every level
    where some contribution is certified at or below the least one; it
    takes the least such certified value, which lies in [f~, least level].
    Once a node is inside, its remaining contributions are not tested.  It
    is outside where every contribution is certified above the greatest
    level, and takes the least certified value, which lies in (greatest
    level, f~].  Either value lies on the side of each level that f~ does,
    no farther from it, so ``level_mask``'s margins still bound f~ at the
    neighbours; a one-matrix term keeps the value of its own test.  A
    decided value gives way to f~ where ``field`` returns f~ for another
    term of its group.  The other pairs, ties included, go to ``field``,
    and so do all pairs of the other terms, which keep ``TermFields``'s
    anchors: Johnson's bounds are too loose to decide a general term of
    several matrices.
    """
    radius = _radius(grid)
    low, high = levels.min(axis=1), levels.max(axis=1)
    bounds = {}
    tests = {}
    for i, idx in enumerate(field.members):
        certs = []
        for k in idx.tolist():
            E, embed = field.items[k]
            E = np.asarray(E)
            if embed is not None or E.ndim != 2 or E.shape[0] != E.shape[1]:
                break
            count = _bidiagonal_test(E, radius, float(low[i]),
                                     float(high[i]), slacks[i])
            if (idx.size > 1 and count is None and len(E) > 1
                    and not np.array_equal(E, E.conj().T)):
                break
            if k not in bounds:
                bounds[k] = _smin_bounds(E, radius)
            certs.append((bounds[k], count))
        else:
            tests[i] = certs

    def sweep(points, want):
        value = np.full(want.shape, np.nan)
        for i, certs in tests.items():
            value[i, want[i]] = _term_test(certs, points[want[i]], low[i],
                                           high[i], slacks[i])
        vals = field(points, want & np.isnan(value))
        return np.where(np.isnan(vals), value, vals)

    return sweep


def _term_test(certs, points, low, high, slack) -> np.ndarray:
    """The values ``_bounds_tier`` takes for one term at the points from its
    contributions' ``(bounds, count)`` certificates: the least certified
    value at most ``low`` where one exists, else the least certified value
    above ``high`` where every contribution has one, else NaN."""
    upper = np.full(points.size, np.nan)
    lower = np.full(points.size, np.inf)
    open_ = np.arange(points.size)
    for bound, count in certs:
        at = points[open_]
        lo, hi = bound(at, slack)
        up = np.where(hi <= low, hi, np.nan)
        down = np.where(lo > high, lo, np.nan)
        rest = np.flatnonzero(np.isnan(up) & np.isnan(down))
        if count is not None and rest.size:
            mark = count(at[rest])
            inside, outside = mark <= low, mark > high
            up[rest[inside]] = mark[inside]
            down[rest[outside]] = mark[outside]
        upper[open_] = up
        lower[open_] = np.minimum(lower[open_], down)
        open_ = open_[np.isnan(up)]
        if not open_.size:
            break
    return np.where(np.isnan(upper), lower, upper)


def certified_regions(groups, grid: GridSpec, jobs: int | None = None,
                      with_field: bool = True) -> list:
    """Combined sublevel sets of groups of terms, from one certified
    ``level_mask`` sweep of one ``TermFields`` over all their terms.

    ``groups`` is a list of ``(terms, levels)`` pairs: F terms as
    ``TermFields`` takes them, one component f_i each, and ``levels`` of
    shape (F, L).  Returns one region list per group, with one region per
    level column j: the intersection of the sets {f_i <= l_i}, l_i =
    ``levels[i, j]``.  Its mask is the intersection of the components'
    masks, the full sweep's bit for bit.  Its level is l_0 = max_i l_i and
    its field

        G = max_i (f_i - (l_i - l_0)),

    which is 1-Lipschitz and nonnegative, with {G <= l_0} the set; one term
    gives G = f_0.  The shifts l_i - l_0 come from column j alone, so G does
    not depend on the other columns.  Where rounding in G disagrees with
    the mask at a tie, the mask wins: ``contour_extract`` takes each cell's
    case from the mask.

    A (contribution, node) pair is evaluated at most once for all groups,
    and each group's regions equal those of a call with it alone, bit for
    bit: its margins use the ``smin_slack`` of its own matrices and the
    contour nudge of its own levels, its terms take values from its own
    needs only (``TermFields``), and its last level column is repeated to
    the widest group's, which changes no margin.  ``jobs`` passes on to the
    kernel.

    With ``with_field`` the sweep evaluates every component of a group
    wherever it evaluates one, and the region carries G where the band
    knows it (NaN elsewhere), completed at the corners ``_corner_need``
    names, in one evaluation for all groups.  A value of G within
    the contour nudge of l_0 is one of a component near its level, so the
    band holds it.  Without ``with_field`` the regions are mask-only, and
    the components whose term holds one distinct square matrix, or only
    square matrices that are Hermitian, bidiagonal or of order 1, take the
    nodes that certified bounds and bidiagonal Sturm counts decide from
    them, with no SVD (``_bounds_tier``).
    """
    groups = [(terms, np.asarray(lv, dtype=np.float64))
              for terms, lv in groups]
    sizes = [len(terms) for terms, _ in groups]
    starts = np.cumsum([0] + sizes[:-1])
    width = max(lv.shape[1] for _, lv in groups)
    comps = np.concatenate([np.pad(lv, ((0, 0), (0, width - lv.shape[1])),
                                   "edge") for _, lv in groups])
    slacks = [smin_slack([mat for contribs in terms for _, mat, _ in contribs],
                         grid) for terms, _ in groups]
    # only the corner fill asks for a pair again
    field = TermFields([term for terms, _ in groups for term in terms],
                       max(slacks), jobs, sizes, memo=with_field)
    if with_field:
        sweep = lambda points, want: field(points, np.repeat(
            np.logical_or.reduceat(want, starts), sizes, axis=0))
    else:
        sweep = _bounds_tier(field, comps, np.repeat(slacks, sizes), grid)
    masks, band = level_mask(
        sweep, grid, comps, np.repeat(slacks, sizes),
        np.repeat([_nudge(float(np.abs(lv).max())) for _, lv in groups],
                  sizes))
    out = []
    for (terms, lv), a in zip(groups, starts):
        top = lv.max(axis=0)
        out.append([Region(grid, masks[a:a + len(terms), j].all(axis=0),
                           None, float(top[j])) for j in range(lv.shape[1])])
    if not with_field:
        return out

    # the corners each group's fields need, columns of equal shifts sharing
    # one field; each field keeps the corners of the fields before it.  The
    # nudged masks read only values near a level, which the sweep's band
    # holds, so every need is known before one evaluation serves them all
    want = np.zeros(band.shape, dtype=bool)
    fills = []
    for (terms, lv), a, regions in zip(groups, starts, out):
        rows = slice(a, a + len(terms))
        known = seen = ~np.isnan(band[a])
        shifts = lv - lv.max(axis=0)
        columns: dict[bytes, list[int]] = {}
        for j, shift in enumerate(shifts.T):
            columns.setdefault(shift.tobytes(), []).append(j)
        for cols in columns.values():
            shift = shifts[:, cols[0], None, None]
            g = (band[rows] - shift).max(axis=0)
            seen = seen | _corner_need([Region(grid, regions[j].mask, g,
                                               regions[j].level)
                                        for j in cols])
            fills.append((regions, rows, shift, cols, seen))
        want[rows] = seen & ~known
    new = want.any(axis=0)
    if new.any():
        band[:, new] = np.where(want[:, new], field(grid.nodes()[new],
                                                    want[:, new]), band[:, new])
    for regions, rows, shift, cols, keep in fills:
        g = np.where(keep, (band[rows] - shift).max(axis=0), np.nan)
        for j in cols:
            regions[j] = Region(grid, regions[j].mask, g, regions[j].level)
    return out


def region_from_points(grid: GridSpec, points) -> Region:
    """Rasterize a point set: mark the node nearest to each point."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    ix = np.clip(np.rint((pts.real - grid.re_min) / grid.dx), 0, grid.nx - 1)
    iy = np.clip(np.rint((pts.imag - grid.im_min) / grid.dy), 0, grid.ny - 1)
    mask[iy.astype(int), ix.astype(int)] = True
    return Region(grid, mask)


def region_points(region: Region) -> np.ndarray:
    """Complex coordinates of the masked nodes."""
    iy, ix = np.nonzero(region.mask)
    return region.grid.xs[ix] + 1j * region.grid.ys[iy]


def _nearest_sq(mask: np.ndarray, grid: GridSpec, px: np.ndarray,
                py: np.ndarray, reach: float = math.inf,
                farthest: bool = False) -> np.ndarray:
    """Least ``dx*dx + dy*dy`` from each point (px, py) to a masked node,
    ``dx`` and ``dy`` being the differences of the stored coordinates
    (``grid.xs``, ``grid.ys``): the squared distance that scipy's k-d tree
    (``cKDTree``) computes, bit for bit.

    In each column the nearest node to a point is the masked node just below
    or just above it, as the stored coordinates are monotone; one table of
    those rows per grid row, O(grid nodes) memory, gives it in a lookup.  The
    masked columns are searched outward from each point, and a side stops at
    the first column whose squared gap alone exceeds the least value so far,
    or whose gap exceeds ``reach``: no node there or beyond can be nearer.
    So the value is exact wherever its square root is within ``reach``, and
    larger than ``reach**2`` elsewhere.

    The points are searched in batches of ``_QUERY_CHUNK``.  With
    ``farthest`` only the largest value is needed: a point then also leaves
    the search once its least value so far is no larger than a value known
    exact (first found for a sample of about sqrt(len(px)) points), so its
    entry is an upper bound below the maximum, which stays exact.
    """
    ny = mask.shape[0]
    cols = np.flatnonzero(mask.any(axis=0))
    cx = grid.xs[cols]
    rows = np.arange(ny)[:, None]
    marked = mask[:, cols]
    # the masked row at or below, and at or above, each row of each masked
    # column.  Rows -1 and ny stand for "none": both read the inf appended
    # to ``ys``.  The extra last row of each table is read for points below
    # the first grid row (index -1 of ``below``) or above the last one
    # (index ny of ``above``)
    below = np.full((ny + 1, cols.size), -1)
    np.maximum.accumulate(np.where(marked, rows, -1), axis=0, out=below[:-1])
    above = np.full((ny + 1, cols.size), ny)
    above[-2::-1] = np.minimum.accumulate(np.where(marked, rows, ny)[::-1],
                                          axis=0)
    ys = np.append(grid.ys, np.inf)
    best = np.full(px.shape, np.inf)

    def search(idx, floor):
        """Fill ``best`` at the points ``idx``; returns the largest exact
        value found, or ``floor`` if larger."""
        x, y = px[idx], py[idx]
        row = np.searchsorted(grid.ys, y, "right")
        hi = np.searchsorted(cx, x, "left")
        lo = hi - 1
        near = np.full(x.shape, np.inf)
        todo = np.arange(x.size)
        while todo.size:
            xt, yt, rt = x[todo], y[todo], row[todo]
            alive = np.zeros(todo.size, dtype=bool)
            for side, step in ((hi, 1), (lo, -1)):
                c = side[todo]
                ok = (c >= 0) & (c < cols.size)
                k = np.where(ok, c, 0)
                gap = cx[k] - xt
                gap *= gap
                ok &= (gap <= near[todo]) & (np.sqrt(gap) <= reach)
                j, k, gap, rk, yk = todo[ok], k[ok], gap[ok], rt[ok], yt[ok]
                yb = ys[below[rk - 1, k]] - yk
                ya = ys[above[rk, k]] - yk
                near[j] = np.minimum(near[j], gap + np.minimum(yb * yb,
                                                               ya * ya))
                side[j] += step
                alive |= ok
            if farthest and not alive.all():
                floor = max(floor, near[todo[~alive]].max())
            todo = todo[alive]
            if farthest:
                todo = todo[near[todo] > floor]
        best[idx] = near
        return floor

    floor = (search(np.arange(0, px.size, math.isqrt(px.size)), -math.inf)
             if farthest else 0.0)
    for start in range(0, px.size, _QUERY_CHUNK):
        floor = search(slice(start, start + _QUERY_CHUNK), floor)
    return best


def covers_points(region: Region, points, cells: float = 1.0) -> np.ndarray:
    """True per point when a masked node lies within ``cells`` cell diagonals.

    Exact: the distances are those a k-d tree of the masked nodes returns,
    bit for bit.  They come from column searches that stop ``cells`` cell
    diagonals from each point, so the cost grows with the masked columns
    within that reach, and the memory is O(grid nodes).  Points must be
    finite (``DomainError``).
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if not np.isfinite(pts).all():
        raise DomainError("covers_points needs finite points")
    if region.is_empty:
        return np.zeros(pts.shape, dtype=bool)
    reach = cells * region.grid.cell_diag * (1 + 1e-12)
    return np.sqrt(_nearest_sq(region.mask, region.grid, pts.real, pts.imag,
                               reach)) <= reach


def hausdorff(a: Region, b: Region) -> float:
    """Hausdorff distance between the masked node sets.

    Node centers only; the discretization uncertainty is one cell diagonal
    (``a.grid.cell_diag``), which callers should report alongside.

    Exact: the value a k-d tree of the nodes gives, bit for bit.  Only the
    nodes of one set outside the other are queried, each by a column search
    that stops once no nearer node, or no farther distance, can remain
    (``_nearest_sq``).  No distance matrix is formed, so the memory is
    O(grid nodes).  The cost grows with the masked columns within each
    query's nearest distance.  On 2 vCPU it is about 0.7 ms per call on
    64 x 64 study masks, and under 0.1 s at 512 x 512 for two random
    half-full masks, two far-apart discs or a disc around a thin ring.
    """
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    if a.is_empty or b.is_empty:
        raise EmptyRegionError("hausdorff needs two nonempty regions")
    grid = a.grid
    worst = 0.0
    for p, q in ((a.mask, b.mask), (b.mask, a.mask)):
        iy, ix = np.nonzero(p & ~q)
        if iy.size:
            worst = max(worst, float(_nearest_sq(
                q, grid, grid.xs[ix], grid.ys[iy], farthest=True).max()))
    return math.sqrt(worst)


def eig(E) -> np.ndarray:
    """All eigenvalues of a square matrix (reference eigensolver)."""
    E = np.asarray(E, dtype=np.complex128)
    if E.ndim != 2 or E.shape[0] != E.shape[1] or E.size == 0:
        raise DomainError(f"eig needs a nonempty square matrix, got {E.shape}")
    return np.linalg.eigvals(E)


def default_grid(A, pad: float = 0.0, nx: int = 256, ny: int = 256) -> GridSpec:
    """Bounding box from the classical Gershgorin discs, inflated by ``pad``
    plus two grid cells, so the target sets stay interior to the grid.

    The square box keeps the larger extent as it is, down to a floor, so a
    matrix and pad scaled by a power of two get the box scaled by it; a box
    of one point gets the width ``1e-6 * max(1, |point|)``.  The floor gives
    each cell at least ``_GRID_ULPS`` units in the last place of the
    centre's largest coordinate, so that the nodes stay distinct and evenly
    spaced, and twice ``GridSpec``'s least spacing."""
    if nx < 2 or ny < 2:
        raise DomainError("grid needs at least 2 nodes per axis")
    A = np.asarray(A, dtype=np.complex128)
    d = np.diag(A)
    radii = np.abs(A).sum(axis=1) - np.abs(d)
    re_lo = float((d.real - radii).min()) - pad
    re_hi = float((d.real + radii).max()) + pad
    im_lo = float((d.imag - radii).min()) - pad
    im_hi = float((d.imag + radii).max()) + pad
    span = max(re_hi - re_lo, im_hi - im_lo)
    re_mid, im_mid = (re_lo + re_hi) / 2, (im_lo + im_hi) / 2
    if span == 0:
        span = 1e-6 * max(1.0, abs(complex(re_mid, im_mid)))
    ulp = math.ulp(max(abs(re_mid), abs(im_mid)))
    span = max(span, (max(nx, ny) - 1) * max(_GRID_ULPS * ulp,
                                             2.0 * _MIN_SPACING))
    re_lo, re_hi = re_mid - span / 2, re_mid + span / 2
    im_lo, im_hi = im_mid - span / 2, im_mid + span / 2
    cell = span / (min(nx, ny) - 1)
    return GridSpec(re_lo - 2 * cell, re_hi + 2 * cell,
                    im_lo - 2 * cell, im_hi + 2 * cell, nx, ny)


# ---------------------------------------------------------------------------
# contour extraction (marching squares)
# ---------------------------------------------------------------------------

def contour_extract(region: Region) -> list[np.ndarray]:
    """Closed boundary polylines of the mask.

    Runs marching squares on the region's field at its level when it has
    both (sub-cell accurate): every region of ``certified_regions`` with a
    field, intersections of several terms included.  The regions that are
    masks alone (Gershgorin discs, block Gershgorin, ``method_mask``,
    ``region_from_points``) are contoured from the 0/1 mask.  The case of
    each cell comes from the mask, and the field is read only at the
    corners of boundary cells, so a band field completed by
    ``certified_regions`` gives the contours of the full field.  The grid
    is padded with one ring of outside nodes so every contour closes.
    Returns a list of (k, 2) float arrays of (re, im) vertices; first
    vertex == last.
    """
    if region.is_empty:
        raise EmptyRegionError("no contours in an empty region")
    inside, f, level = _contour_input(region)
    g = region.grid
    xs = np.concatenate([[g.xs[0] - g.dx], g.xs, [g.xs[-1] + g.dx]])
    ys = np.concatenate([[g.ys[0] - g.dy], g.ys, [g.ys[-1] + g.dy]])
    return _chain_segments(_marching_squares(inside, f, xs, ys, level))


def _contour_input(region: Region):
    """Inside mask, field and level that marching squares runs on; mask and
    field are padded with a ring of outside nodes (field NaN there)."""
    if region.values is not None and region.level is not None:
        level = float(region.level)
        # nudge near-level nodes inside so no contour vertex sits on a grid
        # node (on-node vertices are shared by four cells and break loop
        # chaining)
        bump = _nudge(level)
        near = np.abs(region.values - level) < bump
        inside = region.mask | near
        field = np.where(near, level - bump, region.values)
    else:
        level = 0.5
        inside = region.mask
        field = np.where(inside, 0.0, 1.0)
    return np.pad(inside, 1), np.pad(field, 1, constant_values=np.nan), level


def _cell_codes(inside: np.ndarray) -> np.ndarray:
    """4-bit case code of every cell (corner a=1, b=2, c=4, d=8 inside)."""
    return (inside[:-1, :-1] * 1 + inside[:-1, 1:] * 2
            + inside[1:, 1:] * 4 + inside[1:, :-1] * 8)


def _contour_corners(inside: np.ndarray) -> np.ndarray:
    """Grid nodes at a corner of a boundary cell of a padded inside mask."""
    case = _cell_codes(inside)
    mixed = (case != 0) & (case != 15)
    corners = np.zeros(inside.shape, dtype=bool)
    for dy, dx in zip(_DY, _DX):
        corners[dy:dy + mixed.shape[0], dx:dx + mixed.shape[1]] |= mixed
    return corners[1:-1, 1:-1]


# (row, column) offsets of the cell corners a, b, c, d; edge e runs from
# corner _FROM[e] to corner _TO[e]
_DY, _DX = np.array([[0, 0], [0, 1], [1, 1], [1, 0]]).T
_B, _R, _T, _L = range(4)
_FROM, _TO = np.array([[0, 1], [1, 2], [3, 2], [0, 3]]).T
_NONE = (-1, -1)
# edge pairs by case code (a=1, b=2, c=4, d=8), padded with -1; the saddles 5
# and 10 list their pairs for a centre outside the set, and a centre inside
# takes the pairs of the complementary code
_CASE_PAIRS = np.array([
    [_NONE, _NONE], [(_L, _B), _NONE], [(_B, _R), _NONE], [(_L, _R), _NONE],
    [(_R, _T), _NONE], [(_B, _L), (_R, _T)], [(_B, _T), _NONE],
    [(_L, _T), _NONE], [(_T, _L), _NONE], [(_B, _T), _NONE],
    [(_B, _R), (_T, _L)], [(_R, _T), _NONE], [(_R, _L), _NONE],
    [(_B, _R), _NONE], [(_L, _B), _NONE], [_NONE, _NONE],
])


def _marching_squares(inside, f, xs, ys, level) -> np.ndarray:
    """Boundary segments as a (k, 2, 2) array of (re, im) end points, cell
    by cell in row-major order."""
    case = _cell_codes(inside)
    iy, ix = np.nonzero((case != 0) & (case != 15))
    rows, cols = iy[:, None] + _DY, ix[:, None] + _DX
    v = f[rows, cols]
    # the padding ring is outside, above every value of the boundary cells
    ring = ((rows == 0) | (cols == 0) | (rows == f.shape[0] - 1)
            | (cols == f.shape[1] - 1))
    v = np.where(ring, np.max(v[~ring]) + abs(level) + 1.0, v)
    if np.isnan(v).any():
        raise DomainError("the field is unknown at a corner of a boundary "
                          "cell; complete it with certified_regions")
    corners = np.stack([xs[cols], ys[rows]], axis=2)
    vp, vq = v[:, _FROM], v[:, _TO]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.where(vq == vp, 0.5, (level - vp) / (vq - vp)), 0.0, 1.0)
    p, q = corners[:, _FROM], corners[:, _TO]
    points = p + t[:, :, None] * (q - p)
    code = case[iy, ix]
    centre_in = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) / 4.0 <= level
    code = np.where(((code == 5) | (code == 10)) & centre_in, 15 - code, code)
    pairs = _CASE_PAIRS[code].reshape(-1, 2)
    cell = np.repeat(np.arange(len(code)), 2)
    keep = pairs[:, 0] >= 0
    return points[cell[keep, None], pairs[keep]]


def _chain_segments(segs: np.ndarray) -> list[np.ndarray]:
    if not len(segs):
        return []
    # vertices meet where their coordinates agree to 9 digits of the scale
    keys = [(tuple(p), tuple(q)) for p, q in
            np.round(segs / (np.abs(segs).max() + 1.0), 9).tolist()]
    live = [i for i, (kp, kq) in enumerate(keys) if kp != kq]
    adj: dict[tuple, list[int]] = {}
    for i in live:
        for k in keys[i]:
            adj.setdefault(k, []).append(i)

    used = [False] * len(segs)
    loops = []
    for start in live:
        if used[start]:
            continue
        used[start] = True
        loop = [segs[start, 0], segs[start, 1]]
        first, cur = keys[start]
        while cur != first:
            nxt = next((i for i in adj[cur] if not used[i]), None)
            if nxt is None:
                loop.append(loop[0])
                break
            used[nxt] = True
            end = 1 if keys[nxt][0] == cur else 0
            cur = keys[nxt][end]
            loop.append(segs[nxt, end])
        loops.append(np.array(loop, dtype=np.float64))
    return loops


# ---------------------------------------------------------------------------
# region export
# ---------------------------------------------------------------------------

def region_to_csv(region: Region, path) -> None:
    """Node table ``re,im,smin,mask``; the smin column is empty where the
    field is unknown (everywhere for a region without one).

    Written one grid row at a time, each line from the column's
    ``repr(x)``, the row's ``repr(y)``, ``repr`` of the node's value where
    it is known and the mask's 0 or 1.
    """
    heads = [repr(x) + "," for x in region.grid.xs.tolist()]
    tails = np.array([",0\n", ",1\n"], dtype=object)
    values = region.values
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re,im,smin,mask\n")
        for iy, y in enumerate(region.grid.ys.tolist()):
            cells = tails[region.mask[iy].view(np.int8)]
            if values is not None:
                known = np.flatnonzero(~np.isnan(values[iy]))
                for ix, v in zip(known.tolist(), values[iy, known].tolist()):
                    cells[ix] = repr(v) + cells[ix]
            y = repr(y) + ","
            fh.write("".join([f"{h}{y}{c}"
                              for h, c in zip(heads, cells.tolist())]))


def _mask_rle(mask: np.ndarray) -> list[int]:
    """Run lengths of the flattened mask, starting with a (maybe empty)
    run of False."""
    flat = mask.ravel()
    starts = np.flatnonzero(np.diff(flat, prepend=False))
    return np.diff(starts, prepend=0, append=flat.size).tolist()


def _mask_from_rle(runs, shape) -> np.ndarray:
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(shape)


def region_doc(region: Region) -> dict:
    """JSON-ready grid metadata and RLE mask of a region (no smin field)."""
    g = region.grid
    return {
        "grid": {
            "re_min": g.re_min, "re_max": g.re_max,
            "im_min": g.im_min, "im_max": g.im_max,
            "nx": g.nx, "ny": g.ny,
        },
        "mask_rle": _mask_rle(region.mask),
    }


def region_from_doc(doc: dict) -> Region:
    """Inverse of ``region_doc``: a region from a document's grid and mask."""
    g = doc["grid"]
    grid = GridSpec(g["re_min"], g["re_max"], g["im_min"], g["im_max"],
                    g["nx"], g["ny"])
    mask = _mask_from_rle(doc["mask_rle"], (grid.ny, grid.nx))
    return Region(grid, mask)
