"""Shared oracle helpers for the test suite.

The eta batch evaluator re-implements the weight functionals independently
of the library so the two can cross-check each other.  The ``reference_*``
truncations assemble each submatrix block by block, with virtual zero
blocks outside the partition; the library takes them as slices of one
bordered B, and tests compare the two byte for byte.  The ``reference_*``
writers format the region CSV and the SVG figure node by node and point by
point; the library's writers work a grid row or a contour loop at a time,
and tests compare their output byte for byte.  ``reference_pseudospectrum``
and ``reference_gershgorin_block`` sweep every grid node, and
``reference_block_radii`` sums the norms of every off-diagonal block; the
library sweeps certified and sums the nonzero blocks only, and tests
compare the masks bit for bit.  ``reference_term_fields`` evaluates every
contribution of a term wherever the term is needed; the library skips the
contributions that cannot be a term's minimum, and tests compare the masks,
band fields and CSV bytes bit for bit.  ``exhaustive_bounded`` stands in
for ``TermFields.bounded`` the same way, so that tests can count the pairs
of the full pass.  ``reference_nearest_distance`` queries a scipy k-d tree
of every masked node; the library's ``hausdorff`` and ``covers_points``
search grid columns in numpy, and tests compare the results bit for bit.
``optimal_weights``, ``smin_shifted`` and ``write_matrix_market`` are
oracles and fixtures that no product path calls: the minimizing weight
profiles (scipy for tau with unequal norms), one shifted smallest singular
value, and a Matrix Market writer (``scipy.io.mmwrite``).
"""

import math
import time
from collections import Counter
from functools import reduce
from itertools import product, repeat

import numpy as np

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.corpus import _LEVEL_SLACK, VerifyRecord
from specincl.errors import DegenerateError, DomainError, PiMethodUnsupported
from specincl.matrixcore import make_view
from specincl.penalty import eta, solve_theta
from specincl.pseudospec import Region, contour_extract
from specincl.viz import _H, _MARGIN, _W


def eta_batch(W, r_L, r_U, variant):
    """Vectorized eta over rows of W (independent re-implementation)."""
    n = W.shape[1]
    S = np.sum(W * W, axis=1)
    padded = np.zeros((W.shape[0], n + 2))
    padded[:, 1:n + 1] = W
    tm = np.sum((padded[:, 0:n] - padded[:, 1:n + 1]) ** 2, axis=1)
    tp = np.sum((padded[:, 2:n + 2] - padded[:, 1:n + 1]) ** 2, axis=1)
    diffs = np.sum((W[:, 1:] - W[:, :-1]) ** 2, axis=1)
    tper = (W[:, 0] + W[:, -1]) ** 2 + diffs
    tt = W[:, 0] ** 2 + W[:, -1] ** 2 + diffs
    if variant == "tau":
        return r_L * np.sqrt(tm / S) + r_U * np.sqrt(tp / S)
    if variant == "pi":
        return (r_L + r_U) * np.sqrt(tper / S)
    return (r_L + r_U) * np.sqrt(tt / S)


def sampled_minimum(n, r_L, r_U, variant, samples=10_000, seed=0):
    """Minimum of eta over random unit weights plus the analytic candidates."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((samples, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    cands = [optimal_weights(n, v, r_L, r_U) for v in ("pi", "tau1", "tau")]
    W = np.vstack([W] + [c / np.linalg.norm(c) for c in cands])
    return float(np.min(eta_batch(W, r_L, r_U, variant)))


def optimal_weights(n: int, variant: str, r_L: float = 1.0,
                    r_U: float = 1.0) -> np.ndarray:
    """Minimizer profiles of the eta functionals.

    'pi' and 'tau1' have exact sine-profile minimizers.  For 'tau' the
    stationarity conditions force an interior sinusoid with boundary-mixed
    phase: with one off-diagonal absent the profile is the one-sided cosine
    chain eigenvector (exact), with balanced off-diagonals the cosine
    centered on the window (exact), and otherwise the phase and frequency of
    ``sin(j t + phi)`` are tuned numerically, which lands at or below the
    ``2 r sin(theta_n / 2)`` bound.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    j = np.arange(1, n + 1, dtype=np.float64)
    if variant == "pi":
        return np.sin((2 * j - 1) * math.pi / (2 * n))
    if variant == "tau1":
        return np.sin(j * math.pi / (n + 1))
    if variant == "tau":
        if r_U == 0.0 and r_L == 0.0:
            raise DegenerateError("tau weights undefined when r = 0")
        if r_L == 0.0 or r_U == 0.0:
            w = np.cos((j - 0.5) * math.pi / (2 * n + 1))
            return w[::-1].copy() if r_U == 0.0 else w
        theta = solve_theta(n, r_L, r_U)
        if r_L == r_U or n == 1:
            return np.cos((j - (n + 1) / 2) * theta)
        return _tuned_tau_weights(n, r_L, r_U, theta)
    raise DomainError(f"unknown eta variant {variant!r}")


def _tuned_tau_weights(n: int, r_L: float, r_U: float,
                       theta: float) -> np.ndarray:
    from scipy.optimize import minimize

    j = np.arange(1, n + 1, dtype=np.float64)

    def objective(x):
        w = np.sin(j * x[0] + x[1])
        if not np.any(w):
            return np.inf
        return eta(w, r_L, r_U, "tau")

    best_val, best_x = np.inf, None
    for t0 in (theta, 0.75 * theta, 1.25 * theta):
        for p0 in (0.0, (math.pi - (n + 1) * theta) / 2, 1.2):
            res = minimize(objective, [t0, p0], method="Nelder-Mead",
                           options={"xatol": 1e-13, "fatol": 1e-15,
                                    "maxiter": 4000})
            if res.fun < best_val:
                best_val, best_x = res.fun, res.x
    return np.sin(j * best_x[0] + best_x[1])


def smin_shifted(E, lam: complex, embed=None) -> float:
    """``smin(E - lam*I)``, or ``smin(E - lam*I_plus)`` for rectangular E."""
    E = np.asarray(E, dtype=np.complex128)
    if embed is None:
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise DomainError(
                f"square matrix required without an embedding, got {E.shape}"
            )
        shifted = E - lam * np.eye(E.shape[0])
    else:
        embed = np.asarray(embed, dtype=np.complex128)
        if embed.shape != E.shape:
            raise DomainError(
                f"embedding shape {embed.shape} does not match matrix {E.shape}"
            )
        shifted = E - lam * embed
    return ps.smin(shifted)


def write_matrix_market(path, A) -> None:
    from scipy.io import mmwrite

    mmwrite(str(path), np.asarray(A, dtype=np.complex128))


def masks_agree_off_boundary(region, analytic_dist, level, slack):
    """Masks may disagree only within slack of the analytic threshold."""
    analytic = analytic_dist <= level
    disagree = region.mask ^ analytic
    return not np.any(disagree & (np.abs(analytic_dist - level) > slack))


def full_sweep_mask(view, method, n, eps, grid, t=None):
    """Reference mask of a family method from every grid node: each term's
    ``reference_term_fields`` value against its level, intersected over the
    terms."""
    nodes = grid.nodes()
    lvls = inc.levels(inc.penalty_params(view, n), method, eps)
    fields = reference_term_fields(inc.family(view, method, n, t), nodes)
    mask = np.all(fields <= np.array(lvls)[:, None], axis=0)
    return mask.reshape(nodes.shape)


def reference_pseudospectrum(E, eps, grid, embed=None, jobs=None):
    """Closed eps-pseudospectrum from a sweep of every node, carrying the
    full smin field."""
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    vals = ps.smin_grid(E, grid.nodes(), embed=embed, jobs=jobs)
    return Region(grid, vals <= eps, vals, float(eps))


def assert_band_of(region, oracle):
    """A certified region has the oracle's mask and level, and its band
    field is the oracle's full field, bit for bit, wherever it is known."""
    assert np.array_equal(region.mask, oracle.mask)
    assert region.level == oracle.level
    known = ~np.isnan(region.values)
    assert np.array_equal(region.values[known], oracle.values[known])


def reference_block_radii(view):
    """r_k of every block row: the spectral norms of all its off-diagonal
    blocks, summed in column order."""
    N = view.block_count
    return [sum(np.linalg.norm(view.block(i, j), 2)
                for j in range(N) if j != i) for i in range(N)]


def reference_gershgorin_block(view, grid):
    """Block Gershgorin mask from a full sweep of every diagonal block."""
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    for i, radius in enumerate(reference_block_radii(view)):
        mask |= ps.smin_grid(view.block(i, i), grid.nodes()) <= radius
    return mask


def per_n_verify_containment(items, eps_values=(0.0, 0.1),
                              t_values=(1, -1, 1j),
                              penalty_scale: float = 1.0,
                              max_n: int | None = None,
                              rng_seed: int = 7) -> list[VerifyRecord]:
    """Reference containment records: the verifier evaluating each
    (matrix, n) on its own, each family's terms in one
    ``reference_term_fields`` call, the levels computed per (n, eps) and one
    full-matrix sweep per sandwich record."""
    rng = np.random.default_rng(rng_seed)
    records = []
    for item in items:
        view = make_view(item.matrix, item.partition)
        lams = ps.eig(item.matrix)
        plan = [("tau", None)]
        if view.partition.uniform:
            plan += [("pi", t) for t in t_values]
        plan.append(("tau1", None))
        N = view.block_count
        for n in range(1, N if max_n is None else min(N, max_n + 1)):
            p = inc.penalty_params(view, n)
            families = [inc.family(view, m, n, t) for m, t in plan]
            fields = [reference_term_fields(fam, lams) for fam in families]
            for eps in eps_values:
                for (m, t), f in zip(plan, fields):
                    lvls = inc.levels(p, m, eps, penalty_scale)
                    contained = all(bool(np.all(v <= lvl + _LEVEL_SLACK))
                                    for v, lvl in zip(f, lvls))
                    records.append(VerifyRecord(
                        item.name, m, n, None if t is None else complex(t),
                        eps, contained, float(lvls[0] - f[0].max())))
                records.extend(_per_n_check_sandwich(
                    item, view, n, eps, p, lams, families[-1][0],
                    fields[-1][0], penalty_scale, rng))
    return records


def _per_n_check_sandwich(item, view, n, eps, p, lams, terms, field, scale,
                          rng):
    """Sandwich record of the rectangular method: the eigenvalues and random
    probes inside its inclusion set must lie in the outer pseudospectrum."""
    level = inc.levels(p, "tau1", eps, scale)[0]
    probes = lams[field <= level + _LEVEL_SLACK]
    if not probes.size:
        return []
    box = np.abs(item.matrix).sum(axis=1).max() + eps
    extra = rng.uniform(-box, box, 8) + 1j * rng.uniform(-box, box, 8)
    inner = reference_term_fields([terms], extra)[0]
    probes = np.concatenate([probes, extra[inner <= level + _LEVEL_SLACK]])
    outer_level = inc.tau1_outer_level(p, eps, scale)
    outer_vals = ps.smin_grid(view.matrix, probes)
    ok = bool(np.all(outer_vals <= outer_level + _LEVEL_SLACK))
    return [VerifyRecord(item.name, "tau1-sandwich", n, None, eps, ok,
                         float(outer_level - outer_vals.max()))]


# ---------------------------------------------------------------------------
# block-by-block truncations
# ---------------------------------------------------------------------------

def reference_block(view, i, j):
    """Block ``a_ij`` (0-based); zero matrix for indices outside 0..N-1.

    Out-of-range indices follow the convention that the bi-infinite
    extension of the matrix is padded with zeros, which is what the
    periodised and rectangular truncations rely on at the edges.
    """
    n = view.block_count
    o = view.offsets
    if 0 <= i < n and 0 <= j < n:
        return view.matrix[o[i]:o[i + 1], o[j]:o[j + 1]]
    # the virtual zero blocks just outside the partition have one row
    # (column), the border height the one-sided truncation uses there
    ri = view.partition.sizes[i] if 0 <= i < n else 1
    rj = view.partition.sizes[j] if 0 <= j < n else 1
    return np.zeros((ri, rj), dtype=np.complex128)


def reference_tridiagonal(view):
    """Block-tridiagonal part ``B``: the blocks with ``|i - j| <= 1``."""
    sizes = view.partition.sizes
    blk = np.repeat(np.arange(len(sizes)), sizes)
    band = np.abs(blk[:, None] - blk[None, :]) <= 1
    return np.where(band, view.matrix, 0.0)


def _check_nk(view, n, k):
    N = view.block_count
    if not (1 <= n <= N):
        raise IndexError(f"n must be in 1..{N}, got {n}")
    if not (0 <= k <= N - n):
        raise IndexError(f"k must be in 0..{N - n} for n={n}, got {k}")


def reference_submatrix_tau(view, n, k):
    _check_nk(view, n, k)
    s = view.slice_range(k, n)
    return reference_tridiagonal(view)[s, s].copy()


def reference_submatrix_pi(view, n, k, t):
    if not view.partition.uniform:
        raise PiMethodUnsupported(
            "periodised truncations need a uniform partition"
        )
    t = complex(t)
    if not abs(abs(t) - 1.0) <= 1e-12:
        raise DomainError(f"|t| must be 1, got |t|={abs(t)}")
    t = t / abs(t)
    _check_nk(view, n, k)
    sub = reference_submatrix_tau(view, n, k)
    m = view.partition.sizes[0]
    lower = reference_block(view, k + n, k + n - 1)
    upper = reference_block(view, k - 1, k)
    if lower.shape != (m, m):
        lower = np.zeros((m, m), dtype=np.complex128)
    if upper.shape != (m, m):
        upper = np.zeros((m, m), dtype=np.complex128)
    sub[0:m, (n - 1) * m:n * m] += t * lower
    sub[(n - 1) * m:n * m, 0:m] += np.conj(t) * upper
    return sub


def reference_submatrix_tau1(view, n, k):
    _check_nk(view, n, k)
    mid = reference_submatrix_tau(view, n, k)
    width = mid.shape[1]
    o = [x - view.offsets[k] for x in view.offsets[k:k + n + 1]]
    top_block = reference_block(view, k - 1, k)
    bot_block = reference_block(view, k + n, k + n - 1)
    top = np.zeros((top_block.shape[0], width), dtype=np.complex128)
    top[:, o[0]:o[1]] = top_block
    bot = np.zeros((bot_block.shape[0], width), dtype=np.complex128)
    bot[:, o[n - 1]:o[n]] = bot_block
    return np.vstack([top, mid, bot])


def reference_embedding_selector(n, k, view):
    _check_nk(view, n, k)
    width = view.offsets[k + n] - view.offsets[k]
    top_h = reference_block(view, k - 1, k).shape[0]
    bot_h = reference_block(view, k + n, k + n - 1).shape[0]
    out = np.zeros((top_h + width + bot_h, width), dtype=np.complex128)
    out[top_h:top_h + width, :] = np.eye(width)
    return out


# ---------------------------------------------------------------------------
# node-by-node writers
# ---------------------------------------------------------------------------

def reference_region_to_csv(region: Region, path) -> None:
    """Node table ``re,im,smin,mask``; the smin column is empty where the
    field is unknown (everywhere for a region without one)."""
    xs = [repr(x) for x in region.grid.xs.tolist()]
    ys = [repr(y) for y in region.grid.ys.tolist()]
    vals = (repeat("") if region.values is None
            else ["" if v != v else repr(v)
                  for v in region.values.ravel().tolist()])
    rows = map("{0[1]},{0[0]},{1},{2:d}\n".format,
               product(ys, xs), vals, map(int, region.mask.flat))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re,im,smin,mask\n")
        fh.writelines(rows)


def reference_mapper(grid):
    sx = (_W - 2 * _MARGIN) / (grid.re_max - grid.re_min)
    sy = (_H - 2 * _MARGIN) / (grid.im_max - grid.im_min)

    def to_px(x, y):
        return (_MARGIN + (x - grid.re_min) * sx,
                _H - _MARGIN - (y - grid.im_min) * sy)

    return to_px


def reference_path(loops, to_px) -> str:
    parts = []
    for loop in loops:
        pts = [to_px(x, y) for x, y in loop]
        parts.append("M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pts) + " Z")
    return " ".join(parts)


def reference_render_svg(region: Region, eigenvalues=None, title: str = "",
                         timestamp: bool = True) -> str:
    """SVG document for one region; eigenvalue markers optional."""
    grid = region.grid
    to_px = reference_mapper(grid)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if timestamp:
        out.append(f"<!-- generated {time.strftime('%Y-%m-%dT%H:%M:%S')} -->")
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')

    if not region.is_empty:
        loops = contour_extract(region)
        d = reference_path(loops, to_px)
        out.append(
            f'<path d="{d}" fill="#8fd19e" fill-opacity="0.75" '
            f'fill-rule="evenodd" stroke="#1c7c33" stroke-width="1.2"/>'
        )

    if eigenvalues is not None:
        s = 4.0
        for lam in np.asarray(eigenvalues).ravel():
            x, y = to_px(float(lam.real), float(lam.imag))
            out.append(
                f'<path d="M {x - s:.2f} {y - s:.2f} L {x + s:.2f} {y + s:.2f} '
                f'M {x - s:.2f} {y + s:.2f} L {x + s:.2f} {y - s:.2f}" '
                f'stroke="black" stroke-width="1"/>'
            )

    # axes frame with corner tick labels
    out.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#555" '
        f'stroke-width="1"/>'
    )
    labels = [
        (grid.re_min, _MARGIN, _H - _MARGIN + 16, "start"),
        (grid.re_max, _W - _MARGIN, _H - _MARGIN + 16, "end"),
    ]
    for val, x, y, anchor in labels:
        out.append(
            f'<text x="{x}" y="{y}" font-size="12" text-anchor="{anchor}" '
            f'font-family="monospace">{val:.3g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN - 6}" y="{_H - _MARGIN}" font-size="12" '
        f'text-anchor="end" font-family="monospace">{grid.im_min:.3g}</text>'
    )
    out.append(
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="12" '
        f'text-anchor="end" font-family="monospace">{grid.im_max:.3g}</text>'
    )
    if title:
        out.append(
            f'<text x="{_W / 2}" y="{_MARGIN - 14}" font-size="15" '
            f'text-anchor="middle" font-family="monospace">{title}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# nearest-node distances
# ---------------------------------------------------------------------------

def reference_nearest_distance(nodes, points):
    """Distance from each complex point to its nearest complex node, from a
    k-d tree (``scipy.spatial.cKDTree``) of the nodes."""
    from scipy.spatial import cKDTree

    nodes = np.asarray(nodes, dtype=np.complex128).ravel()
    points = np.asarray(points, dtype=np.complex128).ravel()
    tree = cKDTree(np.column_stack([nodes.real, nodes.imag]))
    return tree.query(np.column_stack([points.real, points.imag]))[0]


def reference_hausdorff(a, b):
    """Hausdorff distance between the masked node sets of two regions, from
    ``reference_nearest_distance`` over every node of each."""
    pa, pb = ps.region_points(a), ps.region_points(b)
    return float(max(reference_nearest_distance(pa, pb).max(),
                     reference_nearest_distance(pb, pa).max()))


def reference_covers_points(region, points, cells=1.0):
    """``ps.covers_points`` from ``reference_nearest_distance``."""
    points = np.asarray(points, dtype=np.complex128).ravel()
    if region.is_empty:
        return np.zeros(points.shape, dtype=bool)
    d = reference_nearest_distance(ps.region_points(region), points)
    return d <= cells * region.grid.cell_diag * (1 + 1e-12)


# ---------------------------------------------------------------------------
# unpruned term fields
# ---------------------------------------------------------------------------

def reference_term_fields(terms, points, want=None, jobs=None):
    """The least smin over the contributions of each term at the points
    (raveled), stacked along the first axis.

    With ``want``, a boolean array with one row per term, a term is
    evaluated at its wanted points, and also where the contributions
    evaluated there for other terms cover it; it is NaN elsewhere.  A
    contribution is evaluated once per point, where a term holding it is
    wanted, and the contributions wanted at the same points share one
    ``smin_fields`` call.
    """
    points = np.asarray(points).ravel()
    out = np.full((len(terms), points.size), np.nan)
    if want is None:
        want = np.ones(out.shape, dtype=bool)
    keys, items, need = [], {}, {}
    for contribs, row in zip(terms, want):
        term = {}
        for _, mat, embed in contribs:
            key = ps._content_key(mat, embed)
            term[key] = items[key] = (mat, embed)
            need[key] = need.get(key, False) | row
        keys.append(term)
    groups: dict[bytes, list] = {}
    for key, cols in need.items():
        groups.setdefault(cols.tobytes(), []).append(key)
    fields = {}
    for group in groups.values():
        cols = need[group[0]]
        if cols.any():
            for key, vals in zip(group, ps.smin_fields(
                    [items[k] for k in group], points[cols], jobs)):
                fields[key] = np.full(points.size, np.nan)
                fields[key][cols] = vals
    for row, term in zip(out, keys):
        cover = np.logical_and.reduce([need[k] for k in term])
        if cover.any():
            row[cover] = reduce(np.minimum, (fields[k][cover] for k in term))
    return out


def unpruned_term_fields(terms, slack=0.0, jobs=None, groups=None,
                         memo=True):
    """Drop-in for ``pseudospec.TermFields`` that evaluates every needed
    (contribution, point) pair, through one ``reference_term_fields`` call
    per group of terms."""
    ends = np.cumsum([len(terms)] if groups is None else groups).tolist()

    def field(points, want=None):
        if want is None:
            want = np.ones((len(terms), np.size(points)), dtype=bool)
        return np.concatenate([
            reference_term_fields(terms[a:b], points, want[a:b], jobs)
            for a, b in zip([0] + ends, ends)])

    return field


def exhaustive_bounded(fields, points, levels, want=None):
    """Drop-in for ``ps.TermFields.bounded`` that evaluates every wanted
    (contribution, point) pair, through ``reference_term_fields``: the
    exact term values where ``want`` marks them, NaN elsewhere."""
    terms = [[(None, *fields.items[k]) for k in idx] for idx in fields.members]
    out = reference_term_fields(terms, points, want, fields.jobs)
    return out if want is None else np.where(want, out, np.nan)


class KernelPairs:
    """Stand-in for ``ps.smin_fields`` that counts the (matrix, shift) pairs
    the kernel evaluates, keyed by ``ps._content_key``: every pair of a
    call, or those its ``want`` marks.  Create it before patching."""

    def __init__(self):
        self.pairs = Counter()
        self.kernel = ps.smin_fields

    def __call__(self, items, lambdas, jobs=None, want=None):
        items = list(items)
        lams = np.ravel(lambdas)
        rows = np.ones((len(items), lams.size), dtype=bool) if want is None \
            else np.asarray(want).reshape(len(items), lams.size)
        for (E, embed), row in zip(items, rows):
            key = ps._content_key(E, embed)
            self.pairs.update((key, z) for z in lams[row].tolist())
        return self.kernel(items, lambdas, jobs, want)
