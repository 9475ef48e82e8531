"""Assembly of the three inclusion-set families and Gershgorin baselines.

Each family method is an intersection of terms; a term is the union of the
pseudospectra of a set of submatrices of B, thresholded at eps plus a
penalty.  The tau method has two terms (sigma and sigma_hat), the pi and
tau1 methods one.  ``levels`` gives the thresholds and ``family`` the
contributions of each term, and ``ps.TermFields`` evaluates the terms.  The
grid methods, the mask-only ``method_mask``, the pointwise ``membership``
test and the corpus verifier are all built on these three.  Duplicate
submatrices (ubiquitous for Toeplitz inputs) are detected by content and
computed once.

Every swept grid set here comes from the one constructor
``ps.certified_regions``, which takes groups of terms.  A grid method makes
one certified sweep over all its terms at all its eps levels and intersects
them, and ``method_reports`` one sweep for all its family methods, one group
each, so each (contribution, node) pair is evaluated at most once, only near
the level curves, and only where the contribution can be its term's
minimum.  Its regions carry one band field each, completed at their contour
corners: the term's field for one term, and for the two tau terms their
maximum after shifting each to the larger level, so that every set is
contoured from a field.  ``method_mask`` returns the mask alone.  Block
Gershgorin unites the masks of the certified pseudospectra of the distinct
diagonal blocks, each one mask-only group.  The sandwich set of
``tau1_method`` is one more group of its sweep, and the classical
Gershgorin discs are marked analytically, with no sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import pseudospec as ps
from .errors import DomainError
from .matrixcore import (
    BlockMatrixView,
    embedding_selector,
    submatrix_pi,
    submatrix_tau,
    submatrix_tau1,
)
from .penalty import PenaltyParams, eps_pi, eps_tau, eps_tau1

__all__ = [
    "MethodReport",
    "penalty_params",
    "levels",
    "family",
    "membership",
    "method_terms",
    "method_mask",
    "sigma_tau",
    "pi_method",
    "tau1_method",
    "gershgorin",
    "gershgorin_block",
    "tau1_outer_level",
    "grid_pad",
    "method_reports",
]

_OUTER_AUTO_MAX_ORDER = 512


def penalty_params(view: BlockMatrixView, n: int) -> PenaltyParams:
    """Penalty inputs of a view at truncation size n, from the norms the
    view caches (``BlockMatrixView.penalty_inputs``)."""
    r_L, r_U, c_norm = view.penalty_inputs
    return PenaltyParams.from_offdiag(r_L, r_U, c_norm, n)


def _check_method_n(view: BlockMatrixView, n: int) -> None:
    N = view.block_count
    if not (1 <= n <= N - 1):
        raise IndexError(f"method needs 1 <= n <= N-1 = {N - 1}, got n={n}")


# ---------------------------------------------------------------------------
# one evaluation path: levels and families, evaluated by ps.TermFields
# ---------------------------------------------------------------------------

def levels(p: PenaltyParams, method: str, eps: float,
           scale: float = 1.0) -> list[float]:
    """Threshold of each term of a family method, in the order of ``family``.

    tau: ``eps + s*eps_n``, plus ``eps + s*eps_{n-2}`` for n > 2; pi:
    ``eps + s*eps'_n``; tau1: ``eps + s*eps''_n`` (s = ``scale``).
    A negative eps raises ``DomainError``.
    """
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    if method == "tau":
        out = [eps + scale * eps_tau(p)]
        if p.n > 2:
            hat = PenaltyParams.from_offdiag(p.r_L, p.r_U, p.c_norm, p.n - 2)
            out.append(eps + scale * eps_tau(hat))
        return out
    if method == "pi":
        return [eps + scale * eps_pi(p)]
    if method == "tau1":
        return [eps + scale * eps_tau1(p)]
    raise DomainError(f"unknown family method {method!r}")


def tau1_outer_level(p: PenaltyParams, eps: float, scale: float = 1.0) -> float:
    """Threshold of the right-hand sandwich set of the rectangular method."""
    return eps + scale * (eps_tau1(p) + 2.0 * p.c_norm)


def family(view: BlockMatrixView, method: str, n: int,
           t: complex | None = None) -> list[list[tuple]]:
    """Contributions of each term of a family method, in ``levels`` order.

    A contribution is ``(descriptor, matrix, embedding-or-None)``; descriptors
    are ``(kind, n, k)`` triples kept for reports.  The tau terms are the
    main truncations plus the short edge ones, then (for n > 2) the main
    truncations alone.
    """
    N = view.block_count
    if method == "tau":
        main = [(("tau", n, k), submatrix_tau(view, n, k), None)
                for k in range(N - n + 1)]
        edges = []
        for m in range(1, n):
            edges.append((("tau", m, 0), submatrix_tau(view, m, 0), None))
            edges.append((("tau", m, N - m), submatrix_tau(view, m, N - m),
                          None))
        return [main + edges, main] if n > 2 else [main + edges]
    if method == "pi":
        if t is None:
            raise DomainError("pi method needs t")
        return [[(("pi", n, k), submatrix_pi(view, n, k, t), None)
                 for k in range(N - n + 1)]]
    if method == "tau1":
        return [[(("tau1", n, k), submatrix_tau1(view, n, k),
                  embedding_selector(n, k, view))
                 for k in range(N - n + 1)]]
    raise DomainError(f"unknown family method {method!r}")


def membership(view: BlockMatrixView, method: str, n: int, eps: float,
               points, t: complex | None = None) -> np.ndarray:
    """Exact pointwise membership in a family method's inclusion set."""
    _check_method_n(view, n)
    pts = np.asarray(points, dtype=np.complex128).ravel()
    lvls = np.array(levels(penalty_params(view, n), method, eps))
    fields = ps.TermFields(family(view, method, n, t)).bounded(pts, lvls)
    return np.all(fields <= lvls[:, None], axis=0)


def grid_pad(view: BlockMatrixView, method: str, n: int | None = None,
             eps: float = 0.0, outer: bool = False) -> float:
    """Pad of a method's default grid: the largest level at the largest eps
    (levels grow with eps), the sandwich level when ``outer``, the largest
    block radius for block Gershgorin, and 0 for the Gershgorin discs."""
    if method == "gersh":
        return 0.0
    if method == "block-gersh":
        return max(view.block_radii)
    p = penalty_params(view, n)
    if outer:
        return tau1_outer_level(p, eps)
    return max(levels(p, method, eps))


def method_terms(view: BlockMatrixView, method: str, n: int, eps_list,
                  t=None):
    """The penalty inputs of a family method, its ``family`` terms and their
    levels at every eps of ``eps_list``, one column per eps: one group of
    ``ps.certified_regions``."""
    _check_method_n(view, n)
    p = penalty_params(view, n)
    lvls = np.array([levels(p, method, eps) for eps in eps_list]).T
    return p, family(view, method, n, t), lvls


def _method_regions(view: BlockMatrixView, method: str, n: int, eps_list,
                    grid, jobs, t=None, outer: bool = False,
                    split: bool = False, **kwargs):
    """The sets of a family method at every eps of ``eps_list``, from one
    ``ps.certified_regions`` sweep over its terms at their levels,
    intersected (``kwargs`` pass on to it); with ``split``, each of two or
    more terms also alone, and with ``outer``, the pseudospectrum of the
    full matrix at the sandwich level ``tau1_outer_level``, as further
    groups of the sweep.

    Returns one region list per group.  Without a grid, the default one is
    padded by ``grid_pad``.
    """
    p, terms, lvls = method_terms(view, method, n, eps_list, t)
    if grid is None:
        pad = grid_pad(view, method, n, max(eps_list), outer)
        grid = ps.default_grid(view.matrix, pad=pad)
    groups = [(terms, lvls)]
    if split and len(terms) > 1:
        groups += [([term], lvls[i:i + 1]) for i, term in enumerate(terms)]
    if outer:
        groups.append(([[(None, view.matrix, None)]],
                       [[tau1_outer_level(p, eps) for eps in eps_list]]))
    return ps.certified_regions(groups, grid, jobs, **kwargs)


def method_mask(view: BlockMatrixView, method: str, n: int, eps: float,
                grid: ps.GridSpec | None = None, t: complex | None = None,
                jobs: int | None = None) -> ps.Region:
    """Mask-only inclusion set of a family method at one eps.

    The certified sweep with no contour pass and ``values=None``: the mask
    of ``Sigma`` of ``sigma_tau``, ``pi_method`` or ``Gamma`` of
    ``tau1_method``.
    """
    [[region]] = _method_regions(view, method, n, [eps], grid, jobs, t=t,
                                 with_field=False)
    return region


# ---------------------------------------------------------------------------
# grid methods
# ---------------------------------------------------------------------------

def sigma_tau(view: BlockMatrixView, n: int, eps: float,
              grid: ps.GridSpec | None = None, jobs: int | None = None):
    """Square-truncation inclusion set.

    Returns ``(sigma, sigma_hat, Sigma)``: the union over truncations at
    level ``eps + eps_n`` (with the short edge truncations), the companion
    union at level ``eps + eps_{n-2}`` for n > 2 (else None), and their
    intersection (== sigma for n <= 2).
    """
    [[both], *alone] = _method_regions(view, "tau", n, [eps], grid, jobs,
                                       split=True)
    if not alone:
        return both, None, both
    return alone[0][0], alone[1][0], both


def pi_method(view: BlockMatrixView, n: int, t: complex, eps: float,
              grid: ps.GridSpec | None = None,
              jobs: int | None = None) -> ps.Region:
    """Periodised-truncation inclusion set (uniform partitions only)."""
    [[region]] = _method_regions(view, "pi", n, [eps], grid, jobs, t=t)
    return region


def tau1_method(view: BlockMatrixView, n: int, eps: float,
                grid: ps.GridSpec | None = None, jobs: int | None = None,
                outer: bool | None = None):
    """Rectangular-truncation inclusion set and its sandwich companion.

    Returns ``(Gamma, outer_region)``.  The sandwich set
    ``Spec_{eps + eps''_n + 2||C||}(A)`` is the pseudospectrum of the full
    matrix, a group of the same sweep as Gamma, made only when ``outer`` is
    True, or by default for orders <= 512; pass ``outer=False`` to skip it.
    """
    if outer is None:
        outer = view.order <= _OUTER_AUTO_MAX_ORDER
    [[gamma], *sandwich] = _method_regions(view, "tau1", n, [eps], grid,
                                           jobs, outer=outer)
    return gamma, sandwich[0][0] if sandwich else None


# ---------------------------------------------------------------------------
# Gershgorin baselines
# ---------------------------------------------------------------------------

def gershgorin(A, grid: ps.GridSpec | None = None):
    """Classical Gershgorin discs.

    Returns ``(region, discs)`` where discs is the list of (center, radius)
    pairs; the region marks nodes within some disc (computed analytically,
    no SVD involved).
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("gershgorin needs a square matrix")
    d = np.diag(A)
    radii = np.abs(A).sum(axis=1) - np.abs(d)
    discs = [(complex(c), float(r)) for c, r in zip(d, radii)]
    if grid is None:
        grid = ps.default_grid(A)
    nodes = grid.nodes()
    mask = np.zeros(nodes.shape, dtype=bool)
    for c, r in discs:
        mask |= np.abs(nodes - c) <= r
    return ps.Region(grid, mask), discs


# most (component x node) pairs of one block Gershgorin sweep, which holds
# a few tens of bytes per pair
_GERSH_PAIRS = 1 << 21


def gershgorin_block(view: BlockMatrixView, grid: ps.GridSpec | None = None,
                     jobs: int | None = None) -> ps.Region:
    """Block Gershgorin: union over k of the r_k-pseudospectra of the
    diagonal blocks, with r_k the sum of spectral norms of the off-diagonal
    blocks in block row k.

    Equal diagonal blocks are one pseudospectrum, at the largest of their
    radii, swept as one mask-only group (as ``ps.pseudospectrum`` would) in
    ``ps.certified_regions`` calls of at most ``_GERSH_PAIRS`` (block x
    node) pairs each; the region is the union of their masks.
    """
    if grid is None:
        grid = ps.default_grid(view.matrix, pad=grid_pad(view, "block-gersh"))
    comps: dict[bytes, list] = {}
    for i, radius in enumerate(view.block_radii):
        block = view.block(i, i)
        entry = comps.setdefault(block.tobytes(), [block, radius])
        entry[1] = max(entry[1], radius)
    groups = [([[(None, block, None)]], [[radius]])
              for block, radius in comps.values()]
    step = max(1, _GERSH_PAIRS // (grid.nx * grid.ny))
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    for s in range(0, len(groups), step):
        for [region] in ps.certified_regions(groups[s:s + step], grid, jobs,
                                             with_field=False):
            mask |= region.mask
    return ps.Region(grid, mask)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodReport:
    """Provenance record of one inclusion-set computation."""

    method: str
    n: int | None
    t: complex | None
    eps: float
    penalty: float
    c_norm: float
    cnorm_mode: str
    contributions: tuple
    region: ps.Region

    def to_json(self) -> str:
        doc = {
            "method": self.method,
            "n": self.n,
            "t": None if self.t is None else [self.t.real, self.t.imag],
            "eps": self.eps,
            "penalty": self.penalty,
            "c_norm": self.c_norm,
            "cnorm_mode": self.cnorm_mode,
            "contributions": [list(c) for c in self.contributions],
            **ps.region_doc(self.region),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MethodReport":
        doc = json.loads(text)
        t = doc["t"]
        return cls(
            method=doc["method"],
            n=doc["n"],
            t=None if t is None else complex(t[0], t[1]),
            eps=doc["eps"],
            penalty=doc["penalty"],
            c_norm=doc["c_norm"],
            cnorm_mode=doc["cnorm_mode"],
            contributions=tuple(tuple(c) for c in doc["contributions"]),
            region=ps.region_from_doc(doc),
        )


def method_reports(view: BlockMatrixView, methods, eps_list,
                   n: int | None = None, t: complex | None = None,
                   grid: ps.GridSpec | None = None,
                   jobs: int | None = None) -> list[list[MethodReport]]:
    """One MethodReport list per method of ``methods``, with one report per
    eps of ``eps_list``, on one grid: the family methods from one
    ``ps.certified_regions`` sweep, one group each, which evaluates each
    (submatrix, node) pair of the plan at most once, and a Gershgorin
    baseline, which has no eps, computed once.  Without a grid, the default
    one is padded by the largest ``grid_pad`` of the methods."""
    for method in methods:
        if method not in ("tau", "pi", "tau1", "gersh", "block-gersh"):
            raise DomainError(f"unknown method {method!r}")
        if method not in ("gersh", "block-gersh") and n is None:
            raise DomainError(f"method {method!r} needs n")
    plans = {m: method_terms(view, m, n, eps_list, t) for m in methods
             if m not in ("gersh", "block-gersh")}
    if grid is None:
        pad = max(grid_pad(view, m, n, max(eps_list)) for m in methods)
        grid = ps.default_grid(view.matrix, pad=pad)
    sets = dict(zip(plans, ps.certified_regions(
        list(plan[1:] for plan in plans.values()), grid, jobs)
        if plans else ()))
    out = []
    for method in methods:
        if method in plans:
            p, terms, _ = plans[method]
            out.append([MethodReport(
                method, n, complex(t) if method == "pi" else None, eps,
                levels(p, method, 0.0)[0], p.c_norm, view.cnorm_mode,
                tuple(d for d, _, _ in terms[0]), region)
                for eps, region in zip(eps_list, sets[method])])
            continue
        region, discs = (gershgorin(view.matrix, grid) if method == "gersh"
                         else (gershgorin_block(view, grid, jobs),
                               view.block_radii))
        descs = tuple((method, 1, k) for k in range(len(discs)))
        out.append([MethodReport(method, None, None, eps, 0.0, 0.0,
                                 view.cnorm_mode, descs, region)
                    for eps in eps_list])
    return out

