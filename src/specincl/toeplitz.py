"""Toeplitz builders, closed-form oracles, and Hausdorff convergence studies.

The Jordan block (superdiagonal of ones) and discrete Laplacian (sub- and
superdiagonal of ones), built from their symbols, admit closed forms for
shifted smallest singular values, pseudospectral radii, and penalty roots;
they serve as independent oracles for the grid engine and as the canonical
study subjects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import inclusion as inc
from . import pseudospec as ps
from .errors import DomainError
from .matrixcore import BlockPartition, make_view
from .penalty import bisect

__all__ = [
    "ToeplitzSpec",
    "toeplitz_spec",
    "spec_to_json",
    "spec_from_json",
    "build_toeplitz",
    "banded_partition",
    "wiener_tail",
    "jordan",
    "laplacian",
    "jordan_symbol",
    "laplacian_symbol",
    "jordan_phi",
    "jordan_vn",
    "jordan_alpha",
    "jordan_annulus",
    "laplacian_spectrum",
    "laplacian_theta",
    "StudyRow",
    "StudyResult",
    "convergence_study",
]

_HERMITIAN_TOL = 1e-14
# cell diagonals by which d_H may rise from one study row to the next
SLACK_CELLS = 2.0


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symbol coefficients (offset j, a_j) on a finite window, entry (i, k)
    of the matrix being a_{i-k}."""

    coeffs: tuple[tuple[int, complex], ...]

    @property
    def hermitian(self) -> bool:
        """Whether a_{-j} = conj(a_j) for every j, within ``_HERMITIAN_TOL``."""
        table = dict(self.coeffs)
        return all(abs(table.get(-j, 0.0) - np.conj(v)) <= _HERMITIAN_TOL
                   for j, v in self.coeffs)


def toeplitz_spec(coeffs) -> ToeplitzSpec:
    """Canonicalize a coefficient table (a dict or (j, a_j) pairs) into a
    ToeplitzSpec: equal offsets are summed and zero coefficients dropped."""
    if isinstance(coeffs, dict):
        items = coeffs.items()
    else:
        items = coeffs
    table: dict[int, complex] = {}
    for j, val in items:
        v = complex(val)
        if v != 0:
            table[int(j)] = table.get(int(j), 0.0) + v
    return ToeplitzSpec(tuple(sorted((j, v) for j, v in table.items()
                                     if v != 0)))


def spec_to_json(spec: ToeplitzSpec) -> str:
    doc = {
        "coeffs": [[j, v.real, v.imag] for j, v in spec.coeffs],
        "hermitian": spec.hermitian,
    }
    return json.dumps(doc, sort_keys=True)


def spec_from_json(text: str) -> ToeplitzSpec:
    """Inverse of ``spec_to_json``; malformed documents raise DomainError.
    Only ``"coeffs"`` is read: ``hermitian`` derives from them."""
    try:
        doc = json.loads(text)
        return toeplitz_spec([(int(j), complex(re, im))
                              for j, re, im in doc["coeffs"]])
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed symbol JSON: "
                          f"{type(exc).__name__}: {exc}") from None


def build_toeplitz(spec: ToeplitzSpec, M: int) -> np.ndarray:
    """Order-M Toeplitz matrix with entry (i, k) = a_{i-k}."""
    if M < 1:
        raise DomainError("M must be >= 1")
    A = np.zeros((M, M), dtype=np.complex128)
    for j, v in spec.coeffs:
        if abs(j) < M:
            A += v * np.eye(M, k=-j, dtype=np.complex128)
    return A


def banded_partition(M: int, w: int) -> BlockPartition:
    """Block sizes that make a band-width-w Toeplitz matrix block-tridiagonal.

    N = floor(M/w) blocks; the remainder r = M - w*N is absorbed by widening
    the last r blocks to w + 1.
    """
    if w < 1:
        raise DomainError("band-width must be >= 1")
    if M < 2 * w:
        raise DomainError(f"need M >= 2w for a valid partition, got M={M}, w={w}")
    N = M // w
    r = M - w * N
    sizes = (w,) * (N - r) + (w + 1,) * r
    return BlockPartition(sizes)


def wiener_tail(spec: ToeplitzSpec, w: int) -> float:
    """Tail sum ``sum_{j>w} |a_j| + |a_{-j}|`` over the stored window.

    Upper-bounds the remaining-part norm of the width-w block split; for a
    truncated Wiener symbol it is a lower bound of the true tail.
    """
    if w < 1:
        raise DomainError("w must be >= 1")
    return float(sum(abs(v) for j, v in spec.coeffs if abs(j) > w))


def jordan_symbol() -> ToeplitzSpec:
    return toeplitz_spec({-1: 1.0})


def laplacian_symbol() -> ToeplitzSpec:
    return toeplitz_spec({-1: 1.0, 1: 1.0})


def jordan(M: int) -> np.ndarray:
    """Order-M Jordan block at 0 (ones on the superdiagonal)."""
    return build_toeplitz(jordan_symbol(), M)


def laplacian(M: int) -> np.ndarray:
    """Order-M discrete Laplacian (ones on both first off-diagonals)."""
    return build_toeplitz(laplacian_symbol(), M)


# ---------------------------------------------------------------------------
# Jordan block closed forms
# ---------------------------------------------------------------------------

def jordan_phi(n: int, s: float) -> float:
    """Root of ``s sin((n+1)t) = sin(nt)`` in [pi/(2n+1), pi/(n+1))."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if s < 1:
        raise DomainError("closed form needs s >= 1")
    lo = math.pi / (2 * n + 1)
    if s == 1.0:
        return lo
    hi = math.pi / (n + 1)
    return bisect(lambda t: s * math.sin((n + 1) * t) - math.sin(n * t), lo, hi)


def jordan_vn(n: int, s: float) -> float:
    """Shifted smallest singular value ``smin(V_n - s I)`` of the Jordan block.

    Closed form ``sqrt(1 + s^2 - 2 s cos(phi_n(s)))`` for s >= 1; the grid
    engine's SVD for 0 <= s < 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if s < 0:
        raise DomainError("s must be >= 0")
    if s >= 1.0:
        phi = jordan_phi(n, s)
        return math.sqrt(max(0.0, 1.0 + s * s - 2.0 * s * math.cos(phi)))
    return ps.smin(jordan(n) - s * np.eye(n))


def jordan_eps_n(n: int) -> float:
    """Square-truncation penalty of the Jordan block, ``2 sin(pi/(4n+2))``."""
    return 2.0 * math.sin(math.pi / (4 * n + 2))


def jordan_alpha(n: int, eps: float) -> float:
    """Pseudospectral radius: the unique s with ``v_n(s) = eps``.

    For eps >= eps_n the closed-form bracket ``1+e <= alpha <= 1+e+...``
    localizes the root; below eps_n the numerically evaluated v_n is
    bisected on [0, 1].
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if eps < 0:
        raise DomainError("eps must be >= 0")
    eps_n = jordan_eps_n(n)
    if eps < eps_n:
        return bisect(lambda s: jordan_vn(n, s) - eps, 0.0, 1.0)
    e = eps - eps_n
    if e == 0.0:
        return 1.0
    lower = 1.0 + e
    upper = lower + 2.0 * eps_n * e / (e + math.sqrt(2.0 * eps_n * e + e * e))
    f = lambda s: jordan_vn(n, s) - eps
    # widen against floating-point droop at the analytic bracket ends
    lo, hi = lower, upper
    if f(lo) > 0:
        lo = max(1.0, lower - 1e-9)
    if f(hi) < 0:
        hi = upper + 1e-9
    return bisect(f, lo, hi)


def jordan_annulus(n: int, eps: float):
    """Radii of the rectangular-truncation pseudospectrum annulus.

    Returns None when the level is below ``sin(pi/(n+1))`` (empty set), else
    the pair ``cos(pi/(n+1)) -/+ sqrt(eps^2 - sin^2(pi/(n+1)))``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if eps < 0:
        raise DomainError("eps must be >= 0")
    s = math.sin(math.pi / (n + 1))
    if eps < s:
        return None
    c = math.cos(math.pi / (n + 1))
    root = math.sqrt(max(0.0, eps * eps - s * s))
    return (c - root, c + root)


# ---------------------------------------------------------------------------
# discrete Laplacian closed forms
# ---------------------------------------------------------------------------

def laplacian_spectrum(M: int) -> np.ndarray:
    """Eigenvalues ``2 cos(j pi / (M+1))``, sorted descending."""
    if M < 1:
        raise DomainError("M must be >= 1")
    j = np.arange(1, M + 1, dtype=np.float64)
    return 2.0 * np.cos(j * math.pi / (M + 1))


def laplacian_theta(n: int) -> float:
    """Penalty root via ``2 cos((n+1)t/2) = cos((n-1)t/2)``.

    Unique root in (pi/(n+3), pi/(n+2)]; agrees with the general root
    solver at r_L = r_U = 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n == 1:
        return math.pi / 3.0
    lo = math.pi / (n + 3)
    hi = math.pi / (n + 2)
    return bisect(
        lambda t: 2.0 * math.cos((n + 1) * t / 2.0) - math.cos((n - 1) * t / 2.0),
        lo, hi,
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    M: int
    n: int
    w: int
    eps: float
    method: str
    d_h: float
    cell: float


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    monotone_within_slack: bool

    def to_csv(self) -> str:
        lines = ["M,n,w,eps,method,d_H,cell_size"]
        for r in self.rows:
            lines.append(
                f"{r.M},{r.n},{r.w},{r.eps!r},{r.method},{r.d_h!r},{r.cell!r}"
            )
        return "\n".join(lines) + "\n"


def convergence_study(spec: ToeplitzSpec, eps: float, schedule,
                      grid_nodes: int = 256,
                      jobs: int | None = None) -> StudyResult:
    """Hausdorff distances between inclusion sets and reference pseudospectra.

    Each schedule row (M, n, w) builds the order-M Toeplitz matrix with the
    width-w block partition and compares the inclusion set against the
    reference set on a shared grid: the eps-pseudospectrum of the full
    matrix for eps > 0, the rasterized eigenvalues for eps = 0 (Hermitian
    symbols only).  Banded symbols (within w) use the square-truncation
    method, symbols with a tail use the rectangular one.  The monotonicity
    report checks non-strict decrease (``SLACK_CELLS`` cells of slack)
    between consecutive rows from n >= 4 on.  A row whose inclusion set or
    reference marks no grid node raises DomainError.

    ``hausdorff`` reads masks only, so both sets are certified mask-only
    regions, all from one ``ps.certified_regions`` sweep: one group per
    schedule row (the family method's terms, as ``method_mask`` sweeps
    them) and one per distinct M for the eps > 0 reference (its
    ``pseudospectrum``).  So each (matrix, node) pair of the study is
    evaluated at most once, and every mask is the full sweep's, bit for
    bit.
    """
    if eps < 0:
        raise DomainError("eps must be >= 0")
    if eps == 0 and not spec.hermitian:
        raise DomainError("eps = 0 studies need a Hermitian symbol")
    schedule = [(int(M), int(n), int(w)) for M, n, w in schedule]
    if not schedule:
        raise DomainError("empty schedule")

    # one view per (M, w), one group per row, and one shared grid large
    # enough for every row
    views = {}
    groups = []
    methods = []
    for M, n, w in schedule:
        if (M, w) not in views:
            views[(M, w)] = make_view(build_toeplitz(spec, M),
                                      banded_partition(M, w))
        view = views[(M, w)]
        if not 1 <= n <= view.block_count - 1:
            raise DomainError(f"schedule row {M}:{n}:{w} needs 1 <= n <= "
                              f"{view.block_count - 1}")
        method = "tau" if wiener_tail(spec, w) == 0.0 else "tau1"
        methods.append(method)
        groups.append(inc.method_terms(view, method, n, [eps])[1:])
    A_big = build_toeplitz(spec, max(M for M, _, _ in schedule))
    pad = max(float(lvls[0, 0]) for _, lvls in groups)
    grid = ps.default_grid(A_big, pad=pad, nx=grid_nodes, ny=grid_nodes)

    orders = list(dict.fromkeys(M for M, _, _ in schedule))
    if eps > 0:
        groups += [([[(None, build_toeplitz(spec, M), None)]], [[eps]])
                   for M in orders]
    regions = [region for region, in ps.certified_regions(
        groups, grid, jobs, with_field=False)]
    # an eps = 0 study has a Hermitian symbol, so ``eigvalsh`` gives the
    # eigenvalues
    spectra = (np.linalg.eigvalsh(build_toeplitz(spec, M)) for M in orders)
    references = dict(zip(orders, regions[len(schedule):] if eps > 0 else (
        ps.region_from_points(grid, lam) for lam in spectra)))

    for (M, n, w), region in zip(schedule, regions):
        if region.is_empty or references[M].is_empty:
            raise DomainError(f"schedule row {M}:{n}:{w}: a set marks no node "
                              f"of the {grid_nodes} x {grid_nodes} grid; use "
                              "a larger --grid-nodes")
    rows = [StudyRow(M, n, w, eps, method, ps.hausdorff(region, references[M]),
                     grid.cell_diag)
            for (M, n, w), method, region in zip(schedule, methods, regions)]
    slack = SLACK_CELLS * grid.cell_diag
    monotone = not any(prev.n >= 4 and cur.d_h > prev.d_h + slack
                       for prev, cur in zip(rows, rows[1:]))
    return StudyResult(tuple(rows), monotone)
