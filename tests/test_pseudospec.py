import json
import math
import os
import time

import numpy as np
import pytest

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.errors import DomainError, EmptyRegionError, GridMismatch
from specincl.matrixcore import BlockPartition, embedding_selector, make_view, submatrix_tau1
from specincl.pseudospec import (
    GridSpec,
    Region,
    contour_extract,
    covers_points,
    default_grid,
    eig,
    hausdorff,
    level_mask,
    pseudospectrum,
    region_from_points,
    region_to_csv,
    smin,
    smin_grid,
    smin_slack,
)
from specincl.toeplitz import jordan, jordan_alpha, laplacian

from support import (
    KernelPairs,
    assert_band_of,
    reference_covers_points,
    reference_hausdorff,
    reference_pseudospectrum,
    reference_term_fields,
    smin_shifted,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def jordan_plus(n, N=None, k=2):
    """Rectangular truncation of a Jordan block with its embedded identity."""
    N = N or n + 4
    view = make_view(jordan(N), BlockPartition((1,) * N))
    return submatrix_tau1(view, n, k), embedding_selector(n, k, view)


# ---------------------------------------------------------------------------
# smallest singular value engine
# ---------------------------------------------------------------------------

def test_smin_identity():
    for n in (1, 3, 7):
        assert smin(np.eye(n)) == pytest.approx(1.0, abs=1e-14)


def test_smin_jordan_is_singular():
    for n in (2, 5, 9):
        assert smin(jordan(n)) == pytest.approx(0.0, abs=1e-14)


def test_smin_shifted_jordan_closed_form():
    for n in (2, 4, 8):
        got = smin(jordan(n) - np.eye(n))
        assert got == pytest.approx(2 * math.sin(math.pi / (4 * n + 2)),
                                    abs=1e-12)


def test_smin_rejects_bad_shapes():
    with pytest.raises(DomainError):
        smin(np.zeros((2, 3)))            # wide
    with pytest.raises(DomainError):
        smin(np.zeros((0, 0)))


def test_smin_gram_oracle():
    # cross-check against the Hermitian eigensolve of E^H E
    rng = np.random.default_rng(1)
    for order in range(2, 9):
        for _ in range(8):
            E = rand_complex(rng, (order, order))
            gram = np.linalg.eigvalsh(E.conj().T @ E)
            expected = math.sqrt(max(gram[0], 0.0))
            norm = np.linalg.norm(E, 2)
            assert abs(smin(E) - expected) <= 1e-8 * norm


def test_smin_shifted_square_at_zero():
    rng = np.random.default_rng(2)
    E = rand_complex(rng, (6, 6))
    assert smin_shifted(E, 0.0) == pytest.approx(smin(E), abs=1e-14)


def test_smin_shifted_rectangular_closed_form():
    # the rectangular Jordan truncation: smin at |lam| = s follows
    # sqrt(1 + s^2 - 2 s cos(pi/(n+1))) for every argument of lam
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        bp, ip = jordan_plus(n)
        c_n = math.cos(math.pi / (n + 1))
        val = smin_shifted(bp, c_n, ip)
        assert val == pytest.approx(math.sin(math.pi / (n + 1)), abs=1e-9)
        for s in (0.4, 1.0, 1.7):
            lam = s * np.exp(1j * rng.uniform(0, 2 * math.pi))
            expected = math.sqrt(1 + s * s - 2 * s * c_n)
            assert smin_shifted(bp, lam, ip) == pytest.approx(expected, abs=1e-9)


def test_smin_shifted_shape_mismatch():
    bp, ip = jordan_plus(3)
    with pytest.raises(DomainError):
        smin_shifted(bp, 1.0, ip[:-1])
    with pytest.raises(DomainError):
        smin_shifted(bp, 1.0)        # rectangular without embedding


def test_shift_lipschitz():
    rng = np.random.default_rng(4)
    E = rand_complex(rng, (7, 7))
    lams = rand_complex(rng, (1000, 2)) * 2
    vals = smin_grid(E, lams)
    gaps = np.abs(lams[:, 0] - lams[:, 1])
    assert np.all(np.abs(vals[:, 0] - vals[:, 1]) <= gaps + 1e-9)


def test_smin_grid_matches_scalar_calls():
    rng = np.random.default_rng(5)
    E = rand_complex(rng, (5, 5))
    lams = rand_complex(rng, 11)
    vals = smin_grid(E, lams)
    for lam, v in zip(lams, vals):
        assert v == pytest.approx(smin_shifted(E, lam), abs=1e-12)


# ---------------------------------------------------------------------------
# grid pseudospectra
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 0.0, 1.0, nx=1)
    with pytest.raises(DomainError):
        GridSpec(-math.inf, 1.0, -1.0, 1.0, 8, 8)
    g = GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 9)
    assert g.dx == pytest.approx(0.5)
    assert g.dy == pytest.approx(0.5)
    assert g.nodes().shape == (9, 5)


def test_pseudospectrum_normal_matrix_is_union_of_discs():
    d = np.array([1.0 + 0.0j, -0.5 + 0.5j, 0.0 - 1.0j])
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 41, 41)
    eps = 0.613
    oracle = reference_pseudospectrum(np.diag(d), eps, grid)
    dist = np.min(np.abs(grid.nodes()[..., None] - d[None, None, :]), axis=-1)
    assert np.array_equal(oracle.mask, dist <= eps)
    assert np.allclose(oracle.values, dist, atol=1e-12)
    assert_band_of(pseudospectrum(np.diag(d), eps, grid), oracle)


def test_pseudospectrum_jordan_disc_radius():
    n, eps = 5, 0.35
    alpha = jordan_alpha(n, eps)
    grid = GridSpec(-1.8, 1.8, -1.8, 1.8, 101, 101)
    region = pseudospectrum(jordan(n), eps, grid)
    nodes = grid.nodes()
    assert np.all(np.abs(nodes[region.mask]) <= alpha + grid.cell_diag)
    inner = np.abs(nodes) <= alpha - grid.cell_diag
    assert np.all(region.mask[inner])


def test_pseudospectrum_rectangular_empty_below_threshold():
    n = 4
    bp, ip = jordan_plus(n)
    eps = 0.9 * math.sin(math.pi / (n + 1))
    grid = GridSpec(-2, 2, -2, 2, 61, 61)
    region = pseudospectrum(bp, eps, grid, embed=ip)
    assert region.is_empty


def test_pseudospectrum_monotone_in_eps():
    rng = np.random.default_rng(6)
    E = rand_complex(rng, (6, 6))
    grid = GridSpec(-3, 3, -3, 3, 41, 41)
    region = pseudospectrum(E, 0.1, grid)
    bigger = pseudospectrum(E, 0.4, grid)
    assert not np.any(region.mask & ~bigger.mask)


def test_direct_sum_law():
    rng = np.random.default_rng(7)
    E1 = rand_complex(rng, (3, 3))
    E2 = rand_complex(rng, (4, 4))
    E = np.zeros((7, 7), dtype=complex)
    E[:3, :3], E[3:, 3:] = E1, E2
    grid = GridSpec(-3, 3, -3, 3, 33, 33)
    eps = 0.27
    whole = pseudospectrum(E, eps, grid)
    parts = pseudospectrum(E1, eps, grid).mask | pseudospectrum(E2, eps,
                                                               grid).mask
    assert np.array_equal(whole.mask, parts)


def test_pseudospectrum_jobs_deterministic():
    rng = np.random.default_rng(8)
    E = rand_complex(rng, (5, 5))
    grid = GridSpec(-2, 2, -2, 2, 37, 29)
    oracle = reference_pseudospectrum(E, 0.3, grid, jobs=None)
    assert np.array_equal(
        oracle.values, reference_pseudospectrum(E, 0.3, grid, jobs=2).values)
    serial = pseudospectrum(E, 0.3, grid, jobs=None)
    threaded = pseudospectrum(E, 0.3, grid, jobs=2)
    assert np.array_equal(serial.values, threaded.values, equal_nan=True)
    assert np.array_equal(serial.mask, threaded.mask)
    assert_band_of(serial, oracle)


def _smin_one_at_a_time(E, embed, points):
    """Reference field: one ``smin`` call per shift."""
    return np.array([smin_shifted(E, lam, embed) for lam in points])


def _kernel_contributions(rng):
    """Square blocks of orders 1, 3, 12 and 48 plus the tau and tau1
    families of a banded matrix: mixed square orders, and rectangular
    shapes with embeddings (the edge truncations are shorter)."""
    A = np.triu(np.tril(rand_complex(rng, (9, 9)), 1), -1)
    view = make_view(A, BlockPartition((1,) * 9))
    singles = [(("block", m, 0), rand_complex(rng, (m, m)), None)
               for m in (1, 3, 12, 48)]
    return (singles + inc.family(view, "tau", 3)[0]
            + inc.family(view, "tau1", 3)[0])


# node counts on either side of the block edges of the 12 x 12 matrices
@pytest.mark.parametrize("count", [1, 6, 7, 14, 15])
def test_kernel_jobs_invariant(monkeypatch, count):
    # seven 12 x 12 copies per block, and no work floor: every call splits
    # into many blocks and threads whenever jobs > 1
    monkeypatch.setattr(ps, "_BLOCK_BYTES", 16 * 12 * 12 * 7)
    monkeypatch.setattr(ps, "_MIN_BLOCK_FLOPS", 1.0)
    monkeypatch.setattr(ps, "usable_cpus", lambda: 3)
    blocks = []
    sweep = ps._sweep_block

    def counted(*args):
        blocks.append(args[-2:])
        sweep(*args)

    monkeypatch.setattr(ps, "_sweep_block", counted)
    rng = np.random.default_rng(count)
    points = rand_complex(rng, count)
    contribs = _kernel_contributions(rng)
    refs = [_smin_one_at_a_time(E, embed, points) for _, E, embed in contribs]
    for jobs in (1, 2, 3):
        for (_, E, embed), ref in zip(contribs, refs):
            assert np.array_equal(smin_grid(E, points, embed, jobs=jobs), ref)
        blocks.clear()
        field = reference_term_fields([contribs], points, jobs=jobs)[0]
        assert np.array_equal(field, np.minimum.reduce(refs))
        assert len(blocks) > 1


def test_kernel_block_plan(monkeypatch):
    # 48 x 48 copies: 113 fit in a block, so 226 nodes end on a block edge
    cap = ps._BLOCK_BYTES // (16 * 48 * 48)
    assert ps._blocks(2 * cap, 48, 48, False, 1) == [(0, cap), (cap, 2 * cap)]
    spans = ps._blocks(2 * cap + 1, 48, 48, False, 1)
    assert len(spans) == 3 and max(e - s for s, e in spans) <= cap
    # enough work: at least one block per worker, covering every unit once
    spans = ps._blocks(1600 * 13, 12, 12, False, 2)
    assert len(spans) >= 2 and spans[0][0] == 0 and spans[-1][1] == 1600 * 13
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    # a block with an embedding holds its scaled copy too
    spans = ps._blocks(4 * cap, 48, 48, True, 1)
    assert max(e - s for s, e in spans) <= ps._BLOCK_BYTES // (32 * 48 * 48)
    # too little work to repay a thread: one block, whatever jobs is
    assert ps._blocks(12, 12, 12, False, 2) == [(0, 12)]
    assert ps._blocks(0, 12, 12, False, 2) == []
    # workers never exceed the usable CPUs; jobs < 1 is an error
    monkeypatch.setattr(ps, "usable_cpus", lambda: 2)
    assert ps._workers(10_000) == 2
    assert ps._workers(None) == 1 and ps._workers(1) == 1
    with pytest.raises(DomainError):
        ps._workers(0)


def test_kernel_pool_outlives_a_call_and_every_block_ends_before_a_raise(
        monkeypatch):
    # many small blocks on two threads; the first block fails at once while
    # the others are still running
    monkeypatch.setattr(ps, "_BLOCK_BYTES", 16 * 12 * 12 * 7)
    monkeypatch.setattr(ps, "_MIN_BLOCK_FLOPS", 1.0)
    monkeypatch.setattr(ps, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(5)
    points = rand_complex(rng, 30)
    items = [(rand_complex(rng, (12, 12)), None) for _ in range(3)]
    smin_grid(items[0][0], points, jobs=2)
    workers = set(ps._pool(2)._threads)
    assert workers and all(t.is_alive() for t in workers)
    assert smin_grid(items[1][0], points, jobs=2).shape == (30,)
    assert set(ps._pool(2)._threads) == workers
    assert all(t.is_alive() for t in workers)
    finished = []
    sweep = ps._sweep_block

    def slow_or_failing(stack, *args):
        if np.isnan(stack).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        time.sleep(0.01)
        sweep(stack, *args)
        finished.append(args[-1].size)

    monkeypatch.setattr(ps, "_sweep_block", slow_or_failing)
    bad = np.full((4, 4), np.nan + 0j)
    with pytest.raises(np.linalg.LinAlgError):
        ps.smin_fields([(bad, None)] + items, points, jobs=2)
    assert sum(finished) == len(items) * points.size


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_kernel_pool_in_a_forked_child(monkeypatch):
    # the child inherits the parent's pool object but none of its threads;
    # a sweep there must start its own instead of waiting on them forever
    monkeypatch.setattr(ps, "_MIN_BLOCK_FLOPS", 1.0)
    monkeypatch.setattr(ps, "usable_cpus", lambda: 2)
    E = rand_complex(np.random.default_rng(9), (12, 12))
    points = np.linspace(-1, 1, 40) + 0.5j
    ref = smin_grid(E, points, jobs=2)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(smin_grid(E, points, jobs=2), ref) else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sweep did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# ---------------------------------------------------------------------------
# certified level masks
# ---------------------------------------------------------------------------

class CountingField:
    """A field that keeps the nodes it is asked for."""

    def __init__(self, field):
        self.field, self.seen = field, []

    def __call__(self, points, want):
        self.seen.append(points)
        return [self.field(points)]

    @property
    def nodes(self):
        return sum(p.size for p in self.seen)


def banded_random(order, width, seed):
    rng = np.random.default_rng(seed)
    A = np.zeros((order, order), dtype=complex)
    for k in range(-width, width + 1):
        A += np.diag(rand_complex(rng, order - abs(k)), k)
    return A


def smin_case(A):
    return [A], lambda pts: smin_grid(A, pts)


def tau1_case():
    # the rectangular truncations of a Jordan block, each with its
    # embedding_selector, as the tau1 method sweeps them
    view = make_view(jordan(10), BlockPartition((1,) * 10))
    terms = inc.family(view, "tau1", 3)[0]
    assert all(embed is not None for _, _, embed in terms)
    return [m for _, m, _ in terms], lambda pts: reference_term_fields(
        [terms], pts)[0].reshape(np.shape(pts))


@pytest.mark.parametrize("case, levels", [
    (lambda: smin_case(jordan(12)), (0.05, 0.3, 0.8)),
    (lambda: smin_case(laplacian(10)), (0.1, 0.5)),
    (lambda: smin_case(banded_random(16, 2, seed=11)), (0.2, 1.0)),
    (tau1_case, (0.6, 0.9)),
], ids=["jordan", "laplacian", "banded-random", "tau1-family"])
def test_level_mask_equals_full_sweep(case, levels):
    matrices, field = case()
    grid = GridSpec(-2.6, 2.4, -2.3, 2.5, 97, 83)
    full = field(grid.nodes())
    for level in levels:
        counted = CountingField(field)
        [[mask]], _ = level_mask(counted, grid, [[level]],
                                 smin_slack(matrices, grid))
        assert np.array_equal(mask, full <= level)
        assert 0 < mask.sum() < mask.size
        assert counted.nodes < mask.size / 2


def test_level_mask_ties_are_evaluated():
    # an interior pi-truncation of a Jordan block is a cyclic shift, whose
    # smin at z = 0 is exactly 1.0; 2 sin(pi/6) is one ulp below 1.0
    view = make_view(jordan(12), BlockPartition((1,) * 12))
    shift = inc.family(view, "pi", 3, t=1.0)[0][4][1]
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 65, 65)
    centre = (32, 32)
    assert grid.nodes()[centre] == 0
    full = smin_grid(shift, grid.nodes())
    assert full[centre] == 1.0
    below = 2.0 * math.sin(math.pi / 6)
    assert below < 1.0
    slack = smin_slack([shift], grid)
    for level in (below, 1.0):
        counted = CountingField(lambda pts: smin_grid(shift, pts))
        [[mask]], _ = level_mask(counted, grid, [[level]], slack)
        assert np.array_equal(mask, full <= level)
        assert 0 in np.concatenate(counted.seen)
        assert counted.nodes < mask.size
        # smin < 1 at the centre's neighbours, so at 2 sin(pi/6) the centre
        # is a one-node hole in the set
        assert mask[centre] == (level == 1.0)
        assert mask[31:34, 31:34].sum() == 8 + (level == 1.0)


def test_level_mask_small_and_uniform_grids():
    field = lambda pts: np.abs(pts - 0.3)
    for grid in (GridSpec(-1, 1, -1, 1, 2, 2), GridSpec(-1, 1, -1, 1, 3, 7),
                 GridSpec(-1, 1, -1, 1, 256, 256)):
        full = field(grid.nodes())
        for level in (0.0, 0.5, 5.0):
            [[mask]], _ = level_mask(lambda pts, want: [field(pts)], grid,
                                     [[level]], 1e-12)
            assert np.array_equal(mask, full <= level)


def test_level_mask_several_levels_one_sweep():
    # one sweep at three levels: every mask equals the full sweep, no node is
    # evaluated twice, and the band holds exactly the evaluated values
    A = jordan(12)
    grid = GridSpec(-2.6, 2.4, -2.3, 2.5, 97, 83)
    full = smin_grid(A, grid.nodes())
    slack = smin_slack([A], grid)
    levels = (0.05, 0.3, 0.8)
    counted = CountingField(lambda pts: smin_grid(A, pts))
    [masks], [band] = level_mask(counted, grid, [levels], slack)
    assert masks.shape == (3,) + full.shape and band.shape == full.shape
    for mask, level in zip(masks, levels):
        assert np.array_equal(mask, full <= level)
    seen = np.concatenate(counted.seen)
    assert len(np.unique(seen)) == seen.size < full.size / 2
    known = ~np.isnan(band)
    assert np.array_equal(known, np.isin(grid.nodes(), seen))
    assert np.array_equal(band[known], full[known])


def test_level_mask_components_decided_apart():
    # two components with their own levels: a component is evaluated only
    # where no neighbour decides it (or for free with the other), once per
    # node, and each band is that component's field where known
    A = jordan(12)
    grid = GridSpec(-2.6, 2.4, -2.3, 2.5, 97, 83)
    full = smin_grid(A, grid.nodes())
    whole = np.array([full, full / 2])
    levels = np.array([(0.05, 0.3), (0.1, 0.4)])
    asked = []

    def field(pts, want):
        asked.append(want.sum(axis=1))
        vals = smin_grid(A, pts)
        return np.where(want, np.array([vals, vals / 2]), np.nan)

    masks, band = level_mask(field, grid, levels, smin_slack([A], grid))
    assert masks.shape == (2, 2) + full.shape and band.shape == whole.shape
    assert np.array_equal(masks, whole[:, None] <= levels[..., None, None])
    known = ~np.isnan(band)
    assert np.array_equal(band[known], whole[known])
    assert np.array_equal(known.sum(axis=(1, 2)), np.sum(asked, axis=0))
    assert 0 < known[0].sum() < full.size / 2
    assert np.any(known[0] != known[1])


def boundary_corners(mask):
    """Nodes at a corner of a cell whose corners are not all on one side of
    the mask, the grid being padded with a ring of outside nodes."""
    inside = np.pad(mask, 1)
    cells = np.stack([inside[:-1, :-1], inside[:-1, 1:], inside[1:, 1:],
                      inside[1:, :-1]])
    mixed = cells.any(axis=0) & ~cells.all(axis=0)
    corners = np.zeros(inside.shape, dtype=bool)
    for dy, dx in ((0, 0), (0, 1), (1, 1), (1, 0)):
        corners[dy:dy + mixed.shape[0], dx:dx + mixed.shape[1]] |= mixed
    return corners[1:-1, 1:-1]


def tie_case():
    # the cyclic shift of test_level_mask_ties_are_evaluated: smin exactly
    # 1.0 at the centre node, a level one ulp below it and the tie itself
    view = make_view(jordan(12), BlockPartition((1,) * 12))
    shift = inc.family(view, "pi", 3, t=1.0)[0][4][1]
    return shift, GridSpec(-1.0, 1.0, -1.0, 1.0, 65, 65), \
        (2.0 * math.sin(math.pi / 6), 1.0)


@pytest.mark.parametrize("case", [
    lambda: (jordan(12), GridSpec(-2.6, 2.4, -2.3, 2.5, 97, 83),
             (0.05, 0.3, 0.8)),
    lambda: (banded_random(16, 2, seed=11),
             GridSpec(-5.0, 5.0, -5.0, 5.0, 90, 101), (0.2, 1.0)),
    tie_case,
    # smin = |z|; nodes at radius 13/32 lie 5e-8 above the level, inside the
    # contour nudge, where a neighbour could otherwise decide them
    lambda: (np.zeros((1, 1)), GridSpec(-1.0, 1.0, -1.0, 1.0, 65, 65),
             (13 / 32 - 5e-8,)),
], ids=["jordan", "banded-random", "ties", "nudged"])
def test_band_field_contours_equal_full_field(case, tmp_path):
    A, grid, levels = case()
    field = lambda pts: smin_grid(A, pts)
    full = field(grid.nodes())
    [masks], [band] = level_mask(lambda pts, want: [field(pts)], grid,
                                 [levels], smin_slack([A], grid))
    regions = [Region(grid, m, band, level) for m, level in zip(masks, levels)]
    [filled] = ps.certified_regions([([[(None, A, None)]], [levels])], grid)
    for region, done, level in zip(regions, filled, levels):
        whole = Region(grid, full <= level, full, level)
        known = ~np.isnan(done.values)
        # the band is the full field, bit for bit, wherever it is known
        assert np.array_equal(done.values[known], full[known])
        assert known.sum() < full.size / 2
        assert not np.any(boundary_corners(done.mask) & ~known)
        # the sweep alone leaves corners unknown, and contours refuse them
        with pytest.raises(DomainError):
            contour_extract(region)
        loops, expected = contour_extract(done), contour_extract(whole)
        assert len(loops) == len(expected) > 0
        assert all(np.array_equal(a, b) for a, b in zip(loops, expected))
        # the CSV writes smin only where the band knows it
        region_to_csv(done, tmp_path / "band.csv")
        rows = [line.split(",") for line in
                (tmp_path / "band.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == [
            repr(float(v)) if k else ""
            for v, k in zip(done.values.ravel(), known.ravel())]
    # every level's region shares the one completed band
    assert all(r.values is filled[0].values for r in filled)


def test_smin_slack_scales_with_norm_and_grid():
    grid = GridSpec(-1, 1, -1, 1, 9, 9)
    J = jordan(8)
    small = smin_slack([J], grid)
    assert 0 < small < 1e-11
    assert smin_slack([100 * J], grid) > 50 * small
    assert smin_slack([J], GridSpec(-1e3, 1e3, -1, 1, 9, 9)) > 50 * small
    assert smin_slack([J, jordan(2)], grid) == small
    # each matrix counts once by content
    assert smin_slack([J, J.copy(), jordan(2), J], grid) == small


# ---------------------------------------------------------------------------
# bounds tier of mask-only sweeps
# ---------------------------------------------------------------------------

def hermitian_random(n, seed):
    X = rand_complex(np.random.default_rng(seed), (n, n))
    H = (X + X.conj().T) / 2
    assert np.array_equal(H, H.conj().T)
    return H


BOUND_CASES = {
    **{f"random-{n}": (lambda n=n: rand_complex(np.random.default_rng(n),
                                                  (n, n)) / math.sqrt(n))
       for n in (1, 2, 3, 5, 8, 12, 16)},
    "hermitian-8": lambda: hermitian_random(8, 5),
    "laplacian-9": lambda: laplacian(9),
    "diagonal-6": lambda: np.diag(rand_complex(np.random.default_rng(6), 6)),
    "near-diagonal-6": lambda: (np.diag(rand_complex(np.random.default_rng(7),
                                                     6))
                                + 1e-9 * rand_complex(np.random.default_rng(8),
                                                      (6, 6))),
    "jordan-10": lambda: jordan(10),
    "scalar": lambda: np.array([[0.3 - 0.7j]]),
    "scalar-real": lambda: np.array([[0.3 + 0j]]),
}


def exact_smin(mp, E, z):
    """smin(E - zI) at 50 digits: the shift is formed in mpmath, exactly."""
    with mp.workdps(50):
        M = mp.matrix(np.asarray(E).tolist())
        for i in range(len(E)):
            M[i, i] -= mp.mpc(z)
        return min(mp.svd_c(M, compute_uv=False))


@pytest.mark.parametrize("build", BOUND_CASES.values(), ids=BOUND_CASES)
def test_smin_bounds_enclose_exact_and_computed_smin(build):
    # lo <= smin <= hi for the exact value (at slack 0) and for the kernel's
    # value (at the sweep's slack), at sampled nodes and at the diagonal
    # entries, where the bounds are tightest; and the kernel's value lies
    # within delta of the exact one, delta being the error bound whose
    # allowance smin_slack returns (2 delta + 8 u R)
    mp = pytest.importorskip("mpmath")
    E = np.asarray(build(), dtype=np.complex128)
    grid = default_grid(E, pad=0.5, nx=9, ny=9)
    rng = np.random.default_rng(len(E))
    nodes = grid.nodes().ravel()
    points = np.concatenate([rng.choice(nodes, 5, replace=False),
                             nodes[np.abs(nodes - np.diag(E)[:, None])
                                   .argmin(axis=1)]])
    bounds = ps._smin_bounds(E, ps._radius(grid))
    lo, hi = bounds(points, 0.0)
    computed = smin_grid(E, points)
    slack = smin_slack([E], grid)
    with mp.workdps(50):
        delta = (mp.mpf(slack) - 8 * mp.mpf(ps._U) * ps._radius(grid)) / 2
    for z, a, b, c in zip(points.tolist(), lo.tolist(), hi.tolist(),
                          computed.tolist()):
        exact = exact_smin(mp, E, z)
        assert mp.mpf(a) <= exact <= mp.mpf(b)
        assert abs(mp.mpf(c) - exact) <= delta
    lo, hi = bounds(points, slack)
    assert np.all((lo <= computed) & (computed <= hi))


def bidiagonal(n, seed, lower=False):
    rng = np.random.default_rng(seed)
    return (np.diag(rand_complex(rng, n))
            + np.diag(rand_complex(rng, n - 1), -1 if lower else 1))


def sturm_decisions(mats, grid, level, slack, points):
    """The Sturm count's decisions for a term of the bidiagonal ``mats`` at
    one level, every pair asked: certified inside and certified outside, of
    shape (contributions, points) each, and the term's registration."""
    sturm = ps._Sturm(ps._radius(grid))
    term = sturm.add([ps._bidiagonal(E) for E in mats], level, level, slack)
    ask = np.ones((2, len(mats), len(points)), dtype=bool)
    [(inside, outside)] = sturm.counts([(term, ask, points)])
    return inside, outside, sturm.terms[term]


def assert_sturm_decisions(mp, mats, grid, slack, points, sweep=None):
    """Levels from 0.75 to 1.5 allowances (slack plus the relative one of
    the largest order) above and below the kernel's value of each of
    ``mats`` (those of ``sweep``, default all) at each point: the count
    decides none within 0.75 and all beyond 1.5, and each decision of every
    contribution holds for its exact value (50 digits), by the slack, and
    for its kernel value.  The term takes the level where a count puts it
    inside and the next float above where all put it outside."""
    relative = 8 * (2 * max(map(len, mats)) - 1) * ps._U + 2.0 ** -40
    computed = np.array([smin_grid(E, points) for E in mats])
    exact = [[exact_smin(mp, E, z) for z in points.tolist()] for E in mats]
    for c in range(len(mats)) if sweep is None else sweep:
        for j, value in enumerate(computed[c].tolist()):
            allow = slack + relative * value
            for t in (-1.5, -1.01, -0.75, 0.75, 1.01, 1.5):
                level = value + t * allow
                if level < 0:
                    continue
                inside, outside, _ = sturm_decisions(mats, grid, level,
                                                     slack, points)
                if abs(t) >= 1.5:
                    assert inside[c, j] == (t > 0) != outside[c, j]
                if abs(t) < 1:
                    assert not (inside[c, j] or outside[c, j])
                for d, e in zip(*np.nonzero(inside)):
                    assert computed[d, e] < level
                    assert exact[d][e] < mp.mpf(level) - slack
                for d, e in zip(*np.nonzero(outside)):
                    assert computed[d, e] > level
                    assert exact[d][e] > mp.mpf(level) + slack
                every = np.ones((2,) + inside.shape, dtype=bool)
                taken = ps._term_values(
                    np.full(len(points), np.nan), np.full(len(points), np.inf),
                    every, np.stack([inside, outside]), level, level)
                expect = np.where(inside.any(axis=0), level, np.where(
                    outside.all(axis=0), np.nextafter(level, np.inf), np.nan))
                assert np.array_equal(taken, expect, equal_nan=True)


@pytest.mark.parametrize("build", [
    *(lambda n=n, lower=lower: bidiagonal(n, n, lower)
      for n, lower in ((2, False), (3, True), (11, False), (24, True),
                       (40, False), (40, True))),
    lambda: jordan(2),
    lambda: jordan(40),
], ids=["upper-2", "lower-3", "upper-11", "lower-24", "upper-40", "lower-40",
        "jordan-2", "jordan-40"])
def test_bidiagonal_test_agrees_with_exact_smin(build):
    # a term of one bidiagonal matrix, at a random node and at the node
    # nearest to e_11, where smin is small
    mp = pytest.importorskip("mpmath")
    E = np.asarray(build(), dtype=np.complex128)
    grid = default_grid(E, pad=0.5, nx=9, ny=9)
    nodes = grid.nodes().ravel()
    points = np.array([np.random.default_rng(len(E)).choice(nodes),
                       nodes[np.abs(nodes - E[0, 0]).argmin()]])
    assert_sturm_decisions(mp, [E], grid, smin_slack([E], grid), points)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
def test_sturm_reads_leading_edges_off_first_truncation(n, lower):
    # the tau term of a random bidiagonal matrix of order 10 with scalar
    # blocks: its main truncations all differ, each is a pass of its own,
    # the leading edges are read off the k = 0 one's pivots and the
    # trailing ones are passes of their own; every decision holds at 50
    # digits, at nodes near e_11 and e_NN, where the leading and the
    # trailing edges have small smin
    mp = pytest.importorskip("mpmath")
    A = bidiagonal(10, 10 + n, lower)
    view = make_view(A, BlockPartition((1,) * 10))
    [term, *_] = inc.family(view, "tau", n)
    mats = [E for _, E, _ in term if len(E) > 1]
    leading = [k == 0 for (_, m, k), E, _ in term if 1 < len(E) < n]
    grid = default_grid(A, pad=0.5, nx=9, ny=9)
    nodes = grid.nodes().ravel()
    points = np.array([nodes[np.abs(nodes - A[0, 0]).argmin()],
                       nodes[np.abs(nodes - A[-1, -1]).argmin()]])
    slack = smin_slack([E for _, E, _ in term], grid)
    _, _, registered = sturm_decisions(mats, grid, 0.5, slack, points)
    passes, local, orders = registered[:3]
    mains = 10 - n + 1
    assert passes.size == mains + leading.count(False)
    assert local[:mains].tolist() == list(range(mains))
    assert local[mains:][leading].tolist() == [0] * leading.count(True)
    assert sorted(local[mains:][~np.array(leading)].tolist()) == list(
        range(mains, passes.size))
    assert_sturm_decisions(mp, mats, grid, slack, points,
                           sweep=[0, mains - 1] + list(range(mains,
                                                             len(mats))))


def test_term_values_take_the_least_certified_value():
    # one node each: a bound inside, whose hi wins over a count inside; a
    # count inside; counts outside for both counted contributions; a count
    # outside for one and none for the other; bounds outside for both, with
    # no count asked; a bound outside for an uncounted contribution that has
    # none at the node (lower NaN), with counts outside
    low, high = 0.25, 0.5
    upper = np.array([0.125, np.nan, np.nan, np.nan, np.nan, np.nan])
    lower = np.array([np.inf, np.inf, np.inf, np.inf, 0.75, np.nan])
    ask = np.ones((2, 2, 6), dtype=bool)
    ask[:, :, 4] = False
    decided = np.zeros_like(ask)
    decided[0, 1, [0, 1]] = True
    decided[1, :, [2, 5]] = True
    decided[1, 0, 3] = True
    value = ps._term_values(upper, lower, ask, decided, low, high)
    assert np.array_equal(value, [0.125, low, np.nextafter(high, np.inf),
                                  np.nan, 0.75, np.nan], equal_nan=True)


@pytest.mark.parametrize("E, level, node", [
    (np.array([[0.5 + 0j]]), 0.25, 0.5 + 0.25j),
    (np.array([[0.5j]]), 0.25, 0.25 + 0.5j),
    (np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex), 0.25, 0.5 + 0j),
    (np.array([[0.5, 0.25], [0, 0.5]], dtype=complex), 0.0, 0.5 + 0j),
], ids=["scalar-real", "scalar-imaginary", "hermitian", "bidiagonal"])
def test_bounds_tier_sends_ties_to_the_kernel(E, level, node, monkeypatch):
    # |a - z|, the distance from z to the eigenvalues 0.25 and 0.75, or the
    # smin of the singular bidiagonal E - 0.5 I, equals the level at a node:
    # neither the bounds nor the bidiagonal count decide it, so the kernel
    # decides that node, and the mask is the full sweep's
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    assert node in grid.nodes()
    spy = KernelPairs()
    monkeypatch.setattr(ps, "smin_fields", spy)
    region = pseudospectrum(E, level, grid, with_field=False)
    monkeypatch.undo()
    assert spy.pairs[(ps._content_key(E, None), node)] == 1
    full = reference_pseudospectrum(E, level, grid)
    assert full.values[grid.nodes() == node] == level
    assert np.array_equal(region.mask, full.mask)


MASK_CASES = {
    "laplacian-128": (lambda: laplacian(128), 0.1),
    "jordan-96": (lambda: jordan(96), 0.15),
    "hermitian-40": (lambda: hermitian_random(40, 40) / math.sqrt(40), 0.3),
    "diagonal-30": (lambda: np.diag(rand_complex(np.random.default_rng(30),
                                                  30)), 0.2),
    "dense-30": (lambda: rand_complex(np.random.default_rng(31), (30, 30))
                 / math.sqrt(30), 0.3),
    "scalar": (lambda: np.array([[0.3 - 0.7j]]), 0.4),
    "upper-30": (lambda: bidiagonal(30, 32) / math.sqrt(2), 0.2),
    "lower-30": (lambda: bidiagonal(30, 33, lower=True) / math.sqrt(2), 0.2),
    # a real matrix: its Sturm passes hold real diagonals
    "real-upper-20": (lambda: bidiagonal(20, 34).real, 0.2),
    "jordan-40-2^500": (lambda: jordan(40) * 2.0 ** 500, 0.15, 2.0 ** 500),
    "jordan-40-2^-500": (lambda: jordan(40) * 2.0 ** -500, 0.15,
                         2.0 ** -500),
}


@pytest.mark.parametrize("nodes", [64, 129])
@pytest.mark.parametrize("case", MASK_CASES.values(), ids=MASK_CASES)
def test_mask_only_pseudospectrum_equals_full_sweep(case, nodes):
    # a case of scale s sweeps s eps on the grid of E / s scaled by s:
    # default_grid's least span, 1e-6, would hide a set of scale 2^-500
    build, eps, *scale = case
    scale = scale[0] if scale else 1.0
    E = build()
    unit = default_grid(E / scale, pad=eps, nx=nodes, ny=nodes)
    grid = GridSpec(unit.re_min * scale, unit.re_max * scale,
                    unit.im_min * scale, unit.im_max * scale, nodes, nodes)
    eps *= scale
    region = pseudospectrum(E, eps, grid, with_field=False)
    full = reference_pseudospectrum(E, eps, grid)
    assert np.array_equal(region.mask, full.mask)
    assert 0 < full.mask.sum() < full.mask.size
    assert region.values is None


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def make_disc(grid, center, radius):
    dist = np.abs(grid.nodes() - center)
    return Region(grid, dist <= radius, dist, radius)


def test_grid_mismatch():
    a = make_disc(GridSpec(-2, 2, -2, 2, 21, 21), 0, 1)
    b = make_disc(GridSpec(-2, 2, -2, 2, 31, 31), 0, 1)
    with pytest.raises(GridMismatch):
        hausdorff(a, b)


def test_hausdorff_identical_zero():
    grid = GridSpec(-2, 2, -2, 2, 61, 61)
    disc = make_disc(grid, 0.1, 0.9)
    assert hausdorff(disc, disc) == 0.0


def test_hausdorff_concentric_discs():
    grid = GridSpec(-3, 3, -3, 3, 201, 201)
    small = make_disc(grid, 0.0, 1.0)
    big = make_disc(grid, 0.0, 2.0)
    assert hausdorff(small, big) == pytest.approx(1.0, abs=grid.cell_diag)
    mid = make_disc(grid, 0.0, 1.15)
    assert hausdorff(small, mid) == pytest.approx(0.15, abs=grid.cell_diag)


def test_hausdorff_empty_region():
    grid = GridSpec(-1, 1, -1, 1, 11, 11)
    disc = make_disc(grid, 0, 0.5)
    empty = Region(grid, np.zeros((11, 11), dtype=bool))
    with pytest.raises(EmptyRegionError):
        hausdorff(disc, empty)


def test_covers_points():
    grid = GridSpec(-2, 2, -2, 2, 81, 81)
    disc = make_disc(grid, 0, 1.0)
    assert covers_points(disc, [0.0, 0.5 + 0.5j, 0.99]).all()
    assert not covers_points(disc, [1.8 + 0.9j]).any()


def test_covers_points_rejects_non_finite_points():
    grid = GridSpec(-1, 1, -1, 1, 11, 11)
    disc = make_disc(grid, 0, 0.5)
    empty = Region(grid, np.zeros((11, 11), dtype=bool))
    for region in (disc, empty):
        for bad in (np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)):
            with pytest.raises(DomainError):
                covers_points(region, [0.0, bad])
    assert covers_points(disc, []).shape == (0,)


# ---------------------------------------------------------------------------
# nearest-node queries: bit for bit against a k-d tree
# ---------------------------------------------------------------------------

# grids with dx != dy, a square one, and the smallest one
ORACLE_GRIDS = [GridSpec(-2, 2, -1.5, 1.5, 57, 41),
                GridSpec(-0.3, 1.7, -1, 1, 33, 33),
                GridSpec(0, 1, 0, 3, 2, 2)]


def single_node(grid, iy, ix):
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    mask[iy, ix] = True
    return Region(grid, mask)


def oracle_points(region):
    """Points on the masked nodes, exactly one cell diagonal (and one cell
    diagonal along each axis) away from them, and random points in and
    around the grid box."""
    grid = region.grid
    rng = np.random.default_rng(grid.nx * grid.ny)
    nodes = ps.region_points(region)[:40]
    d = grid.cell_diag
    box = (rng.uniform(grid.re_min - 1, grid.re_max + 1, 60)
           + 1j * rng.uniform(grid.im_min - 1, grid.im_max + 1, 60))
    return np.concatenate([nodes, nodes + complex(grid.dx, grid.dy),
                           nodes - complex(grid.dx, grid.dy), nodes + d,
                           nodes - 1j * d, grid.nodes().ravel()[::7], box])


def assert_matches_kdtree(a, b):
    assert hausdorff(a, b) == reference_hausdorff(a, b)
    assert hausdorff(b, a) == reference_hausdorff(a, b)
    for region in (a, b):
        pts = oracle_points(a if region is b else b)
        for cells in (0.0, 1.0, 2.5):
            np.testing.assert_array_equal(
                covers_points(region, pts, cells),
                reference_covers_points(region, pts, cells))


@pytest.mark.parametrize("chunk", [None, 37], ids=["one-batch", "batches"])
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["57x41", "33x33", "2x2"])
def test_nearest_queries_match_kdtree_on_speckle(grid, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(ps, "_QUERY_CHUNK", chunk)
    rng = np.random.default_rng(grid.nx)
    for density in (0.02, 0.1, 0.5, 0.9):
        a = Region(grid, rng.random((grid.ny, grid.nx)) < density)
        b = Region(grid, rng.random((grid.ny, grid.nx)) < 0.3)
        if not (a.is_empty or b.is_empty):
            assert_matches_kdtree(a, b)


@pytest.mark.parametrize("centers, radii", [
    ((0.1, 0.1), (0.4, 1.3)),        # nested
    ((-1.2, 1.1 + 0.4j), (0.5, 0.4)),  # disjoint
    ((-0.9j, 0.9j), (0.45, 0.45)),   # disjoint, one above the other
    ((2.0, -2 - 1.5j), (0.7, 0.9)),  # cut by a grid edge and a corner
    ((-2.0, 2.0), (0.3, 0.3)),       # touching opposite edges
], ids=["nested", "disjoint", "stacked", "edge-corner", "edges"])
def test_nearest_queries_match_kdtree_on_discs(centers, radii):
    grid = ORACLE_GRIDS[0]
    a, b = (make_disc(grid, c, r) for c, r in zip(centers, radii))
    assert_matches_kdtree(a, b)


def test_nearest_queries_match_kdtree_on_single_nodes():
    for grid in ORACLE_GRIDS:
        corners = [single_node(grid, iy, ix)
                   for iy in (0, grid.ny - 1) for ix in (0, grid.nx - 1)]
        for a in corners:
            for b in corners:
                assert_matches_kdtree(a, b)
        middle = single_node(grid, grid.ny // 2, grid.nx // 3)
        corner = complex(grid.re_min, grid.im_min)
        assert_matches_kdtree(middle, make_disc(grid, corner, grid.cell_diag))


def test_nearest_queries_match_kdtree_on_every_2x2_pair():
    grid = ORACLE_GRIDS[2]
    masks = [np.array(bits, dtype=bool).reshape(2, 2)
             for bits in np.ndindex(2, 2, 2, 2) if any(bits)]
    for a in masks:
        for b in masks:
            assert_matches_kdtree(Region(grid, a), Region(grid, b))


@pytest.mark.parametrize("chunk", [None, 1000], ids=["one-batch", "batches"])
def test_hausdorff_matches_kdtree_on_far_apart_discs(chunk, monkeypatch):
    # a larger grid, where each directed distance first settles a sample of
    # its nodes and then drops the nodes that cannot be farthest, in one
    # batch of points or carrying the largest exact value across batches
    if chunk:
        monkeypatch.setattr(ps, "_QUERY_CHUNK", chunk)
    grid = GridSpec(-1, 1, -1, 1, 192, 160)
    for c in (0.6, 0.6j, 0.6 + 0.6j):
        a, b = make_disc(grid, -c, 0.3), make_disc(grid, c, 0.3)
        assert hausdorff(a, b) == reference_hausdorff(a, b)
    ring = Region(grid, np.abs(np.abs(grid.nodes()) - 0.8) < 0.02)
    full = make_disc(grid, 0, 0.95)
    assert hausdorff(full, ring) == reference_hausdorff(full, ring)


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

def loop_is_closed(loop):
    return np.allclose(loop[0], loop[-1])


def test_contour_full_grid_rectangle():
    grid = GridSpec(0, 1, 0, 2, 11, 11)
    full = Region(grid, np.ones((11, 11), dtype=bool))
    loops = contour_extract(full)
    assert len(loops) == 1
    assert loop_is_closed(loops[0])
    xs, ys = loops[0][:, 0], loops[0][:, 1]
    assert xs.min() < 0 and xs.max() > 1       # hugs the padded boundary
    assert ys.min() < 0 and ys.max() > 2


def test_contour_disc_single_loop():
    grid = GridSpec(-2, 2, -2, 2, 101, 101)
    disc = make_disc(grid, 0.0, 1.0)
    loops = contour_extract(disc)
    assert len(loops) == 1
    assert loop_is_closed(loops[0])
    radii = np.hypot(loops[0][:, 0], loops[0][:, 1])
    assert np.allclose(radii, 1.0, atol=2 * grid.cell_diag)


def test_contour_annulus_two_loops():
    # rectangular Jordan pseudospectrum: an annulus with analytic radii
    n = 4
    bp, ip = jordan_plus(n)
    s = math.sin(math.pi / (n + 1))
    c = math.cos(math.pi / (n + 1))
    eps = 1.3 * s
    a_minus = c - math.sqrt(eps**2 - s**2)
    a_plus = c + math.sqrt(eps**2 - s**2)
    grid = GridSpec(-1.6, 1.6, -1.6, 1.6, 161, 161)
    region = pseudospectrum(bp, eps, grid, embed=ip)
    loops = contour_extract(region)
    assert len(loops) == 2
    radii = sorted(float(np.hypot(l[:, 0], l[:, 1]).mean()) for l in loops)
    assert radii[0] == pytest.approx(a_minus, abs=2 * grid.cell_diag)
    assert radii[1] == pytest.approx(a_plus, abs=2 * grid.cell_diag)


@pytest.mark.parametrize("field", [[[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["case5", "case10"])
@pytest.mark.parametrize("level,count", [(0.5, 1), (0.45, 2)])
def test_contour_saddle_follows_centre(field, level, count):
    # the centre average 0.5 decides a saddle cell: inside, the two
    # diagonal nodes join into one loop; outside, each gets its own
    f = np.array(field)
    region = Region(GridSpec(0, 1, 0, 1, 2, 2), f <= level, f, level)
    loops = contour_extract(region)
    assert len(loops) == count
    assert all(loop_is_closed(loop) for loop in loops)


def test_contour_empty_region():
    grid = GridSpec(-1, 1, -1, 1, 11, 11)
    with pytest.raises(EmptyRegionError):
        contour_extract(Region(grid, np.zeros((11, 11), dtype=bool)))


# ---------------------------------------------------------------------------
# eigensolver and defaults
# ---------------------------------------------------------------------------

def test_eig_examples():
    got = sorted(eig(np.diag([1.0, 2.0j])), key=lambda z: z.real)
    assert got[0] == pytest.approx(2.0j, abs=1e-12)
    assert got[1] == pytest.approx(1.0, abs=1e-12)
    lap4 = sorted(eig(laplacian(4)).real)
    phi = (1 + math.sqrt(5)) / 2
    assert np.allclose(lap4, [-phi, -phi + 1, phi - 1, phi], atol=1e-12)
    assert np.allclose(eig(jordan(5)), 0.0, atol=1e-12)


def test_default_grid_contains_gershgorin_box():
    rng = np.random.default_rng(9)
    A = rand_complex(rng, (6, 6))
    grid = default_grid(A, pad=0.5, nx=64, ny=64)
    d = np.diag(A)
    radii = np.abs(A).sum(axis=1) - np.abs(d)
    assert grid.re_min < (d.real - radii).min() - 0.5
    assert grid.re_max > (d.real + radii).max() + 0.5


@pytest.mark.parametrize("s", [2.0 ** -30, 2.0 ** -500],
                         ids=["2^-30", "2^-500"])
def test_default_grid_scales_with_the_matrix(s):
    # a matrix of small scale keeps its own box: no least width hides its set
    E, eps = jordan(40), 0.15
    unit = default_grid(E, pad=eps, nx=64, ny=64)
    grid = default_grid(s * E, pad=s * eps, nx=64, ny=64)
    assert grid == GridSpec(s * unit.re_min, s * unit.re_max,
                            s * unit.im_min, s * unit.im_max, 64, 64)
    mask = pseudospectrum(s * E, s * eps, grid, with_field=False).mask
    expected = pseudospectrum(E, eps, unit, with_field=False).mask
    assert np.array_equal(mask, expected) and mask.any()


def test_default_grid_of_one_point():
    # the zero matrix keeps its 1e-6 box; a point away from 0 gets a box
    # relative to its modulus
    zero = default_grid(np.zeros((2, 2)), nx=5, ny=5)
    assert zero.re_max - zero.re_min == pytest.approx(1e-6 * (1 + 4 / 4))
    far = default_grid(np.array([[1e8]]), nx=5, ny=5)
    assert far.re_max - far.re_min == pytest.approx(100.0 * (1 + 4 / 4))
    assert far.re_min < 1e8 < far.re_max


@pytest.mark.parametrize("diag", [(1.0, 1.0 + 1e-15), (0.0, 1e-305)],
                         ids=["ulps", "least-spacing"])
def test_default_grid_of_a_near_degenerate_box(diag):
    # a box a few ulps wide around 1 kept about 6 distinct abscissae of 256,
    # and one of width 1e-305 fell below GridSpec's least spacing; the
    # floored box has 256 distinct, evenly spaced nodes per axis around the
    # entries.  The ulp floor scales with a power of two; the floor at the
    # least spacing is absolute
    A = np.diag(diag)
    grid = default_grid(A)
    for axis in (grid.xs, grid.ys):
        steps = np.diff(axis)
        assert np.all(steps > 0) and steps.max() < 1.1 * steps.min()
    assert grid.re_min < min(diag) <= max(diag) < grid.re_max
    assert grid.im_min < 0 < grid.im_max
    if diag[0]:
        s = 2.0 ** 40
        assert default_grid(s * A) == GridSpec(
            s * grid.re_min, s * grid.re_max, s * grid.im_min,
            s * grid.im_max, grid.nx, grid.ny)


def test_region_from_points_rasterizes():
    grid = GridSpec(-1, 1, -1, 1, 21, 21)
    region = region_from_points(grid, [0.0, 0.5 + 0.5j])
    assert region.mask.sum() == 2
    assert covers_points(region, [0.0, 0.5 + 0.5j]).all()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def first_node_only(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[0, 0] = True
    return mask


@pytest.mark.parametrize("make_mask", [
    lambda grid: make_disc(grid, 0.3, 0.7).mask,
    lambda grid: np.ones((grid.ny, grid.nx), dtype=bool),
    lambda grid: np.zeros((grid.ny, grid.nx), dtype=bool),
    lambda grid: first_node_only((grid.ny, grid.nx)),
    lambda grid: np.add.outer(np.arange(grid.ny), np.arange(grid.nx)) % 2 == 0,
], ids=["disc", "all-true", "all-false", "first-node", "checkerboard"])
def test_region_json_roundtrip(make_mask):
    grid = GridSpec(-2, 2, -2, 2, 31, 29)
    mask = make_mask(grid)
    text = json.dumps(ps.region_doc(Region(grid, mask)))
    back = ps.region_from_doc(json.loads(text))
    assert back.grid == grid
    assert np.array_equal(back.mask, mask)
    runs = json.loads(text)["mask_rle"]
    assert sum(runs) == mask.size
    assert (runs[0] == 0) == bool(mask[0, 0])


def test_region_csv(tmp_path):
    grid = GridSpec(0, 1, 0, 1, 3, 3)
    disc = make_disc(grid, 0.0, 0.75)
    path = tmp_path / "region.csv"
    region_to_csv(disc, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,smin,mask"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and int(first[3]) == 1
    # repr round-trips a float, so the smin column is the field exactly
    rows = [line.split(",") for line in lines[1:]]
    assert np.array_equal([float(r[2]) for r in rows], disc.values.ravel())
    assert np.array_equal([int(r[3]) for r in rows], disc.mask.ravel())
    region_to_csv(Region(grid, disc.mask), path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == [""] * 9
