import math

import numpy as np
import pytest

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.errors import DomainError, PiMethodUnsupported
from specincl.matrixcore import BlockPartition, make_view, resolve_partition
from specincl.penalty import eps_pi, eps_tau, eps_tau1
from specincl.toeplitz import (
    jordan,
    jordan_alpha,
    laplacian,
    laplacian_spectrum,
    laplacian_theta,
)

from support import (
    KernelPairs,
    full_sweep_mask,
    reference_block_radii,
    reference_gershgorin_block,
    reference_term_fields,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def banded_matrix(order, width, seed):
    rng = np.random.default_rng(seed)
    return sum(np.diag(rand_complex(rng, order - abs(k)), k)
               for k in range(-width, width + 1))


def scalar_view(A):
    A = np.asarray(A)
    return make_view(A, BlockPartition((1,) * A.shape[0]))


def distinct(terms):
    """Content-distinct (matrix, embedding) pairs of a family term."""
    out = {}
    for _, mat, embed in terms:
        key = mat.tobytes() + (b"" if embed is None else embed.tobytes())
        out.setdefault(key, (mat, embed))
    return list(out.values())


def masks_agree_off_boundary(region, analytic_dist, level, slack):
    """Masks may disagree only where the analytic field is within slack of
    the threshold."""
    analytic = analytic_dist <= level
    disagree = region.mask ^ analytic
    return not np.any(disagree & (np.abs(analytic_dist - level) > slack))


# ---------------------------------------------------------------------------
# tau method
# ---------------------------------------------------------------------------

def test_sigma_tau_n1_matches_gershgorin_style_union():
    rng = np.random.default_rng(21)
    A = rand_complex(rng, (8, 8))
    view = make_view(A, BlockPartition((2, 2, 2, 2)))
    p = inc.penalty_params(view, 1)
    grid = ps.default_grid(A, pad=eps_tau(p), nx=64, ny=64)
    _, hat, sigma = inc.sigma_tau(view, 1, 0.0, grid=grid)
    assert hat is None
    level = eps_tau(p)   # r + ||C||
    assert level == pytest.approx(p.r + p.c_norm, abs=1e-14)
    direct = np.logical_or.reduce(
        [ps.pseudospectrum(view.block(k, k), level, grid).mask
         for k in range(4)])
    assert np.array_equal(sigma.mask, direct)


def test_sigma_tau_jordan_is_unit_disc_at_eps0():
    N, n = 10, 3
    view = scalar_view(jordan(N))
    grid = ps.GridSpec(-1.6, 1.6, -1.6, 1.6, 129, 129)
    _, _, region = inc.sigma_tau(view, n, 0.0, grid=grid)
    dist = np.abs(grid.nodes())
    assert masks_agree_off_boundary(region, dist, 1.0, grid.cell_diag)


def test_sigma_tau_laplacian_structure():
    # union of eps_4 discs about the eigenvalues of L_1..L_4, intersected
    # with eps_2 discs about the eigenvalues of L_4
    N, n = 16, 4
    view = scalar_view(laplacian(N))
    eps4 = 4 * math.sin(laplacian_theta(4) / 2)
    eps2 = math.sqrt(2)
    grid = ps.GridSpec(-3.2, 3.2, -2.0, 2.0, 161, 101)
    sigma, hat, region = inc.sigma_tau(view, n, 0.0, grid=grid)

    centers_sigma = np.concatenate([laplacian_spectrum(m) for m in range(1, 5)])
    centers_hat = laplacian_spectrum(4)
    nodes = grid.nodes()
    d_sigma = np.min(np.abs(nodes[..., None] - centers_sigma), axis=-1)
    d_hat = np.min(np.abs(nodes[..., None] - centers_hat), axis=-1)
    assert masks_agree_off_boundary(sigma, d_sigma, eps4, 1e-8)
    assert masks_agree_off_boundary(hat, d_hat, eps2, 1e-8)
    analytic = (d_sigma <= eps4) & (d_hat <= eps2)
    boundary = (np.abs(d_sigma - eps4) <= 1e-8) | (np.abs(d_hat - eps2) <= 1e-8)
    assert not np.any((region.mask ^ analytic) & ~boundary)
    # the hat union swallows sigma here, so the intersection is sigma itself
    assert not np.any(sigma.mask & ~hat.mask)
    assert np.array_equal(region.mask, sigma.mask)


def test_sigma_tau_rejects_bad_n():
    view = scalar_view(jordan(5))
    with pytest.raises(IndexError):
        inc.sigma_tau(view, 5, 0.0)
    with pytest.raises(IndexError):
        inc.sigma_tau(view, 0, 0.0)


# ---------------------------------------------------------------------------
# pi method
# ---------------------------------------------------------------------------

def test_pi_jordan_roots_of_unity_structure():
    # the periodised truncation is normal with eigenvalues solving
    # lam^n = conj(t), so the region is the alpha-disc of the plain
    # truncation plus level-discs about those rotated roots of unity
    N, n, eps = 12, 4, 0.1
    t = np.exp(1j * 0.9)
    view = scalar_view(jordan(N))
    p = inc.penalty_params(view, n)
    level = eps + eps_pi(p)
    grid = ps.GridSpec(-2.2, 2.2, -2.2, 2.2, 121, 121)
    region = inc.pi_method(view, n, t, eps, grid=grid)

    from specincl.matrixcore import submatrix_pi
    roots = ps.eig(submatrix_pi(view, n, 1, t))
    expected = np.conj(t) ** (1 / n) * np.exp(2j * math.pi * np.arange(n) / n)
    assert np.allclose(np.sort_complex(roots), np.sort_complex(expected),
                       atol=1e-12)
    nodes = grid.nodes()
    d_roots = np.min(np.abs(nodes[..., None] - roots), axis=-1)
    alpha = jordan_alpha(n, level)
    analytic_dist = np.minimum(d_roots, np.abs(nodes) - alpha + level)
    assert masks_agree_off_boundary(region, analytic_dist, level,
                                    grid.cell_diag)


def test_pi_laplacian_three_term_union():
    # interior n: wrapped corners give the three matrices L^{t,t}, L^{t,0},
    # L^{0,t}; at n = N-1 only the two edge ones appear
    N = 8
    view = scalar_view(laplacian(N))
    t = 1j

    def corner_variants(n):
        return [m for m, _ in distinct(inc.family(view, "pi", n, t)[0])]

    def lpq(n, p, q):
        m = laplacian(n).astype(complex)
        m[0, n - 1] += p
        m[n - 1, 0] += np.conj(q)
        return m

    mats = corner_variants(3)
    assert len(mats) == 3
    expected = [lpq(3, t, 0), lpq(3, t, t), lpq(3, 0, t)]
    for e in expected:
        assert any(np.allclose(m, e, atol=1e-15) for m in mats)

    mats_edge = corner_variants(N - 1)
    assert len(mats_edge) == 2
    for e in [lpq(N - 1, t, 0), lpq(N - 1, 0, t)]:
        assert any(np.allclose(m, e, atol=1e-15) for m in mats_edge)


def test_pi_method_requires_uniform():
    rng = np.random.default_rng(23)
    A = rand_complex(rng, (5, 5))
    view = make_view(A, BlockPartition((2, 3)))
    with pytest.raises(PiMethodUnsupported):
        inc.pi_method(view, 1, 1.0, 0.0)


# ---------------------------------------------------------------------------
# tau_1 method
# ---------------------------------------------------------------------------

def test_tau1_jordan_disc_and_sandwich():
    N, n, eps = 10, 4, 0.15
    view = scalar_view(jordan(N))
    p = inc.penalty_params(view, n)
    level = eps + eps_tau1(p)
    grid = ps.GridSpec(-2.0, 2.0, -2.0, 2.0, 121, 121)
    gamma, outer = inc.tau1_method(view, n, eps, grid=grid, outer=True)
    alpha = jordan_alpha(n, level)
    dist = np.abs(grid.nodes())
    assert masks_agree_off_boundary(gamma, dist, alpha, grid.cell_diag)
    assert outer is not None
    assert not np.any(gamma.mask & ~outer.mask)
    # the sandwich group of the sweep is the lone pseudospectrum, bit for bit
    lone = ps.pseudospectrum(view.matrix, inc.tau1_outer_level(p, eps), grid)
    assert np.array_equal(outer.mask, lone.mask)
    assert np.array_equal(outer.values, lone.values, equal_nan=True)
    assert outer.level == lone.level


def test_tau1_laplacian_edge_case_single_shape():
    # n = N-1: only the two border variants occur, and they share one
    # pseudospectrum (row permutations of each other)
    N = 7
    view = scalar_view(laplacian(N))
    n = N - 1
    groups = distinct(inc.family(view, "tau1", n)[0])
    assert len(groups) == 2
    grid = ps.GridSpec(-3.0, 3.0, -2.0, 2.0, 81, 55)
    eps = 0.05
    p = inc.penalty_params(view, n)
    level = eps + eps_tau1(p)
    gamma, _ = inc.tau1_method(view, n, eps, grid=grid, outer=False)
    single = ps.pseudospectrum(groups[0][0], level, grid, embed=groups[0][1])
    assert np.array_equal(gamma.mask, single.mask)


@pytest.mark.parametrize("method", ["tau", "pi", "tau1"])
def test_membership_matches_region(method):
    rng = np.random.default_rng(29)
    A = rand_complex(rng, (9, 9)) / 3
    view = scalar_view(A)
    n, eps, t = 3, 0.1, 1j
    p = inc.penalty_params(view, n)
    grid = ps.default_grid(A, pad=max(inc.levels(p, method, eps)),
                           nx=48, ny=48)
    if method == "tau":
        _, _, region = inc.sigma_tau(view, n, eps, grid=grid)
    elif method == "pi":
        region = inc.pi_method(view, n, t, eps, grid=grid)
    else:
        region, _ = inc.tau1_method(view, n, eps, grid=grid, outer=False)
    pts = grid.nodes().ravel()[::37]
    member = inc.membership(view, method, n, eps, pts, t=t)
    assert np.array_equal(member, region.mask.ravel()[::37])
    assert member.any() and not member.all()


@pytest.mark.parametrize("method", ["tau", "pi", "tau1"])
def test_membership_rejects_negative_eps(method):
    # the grid methods and the pointwise test share one definition of the
    # levels, and with it one check of eps
    view = scalar_view(jordan(8))
    for run in (lambda: inc.membership(view, method, 3, -0.1, [0j], t=1.0),
                lambda: inc.method_mask(view, method, 3, -0.1, t=1.0)):
        with pytest.raises(DomainError, match="eps must be nonnegative"):
            run()


def grid_method_region(view, method, n, eps, grid, t):
    if method == "tau":
        return inc.sigma_tau(view, n, eps, grid=grid)[2]
    if method == "pi":
        return inc.pi_method(view, n, t, eps, grid=grid)
    return inc.tau1_method(view, n, eps, grid=grid, outer=False)[0]


@pytest.mark.parametrize("method, n", [("tau", 2), ("tau", 4), ("pi", 3),
                                       ("tau1", 3)])
def test_method_mask_equals_full_sweep(method, n):
    rng = np.random.default_rng(31)
    A = rand_complex(rng, (12, 12)) / 3
    A[np.abs(np.subtract.outer(np.arange(12), np.arange(12))) > 4] = 0
    t = 1j
    for view in (scalar_view(A), make_view(A, BlockPartition((2,) * 6))):
        for eps in (0.0, 0.2):
            p = inc.penalty_params(view, n)
            grid = ps.default_grid(A, pad=max(inc.levels(p, method, eps)),
                                   nx=61, ny=53)
            full = full_sweep_mask(view, method, n, eps, grid, t)
            region = inc.method_mask(view, method, n, eps, grid=grid, t=t)
            assert region.values is None and region.grid == grid
            assert np.array_equal(region.mask, full)
            assert full.any() and not full.all()
            swept = grid_method_region(view, method, n, eps, grid, t)
            assert np.array_equal(swept.mask, full)


def test_method_mask_default_grid():
    view = scalar_view(jordan(10))
    p = inc.penalty_params(view, 4)
    grid = ps.default_grid(view.matrix, pad=max(inc.levels(p, "tau", 0.1)))
    full = full_sweep_mask(view, "tau", 4, 0.1, grid)
    region = inc.method_mask(view, "tau", 4, 0.1)
    assert region.grid == grid == inc.sigma_tau(view, 4, 0.1)[2].grid
    assert np.array_equal(region.mask, full)


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


@pytest.mark.parametrize("build", [
    lambda: scalar_view(jordan(12)),
    lambda: make_view(banded_matrix(12, 3, seed=37), BlockPartition((2,) * 6)),
], ids=["jordan", "banded"])
def test_grid_methods_carry_completed_band_fields(build):
    view = build()
    n, eps, t = 3, 0.1, 1.0
    p = inc.penalty_params(view, n)
    grid = ps.default_grid(view.matrix, pad=inc.tau1_outer_level(p, eps),
                           nx=70, ny=64)
    nodes = grid.nodes()

    def full(terms):
        return reference_term_fields([terms], nodes)[0].reshape(nodes.shape)

    sigma, hat, both = inc.sigma_tau(view, n, eps, grid=grid)
    [tau_main, tau_hat] = inc.family(view, "tau", n)
    gamma, outer = inc.tau1_method(view, n, eps, grid=grid, outer=True)
    # the tau set joins two terms at different levels l_i: its field is
    # G = max_i (f_i - (l_i - l_0)) at level l_0 = max_i l_i, and its mask
    # is the terms' masks joined
    lvls = np.array(inc.levels(p, "tau", eps))
    terms = np.array([full(tau_main), full(tau_hat)])
    top = lvls.max()
    assert lvls[0] != lvls[1] and both.level == top
    G = np.max(terms - (lvls - top)[:, None, None], axis=0)
    inside = np.all(terms <= lvls[:, None, None], axis=0)
    cases = [(sigma, full(tau_main), None),
             (hat, full(tau_hat), None),
             (both, G, inside),
             (inc.pi_method(view, n, t, eps, grid=grid),
              full(inc.family(view, "pi", n, t)[0]), None),
             (gamma, full(inc.family(view, "tau1", n)[0]), None),
             (outer, ps.smin_grid(view.matrix, nodes), None)]
    for region, full, mask in cases:
        level = region.level
        mask = full <= level if mask is None else mask
        known = ~np.isnan(region.values)
        assert np.array_equal(region.mask, mask)
        assert np.array_equal(region.values[known], full[known])
        assert known.sum() < full.size / 2
        assert not np.any(boundary_corners(region.mask) & ~known)
        loops = ps.contour_extract(region)
        expected = ps.contour_extract(ps.Region(grid, mask, full, level))
        assert len(loops) == len(expected) > 0
        assert all(np.array_equal(a, b) for a, b in zip(loops, expected))


def test_run_method_builds_each_family_once(monkeypatch):
    view = scalar_view(laplacian(8))
    grid = ps.GridSpec(-3, 3, -3, 3, 21, 21)
    calls = {"family": 0, "penalty_params": 0}
    for name in calls:
        def counted(*args, _fn=getattr(inc, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(inc, name, counted)
    for method in ("tau", "pi", "tau1"):
        inc.method_reports(view, [method], [0.1], 3, 1.0, grid)[0][0]
    assert calls == {"family": 3, "penalty_params": 3}


# ---------------------------------------------------------------------------
# Gershgorin baselines
# ---------------------------------------------------------------------------

def test_gershgorin_diagonal_matrix():
    d = np.array([1.0, -2.0, 3.0j])
    region, discs = inc.gershgorin(np.diag(d))
    assert [c for c, _ in discs] == list(d)
    assert all(r == 0.0 for _, r in discs)


def test_gershgorin_jordan_unit_disc():
    grid = ps.GridSpec(-1.5, 1.5, -1.5, 1.5, 101, 101)
    region, discs = inc.gershgorin(jordan(8), grid=grid)
    dist = np.abs(grid.nodes())
    assert masks_agree_off_boundary(region, dist, 1.0, 1e-9)


def test_gershgorin_laplacian_two_disc():
    grid = ps.GridSpec(-2.5, 2.5, -2.5, 2.5, 101, 101)
    region, _ = inc.gershgorin(laplacian(9), grid=grid)
    dist = np.abs(grid.nodes())
    assert masks_agree_off_boundary(region, dist, 2.0, 1e-9)


def test_gershgorin_block_diag_blocks():
    # r_k = 0 for a block-diagonal matrix: the region degenerates to the
    # exact block spectra, so any masked node must sit on an eigenvalue;
    # with a small coupling the discs open up and cover the eigenvalues
    rng = np.random.default_rng(31)
    blocks = [rand_complex(rng, (2, 2)) for _ in range(3)]
    A = np.zeros((6, 6), dtype=complex)
    for i, b in enumerate(blocks):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = b
    lams = np.concatenate([ps.eig(b) for b in blocks])
    grid = ps.default_grid(A, pad=0.5, nx=64, ny=64)
    pure = inc.gershgorin_block(make_view(A, BlockPartition((2, 2, 2))),
                                grid=grid)
    if not pure.is_empty:
        pts = ps.region_points(pure)
        assert np.min(np.abs(pts[:, None] - lams[None, :]), axis=1).max() \
            <= grid.cell_diag
    coupled = A.copy()
    coupled[1, 2] = coupled[3, 4] = coupled[4, 1] = 0.3
    region = inc.gershgorin_block(
        make_view(coupled, BlockPartition((2, 2, 2))), grid=grid)
    assert ps.covers_points(region, lams).all()


def test_gershgorin_block_laplacian_display():
    # edge blocks contribute radius-1 discs, interior ones radius-2; with
    # equal block orders the union is dist(z, Spec L_3) <= 2
    M = 12
    view = make_view(laplacian(M), BlockPartition((3, 3, 3, 3)))
    grid = ps.GridSpec(-4.2, 4.2, -2.6, 2.6, 169, 105)
    region = inc.gershgorin_block(view, grid=grid)
    centers = laplacian_spectrum(3)
    nodes = grid.nodes()
    dist = np.min(np.abs(nodes[..., None] - centers), axis=-1)
    assert masks_agree_off_boundary(region, dist, 2.0, 1e-8)


def test_gershgorin_block_scalar_partition_equals_classical():
    rng = np.random.default_rng(37)
    A = rand_complex(rng, (7, 7))
    grid = ps.default_grid(A, pad=0.0, nx=64, ny=64)
    classical, _ = inc.gershgorin(A, grid=grid)
    blockwise = inc.gershgorin_block(scalar_view(A), grid=grid)
    assert np.array_equal(classical.mask, blockwise.mask)


def test_gershgorin_block_sweeps_each_distinct_block_once(monkeypatch):
    # diagonal blocks of one order of a Toeplitz matrix are equal, so the
    # partition (3,3,3,2,1) has three distinct diagonal blocks; each is
    # swept certified, no (block, node) pair twice, and the mask matches
    # block-by-block.  A sub- and a second superdiagonal keep the blocks of
    # order 2 and 3 from being bidiagonal, which the bounds tier would
    # decide without the kernel
    spy = KernelPairs()
    A = (jordan(12) + 0.5 * np.eye(12, k=2)
         + 0.25 * np.eye(12, k=-1)).astype(np.complex128)
    view = make_view(A, BlockPartition((3, 3, 3, 2, 1)))
    grid = ps.GridSpec(-2.5, 2.5, -2.5, 2.5, 41, 41)
    monkeypatch.setattr(ps, "smin_fields", spy)
    region = inc.gershgorin_block(view, grid=grid)
    monkeypatch.undo()
    distinct = {A[:m, :m].tobytes() for m in (1, 2, 3)}
    assert {block for block, _ in spy.pairs} == distinct
    assert max(spy.pairs.values()) == 1
    assert sum(spy.pairs.values()) < 3 * 41 * 41
    assert np.array_equal(region.mask, reference_gershgorin_block(view, grid))
    assert region.values is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gershgorin_block_equals_full_sweep(seed, monkeypatch):
    A = banded_matrix(48, 3, seed=seed)
    view = make_view(A, resolve_partition("auto-band", A))
    pad = max(reference_block_radii(view))
    assert inc.gershgorin_block(view).grid == ps.default_grid(A, pad=pad)
    grid = ps.default_grid(A, pad=pad, nx=64, ny=64)
    region = inc.gershgorin_block(view, grid=grid)
    assert region.values is None
    full = reference_gershgorin_block(view, grid)
    assert np.array_equal(region.mask, full)
    assert full.any() and not full.all()
    # the 16 distinct blocks in sweeps of at most 5 components each
    monkeypatch.setattr(inc, "_GERSH_PAIRS", 5 * grid.nx * grid.ny)
    assert np.array_equal(inc.gershgorin_block(view, grid=grid).mask, full)


@pytest.mark.parametrize("build", [
    lambda: jordan(12),
    lambda: laplacian(16),
    lambda: banded_matrix(24, 3, seed=4),
    lambda: rand_complex(np.random.default_rng(44), (10, 10)),
    lambda: (np.diag(rand_complex(np.random.default_rng(45), 8))
             + 0.05 * rand_complex(np.random.default_rng(46), (8, 8))),
], ids=["jordan", "laplacian", "banded", "dense", "near-diagonal"])
def test_gershgorin_block_scalar_partition_equals_full_sweep(build):
    # every component is a 1x1 block, which the bounds tier decides away
    # from its level: the masks are those of an SVD at every node
    view = scalar_view(build())
    grid = ps.default_grid(view.matrix, pad=max(view.block_radii),
                           nx=48, ny=48)
    full = reference_gershgorin_block(view, grid)
    assert np.array_equal(inc.gershgorin_block(view, grid=grid).mask, full)
    assert full.any()


def zero_block_matrix():
    # blocks (0, 2), (1, 0) and (2, 1) are zero; so is all of block row 3
    rng = np.random.default_rng(43)
    A = rand_complex(rng, (9, 9))
    A[0:2, 5:7] = A[2:5, 0:2] = A[5:7, 2:5] = 0
    A[7:9, :7] = 0
    return make_view(A, BlockPartition((2, 3, 2, 2)))


@pytest.mark.parametrize("build", [
    lambda: make_view(rand_complex(np.random.default_rng(41), (10, 10)),
                      BlockPartition((3, 1, 4, 2))),
    zero_block_matrix,
    lambda: scalar_view(laplacian(64)),
], ids=["dense", "zero-blocks", "scalar-laplacian"])
def test_block_radii_equal_all_pairs_sum(build):
    view = build()
    radii = view.block_radii
    reference = reference_block_radii(view)
    assert [float(r).hex() for r in radii] == [float(r).hex() for r in reference]


# ---------------------------------------------------------------------------
# containment (grid level; the full corpus runs in acceptance)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,order,sizes", [
    (41, 8, (1,) * 8),
    (43, 9, (3, 3, 3)),
    (47, 10, (2, 3, 2, 3)),
])
def test_eigenvalues_inside_all_regions(seed, order, sizes):
    rng = np.random.default_rng(seed)
    A = rand_complex(rng, (order, order)) / math.sqrt(order)
    view = make_view(A, BlockPartition(sizes))
    lams = ps.eig(A)
    N = view.block_count
    for n in range(1, N):
        for eps in (0.0, 0.1):
            assert inc.membership(view, "tau", n, eps, lams).all()
            assert inc.membership(view, "tau1", n, eps, lams).all()
            if view.partition.uniform:
                for t in (1, -1, 1j):
                    assert inc.membership(view, "pi", n, eps, lams,
                                          t=t).all()


def test_pseudospectrum_subset_of_methods_on_grid():
    rng = np.random.default_rng(53)
    A = rand_complex(rng, (8, 8)) / 3
    view = make_view(A, BlockPartition((2, 2, 2, 2)))
    n, eps = 2, 0.1
    p = inc.penalty_params(view, n)
    pad = eps + max(eps_tau(p), eps_pi(p), eps_tau1(p))
    grid = ps.default_grid(A, pad=pad, nx=64, ny=64)
    spec_eps = ps.pseudospectrum(A, eps, grid)
    _, _, sigma = inc.sigma_tau(view, n, eps, grid=grid)
    gamma, _ = inc.tau1_method(view, n, eps, grid=grid, outer=False)
    pi_region = inc.pi_method(view, n, 1.0, eps, grid=grid)
    for region in (sigma, gamma, pi_region):
        assert not np.any(spec_eps.mask & ~region.mask)


def test_hermitian_shortcut_consistency():
    rng = np.random.default_rng(59)
    H = rand_complex(rng, (10, 10))
    H = (H + H.conj().T) / 2
    view = make_view(H, BlockPartition((2,) * 5))
    n, k, eps = 3, 1, 0.2
    from specincl.matrixcore import submatrix_tau
    sub = submatrix_tau(view, n, k)
    grid = ps.default_grid(H, pad=eps, nx=96, ny=96)
    region = ps.pseudospectrum(sub, eps, grid)
    lams = ps.eig(sub)
    dist = np.min(np.abs(grid.nodes()[..., None] - lams), axis=-1)
    assert masks_agree_off_boundary(region, dist, eps, grid.cell_diag)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_method_report_roundtrip():
    view = scalar_view(jordan(6))
    grid = ps.GridSpec(-2, 2, -2, 2, 33, 33)
    report = inc.method_reports(view, ["tau"], [0.1], 2, None, grid)[0][0]
    back = inc.MethodReport.from_json(report.to_json())
    assert back.method == "tau" and back.n == 2
    assert back.eps == report.eps and back.penalty == report.penalty
    assert np.array_equal(back.region.mask, report.region.mask)
    assert back.contributions == report.contributions


@pytest.mark.parametrize("method", ["tau", "pi", "tau1", "gersh",
                                    "block-gersh"])
def test_run_method_all_variants(method):
    view = scalar_view(laplacian(6))
    grid = ps.GridSpec(-3, 3, -3, 3, 41, 41)
    report = inc.method_reports(view, [method], [0.1], 2, 1.0, grid)[0][0]
    assert report.method == method
    assert report.region.grid == grid
    assert len(report.contributions) >= 1
