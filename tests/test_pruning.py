"""Pruned union sweeps against the unpruned oracle.

A family method's term is the minimum of smin over its contributions.  The
library evaluates, after a sweep's first call, only the contributions whose
lower bound from that call's values does not exceed the term's running
minimum.  ``support.reference_term_fields`` evaluates every needed pair; the
masks, band fields (NaN positions included), reports and CSV bytes of the two
must be equal bit for bit, and the pruned sweep must evaluate fewer pairs.
"""

from functools import partial

import numpy as np
import pytest

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.cli import main
from specincl.matrixcore import BlockPartition, make_view, resolve_partition
from specincl.toeplitz import build_toeplitz, jordan, laplacian, toeplitz_spec

from support import (
    KernelPairs,
    exhaustive_bounded,
    full_sweep_mask,
    reference_term_fields,
    unpruned_term_fields,
    write_matrix_market,
)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def banded_view():
    rng = np.random.default_rng(5)
    A = sum(np.diag(rand_complex(rng, 24 - abs(k)), k) for k in range(-3, 4))
    return make_view(A, resolve_partition("auto-band", A))


def dense_view():
    A = rand_complex(np.random.default_rng(6), (16, 16)) / 4
    return make_view(A, BlockPartition((2,) * 8))


def toeplitz_view():
    coeffs = rand_complex(np.random.default_rng(7), 5)
    A = sum(c * np.eye(16, k=k) for c, k in zip(coeffs, range(-2, 3)))
    return make_view(A, BlockPartition((2,) * 8))


def block_diagonal_view():
    # every diagonal block is a permutation similarity of one block, and the
    # off-diagonal blocks are zero: all truncations of one size have the
    # same spectra (and smin fields up to rounding) but differ in content,
    # so the bounds tie with the minimum
    rng = np.random.default_rng(8)
    T = rand_complex(rng, (3, 3))
    A = np.zeros((24, 24), dtype=np.complex128)
    for k in range(8):
        P = np.eye(3)[rng.permutation(3)]
        A[3 * k:3 * k + 3, 3 * k:3 * k + 3] = P @ T @ P.T
    return make_view(A, BlockPartition((3,) * 8))


VIEWS = {"banded": banded_view, "dense": dense_view,
         "toeplitz": toeplitz_view, "block-diagonal": block_diagonal_view}
RUNS = [("tau", 2, None), ("tau", 3, None), ("tau", 4, None),
        ("pi", 3, 1.0), ("tau1", 3, None)]


def counted(monkeypatch, run, oracle=False):
    """``run()`` with the kernel's pairs counted, through the unpruned
    oracle when ``oracle``."""
    spy = KernelPairs()
    with monkeypatch.context() as patch:
        patch.setattr(ps, "smin_fields", spy)
        if oracle:
            patch.setattr(ps, "TermFields", unpruned_term_fields)
        result = run()
    return result, spy.pairs


def assert_same_region(a, b, path):
    assert a.mask.tobytes() == b.mask.tobytes()
    assert a.level == b.level
    assert (a.values is None) == (b.values is None)
    if a.values is not None:
        assert a.values.tobytes() == b.values.tobytes()
    ps.region_to_csv(a, path / "a.csv")
    ps.region_to_csv(b, path / "b.csv")
    assert (path / "a.csv").read_bytes() == (path / "b.csv").read_bytes()


@pytest.mark.parametrize("method, n, t", RUNS,
                         ids=[f"{m}-n{n}" for m, n, _ in RUNS])
@pytest.mark.parametrize("name", list(VIEWS))
def test_pruned_reports_equal_oracle(name, method, n, t, tmp_path,
                                     monkeypatch):
    view = VIEWS[name]()
    grid = ps.default_grid(view.matrix, pad=1.0, nx=41, ny=37)
    for jobs in (1, 2):
        def run():
            return inc.method_reports(view, [method], [0.0, 0.1], n, t,
                                      grid, jobs)[0]

        pruned, pairs = counted(monkeypatch, run)
        oracle, oracle_pairs = counted(monkeypatch, run, oracle=True)
        assert max(pairs.values()) == 1
        assert set(pairs) <= set(oracle_pairs)
        for a, b in zip(pruned, oracle, strict=True):
            assert a.to_json() == b.to_json()
            assert_same_region(a.region, b.region, tmp_path)
    if name in ("banded", "dense") and method == "tau":
        # distinct contributions: some of them are skipped
        assert sum(pairs.values()) < sum(oracle_pairs.values())


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", list(VIEWS))
def test_pruned_sigma_tau_parts_equal_oracle(name, n, tmp_path, monkeypatch):
    # sigma and sigma_hat are groups of the sweep that makes their
    # intersection, each completed from its own field
    view = VIEWS[name]()
    grid = ps.default_grid(view.matrix, pad=1.0, nx=41, ny=37)
    for jobs in (1, 2):
        def run():
            return inc.sigma_tau(view, n, 0.1, grid, jobs)

        pruned, _ = counted(monkeypatch, run)
        oracle, _ = counted(monkeypatch, run, oracle=True)
        assert (pruned[1] is None) == (oracle[1] is None) == (n <= 2)
        for a, b in zip(pruned, oracle):
            if a is not None:
                assert_same_region(a, b, tmp_path)


def test_pruned_membership_equals_oracle(monkeypatch):
    # membership asks ``TermFields.bounded`` only for comparisons with the
    # levels, so it evaluates fewer pairs than the exhaustive oracle
    view = banded_view()
    pts = np.linspace(-4, 4, 15) + 0.5j
    for method, t in (("tau", None), ("pi", 1.0), ("tau1", None)):
        def run():
            return inc.membership(view, method, 4, 0.3, pts, t)

        pruned, pairs = counted(monkeypatch, run)
        with monkeypatch.context() as patch:
            patch.setattr(ps.TermFields, "bounded", exhaustive_bounded)
            oracle, oracle_pairs = counted(monkeypatch, run)
        assert np.array_equal(pruned, oracle)
        assert max(pairs.values()) == 1
        assert set(pairs) < set(oracle_pairs)


@pytest.mark.parametrize("name", list(VIEWS))
def test_bounded_fields_decide_maxima_and_levels(name, monkeypatch):
    # u is at least each term's value, equals it above the level and has
    # the same maximum, bit for bit, NaN where not wanted; no pair is
    # evaluated twice, the level cut adds pairs, and the pass skips some.
    # On the block-diagonal view every truncation of one size has the same
    # spectrum, so the guesses tie
    view = VIEWS[name]()
    terms = [term for m, n, t in RUNS for term in inc.family(view, m, n, t)]
    rng = np.random.default_rng(4)
    # distinct points (the block-diagonal eigenvalues repeat), so that a
    # pair counted twice was evaluated twice
    points = np.unique(np.concatenate([ps.eig(view.matrix),
                                       rand_complex(rng, 12)]))
    exact = reference_term_fields(terms, points)
    low, high = exact.min(axis=1), exact.max(axis=1)
    levels = low + rng.uniform(0.2, 0.9, len(terms)) * (high - low)
    mask = rng.random(exact.shape) < 0.6
    per_point = levels[:, None] + rng.uniform(-0.2, 0.2, exact.shape)
    for want, lv in ((None, levels), (mask, per_point)):
        def run(lv=lv, want=want):
            return ps.TermFields(terms).bounded(points, lv, want)

        u, pairs = counted(monkeypatch, run)
        _, uncut = counted(monkeypatch, partial(
            run, np.full(len(terms), np.inf)))
        _, full = counted(monkeypatch, lambda: reference_term_fields(
            terms, points, want))
        w = np.ones(exact.shape, dtype=bool) if want is None else want
        assert np.isnan(u[~w]).all() and (u[w] >= exact[w]).all()
        cut = np.broadcast_to(np.reshape(lv, (len(terms), -1)), u.shape)
        above = w & (u > cut)
        assert above.any()
        assert np.array_equal(u[above], exact[above])
        assert np.array_equal(np.where(w, u, -np.inf).max(axis=1),
                              np.where(w, exact, -np.inf).max(axis=1))
        assert max(pairs.values()) == 1
        assert set(uncut) < set(pairs) < set(full)


def test_pruned_include_all_evaluates_under_45_percent(tmp_path,
                                                       monkeypatch):
    # a seeded banded matrix of order 48 and band width 3, every
    # contribution distinct: the pruned `include --method all` sends at most
    # 45 % of the oracle's (matrix, node) pairs to the kernel, none twice,
    # and writes the same bytes
    rng = np.random.default_rng(48)
    A = sum(np.diag(rand_complex(rng, 48 - abs(k)), k) for k in range(-3, 4))
    write_matrix_market(tmp_path / "A.mtx", A)
    argv = ["include", "--input", str(tmp_path / "A.mtx"), "--partition",
            "auto-band", "--method", "all", "--n", "4", "--t", "1",
            "--eps", "0.1", "--grid", "40,40", "--no-timestamp"]
    runs = {}
    for oracle in (False, True):
        out = tmp_path / f"out{oracle}"
        rc, pairs = counted(monkeypatch, lambda: main(
            argv + ["--out-dir", str(out)]), oracle=oracle)
        assert rc == 0
        runs[oracle] = out, pairs
    (out, pairs), (oracle_out, oracle_pairs) = runs[False], runs[True]
    assert pairs and max(pairs.values()) == 1
    assert sum(pairs.values()) <= 0.45 * sum(oracle_pairs.values())
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in oracle_out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (oracle_out / name).read_bytes()


# ---------------------------------------------------------------------------
# the bounds tier on whole terms of mask-only sweeps
# ---------------------------------------------------------------------------

def scalar_view(A):
    return make_view(A, resolve_partition("uniform:1", A))


def bidiagonal(order, seed):
    rng = np.random.default_rng(seed)
    return np.diag(rand_complex(rng, order)) + np.diag(
        rand_complex(rng, order - 1), 1) / 2


TIGHT_TERMS = {
    **{f"jordan-n{n}": (lambda: jordan(24), n) for n in (2, 4, 16)},
    **{f"laplacian-n{n}": (lambda: laplacian(24), n) for n in (2, 4, 8)},
    # the edge truncations of order 1 are the complex scalar 0.3 + 0.4i
    "complex-scalar-edge": (lambda: build_toeplitz(
        toeplitz_spec({0: 0.3 + 0.4j, -1: 1.0}), 16), 2),
    # every truncation distinct, the order-1 edges complex scalars too
    "random-bidiagonal": (lambda: bidiagonal(16, 3), 4),
}


@pytest.mark.parametrize("build, n", TIGHT_TERMS.values(), ids=TIGHT_TERMS)
def test_tight_terms_are_decided_without_the_kernel(build, n, monkeypatch):
    # each contribution of these tau terms (the short edge truncations
    # included) is bidiagonal, Hermitian or of order 1, so the certified
    # bounds and Sturm counts decide every node of the mask-only sweep, and
    # the mask is the full sweep's, bit for bit
    view = scalar_view(build())
    eps = 0.15
    grid = ps.default_grid(view.matrix, pad=inc.grid_pad(view, "tau", n, eps),
                           nx=64, ny=64)
    region, pairs = counted(monkeypatch, lambda: inc.method_mask(
        view, "tau", n, eps, grid))
    full = full_sweep_mask(view, "tau", n, eps, grid)
    assert np.array_equal(region.mask, full)
    assert 0 < full.sum() < full.size
    assert not pairs


def test_general_tridiagonal_term_falls_back(monkeypatch):
    # the main truncations of this Toeplitz matrix are tridiagonal and not
    # Hermitian, which Johnson's bounds leave loose, so the one term of
    # main and edge truncations (n = 2) goes to TermFields whole: the
    # mask-only sweep sends the pairs of a sweep without the tier, and its
    # mask is the full sweep's
    A = build_toeplitz(toeplitz_spec({-1: 1.0, 0: 0.2j, 1: 0.5}), 16)
    view = scalar_view(A)
    eps = 0.1
    grid = ps.default_grid(A, pad=inc.grid_pad(view, "tau", 2, eps),
                           nx=48, ny=48)
    region, pairs = counted(monkeypatch, lambda: inc.method_mask(
        view, "tau", 2, eps, grid))
    assert np.array_equal(region.mask, full_sweep_mask(view, "tau", 2, eps,
                                                       grid))
    _, [term], lvls = inc.method_terms(view, "tau", 2, [eps])
    slack = ps.smin_slack([E for _, E, _ in term], grid)
    assert len(ps.TermFields([term]).items) == 2
    _, untiered = counted(monkeypatch, lambda: ps.level_mask(
        ps.TermFields([term], slack), grid, lvls, slack))
    assert pairs and pairs == untiered


def test_level_below_the_least_sturm_shift_falls_back(monkeypatch):
    # at a level below the least shift the Sturm count tests at, no
    # contribution of the Jordan tau term can be certified inside, so the
    # nodes near the eigenvalue 0 go to the kernel, and the mask is the
    # full sweep's; the grid has a node at 0, where smin is 0
    view = scalar_view(jordan(24))
    terms = inc.family(view, "tau", 4)
    level = 2.0 ** -500
    assert level < ps._STURM_LEAST
    grid = ps.GridSpec(-1.5, 1.5, -1.5, 1.5, 33, 33)
    ([region],), pairs = counted(monkeypatch, lambda: ps.certified_regions(
        [(terms, [[level]] * len(terms))], grid, with_field=False))
    nodes = grid.nodes()
    full = np.all(reference_term_fields(terms, nodes) <= level, axis=0)
    assert np.array_equal(region.mask, full.reshape(nodes.shape))
    assert full.any() and pairs
