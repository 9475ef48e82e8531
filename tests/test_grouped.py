"""Grouped certified sweeps against one sweep per group.

``certified_regions`` takes groups of terms and sweeps them all at once:
one ``TermFields`` evaluates each (contribution, node) pair at most once for
every group, and one ``level_mask`` sweep decides every component.  Each
group's regions (masks, band fields with their NaN positions, levels) must
equal those of a call with that group alone, bit for bit, and a run's
kernel budget must show that no pair is evaluated twice.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.cli import main
from specincl.matrixcore import make_view, resolve_partition
from specincl.toeplitz import (
    StudyResult,
    StudyRow,
    build_toeplitz,
    convergence_study,
    jordan,
    jordan_symbol,
    laplacian,
    laplacian_symbol,
    toeplitz_spec,
)

from support import KernelPairs

# converge-jordan of the benchmark: its schedule and grid
CONVERGE_SCHEDULE = [(96, 2, 1), (96, 4, 1), (96, 8, 1), (96, 16, 1)]
README_INCLUDE = ["include", "--builtin", "jordan", "--M", "64", "--method",
                  "all", "--n", "4", "--eps", "0.15", "--t", "1",
                  "--no-timestamp"]


def bench_banded(seed, monkeypatch):
    """The include-banded workload's seeded matrix."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    return workloads.banded_matrix(seed)


def family_groups(A, partition, n, eps_list, t=1.0,
                  methods=("tau", "tau1", "pi")):
    """The view of A and one ``(terms, levels)`` group per family method."""
    view = make_view(A, resolve_partition(partition, A))
    return view, [inc.method_terms(view, m, n, eps_list, t)[1:]
                  for m in methods]


def assert_same_regions(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.mask.tobytes() == y.mask.tobytes()
        assert x.level == y.level
        assert (x.values is None) == (y.values is None)
        if x.values is not None:
            assert x.values.tobytes() == y.values.tobytes()


def assert_grouped_equals_alone(groups, grid, **kwargs):
    grouped = ps.certified_regions(groups, grid, **kwargs)
    assert len(grouped) == len(groups)
    for group, got in zip(groups, grouped):
        [alone] = ps.certified_regions([group], grid, **kwargs)
        assert_same_regions(got, alone)


@pytest.mark.parametrize("nodes", [64, 128])
def test_grouped_readme_example_equals_alone(nodes):
    A = jordan(64)
    view, groups = family_groups(A, "uniform:1", 4, [0.15])
    pad = max(inc.grid_pad(view, m, 4, 0.15) for m in ("tau", "tau1", "pi"))
    grid = ps.default_grid(A, pad=pad, nx=nodes, ny=nodes)
    assert_grouped_equals_alone(groups, grid, jobs=2)
    assert_grouped_equals_alone(groups, grid, with_field=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grouped_bench_banded_equals_alone(seed, monkeypatch):
    A = bench_banded(seed, monkeypatch)
    _, groups = family_groups(A, "auto-band", 4, [0.0, 0.1])
    grid = ps.default_grid(A, pad=1.0, nx=40, ny=40)
    assert_grouped_equals_alone(groups, grid)


def test_grouped_laplacian_uniform2_equals_alone():
    A = laplacian(48)
    view, groups = family_groups(A, "uniform:2", 5, [0.0, 0.2])
    # a group of fewer level columns than the others
    groups.append(inc.method_terms(view, "tau", 3, [0.1])[1:])
    grid = ps.default_grid(A, pad=1.5, nx=64, ny=48)
    assert_grouped_equals_alone(groups, grid)
    assert_grouped_equals_alone(groups, grid, with_field=False)


@pytest.mark.parametrize("scale, level", [(1e9, 0.1), (1.0, 1e6)],
                         ids=["slack", "nudge"])
def test_large_group_leaves_small_band_unchanged(scale, level):
    # an order-96 pseudospectrum beside an order-4 family: at norm 1e9 its
    # rounding allowance (``smin_slack``), at level 1e6 its contour nudge,
    # is far larger than the family's.  Either one shared would move the
    # small group's margins, and so its band
    A = jordan(96)
    _, [small] = family_groups(A, "uniform:1", 4, [0.15], methods=["tau"])
    big = ([[(None, scale * A, None)]], [[level]])
    grid = ps.default_grid(A, pad=1.2, nx=64, ny=64)
    [alone] = ps.certified_regions([small], grid)
    grouped, _ = ps.certified_regions([small, big], grid)
    assert_same_regions(grouped, alone)


def test_convergence_study_equals_separate_sweeps():
    # the study's one grouped sweep against a sweep per schedule row and
    # per reference, as ``method_mask`` and ``pseudospectrum`` make them
    eps = 0.15
    result = convergence_study(jordan_symbol(), eps, CONVERGE_SCHEDULE,
                               grid_nodes=64, jobs=2)
    grid = None
    rows = []
    for M, n, w in CONVERGE_SCHEDULE:
        view = make_view(jordan(M), resolve_partition(f"uniform:{w}",
                                                      jordan(M)))
        if grid is None:
            pad = max(inc.levels(inc.penalty_params(view, k), "tau", eps)[0]
                      for _, k, _ in CONVERGE_SCHEDULE)
            grid = ps.default_grid(jordan(M), pad=pad, nx=64, ny=64)
        region = inc.method_mask(view, "tau", n, eps, grid)
        ref = ps.pseudospectrum(jordan(M), eps, grid, with_field=False)
        rows.append(StudyRow(M, n, w, eps, "tau", ps.hausdorff(region, ref),
                             grid.cell_diag))
    assert result.to_csv() == StudyResult(tuple(rows), True).to_csv()


def kernel_pairs(monkeypatch, run):
    spy = KernelPairs()
    with monkeypatch.context() as patch:
        patch.setattr(ps, "smin_fields", spy)
        run()
    return spy.pairs


def test_converge_jordan_kernel_budget(monkeypatch):
    # the bounds tier decides every term of the study without an SVD: its
    # truncations of orders 2 to 16 and its order-96 reference are
    # bidiagonal, and the order-1 edges are the Hermitian zero (a sweep
    # without the tier sent 5,487 pairs)
    pairs = kernel_pairs(monkeypatch, lambda: convergence_study(
        jordan_symbol(), 0.15, CONVERGE_SCHEDULE, grid_nodes=64, jobs=2))
    assert not pairs


def test_converge_jordan_reference_units(monkeypatch):
    # the order-96 Jordan block is bidiagonal, so the bounds tier decides
    # each of its reference pairs, by Johnson's bounds or by its Sturm
    # count, without an SVD: alone, as in the study, where no pair at all
    # reaches the kernel
    J = build_toeplitz(jordan_symbol(), 96)
    grid = ps.default_grid(J, pad=0.15, nx=64, ny=64)
    alone = kernel_pairs(monkeypatch, lambda: ps.pseudospectrum(
        J, 0.15, grid, with_field=False))
    study = kernel_pairs(monkeypatch, lambda: convergence_study(
        jordan_symbol(), 0.15, CONVERGE_SCHEDULE, grid_nodes=64, jobs=1))
    assert not alone and not study


def test_laplacian_study_sends_no_reference_pair(monkeypatch):
    # the Laplacian and its truncations are Hermitian, so the references
    # and the tau terms are decided from the distance to their
    # eigenvalues (a sweep without the tier sent 898 reference pairs and
    # 1,684 of the truncations)
    schedule = [(64, 2, 1), (64, 4, 1), (128, 4, 1)]
    pairs = kernel_pairs(monkeypatch, lambda: convergence_study(
        laplacian_symbol(), 0.1, schedule, grid_nodes=128))
    assert not pairs


def test_tau1_study_reaches_the_kernel(monkeypatch):
    # the spy of the tests above is wired: the rectangular truncations of a
    # symbol with a tail have embeddings, which the bounds tier leaves to
    # the kernel, and the study sends each of their pairs once
    spec = toeplitz_spec({-1: 1.0, 2: 0.5})
    pairs = kernel_pairs(monkeypatch, lambda: convergence_study(
        spec, 0.1, [(48, 2, 1), (48, 4, 1)], grid_nodes=48))
    assert pairs and max(pairs.values()) == 1


@pytest.mark.parametrize("nodes", [64, 128])
def test_include_all_evaluates_no_pair_twice(nodes, tmp_path, monkeypatch):
    # the pi truncations whose wrap-around corner is zero equal tau
    # truncations, and one method's fill corners may lie where another
    # method's sweep evaluated a shared truncation: neither is evaluated
    # again
    argv = README_INCLUDE + ["--grid", f"{nodes},{nodes}",
                             "--out-dir", str(tmp_path)]
    pairs = kernel_pairs(monkeypatch, lambda: main(argv))
    assert max(pairs.values()) == 1
