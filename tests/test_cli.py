import gzip
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import specincl

from specincl.cli import main
from specincl.corpus import build_corpus, verify_containment
from specincl.ingest import (
    load_matrix,
    read_csv_matrix,
    write_csv_matrix,
)

from support import (
    KernelPairs,
    exhaustive_bounded,
    per_n_verify_containment,
    write_matrix_market,
)


# ---------------------------------------------------------------------------
# corpus and verifier
# ---------------------------------------------------------------------------

def test_corpus_deterministic():
    a = build_corpus(seed=5, count=9, orders=(6, 12))
    b = build_corpus(seed=5, count=9, orders=(6, 12))
    assert len(a) == len(b) == 9
    for x, y in zip(a, b):
        assert x.name == y.name
        assert np.array_equal(x.matrix, y.matrix)
        assert x.partition == y.partition
    kinds = {item.kind for item in a}
    assert kinds == {"dense", "banded", "toeplitz"}


def test_verify_containment_clean():
    items = build_corpus(seed=2, count=6, orders=(6, 10))
    records = verify_containment(items, eps_values=(0.0, 0.1), max_n=4)
    assert records
    bad = [r for r in records if not r.contained]
    assert bad == []
    methods = {r.method for r in records}
    assert {"tau", "pi", "tau1", "tau1-sandwich"} <= methods


def test_verify_containment_adversarial_flags_violations():
    items = build_corpus(seed=2, count=6, orders=(6, 10))
    records = verify_containment(items, eps_values=(0.0,), penalty_scale=0.3,
                                 max_n=4)
    assert any(not r.contained for r in records)


@pytest.mark.parametrize("corpus, options", [
    ((641987627, 11, (12, 12)), {}),
    ((1, 12, (6, 16)), {}),
    ((1, 12, (6, 16)), {"penalty_scale": 0.5}),
    ((1, 12, (6, 16)), {"max_n": 3}),
    ((1, 12, (6, 16)), {"eps_values": (0.0,)}),
    ((1, 20, (6, 16)), {"penalty_scale": 0.5}),
    ((1, 6, (20, 40)), {}),
    ((1, 6, (20, 40)), {"penalty_scale": 0.5, "max_n": 4}),
    ((1, 12, (6, 16)), {"eps_values": (0.0, 0.1, 0.2)}),
], ids=["bench-shape", "cli-default", "penalty-scale", "max-n", "one-eps",
        "readme-adversarial", "orders-20-40", "orders-20-40-adversarial",
        "three-eps"])
def test_verify_containment_equals_per_n_reference(corpus, options):
    # one batched pass per item, which evaluates a (contribution, point) pair
    # only where it can change a record, gives the records, margins
    # included, of the verifier that evaluates each (matrix, n) on its own;
    # orders 20-40 mix uniform partitions with 3/4 ones, which have no pi
    seed, count, orders = corpus
    items = build_corpus(seed=seed, count=count, orders=orders)
    expected = per_n_verify_containment(items, **options)
    assert any(r.method == "tau1-sandwich" for r in expected)
    assert verify_containment(items, **options) == expected


def test_verify_one_kernel_pass_per_item(monkeypatch):
    # per item: one pass over the fields at the eigenvalues, one call per n
    # for the random probes and one sweep of the full matrix, none empty;
    # no contribution is evaluated twice at an eigenvalue
    from specincl import pseudospec as ps

    calls = []

    class Counted(KernelPairs):
        def __call__(self, items, lambdas, jobs=None, want=None):
            items = list(items)
            calls.append((len(items), np.size(lambdas)))
            return super().__call__(items, lambdas, jobs, want)

    spy = Counted()
    monkeypatch.setattr(ps, "smin_fields", spy)
    for item in build_corpus(seed=1, count=12, orders=(6, 16)):
        calls.clear()
        spy.pairs.clear()
        eigenvalues = set(ps.eig(item.matrix).tolist())
        verify_containment([item])
        assert 0 < len(calls) <= 2 + item.partition.count - 1
        assert all(n_items and n_points for n_items, n_points in calls)
        at_eigenvalues = [count for (_, z), count in spy.pairs.items()
                          if z in eigenvalues]
        assert at_eigenvalues and max(at_eigenvalues) == 1


def test_verify_values_above_the_level_are_exact(monkeypatch):
    # with halved penalties some tau1 maxima lie above their level; a tau1
    # set then needs the exact value at every eigenvalue above the level,
    # not only at the largest one, and the values are cut there: with every
    # level at +inf fewer pairs are evaluated and the records change
    from specincl import pseudospec as ps

    items = build_corpus(seed=1, count=20, orders=(6, 16))
    spy = KernelPairs()
    monkeypatch.setattr(ps, "smin_fields", spy)
    records = verify_containment(items, penalty_scale=0.5)
    assert sum(not r.contained for r in records) == 101
    assert any(r.method == "tau1" and not r.contained for r in records)
    cut = sum(spy.pairs.values())
    spy.pairs.clear()
    bounded = ps.TermFields.bounded

    def uncut(fields, points, levels, want=None):
        top = np.full(len(fields.members), np.inf)
        return bounded(fields, points, top, want)

    monkeypatch.setattr(ps.TermFields, "bounded", uncut)
    assert verify_containment(items, penalty_scale=0.5) != records
    assert sum(spy.pairs.values()) < cut


def test_verify_kernel_pairs_budget(monkeypatch):
    # on the benchmark's shape the verifier evaluates at most 37 % of the
    # (matrix, point) pairs of the full pass, none of them twice: guessing
    # each contribution's value by the distance to its spectrum sends 18,570
    # of 54,522 pairs to the kernel
    from specincl import pseudospec as ps

    items = build_corpus(seed=641987627, count=11, orders=(12, 12))
    spy = KernelPairs()
    monkeypatch.setattr(ps, "smin_fields", spy)
    records = verify_containment(items)
    pruned = Counter(spy.pairs)
    spy.pairs.clear()
    monkeypatch.setattr(ps.TermFields, "bounded", exhaustive_bounded)
    assert verify_containment(items) == records
    assert max(pruned.values()) == 1
    assert 100 * sum(pruned.values()) <= 37 * sum(spy.pairs.values())


def test_verify_levels_once_per_n(monkeypatch):
    # the tau levels of each n are solved once, at eps = 0, and shifted by
    # every eps: one theta root for sigma, one more for sigma_hat at n > 2
    from specincl import penalty

    calls = []
    solve = penalty.solve_theta

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(penalty, "solve_theta", counted)
    items = build_corpus(seed=2, count=6, orders=(6, 10))
    verify_containment(items, eps_values=(0.0, 0.1, 0.2))
    assert len(calls) == sum(1 if n <= 2 else 2 for item in items
                             for n in range(1, item.partition.count))


# ---------------------------------------------------------------------------
# ingestion round trips
# ---------------------------------------------------------------------------

def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    path = tmp_path / "m.mtx"
    write_matrix_market(path, A)
    back = load_matrix(path)
    assert np.allclose(back, A, atol=1e-14)


def test_matrix_market_gzip_equals_plain(tmp_path):
    rng = np.random.default_rng(19)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    plain = tmp_path / "m.mtx"
    write_matrix_market(plain, A)
    packed = tmp_path / "m.mtx.gz"
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    a, b = load_matrix(plain), load_matrix(packed)
    assert a.dtype == b.dtype and a.shape == b.shape == (6, 6)
    assert a.tobytes() == b.tobytes()


def test_matrix_market_coordinate_real(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n1 1 2.0\n2 3 -1.5\n3 1 0.25\n")
    A = load_matrix(path)
    assert A.shape == (3, 3)
    assert A[0, 0] == 2.0 and A[1, 2] == -1.5 and A[2, 0] == 0.25


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.csv"
    write_csv_matrix(path, A)
    back = read_csv_matrix(path)
    assert np.array_equal(back, A)


def test_csv_plain_real(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2\n3,4\n")
    A = read_csv_matrix(path)
    assert np.array_equal(A, np.array([[1, 2], [3, 4]], dtype=complex))


# ---------------------------------------------------------------------------
# CLI: include
# ---------------------------------------------------------------------------

def test_include_all_methods_jordan(tmp_path):
    out = tmp_path / "out"
    code = main([
        "include", "--builtin", "jordan", "--M", "24", "--method", "all",
        "--n", "4", "--eps", "0.15", "--t", "1", "--grid", "64,64",
        "--out-dir", str(out), "--no-timestamp", "--jobs", "1",
    ])
    assert code == 0
    for method in ("tau", "tau1", "pi"):
        stem = f"{method}_n4_eps0.15"
        assert (out / f"{stem}.json").exists()
        assert (out / f"{stem}.csv").exists()
        svg = (out / f"{stem}.svg").read_text()
        assert svg.startswith("<svg") and "<path" in svg
        assert "generated" not in svg
    doc = json.loads((out / "tau_n4_eps0.15.json").read_text())
    assert doc["method"] == "tau" and doc["n"] == 4
    # the three panels are discs/unions with known radii: the tau disc has
    # radius ~1.18, the tau1 disc ~1.48, the pi union stays within ~1.92
    from specincl.inclusion import MethodReport
    from specincl.pseudospec import region_points
    for method, radius in (("tau", 1.1807), ("tau1", 1.4835)):
        report = MethodReport.from_json(
            (out / f"{method}_n4_eps0.15.json").read_text())
        pts = np.abs(region_points(report.region))
        cell = report.region.grid.cell_diag
        assert pts.max() == pytest.approx(radius, abs=2 * cell)
    pi_report = MethodReport.from_json((out / "pi_n4_eps0.15.json").read_text())
    pi_pts = np.abs(region_points(pi_report.region))
    cell = pi_report.region.grid.cell_diag
    assert pi_pts.max() == pytest.approx(1.9154, abs=2 * cell)


def test_include_pi_requires_t(tmp_path, capsys):
    code = main([
        "include", "--builtin", "jordan", "--M", "16", "--method", "pi",
        "--n", "3", "--eps", "0.1", "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "t is required" in capsys.readouterr().err


def test_include_deterministic_outputs(tmp_path):
    args = [
        "include", "--builtin", "laplacian", "--M", "12", "--method", "tau",
        "--n", "2", "--eps", "0", "--grid", "48,48", "--no-timestamp",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in ("tau_n2_eps0.json", "tau_n2_eps0.csv", "tau_n2_eps0.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_include_matrix_file_input(tmp_path):
    rng = np.random.default_rng(17)
    A = rng.standard_normal((8, 8)) / 3
    path = tmp_path / "in.csv"
    write_csv_matrix(path, A)
    out = tmp_path / "out"
    code = main([
        "include", "--input", str(path), "--partition", "2,2,2,2",
        "--method", "tau", "--n", "2", "--eps", "0.1", "--grid", "32,32",
        "--out-dir", str(out), "--no-timestamp",
    ])
    assert code == 0
    assert (out / "tau_n2_eps0.1.json").exists()


def test_include_tau_tiny_offdiagonal_ratio(tmp_path):
    # r_L / r_U = 1e-17: the theta root is found, not rejected
    T = 0.3 * np.eye(40) + np.eye(40, k=1) + 1e-17 * np.eye(40, k=-1)
    path = tmp_path / "T.csv"
    write_csv_matrix(path, T)
    assert main([
        "include", "--input", str(path), "--method", "tau", "--n", "12",
        "--eps", "0.1", "--grid", "24,24", "--out-dir", str(tmp_path / "o"),
        "--no-timestamp",
    ]) == 0


def test_include_block_gersh_grid_holds_the_discs(tmp_path):
    # every block radius is sqrt(3), the classical Gershgorin box is +-1:
    # the CLI's default grid is padded as ``gershgorin_block``'s, and the
    # set stays off its edge
    A = np.zeros((12, 12))
    for k in range(3):
        A[3 * k:3 * k + 3, 3 * k + 3] = 1.0
    path = tmp_path / "A.csv"
    write_csv_matrix(path, A)
    out = tmp_path / "o"
    assert main([
        "include", "--input", str(path), "--partition", "uniform:3",
        "--method", "block-gersh", "--out-dir", str(out), "--no-timestamp",
    ]) == 0
    region = specincl.MethodReport.from_json(
        (out / "block-gersh_n0_eps0.json").read_text(encoding="ascii")).region
    view = specincl.make_view(A, specincl.BlockPartition((3,) * 4))
    assert region.grid == specincl.gershgorin_block(view).grid
    ring = np.ones(region.mask.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    assert region.mask.any() and not region.mask[ring].any()


def _outputs(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def test_artifacts_independent_of_jobs(tmp_path):
    # a seeded banded matrix (band width 2, no two contributions equal) and
    # a short convergence study, each written at --jobs 1 and --jobs 2
    rng = np.random.default_rng(23)
    A = sum(np.diag(rng.standard_normal(24 - abs(k))
                    + 1j * rng.standard_normal(24 - abs(k)), k)
            for k in range(-2, 3))
    path = tmp_path / "banded.mtx"
    write_matrix_market(path, A)
    runs = [
        ["include", "--input", str(path), "--partition", "auto-band",
         "--method", "all", "--n", "4", "--t", "1", "--eps", "0,0.1",
         "--grid", "32,32", "--no-timestamp"],
        ["include", "--input", str(path), "--partition", "auto-band",
         "--method", "block-gersh", "--grid", "32,32", "--no-timestamp"],
        ["converge", "--builtin", "jordan", "--eps", "0.15",
         "--schedule", "48:2:1,48:4:1", "--grid-nodes", "32"],
    ]
    for i, argv in enumerate(runs):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"run{i}_jobs{jobs}"
            assert main(argv + ["--jobs", jobs, "--out-dir", str(out)]) == 0
            outs.append(_outputs(out))
        assert outs[0] and outs[0] == outs[1]


def test_include_eps_list_is_one_sweep(tmp_path, monkeypatch):
    # one band sweep per method serves the whole eps list: the method
    # evaluates no (contribution, node) pair twice, and its eps = 0.15 report
    # and figure are those of a run at that eps alone
    from specincl import pseudospec as ps

    spy = KernelPairs()
    pairs = spy.pairs
    monkeypatch.setattr(ps, "smin_fields", spy)
    argv = ["include", "--builtin", "jordan", "--M", "64", "--n", "4",
            "--t", "1", "--grid", "64,64", "--no-timestamp", "--jobs", "1"]
    both, single = tmp_path / "both", tmp_path / "single"
    for method in ("tau", "tau1", "pi"):
        pairs.clear()
        assert main(argv + ["--method", method, "--eps", "0,0.15",
                            "--out-dir", str(both)]) == 0
        assert pairs and max(pairs.values()) == 1
        assert main(argv + ["--method", method, "--eps", "0.15",
                            "--out-dir", str(single)]) == 0
        for ext in ("json", "svg"):
            name = f"{method}_n4_eps0.15.{ext}"
            assert (both / name).read_bytes() == (single / name).read_bytes()


@pytest.mark.parametrize("eps", ["1e-7,1.00000001e-7", "0.1,0.1"])
def test_include_eps_values_with_one_stem_exit_2(tmp_path, capsys, eps):
    # two eps values that format alike under :g would write the same files,
    # the second overwriting the first
    out = tmp_path / "o"
    assert main(["include", "--builtin", "jordan", "--M", "16", "--method",
                 "tau", "--n", "2", "--eps", eps, "--grid", "16,16",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    first, second = (repr(float(x)) for x in eps.split(","))
    assert err == (f"specincl: --eps values {first} and {second} share the "
                   f"file stem eps{float(first):g}\n")
    assert not out.exists()


def test_include_tau_n2_grid_padded_by_eps2(tmp_path):
    # the tau set at n = 2 is the single union at eps + eps_2, so the grid
    # is padded by that level (not by eps_1, which no term uses)
    from specincl import inclusion as inc
    from specincl.inclusion import MethodReport
    from specincl.matrixcore import BlockPartition, make_view
    from specincl.penalty import eps_tau
    from specincl.pseudospec import default_grid
    from specincl.toeplitz import laplacian

    out = tmp_path / "o"
    assert main([
        "include", "--builtin", "laplacian", "--M", "12", "--method", "tau",
        "--n", "2", "--eps", "0.05", "--grid", "48,48", "--no-timestamp",
        "--out-dir", str(out),
    ]) == 0
    report = MethodReport.from_json((out / "tau_n2_eps0.05.json").read_text())
    A = laplacian(12)
    p = inc.penalty_params(make_view(A, BlockPartition((1,) * 12)), 2)
    assert report.region.grid == default_grid(A, pad=0.05 + eps_tau(p),
                                              nx=48, ny=48)


@pytest.mark.parametrize("argv", [
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--eps", "0.1,x"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--grid", "4x,8"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--grid=-1,1,-1,1,a,8"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--partition", "4,x"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--partition", "uniform:two"],
    ["include", "--input", "no-such-matrix.mtx", "--method", "tau",
     "--n", "2"],
    ["converge", "--builtin", "jordan", "--eps", "0.1",
     "--schedule", "24:2:x"],
    ["converge", "--builtin", "jordan", "--eps", "small",
     "--schedule", "24:2:1"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--grid=-inf,1,-1,1,8,8"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--eps", "nan"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--eps", "0.1,inf"],
    ["converge", "--builtin", "jordan", "--eps", "nan",
     "--schedule", "24:2:1"],
    ["converge", "--builtin", "jordan", "--eps=-inf",
     "--schedule", "24:2:1"],
    ["verify", "--eps", "nan", "--count", "1"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "pi",
     "--n", "2", "--t", "nan"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--grid", "1,1"],
    ["converge", "--builtin", "jordan", "--eps", "0.1",
     "--schedule", "24:2:1", "--grid-nodes", "1"],
    ["verify", "--count", "1", "--order-min", "5", "--order-max", "3"],
    ["verify", "--count", "1", "--order-min", "-3", "--order-max", "6"],
    ["verify", "--count", "0"],
    ["verify", "--count", "1", "--max-n", "0"],
    ["verify", "--count", "1", "--max-n", "-2"],
    ["verify", "--count", "1", "--seed", "-1"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "tau",
     "--n", "2", "--jobs", "0"],
    ["converge", "--builtin", "jordan", "--eps", "0.1",
     "--schedule", "24:2:1", "--jobs", "-4"],
    ["include", "--input", "bad.csv", "--method", "tau", "--n", "1"],
    ["include", "--input", "bad.mtx", "--method", "tau", "--n", "1"],
    ["converge", "--symbol", "no-such-symbol.json", "--eps", "0.1",
     "--schedule", "24:2:1"],
    ["converge", "--symbol", "no-coeffs.json", "--eps", "0.1",
     "--schedule", "24:2:1"],
    ["converge", "--symbol", "broken.json", "--eps", "0.1",
     "--schedule", "24:2:1"],
    ["converge", "--builtin", "jordan", "--eps", "0.1",
     "--schedule", "24:30:1"],
    ["include", "--input", "non-ascii.csv", "--method", "tau", "--n", "1"],
    ["converge", "--symbol", "non-ascii.json", "--eps", "0.1",
     "--schedule", "24:2:1"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "gersh",
     "--grid=-1e308,1e308,-1,1,10,10"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "gersh",
     "--grid=0,1e-320,-1,1,10,10"],
    ["include", "--input", "not-gzip.mtx.gz", "--method", "tau", "--n", "1"],
    ["include", "--input", "extra-token.mtx", "--method", "tau", "--n", "1"],
    ["include", "--input", "extra-non-ascii.mtx", "--method", "tau",
     "--n", "1"],
    ["include", "--input", "huge.mtx", "--method", "tau", "--n", "1"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "gersh",
     "--grid=0,1,0,1," + "9" * 400 + ",2"],
    ["include", "--builtin", "jordan", "--M", "8", "--method", "gersh",
     "--grid", "99999999999,99999999999"],
    ["converge", "--builtin", "jordan", "--eps", "0.1",
     "--schedule", "24:2:1", "--grid-nodes", "9" * 400],
    ["include", "--builtin", "jordan", "--M", "99999999999", "--method",
     "gersh"],
    ["include", "--builtin", "jordan", "--M", "9" * 400, "--method", "gersh"],
    ["converge", "--builtin", "jordan", "--eps", "0.1",
     "--schedule", "99999999999:2:1"],
    # within the index limit but beyond any 64-bit address space (2**48
    # bytes and more), so the allocation itself fails
    ["include", "--builtin", "jordan", "--M", "8", "--method", "gersh",
     "--grid", "40000000000000,2"],
    ["include", "--input", "out-of-memory.mtx", "--method", "gersh"],
    ["verify", "--count", "1", "--order-min", "4", "--order-max", "4",
     "--eps", "0,0.0"],
    ["verify", "--count", "1", "--eps", "9e307"],
    ["verify", "--count", "1", "--order-max", "9" * 20],
    ["verify", "--count", "1", "--order-max", "3000000000"],
], ids=["eps", "grid-nx", "grid-box", "partition", "partition-uniform",
        "missing-input", "schedule", "converge-eps", "grid-inf",
        "eps-nan", "eps-inf", "converge-eps-nan", "converge-eps-inf",
        "verify-eps-nan", "t-nan", "grid-one-node", "converge-grid-one-node",
        "verify-orders-reversed", "verify-order-negative", "verify-count-0",
        "verify-max-n-0", "verify-max-n-negative", "verify-seed-negative",
        "jobs-0", "converge-jobs-negative", "csv-cell",
        "mtx-entry", "symbol-missing", "symbol-no-coeffs", "symbol-json",
        "schedule-n-out-of-range", "csv-non-ascii", "symbol-non-ascii",
        "grid-extent-overflow", "grid-extent-subnormal", "mtx-gz-not-gzip",
        "mtx-extra-token", "mtx-extra-non-ascii", "mtx-size-too-big",
        "grid-nx-overflow", "grid-too-big", "converge-grid-nodes-overflow",
        "M-too-big", "M-overflow", "schedule-M-too-big", "grid-out-of-memory",
        "mtx-out-of-memory", "verify-eps-repeated", "verify-eps-overflow",
        "verify-order-max-overflow", "verify-order-max-too-big"])
def test_malformed_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("1;2\n3;abc\n")
    (tmp_path / "bad.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n")
    banner = "%%MatrixMarket matrix coordinate real general\n"
    (tmp_path / "not-gzip.mtx.gz").write_text(banner + "2 2 1\n1 1 1.0\n")
    (tmp_path / "extra-token.mtx").write_text(banner + "2 2 1\n1 1 1.0 junk\n")
    (tmp_path / "extra-non-ascii.mtx").write_text(
        banner + "2 2 1\n1 1 1.0 \u00e9\n", encoding="utf-8")
    (tmp_path / "huge.mtx").write_text(
        banner + "99999999999 99999999999 1\n1 1 1.0\n")
    (tmp_path / "out-of-memory.mtx").write_text(
        banner + "20000000 20000000 1\n1 1 1.0\n")
    (tmp_path / "no-coeffs.json").write_text('{"bandwidth": 1}')
    (tmp_path / "broken.json").write_text('{"coeffs": [[-1, 1.0, 0.0]')
    (tmp_path / "non-ascii.csv").write_text("1;2\n3;4\u00e9\n",
                                            encoding="utf-8")
    (tmp_path / "non-ascii.json").write_text(
        '{"coeffs": [[-1, 1.0, 0.0]], "name": "\u00e9"}', encoding="utf-8")
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("specincl: ") and err.count("\n") == 1
    assert "numeric failure" not in err


def test_include_cnorm_mode_option_is_gone(tmp_path):
    import argparse

    from specincl.cli import build_parser

    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    include = commands.choices["include"]
    assert len([a for a in include._actions if a.dest != "help"]) == 12
    assert main([
        "include", "--builtin", "jordan", "--M", "8", "--method", "tau",
        "--n", "2", "--cnorm-mode", "exact", "--out-dir", str(tmp_path / "o"),
    ]) == 2


def test_include_all_computes_norms_once_per_view(tmp_path, monkeypatch):
    # r_L, r_U and ||C|| are cached on the view: one computation serves the
    # grid padding and the three methods
    from specincl import matrixcore

    calls = {"offdiag_norms": 0, "remaining_norm": 0}
    for name in calls:
        def counted(*args, _fn=getattr(matrixcore, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(matrixcore, name, counted)
    assert main([
        "include", "--builtin", "jordan", "--M", "16", "--method", "all",
        "--n", "3", "--eps", "0,0.1", "--t", "1", "--grid", "24,24",
        "--no-timestamp", "--out-dir", str(tmp_path / "o"),
    ]) == 0
    assert calls == {"offdiag_norms": 1, "remaining_norm": 1}


def test_include_bad_n(tmp_path):
    code = main([
        "include", "--builtin", "jordan", "--M", "6", "--method", "tau",
        "--n", "9", "--eps", "0", "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 2


# ---------------------------------------------------------------------------
# CLI: converge
# ---------------------------------------------------------------------------

def test_converge_writes_csv(tmp_path):
    out = tmp_path / "conv"
    code = main([
        "converge", "--builtin", "jordan", "--eps", "0.2",
        "--schedule", "24:2:1,24:4:1", "--grid-nodes", "64",
        "--out-dir", str(out),
    ])
    assert code == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "M,n,w,eps,method,d_H,cell_size"
    assert len(lines) == 3
    assert lines[1].startswith("24,2,1,")


def test_converge_empty_schedule(tmp_path):
    code = main([
        "converge", "--builtin", "jordan", "--eps", "0.1",
        "--schedule", "", "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 2


# ---------------------------------------------------------------------------
# CLI: verify
# ---------------------------------------------------------------------------

def test_verify_clean_corpus(tmp_path):
    out = tmp_path / "v"
    code = main([
        "verify", "--seed", "1", "--count", "4", "--order-min", "6",
        "--order-max", "9", "--eps", "0,0.1", "--max-n", "3",
        "--out-dir", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["violations"] == 0
    assert doc["checks"] > 0


def test_verify_adversarial_negative_control(tmp_path):
    out = tmp_path / "v"
    code = main([
        "verify", "--seed", "1", "--count", "4", "--order-min", "6",
        "--order-max", "9", "--eps", "0", "--max-n", "3", "--adversarial",
        "--out-dir", str(out),
    ])
    assert code == 1
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["violations"] > 0
    assert doc["penalty_scale"] == 0.5


# ---------------------------------------------------------------------------
# CLI: import fence
# ---------------------------------------------------------------------------

_COLD_PROCESS = """
import json, sys
import specincl, specincl.cli
from specincl.cli import main
out = sys.argv[1]
codes = [main(["include", "--builtin", "jordan", "--M", "16", "--method", "all",
               "--n", "2", "--t", "1", "--grid", "32,32", "--no-timestamp",
               "--out-dir", out + "/include"]),
         main(["verify", "--seed", "1", "--count", "2", "--order-min", "6",
               "--order-max", "8", "--eps", "0,0.1", "--max-n", "2",
               "--out-dir", out + "/verify"]),
         main(["include", "--input", out + "/m.mtx", "--method", "tau",
               "--n", "2", "--eps", "0.1", "--grid", "24,24",
               "--no-timestamp", "--out-dir", out + "/mtx"]),
         main(["include", "--builtin", "jordan", "--M", "16", "--method",
               "block-gersh", "--grid", "24,24", "--no-timestamp",
               "--out-dir", out + "/bgersh"])]
cold = sorted(m for m in sys.modules if m.startswith("scipy"))
codes += [main(["converge", "--builtin", "jordan", "--eps", "0.15",
                "--schedule", "24:2:1,24:4:1", "--grid-nodes", "32",
                "--out-dir", out + "/converge"])]
warm = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"cold": cold, "warm": warm, "codes": codes,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


_ALL_MODULES = """
import importlib, json, pkgutil, sys
import specincl
names = [m.name for m in pkgutil.walk_packages(specincl.__path__, "specincl.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_no_module_imports_scipy():
    # numpy is the only declared dependency: a fresh interpreter that
    # imports every specincl module has loaded no scipy module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(specincl.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _ALL_MODULES],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "specincl.pseudospec" in result["modules"]
    assert len(result["modules"]) >= 10
    assert result["scipy"] == []


def test_cold_process_loads_scipy_on_first_use_only(tmp_path):
    # a fresh interpreter: in this one an earlier test may have imported
    # scipy or numpy.ma already.  include --method all (builtin and Matrix
    # Market input), block Gershgorin, verify and converge (Hausdorff
    # distances) load no scipy module, nor numpy.ma
    write_matrix_market(tmp_path / "m.mtx", np.diag(np.arange(1.0, 7.0), 1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(specincl.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _COLD_PROCESS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"cold": [], "warm": [], "codes": [0, 0, 0, 0, 0],
                      "numpy.ma": False}, proc.stderr
