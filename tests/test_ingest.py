"""The numpy Matrix Market reader against ``scipy.io.mmread``, bit for bit.

The reader replaced ``mmread(path).toarray()``; these tests keep it equal to
that path on every file both accept.  scipy is imported inside the tests
only, so this module does not load it for the rest of the suite.
"""

import gzip
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from specincl.cli import main
from specincl.ingest import read_matrix_market
from specincl.matrixcore import as_matrix

COMBINATIONS = list(itertools.product(
    ("coordinate", "array"), ("real", "integer", "complex", "pattern"),
    ("general", "symmetric", "skew-symmetric", "hermitian")))


def _mmread_dense(path):
    from scipy.io import mmread

    m = mmread(str(path))
    return as_matrix(m.toarray() if hasattr(m, "toarray") else m)


def _assert_same(path):
    assert read_matrix_market(path).tobytes() == _mmread_dense(path).tobytes()


def _value(rng, field) -> str:
    if field == "pattern":
        return ""
    if field == "integer":
        return str(int(rng.integers(-9, 10))) if rng.random() < 0.8 else "-0"
    # round-trip reprs over many magnitudes, with signed zeros among them
    parts = []
    for _ in range(1 + (field == "complex")):
        x = rng.choice(["-0", "0", "-0.0", "normal"], p=[.1, .05, .05, .8])
        if x == "normal":
            x = repr(float(rng.standard_normal() * 10.0 ** rng.integers(-8, 17)))
        parts.append(str(x))
    return " ".join(parts)


def _file_text(fmt, field, symmetry, rng, n=7) -> str:
    """A Matrix Market file with comment lines before the size line, blank
    lines among the entries and, in coordinate format, duplicate entries in
    shuffled order."""
    lower = [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)
             if symmetry == "general" or i > j
             or (i == j and symmetry != "skew-symmetric")]
    if fmt == "coordinate":
        stored = [lower[k] for k in rng.permutation(len(lower))]
        stored = stored[: len(stored) * 2 // 3]
        stored += [stored[k] for k in rng.integers(0, len(stored), 8)]
        rng.shuffle(stored)
        size = f"{n} {n} {len(stored)}"
        lines = [f"{i} {j} {_value(rng, field)}".rstrip() for i, j in stored]
    else:
        size = f"{n} {n}"
        lines = [_value(rng, field) for _ in lower]
    for k in sorted(rng.integers(0, len(lines), 3), reverse=True):
        lines.insert(int(k), "")
    return "\n".join([f"%%MatrixMarket matrix {fmt} {field} {symmetry}",
                      "% a comment", "%", "", size, *lines]) + "\n"


@pytest.mark.parametrize("fmt, field, symmetry", COMBINATIONS)
def test_reader_matches_mmread_bit_for_bit(tmp_path, fmt, field, symmetry):
    text = _file_text(fmt, field, symmetry,
                      np.random.default_rng(COMBINATIONS.index(
                          (fmt, field, symmetry))))
    plain, crlf = tmp_path / "m.mtx", tmp_path / "crlf.mtx"
    plain.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    packed = tmp_path / "m.mtx.gz"
    packed.write_bytes(gzip.compress(text.encode()))
    if (fmt, field) == ("array", "pattern"):
        # mmread rejects it, and so does the CLI, with exit 2
        with pytest.raises(ValueError):
            _mmread_dense(plain)
        for path in (plain, crlf, packed):
            assert main(["include", "--input", str(path), "--method", "gersh",
                         "--out-dir", str(tmp_path / "o")]) == 2
        return
    for path in (plain, crlf, packed):
        _assert_same(path)
    a, b, c = (read_matrix_market(p) for p in (plain, crlf, packed))
    assert a.tobytes() == b.tobytes() == c.tobytes()


@pytest.mark.parametrize("symmetry", ["general", "symmetric",
                                      "skew-symmetric", "hermitian"])
def test_duplicates_sum_in_mmread_order(tmp_path, symmetry):
    # floating-point sums depend on their order: a wrong order of the
    # stored and mirrored entries shows in these bits
    path = tmp_path / "dup.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                    "3 3 4\n2 1 3.0\n1 2 1e16\n2 1 -1e16\n1 2 0.5\n")
    _assert_same(path)
    rng = np.random.default_rng(41)
    i, j = rng.integers(1, 41, (2, 30000))
    i, j = np.maximum(i, j), np.minimum(i, j)
    keep = (i != j) | (symmetry != "skew-symmetric")
    values = rng.standard_normal(keep.sum()) * 10.0 ** rng.integers(
        -3, 17, keep.sum())
    body = "".join(f"{a} {b} {float(v)!r}\n" for a, b, v in zip(
        i[keep].tolist(), j[keep].tolist(), values))
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                    f"40 40 {keep.sum()}\n{body}")
    _assert_same(path)


def test_bench_banded_inputs_match_mmread(tmp_path, monkeypatch):
    # the include-banded workload's seeded matrices, written by the bench
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    for seed in range(1, 33):
        path = tmp_path / f"banded{seed}.mtx"
        workloads.write_matrix_market(path, workloads.banded_matrix(seed))
        _assert_same(path)


@pytest.mark.parametrize("body", [
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 2.0\n",
    "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1.5\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n",
    "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
    "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
    "%%MatrixMarket matrix array real general\n2 2\n1 2\n3 4\n",
    "%%MatrixMarket vector coordinate real general\n2 1\n1 1.0\n",
    "%%MatrixMarket matrix coordinate double general\n2 2 1\n1 1 1.0\n",
    "%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n",
    "",
], ids=["row-0", "col-out-of-range", "index-fraction", "too-few-entries",
        "too-many-entries", "extra-number", "complex-one-number",
        "integer-fraction", "nan", "symmetric-not-square", "size-negative",
        "size-short", "empty-matrix", "array-too-few", "array-two-per-line",
        "vector", "unknown-field", "banner-one-percent", "no-size-line",
        "empty-file"])
def test_malformed_matrix_market_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.mtx"
    path.write_text(body)
    assert main(["include", "--input", str(path), "--method", "gersh",
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("specincl: ") and err.count("\n") == 1
