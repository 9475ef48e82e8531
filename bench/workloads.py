"""The benchmark's workloads: inputs made from the seed, CLI arguments, checks.

Each workload is one ``specincl`` CLI invocation.  ``prepare`` writes any
input file the invocation needs into the repetition's work directory and
returns the argument list; ``check`` inspects what the invocation wrote and
returns a list of problems (empty when every output is correct).  The checks
test properties that any correct version of the program has, so they do not
compare bytes; artifact digests are compared separately and only counted.

Why each workload was chosen, and the seed rule of each, is in ``README.md``.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# include-jordan: grid nodes per axis (the README example uses the default
# 256 x 256; a smaller grid keeps the output share and fits more repetitions)
JORDAN_GRID = 128
# include-banded: order, band width and grid of the seeded banded matrix;
# auto-band splits it into blocks of the band width, so the order is a multiple
BANDED_ORDER = 48
BANDED_WIDTH = 3
BANDED_GRID = 40
# converge-jordan: schedule rows M:n:w and grid nodes per axis
CONVERGE_SCHEDULE = "96:2:1,96:4:1,96:8:1,96:16:1"
CONVERGE_GRID = 64
# verify-corpus: one matrix order for every corpus item, so that the amount
# of work does not depend on the seed (the corpus draws orders from a range)
VERIFY_COUNT = 11
VERIFY_ORDER = 12
VERIFY_EPS = "0,0.1"
# checks made by ``verify`` on such a corpus: each item has the scalar
# partition into 12 blocks, n = 1..11, two eps levels, and per (n, eps) one
# tau, three pi (t = 1, -1, i), one tau1 and one sandwich record
VERIFY_CHECKS = VERIFY_COUNT * (VERIFY_ORDER - 1) * 2 * 6


@dataclass(frozen=True)
class Prepared:
    """A workload made concrete for one seed."""

    argv: list[str]
    context: dict


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # whether the inputs depend on the seed
    takes_jobs: bool
    prepare: Callable[[Path, int], Prepared]
    check: Callable[[Path, Prepared, str], list[str]]


def _derived(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


# ---------------------------------------------------------------------------
# include
# ---------------------------------------------------------------------------

def _jordan_prepare(work: Path, seed: int) -> Prepared:
    # the README example; the matrix is fixed, so the seed is unused
    argv = ["include", "--builtin", "jordan", "--M", "64", "--method", "all",
            "--n", "4", "--eps", "0.15", "--t", "1",
            "--grid", f"{JORDAN_GRID},{JORDAN_GRID}", "--no-timestamp"]
    return Prepared(argv, {"eigenvalues": np.zeros(64, dtype=np.complex128),
                           "stems": ["tau_n4_eps0.15", "tau1_n4_eps0.15",
                                     "pi_n4_eps0.15"]})


def banded_matrix(seed: int) -> np.ndarray:
    """Random complex banded matrix, not Toeplitz, every band entry nonzero."""
    rng = _derived(seed, 1)
    M, w = BANDED_ORDER, BANDED_WIDTH
    A = np.zeros((M, M), dtype=np.complex128)
    for k in range(-w, w + 1):
        size = M - abs(k)
        A += np.diag(rng.standard_normal(size) + 1j * rng.standard_normal(size),
                     k)
    return A


def write_matrix_market(path: Path, A: np.ndarray) -> None:
    """Coordinate complex Matrix Market file with round-trip exact entries."""
    rows, cols = np.nonzero(A)
    lines = ["%%MatrixMarket matrix coordinate complex general",
             f"{A.shape[0]} {A.shape[1]} {len(rows)}"]
    for i, j in zip(rows, cols):
        v = A[i, j]
        lines.append(f"{i + 1} {j + 1} {float(v.real)!r} {float(v.imag)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _banded_prepare(work: Path, seed: int) -> Prepared:
    A = banded_matrix(seed)
    path = work / "banded.mtx"
    write_matrix_market(path, A)
    argv = ["include", "--input", str(path), "--partition", "auto-band",
            "--method", "all", "--n", "4", "--t", "1", "--eps", "0.1",
            "--grid", f"{BANDED_GRID},{BANDED_GRID}", "--no-timestamp"]
    return Prepared(argv, {"eigenvalues": np.linalg.eigvals(A),
                           "stems": ["tau_n4_eps0.1", "tau1_n4_eps0.1",
                                     "pi_n4_eps0.1"]})


def _include_check(out: Path, prep: Prepared, stdout: str) -> list[str]:
    """Every written region covers every eigenvalue; every artifact parses."""
    from specincl import pseudospec as ps
    from specincl.inclusion import MethodReport

    problems = []
    lams = prep.context["eigenvalues"]
    for stem in prep.context["stems"]:
        try:
            report = MethodReport.from_json(
                (out / f"{stem}.json").read_text(encoding="ascii"))
            region = report.region
            missed = int((~ps.covers_points(region, lams)).sum())
            if missed:
                problems.append(f"{stem}: {missed} eigenvalues not covered")
            lines = (out / f"{stem}.csv").read_text(encoding="ascii").splitlines()
            if lines[0] != "re,im,smin,mask":
                problems.append(f"{stem}.csv: bad header {lines[0]!r}")
            mask = np.array([row.rsplit(",", 1)[1] == "1" for row in lines[1:]])
            if mask.shape != (region.grid.nx * region.grid.ny,) \
                    or not np.array_equal(mask, region.mask.ravel()):
                problems.append(f"{stem}.csv: mask differs from the report")
            svg = ET.fromstring((out / f"{stem}.svg").read_text(encoding="ascii"))
            if not svg.tag.endswith("svg"):
                problems.append(f"{stem}.svg: root element is {svg.tag}")
        except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as exc:
            problems.append(f"{stem}: unreadable artifact ({exc!r})")
    return problems


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _converge_prepare(work: Path, seed: int) -> Prepared:
    # fixed Jordan symbol and schedule, so the seed is unused
    argv = ["converge", "--builtin", "jordan", "--eps", "0.15",
            "--schedule", CONVERGE_SCHEDULE,
            "--grid-nodes", str(CONVERGE_GRID)]
    return Prepared(argv, {})


def _converge_check(out: Path, prep: Prepared, stdout: str) -> list[str]:
    """One CSV row per schedule row, finite d_H, verdict 'held'."""
    problems = []
    try:
        lines = (out / "convergence.csv").read_text(encoding="ascii").splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        expected = len(CONVERGE_SCHEDULE.split(","))
        if len(rows) != expected:
            problems.append(f"convergence.csv: {len(rows)} rows, expected "
                            f"{expected}")
        if not all(math.isfinite(float(r["d_H"])) for r in rows):
            problems.append("convergence.csv: non-finite d_H")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"convergence.csv: unreadable ({exc!r})")
    if ": held;" not in stdout:
        problems.append("converge verdict is not 'held'")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_prepare(work: Path, seed: int) -> Prepared:
    corpus_seed = int(_derived(seed, 2).integers(1, 2**31 - 1))
    argv = ["verify", "--seed", str(corpus_seed),
            "--count", str(VERIFY_COUNT),
            "--order-min", str(VERIFY_ORDER), "--order-max", str(VERIFY_ORDER),
            "--eps", VERIFY_EPS]
    return Prepared(argv, {})


def _verify_check(out: Path, prep: Prepared, stdout: str) -> list[str]:
    """The expected number of checks, none of them a violation."""
    try:
        doc = json.loads((out / "verify_report.json").read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        return [f"verify_report.json: unreadable ({exc!r})"]
    problems = []
    if doc.get("checks") != VERIFY_CHECKS \
            or len(doc.get("records", ())) != VERIFY_CHECKS:
        problems.append(f"verify: {doc.get('checks')} checks, expected "
                        f"{VERIFY_CHECKS}")
    if doc.get("violations") != 0:
        problems.append(f"verify: {doc.get('violations')} violations")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("include-jordan", seeded=False, takes_jobs=True,
                 prepare=_jordan_prepare, check=_include_check),
        Workload("include-banded", seeded=True, takes_jobs=True,
                 prepare=_banded_prepare, check=_include_check),
        Workload("converge-jordan", seeded=False, takes_jobs=True,
                 prepare=_converge_prepare, check=_converge_check),
        # ``verify`` evaluates pointwise and has no worker pool, so it is
        # not given ``--jobs``
        Workload("verify-corpus", seeded=True, takes_jobs=False,
                 prepare=_verify_prepare, check=_verify_check),
    )
}
