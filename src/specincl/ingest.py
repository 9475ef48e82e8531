"""Matrix file ingestion: Matrix Market and dense CSV with re,im cells.

The Matrix Market reader and writer load ``scipy.io`` when first called, so
importing this module loads no scipy module.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import DomainError
from .matrixcore import as_matrix

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_csv_matrix",
    "write_csv_matrix",
    "load_matrix",
    "read_ascii",
]


def read_matrix_market(path) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file (array or coordinate,
    real/integer/complex, symmetry expanded)."""
    from scipy.io import mmread

    try:
        m = mmread(str(path))
    except ValueError as exc:
        raise DomainError(f"cannot read Matrix Market file {path}: "
                          f"{exc}") from None
    if hasattr(m, "toarray"):
        m = m.toarray()
    return as_matrix(np.asarray(m))


def write_matrix_market(path, A) -> None:
    from scipy.io import mmwrite

    mmwrite(str(path), np.asarray(A, dtype=np.complex128))


def _parse_cell(cell: str) -> complex:
    cell = cell.strip()
    if not cell:
        raise DomainError("empty CSV cell")
    try:
        if "," in cell:
            re_s, im_s = cell.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(float(cell), 0.0)
    except ValueError:
        raise DomainError(f"cannot parse CSV cell {cell!r}") from None


def read_ascii(path) -> str:
    """Text of an ASCII file; any other byte is a ``DomainError``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not ASCII text (byte "
                          f"{exc.object[exc.start]:#04x})") from None


def read_csv_matrix(path) -> np.ndarray:
    """Dense CSV: cells separated by ';', each cell "re,im" or a bare real.

    A fallback splitter accepts plain comma-separated real matrices.
    """
    rows = []
    for line in read_ascii(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ";" in line:
            cells = line.split(";")
        else:
            cells = line.split(",")
        rows.append([_parse_cell(c) for c in cells if c.strip()])
    if not rows:
        raise DomainError(f"no data rows in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DomainError("ragged CSV matrix")
    return as_matrix(np.array(rows, dtype=np.complex128))


def write_csv_matrix(path, A) -> None:
    A = np.asarray(A, dtype=np.complex128)
    buf = io.StringIO()
    for row in A:
        buf.write(";".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
        buf.write("\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(buf.getvalue())


def load_matrix(path) -> np.ndarray:
    """Dispatch on extension: .mtx/.mm -> Matrix Market, .csv -> dense CSV."""
    p = str(path)
    if p.endswith((".mtx", ".mm", ".mtx.gz")):
        return read_matrix_market(p)
    if p.endswith(".csv"):
        return read_csv_matrix(p)
    raise DomainError(f"unrecognized matrix file extension: {p}")
