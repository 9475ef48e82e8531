"""Matrix file ingestion: Matrix Market and dense CSV with re,im cells.

The Matrix Market reader (Boisvert, Pozo & Remington, NIST IR 5935, 1996)
uses numpy alone.  It reads ASCII files, optionally gzipped (``.gz``), of
this subset of the format:

- banner ``%%MatrixMarket matrix FORMAT FIELD SYMMETRY``, the last three
  words in any case, with FORMAT ``coordinate`` or ``array``, FIELD
  ``real``, ``integer``, ``complex`` or ``pattern`` (coordinate only) and
  SYMMETRY ``general``, ``symmetric``, ``skew-symmetric`` or ``hermitian``
  (square matrices only);
- ``%`` comment lines and blank lines anywhere after the banner;
- the size line ``ROWS COLS ENTRIES`` (coordinate) or ``ROWS COLS``
  (array), whose dense complex array must fit numpy's index range;
- one entry per line with exactly the field's tokens: ``I J [RE [IM]]``
  with 1-based integer indices in range (coordinate), or ``RE [IM]`` in
  column-major order over the stored triangle (array).  Integer entries
  are whole numbers in int64 range.

Duplicate coordinate entries are summed in file order, and the mirror
images of the stored off-diagonal entries (transposed, negated or
conjugated) are added after all of them, so the result equals
``scipy.io.mmread`` densified by ``toarray()`` bit for bit.  Anything else
is a ``DomainError``.
"""

from __future__ import annotations

import io
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DomainError
from .matrixcore import as_matrix

__all__ = [
    "read_matrix_market",
    "read_csv_matrix",
    "write_csv_matrix",
    "load_matrix",
    "read_ascii",
    "check_dense_shape",
]

# value tokens per entry line of each field, and the dtype it is parsed in
# (mmread's dtypes: the sums of duplicate entries are formed in them)
_FIELDS = {"real": (1, np.float64), "integer": (1, np.int64),
           "complex": (2, np.float64), "pattern": (0, np.float64)}
_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def check_dense_shape(shape, what: str) -> None:
    """``DomainError`` unless a dense complex128 array of ``shape`` can exist,
    that is, unless its byte count fits numpy's index type."""
    if math.prod(shape) * 16 > np.iinfo(np.intp).max:
        raise DomainError(f"{what}: a dense {' x '.join(map(str, shape))} "
                          "complex array is too large")


def _read_bytes(path) -> bytes:
    """The bytes of a file, gunzipped if its name ends in ``.gz``."""
    data = Path(path).read_bytes()
    if not str(path).endswith(".gz"):
        return data
    import gzip
    import zlib

    try:
        return gzip.decompress(data)
    except (OSError, EOFError, zlib.error) as exc:
        raise DomainError(f"{path} is not a readable gzip file: "
                          f"{exc}") from None


def _mirror(rows, cols, values, symmetry):
    """The stored entries, then the mirror image of each off-diagonal one."""
    if symmetry == "general":
        return rows, cols, values
    mirrored = {"symmetric": values, "skew-symmetric": -values,
                "hermitian": np.conj(values)}[symmetry]
    off = rows != cols
    return (np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([values, mirrored[off]]))


def _triplets(path):
    """``(shape, rows, cols, values)`` of a Matrix Market file: 0-based
    indices and values in the field's dtype, mirrored entries included."""
    data = _ascii(_read_bytes(path), path)
    header, end = [], -1  # the banner, then the size line
    while len(header) < 2 and end < len(data):
        start, end = end + 1, data.find(b"\n", end + 1)
        if end < 0:
            end = len(data)
        line = data[start:end].decode()
        if not header or (line.strip() and not line.lstrip().startswith("%")):
            header.append(line.split())
    banner, size = header + [[]] * (2 - len(header))
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise DomainError(f"{path}: first line is not a Matrix Market banner "
                          "'%%MatrixMarket matrix FORMAT FIELD SYMMETRY'")
    obj, fmt, field, symmetry = (w.lower() for w in banner[1:])
    if (obj != "matrix" or fmt not in ("coordinate", "array")
            or field not in _FIELDS or symmetry not in _SYMMETRIES
            or (fmt, field) == ("array", "pattern")):
        raise DomainError(f"{path}: unsupported Matrix Market type "
                          f"{' '.join(banner[1:])!r}")
    want = 3 if fmt == "coordinate" else 2
    if len(size) != want or not all(t.isdigit() for t in size):
        raise DomainError(f"{path}: the size line must hold {want} "
                          "non-negative integers")
    shape = (int(size[0]), int(size[1]))
    check_dense_shape(shape, f"{path}: size line")
    if symmetry != "general" and shape[0] != shape[1]:
        raise DomainError(f"{path}: {symmetry} storage needs a square matrix")

    ntok, dtype = _FIELDS[field]
    if fmt == "coordinate":
        count, ncols = int(size[2]), 2 + ntok
    else:
        m, n = shape
        count = {"general": m * n, "skew-symmetric": n * (n - 1) // 2,
                 "symmetric": n * (n + 1) // 2,
                 "hermitian": n * (n + 1) // 2}[symmetry]
        ncols = ntok
    try:
        with warnings.catch_warnings():
            # an empty body is checked against the entry count below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(io.BytesIO(data[end + 1:]), dtype=dtype,
                               comments="%", ndmin=2, encoding="ascii")
    except ValueError as exc:
        raise DomainError(f"{path}: bad entry: {exc}") from None
    if len(table) != count or (count and table.shape[1] != ncols):
        raise DomainError(f"{path}: expected {count} entries of {ncols} "
                          f"numbers each, got {table.shape[0]} lines of "
                          f"{table.shape[1]}")
    table = table.reshape(count, ncols)  # an empty body reads as (0, 1)

    if fmt == "coordinate":
        rows, cols = table[:, 0], table[:, 1]
        for idx, bound, name in ((rows, shape[0], "row"),
                                 (cols, shape[1], "column")):
            if np.any((idx < 1) | (idx > bound) | (idx != np.floor(idx))):
                raise DomainError(f"{path}: {name} indices must be integers "
                                  f"in 1..{bound}")
        rows, cols = rows.astype(np.intp) - 1, cols.astype(np.intp) - 1
    elif symmetry == "general":
        k = np.arange(count)
        rows, cols = k % shape[0], k // shape[0]
    else:
        # the lower triangle column by column (strictly lower if skew)
        cols, rows = np.triu_indices(shape[0], int(symmetry == "skew-symmetric"))
    vals = table[:, ncols - ntok:]
    if field == "pattern":
        values = np.ones(count)
    elif field == "complex":
        values = np.ascontiguousarray(vals).view(np.complex128)[:, 0]
    else:
        values = vals[:, 0]
    return (shape, *_mirror(rows, cols, values, symmetry))


def read_matrix_market(path) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file (see the module
    docstring for the subset read)."""
    shape, rows, cols, values = _triplets(path)
    A = np.zeros(shape, dtype=values.dtype)
    # sums in file order into zeros, as coo_matrix.toarray(): -0 loads as +0
    np.add.at(A, (rows, cols), values)
    return as_matrix(A)


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


def _ascii(data: bytes, path) -> bytes:
    if not data.isascii():
        bad = next(b for b in data if b > 0x7F)
        raise DomainError(f"{path} is not ASCII text (byte {bad:#04x})")
    return data


def read_ascii(path) -> str:
    """Text of an ASCII file; any other byte is a ``DomainError``."""
    return _ascii(Path(path).read_bytes(), path).decode("ascii")


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
    """Dispatch on extension: .mtx/.mm/.mtx.gz -> Matrix Market, .csv -> dense
    CSV."""
    p = str(path)
    if p.endswith((".mtx", ".mm", ".mtx.gz")):
        return read_matrix_market(p)
    if p.endswith(".csv"):
        return read_csv_matrix(p)
    raise DomainError(f"unrecognized matrix file extension: {p}")
