"""Dense and sparse 0-1 matrices, their text formats, and pattern-shape classification.

Two representations are used throughout the package:

* ``BitMatrix`` -- an immutable dense matrix with 1-based ``get(r, c)`` access.
* ``SparseEntries`` -- the row-major sorted coordinate list of 1-entries,
  annotated with each entry's ordinal rank inside its row (left to right) and
  inside its column (top to bottom).

``classify_pattern`` recognizes the pattern families that have specialized
containment scans. Several families overlap (a single 1 is simultaneously a
column of ones, an identity, a cross, ...), so classification applies a fixed
priority -- column-ones, row-ones, all-ones, identity, tuple identity,
L-shape, cross, general -- and every pattern gets exactly one canonical class.
"""

from __future__ import annotations

from dataclasses import dataclass


class MatrixFormatError(ValueError):
    """Malformed matrix text: ragged rows, bad characters, bad or duplicate coordinates."""


@dataclass(frozen=True)
class BitMatrix:
    """Immutable 0-1 matrix stored row-major; indices are 1-based.

    ``cells[(r-1)*cols + (c-1)]`` holds the value at row r, column c.
    """

    rows: int
    cols: int
    cells: bytes

    def __post_init__(self):
        if not isinstance(self.cells, bytes):
            object.__setattr__(self, "cells", bytes(self.cells))
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"dimensions must be positive, got {self.rows}x{self.cols}")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError(
                f"cell count {len(self.cells)} does not match {self.rows}x{self.cols}"
            )
        if self.cells.translate(None, b"\0\1"):
            raise ValueError("cells must contain only 0 and 1")

    @classmethod
    def from_rows(cls, row_values) -> "BitMatrix":
        """Build from an iterable of equal-length 0/1 row sequences."""
        rows = [bytes(row) for row in row_values]
        if not rows:
            raise ValueError("need at least one row")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows must all have the same length")
        return cls(len(rows), len(rows[0]), b"".join(rows))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "BitMatrix":
        """Build from 1-based (row, col) coordinates of the 1-entries."""
        cells = bytearray(rows * cols)
        for r, c in entries:
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols}")
            cells[(r - 1) * cols + (c - 1)] = 1
        return cls(rows, cols, bytes(cells))

    def get(self, r: int, c: int) -> int:
        """Value at row r, column c (1-based)."""
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise IndexError(f"({r}, {c}) outside {self.rows}x{self.cols}")
        return self.cells[(r - 1) * self.cols + (c - 1)]

    def row(self, r: int) -> bytes:
        """Row r as bytes, columns left to right."""
        return self.cells[(r - 1) * self.cols : r * self.cols]

    def column(self, c: int) -> bytes:
        """Column c as bytes, rows top to bottom."""
        return self.cells[c - 1 :: self.cols]


def zeros(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, bytes(rows * cols))


def all_ones(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, b"\x01" * (rows * cols))


def identity(k: int) -> BitMatrix:
    """k x k matrix with ones exactly on the diagonal."""
    cells = bytearray(k * k)
    for i in range(k):
        cells[i * k + i] = 1
    return BitMatrix(k, k, bytes(cells))


def tuple_identity(j: int, k: int) -> BitMatrix:
    """jk x k matrix where column i carries a block of j ones in rows (i-1)j+1 .. ij."""
    if j < 1 or k < 1:
        raise ValueError("tuple identity parameters must be positive")
    cells = bytearray(j * k * k)
    for i in range(k):
        for r in range(i * j, (i + 1) * j):
            cells[r * k + i] = 1
    return BitMatrix(j * k, k, bytes(cells))


def lshape(h: int, w: int) -> BitMatrix:
    """h x w matrix with ones exactly in column 1 and row h."""
    if h < 1 or w < 1:
        raise ValueError("lshape dimensions must be positive")
    cells = bytearray(h * w)
    for r in range(h):
        cells[r * w] = 1
    for c in range(w):
        cells[(h - 1) * w + c] = 1
    return BitMatrix(h, w, bytes(cells))


def cross(a: int, b: int, c: int, d: int) -> BitMatrix:
    """a x b matrix with ones exactly in row c and column d."""
    if not (1 <= c <= a and 1 <= d <= b):
        raise ValueError("cross center must lie inside the matrix")
    cells = bytearray(a * b)
    for j in range(b):
        cells[(c - 1) * b + j] = 1
    for i in range(a):
        cells[i * b + (d - 1)] = 1
    return BitMatrix(a, b, bytes(cells))


def transpose(M: BitMatrix) -> BitMatrix:
    """Matrix with rows and columns swapped: result(r, c) = M(c, r)."""
    return BitMatrix(M.cols, M.rows, b"".join(M.column(c) for c in range(1, M.cols + 1)))


def count_ones(M: BitMatrix) -> int:
    return M.cells.count(1)


@dataclass(frozen=True)
class SparseEntries:
    """Sorted coordinate list of the 1-entries of a matrix.

    ``entries`` are 1-based (row, col) pairs in strictly increasing row-major
    order. ``row_rank[i]`` is the 0-based position of entry i among the ones
    of its row (left to right); ``col_rank[i]`` the position among the ones of
    its column (top to bottom).
    """

    source_rows: int
    source_cols: int
    entries: tuple
    row_rank: tuple
    col_rank: tuple

    def __post_init__(self):
        if not (len(self.entries) == len(self.row_rank) == len(self.col_rank)):
            raise ValueError("entries and rank sequences must have equal length")

    @property
    def count(self) -> int:
        return len(self.entries)


def _build_sparse(rows: int, cols: int, sorted_entries) -> SparseEntries:
    row_rank = []
    col_rank = []
    row_seen = [0] * (rows + 1)
    col_seen = [0] * (cols + 1)
    for r, c in sorted_entries:
        row_rank.append(row_seen[r])
        col_rank.append(col_seen[c])
        row_seen[r] += 1
        col_seen[c] += 1
    return SparseEntries(rows, cols, tuple(sorted_entries), tuple(row_rank), tuple(col_rank))


def to_sparse(M: BitMatrix) -> SparseEntries:
    """Coordinate list of M's 1-entries with row/column ordinal ranks."""
    entries = []
    for r in range(1, M.rows + 1):
        rowb = M.row(r)
        for i, v in enumerate(rowb):
            if v:
                entries.append((r, i + 1))
    return _build_sparse(M.rows, M.cols, entries)


def transpose_sparse(E: SparseEntries) -> SparseEntries:
    """Sparse form of the transposed matrix."""
    flipped = sorted((c, r) for r, c in E.entries)
    return _build_sparse(E.source_cols, E.source_rows, flipped)


# --- pattern classification -------------------------------------------------


class PatternClass:
    """Base class of the pattern-shape classifications."""


@dataclass(frozen=True)
class ColumnOnes(PatternClass):
    k: int


@dataclass(frozen=True)
class RowOnes(PatternClass):
    w: int


@dataclass(frozen=True)
class AllOnes(PatternClass):
    k: int
    l: int


@dataclass(frozen=True)
class Identity(PatternClass):
    k: int


@dataclass(frozen=True)
class TupleIdentity(PatternClass):
    j: int
    k: int


@dataclass(frozen=True)
class LShape(PatternClass):
    h: int
    w: int


@dataclass(frozen=True)
class Cross(PatternClass):
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class General(PatternClass):
    pass


def as_column_ones(P: BitMatrix):
    """k if P is a k x 1 column of ones, else None."""
    if P.cols == 1 and count_ones(P) == P.rows:
        return P.rows
    return None


def as_row_ones(P: BitMatrix):
    """w if P is a 1 x w row of ones, else None."""
    if P.rows == 1 and count_ones(P) == P.cols:
        return P.cols
    return None


def as_all_ones(P: BitMatrix):
    """(k, l) if P is all ones, else None."""
    if count_ones(P) == P.rows * P.cols:
        return (P.rows, P.cols)
    return None


def as_identity(P: BitMatrix):
    """k if P is square with ones exactly on the diagonal, else None."""
    if P.rows != P.cols:
        return None
    k = P.rows
    if count_ones(P) != k:
        return None
    if all(P.get(i, i) == 1 for i in range(1, k + 1)):
        return k
    return None


def as_tuple_identity(P: BitMatrix):
    """(j, k) if column i of P carries ones exactly in rows (i-1)j+1 .. ij, else None."""
    k = P.cols
    if P.rows % k != 0:
        return None
    j = P.rows // k
    if count_ones(P) != P.rows:
        return None
    for i in range(1, k + 1):
        for r in range((i - 1) * j + 1, i * j + 1):
            if P.get(r, i) != 1:
                return None
    return (j, k)


def as_lshape(P: BitMatrix):
    """(h, w) if P has ones exactly in column 1 and row h, else None."""
    h, w = P.rows, P.cols
    if count_ones(P) != h + w - 1:
        return None
    if all(P.get(r, 1) == 1 for r in range(1, h + 1)) and all(
        P.get(h, c) == 1 for c in range(1, w + 1)
    ):
        return (h, w)
    return None


def as_cross(P: BitMatrix):
    """(a, b, c, d) if P has ones exactly in one full row c and one full column d."""
    a, b = P.rows, P.cols
    if count_ones(P) != a + b - 1:
        return None
    full_rows = [r for r in range(1, a + 1) if sum(P.row(r)) == b]
    full_cols = [c for c in range(1, b + 1) if sum(P.column(c)) == a]
    if len(full_rows) == 1 and len(full_cols) == 1:
        return (a, b, full_rows[0], full_cols[0])
    return None


def classify_pattern(P: BitMatrix) -> PatternClass:
    """Most specific shape class of P under the canonical priority order."""
    k = as_column_ones(P)
    if k is not None:
        return ColumnOnes(k)
    w = as_row_ones(P)
    if w is not None:
        return RowOnes(w)
    kl = as_all_ones(P)
    if kl is not None:
        return AllOnes(*kl)
    k = as_identity(P)
    if k is not None:
        return Identity(k)
    jk = as_tuple_identity(P)
    if jk is not None:
        return TupleIdentity(*jk)
    hw = as_lshape(P)
    if hw is not None:
        return LShape(*hw)
    abcd = as_cross(P)
    if abcd is not None:
        return Cross(*abcd)
    return General()


# --- text formats -----------------------------------------------------------
#
# Dense: one line of '0'/'1' characters per row; '#' lines are comments and
# blank lines are skipped; all rows must have equal length.
#
# Sparse: a header line "sparse R C" followed by one "r c" line per 1-entry
# (1-based, whitespace separated); duplicate coordinates are an error.


def parse_matrix(text: str) -> BitMatrix:
    """Parse the dense or sparse text format into a BitMatrix."""
    lines = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        raise MatrixFormatError("empty input")
    if content[0].split()[0] == "sparse":
        return _parse_sparse(content)
    return _parse_dense(content)


def _parse_dense(content) -> BitMatrix:
    width = len(content[0])
    cells = bytearray()
    for ln in content:
        if len(ln) != width:
            raise MatrixFormatError(f"ragged rows: expected width {width}, got {len(ln)}")
        for ch in ln:
            if ch == "0":
                cells.append(0)
            elif ch == "1":
                cells.append(1)
            else:
                raise MatrixFormatError(f"invalid character {ch!r} in dense row")
    return BitMatrix(len(content), width, bytes(cells))


def _parse_sparse(content) -> BitMatrix:
    header = content[0].split()
    if len(header) != 3:
        raise MatrixFormatError("sparse header must be 'sparse R C'")
    try:
        rows, cols = int(header[1]), int(header[2])
    except ValueError as exc:
        raise MatrixFormatError(f"bad sparse dimensions: {exc}") from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError("sparse dimensions must be positive")
    seen = set()
    cells = bytearray(rows * cols)
    for ln in content[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MatrixFormatError(f"sparse entry must be 'r c', got {ln!r}")
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MatrixFormatError(f"bad sparse coordinate: {exc}") from None
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise MatrixFormatError(f"coordinate ({r}, {c}) outside {rows}x{cols}")
        if (r, c) in seen:
            raise MatrixFormatError(f"duplicate coordinate ({r}, {c})")
        seen.add((r, c))
        cells[(r - 1) * cols + (c - 1)] = 1
    return BitMatrix(rows, cols, bytes(cells))


def serialize(M: BitMatrix) -> str:
    """Dense text form; parse_matrix(serialize(M)) == M."""
    return "\n".join("".join(map(str, M.row(r))) for r in range(1, M.rows + 1)) + "\n"


def serialize_sparse(M: BitMatrix) -> str:
    """Sparse text form; parse_matrix(serialize_sparse(M)) == M."""
    out = [f"sparse {M.rows} {M.cols}"]
    out.extend(f"{r} {c}" for r, c in to_sparse(M).entries)
    return "\n".join(out) + "\n"
