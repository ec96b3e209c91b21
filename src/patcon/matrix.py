"""0-1 matrices, their text formats, and pattern-shape classification.

Every layer of the package works on one representation: ``BitMatrix``, an
immutable dense matrix stored row-major with 1-based ``get(r, c)`` access.
The sparse text format is only a file format; it parses into a BitMatrix.
Kernels that work on whole rows or columns read them as Python ints from
``row_masks``/``column_masks``, packed one at a time as they are read.

``classify_pattern`` recognizes the pattern families that have specialized
containment scans. A family's shape is described once, by its factory
(``all_ones``, ``identity``, ``lshape``, ...): each entry of
``PATTERN_SHAPES`` reads the only fields P could have from its size (for a
cross, its first full row and column), and ``fit`` is the one loop that
finds the first entry whose factory rebuilds P. Families overlap (a single 1
is a column of ones, an identity, a cross, ...), so the first entry that
fits, in the priority column-ones, row-ones, all-ones, identity, tuple
identity, L-shape, cross, names P's one canonical class; ``General`` when
none fits. ``fast.match_label`` runs ``fit`` on one label's entries. Small
patterns are classified once and then served from a bounded cache. What each
family is decided, timed and avoided with lives in the family table of
``fast.py``.

``BitMatrix``, the pattern classes and the package's other records are
``Frozen`` values: plain classes with the equality, hashing, repr and
immutability of frozen dataclasses, which would cost every ``patcon check``
process the import of ``dataclasses`` and the generation of their methods.
"""

from __future__ import annotations

import re
from functools import lru_cache


class MatrixFormatError(ValueError):
    """Malformed matrix text: ragged rows, bad characters, bad or duplicate coordinates."""


class Frozen:
    """An immutable value, like a frozen dataclass without the cost of building one.

    ``__init__`` takes the names in ``_fields`` positionally or by keyword,
    a class attribute of the same name being the default, and stores them in
    ``__dict__`` in that order. Instances are equal when their classes and
    fields are, hash by their fields, and refuse assignment with
    AttributeError.
    """

    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} needs the field {name!r}")
            fields[name] = kwargs.pop(name, getattr(cls, name, None))
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields) or 'none'}")
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class BitMatrix(Frozen):
    """Immutable 0-1 matrix stored row-major; indices are 1-based.

    ``cells[(r-1)*cols + (c-1)]`` holds the value at row r, column c.
    """

    def __init__(self, rows: int, cols: int, cells: bytes):
        if not isinstance(cells, bytes):
            cells = bytes(cells)
        if rows < 1 or cols < 1:
            raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
        if len(cells) != rows * cols:
            raise ValueError(f"cell count {len(cells)} does not match {rows}x{cols}")
        if cells.translate(None, b"\0\1"):
            raise ValueError("cells must contain only 0 and 1")
        self.__dict__.update(rows=rows, cols=cols, cells=cells)

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


def tuple_identity(j: int, k: int) -> BitMatrix:
    """jk x k matrix where column i carries a block of j ones in rows (i-1)j+1 .. ij."""
    if j < 1 or k < 1:
        raise ValueError("tuple identity parameters must be positive")
    cells = bytearray(j * k * k)
    for r in range(j * k):
        cells[r * k + r // j] = 1
    return BitMatrix(j * k, k, bytes(cells))


def identity(k: int) -> BitMatrix:
    """k x k matrix with ones exactly on the diagonal: the width-1 tuple identity."""
    return tuple_identity(1, k)


def lshape(h: int, w: int) -> BitMatrix:
    """h x w matrix with ones exactly in column 1 and row h: the cross centered at (h, 1)."""
    if h < 1 or w < 1:
        raise ValueError("lshape dimensions must be positive")
    return cross(h, w, h, 1)


def cross(a: int, b: int, c: int, d: int) -> BitMatrix:
    """a x b matrix with ones exactly in row c and column d."""
    if not (1 <= c <= a and 1 <= d <= b):
        raise ValueError("cross center must lie inside the matrix")
    cells = bytearray(a * b)
    cells[(c - 1) * b : c * b] = b"\x01" * b
    cells[d - 1 :: b] = b"\x01" * a
    return BitMatrix(a, b, bytes(cells))


def transpose(M: BitMatrix) -> BitMatrix:
    """Matrix with rows and columns swapped: result(r, c) = M(c, r)."""
    return BitMatrix(M.cols, M.rows, b"".join(M.column(c) for c in range(1, M.cols + 1)))


def count_ones(M: BitMatrix) -> int:
    return M.cells.count(1)


_BITS_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bitmask(cells: bytes) -> int:
    """Pack 0/1 bytes into an int whose bit i is ``cells[i]``."""
    return int(cells.translate(_BITS_TO_DIGITS)[::-1], 2)


def row_masks(M: BitMatrix):
    """Rows of M top to bottom as bitmasks (bit c-1 = column c), packed as they are read."""
    return (bitmask(M.row(r)) for r in range(1, M.rows + 1))


def column_masks(M: BitMatrix):
    """Columns of M left to right as bitmasks (bit r-1 = row r), packed as they are read."""
    return (bitmask(M.column(c)) for c in range(1, M.cols + 1))


# --- pattern classification -------------------------------------------------


class PatternClass(Frozen):
    """Base class of the pattern-shape classifications."""

    def __str__(self) -> str:
        """The ``classify`` text: the class name in kebab case, then field=value pairs."""
        name = re.sub(r"(?<=[a-z])(?=[A-Z])", "-", type(self).__name__).lower()
        return " ".join([name, *(f"{field}={value}" for field, value in vars(self).items())])


class ColumnOnes(PatternClass):
    _fields = ("k",)


class RowOnes(PatternClass):
    _fields = ("w",)


class AllOnes(PatternClass):
    _fields = ("k", "l")


class Identity(PatternClass):
    _fields = ("k",)


class TupleIdentity(PatternClass):
    _fields = ("j", "k")


class LShape(PatternClass):
    _fields = ("h", "w")


class Cross(PatternClass):
    _fields = ("a", "b", "c", "d")


class General(PatternClass):
    pass


def _cross_center(P: BitMatrix):
    """(a, b, c, d) for P's first full row c and first full column d, else None."""
    c = next((r for r in range(1, P.rows + 1) if P.row(r).count(1) == P.cols), 0)
    d = c and next((x for x in range(1, P.cols + 1) if P.column(x).count(1) == P.rows), 0)
    return (P.rows, P.cols, c, d) if d else None


# In canonical priority: (class, the only fields a pattern of P's size could
# have, or None, and the factory that builds the class's pattern from them).
PATTERN_SHAPES = (
    (ColumnOnes, lambda P: (P.rows,) if P.cols == 1 else None, lambda k: all_ones(k, 1)),
    (RowOnes, lambda P: (P.cols,) if P.rows == 1 else None, lambda w: all_ones(1, w)),
    (AllOnes, lambda P: (P.rows, P.cols), all_ones),
    (Identity, lambda P: (P.rows,) if P.rows == P.cols else None, identity),
    (TupleIdentity, lambda P: (P.rows // P.cols, P.cols) if P.rows % P.cols == 0 else None,
     tuple_identity),
    (LShape, lambda P: (P.rows, P.cols), lshape),
    (Cross, _cross_center, cross),
)


def fit(P: BitMatrix, shapes=PATTERN_SHAPES):
    """(class, fields) of the first of ``shapes`` whose factory rebuilds P, else None.

    ``_classify`` passes every shape, ``fast.match_label`` only those of one label.
    """
    for shape, fields_of, build in shapes:
        fields = fields_of(P)
        if fields is not None and build(*fields) == P:
            return shape, fields
    return None


CLASSIFY_CACHE_CELLS = 1024  # larger patterns are classified afresh, not kept alive


def classify_pattern(P: BitMatrix) -> PatternClass:
    """Most specific shape class of P under the canonical priority order.

    Patterns of up to CLASSIFY_CACHE_CELLS cells are memoized in a bounded
    LRU cache keyed by their dimensions and cells; the classes are
    immutable, so callers may share them.
    """
    if len(P.cells) > CLASSIFY_CACHE_CELLS:
        return _classify(P)
    return _classify_cached(P.rows, P.cols, P.cells)


def _classify(P: BitMatrix) -> PatternClass:
    found = fit(P)
    return found[0](*found[1]) if found else General()


@lru_cache(maxsize=4096)
def _classify_cached(rows: int, cols: int, cells: bytes) -> PatternClass:
    return _classify(BitMatrix(rows, cols, cells))


# --- text formats -----------------------------------------------------------
#
# Dense: one line of '0'/'1' characters per row; '#' lines are comments and
# blank lines are skipped; all rows must have equal length.
#
# Sparse: a header line "sparse R C" followed by one "r c" line per 1-entry
# (1-based, whitespace separated); R, C, r and c are ASCII decimal digits, and
# duplicate coordinates are an error. The parser builds the dense cells, so
# R*C is capped at SPARSE_MAX_CELLS.

SPARSE_MAX_CELLS = 1 << 26
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\0\1")


def parse_matrix(text: str) -> BitMatrix:
    """Parse the dense or sparse text format into a BitMatrix."""
    lines = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        raise MatrixFormatError("empty input")
    if content[0].split()[0] == "sparse":
        return _parse_sparse(content)
    return _parse_dense(content)


def decimal_pair(fields, shown: str) -> tuple:
    """Two fields of ASCII decimal digits as ints; int() alone takes '+2', '1_0', '\u0663'."""
    a, b = fields
    if (a + b).isascii() and (a + b).isdigit():
        return int(a), int(b)
    raise ValueError(f"{shown!r} is not two decimal numbers")


def _parse_dense(content) -> BitMatrix:
    width = len(content[0])
    # Faults are reported row by row: a bad character in a row above the first ragged one wins.
    ragged = next((i for i, ln in enumerate(content) if len(ln) != width), len(content))
    text = "".join(content[:ragged])
    digits = text.encode("ascii", "replace")  # a non-ASCII character becomes b"?", also invalid
    if digits.translate(None, b"01"):
        ch = next(ch for ch in text if ch not in "01")
        raise MatrixFormatError(f"invalid character {ch!r} in dense row")
    if ragged < len(content):
        raise MatrixFormatError(
            f"ragged rows: expected width {width}, got {len(content[ragged])}"
        )
    del text  # the joined rows, the ASCII digits and the cells would otherwise coexist
    cells = digits.translate(_DIGITS_TO_BITS)
    del digits
    return BitMatrix(len(content), width, cells)


def _parse_sparse(content) -> BitMatrix:
    header = content[0].split()
    if len(header) != 3:
        raise MatrixFormatError("sparse header must be 'sparse R C'")
    try:
        rows, cols = decimal_pair(header[1:], " ".join(header[1:]))
    except ValueError as exc:
        raise MatrixFormatError(f"bad sparse dimensions: {exc}") from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError("sparse dimensions must be positive")
    if rows * cols > SPARSE_MAX_CELLS:
        raise MatrixFormatError(
            f"sparse dimensions {rows}x{cols} exceed the cap of {SPARSE_MAX_CELLS} cells"
        )
    cells = bytearray(rows * cols)
    for ln in content[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MatrixFormatError(f"sparse entry must be 'r c', got {ln!r}")
        try:
            r, c = decimal_pair(parts, ln)
        except ValueError as exc:
            raise MatrixFormatError(f"bad sparse coordinate: {exc}") from None
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise MatrixFormatError(f"coordinate ({r}, {c}) outside {rows}x{cols}")
        i = (r - 1) * cols + (c - 1)
        if cells[i]:  # the cell itself records that (r, c) was seen
            raise MatrixFormatError(f"duplicate coordinate ({r}, {c})")
        cells[i] = 1
    return BitMatrix(rows, cols, bytes(cells))


def serialize(M: BitMatrix) -> str:
    """Dense text form; parse_matrix(serialize(M)) == M."""
    # Row by row, so that no digit copy of all cells sits beside the rows and the result.
    rows = (M.row(r).translate(_BITS_TO_DIGITS).decode("ascii") for r in range(1, M.rows + 1))
    return "".join(row + "\n" for row in rows)


def serialize_sparse(M: BitMatrix) -> str:
    """Sparse text form; parse_matrix(serialize_sparse(M)) == M."""
    out = [f"sparse {M.rows} {M.cols}"]
    for r in range(1, M.rows + 1):
        out.extend(f"{r} {c}" for c, v in enumerate(M.row(r), 1) if v)
    return "\n".join(out) + "\n"
