"""0-1 matrices, the factories of the pattern families, and the text formats.

Every layer of the package works on one representation: ``BitMatrix``, an
immutable dense matrix stored row-major with 1-based ``get(r, c)`` access.
The sparse text format is only a file format; it parses into a BitMatrix.
Kernels that work on whole rows or columns read them as Python ints from
``row_masks``/``column_masks``, packed one at a time as they are read by
``int.from_bytes``, so the line's cell i sits at bit 8i. ``row_masks``
yields only the rows that hold a one; ``column_masks`` yields every column.

``parse_matrix`` takes a file's bytes (or a str). A canonical dense file is
its cells plus newlines, so one ``translate`` builds the cells; a canonical
sparse file is parsed from whole-buffer splits. Any other input goes line by
line, decoded as text-mode ``open()`` decodes it.

``BitMatrix`` and the package's other records, the pattern classes of
``fast.py`` among them, are ``Frozen`` values: plain classes with the
equality, hashing, repr and immutability of frozen dataclasses, which would
cost every ``patcon check`` process the import of ``dataclasses`` and the
generation of their methods.

The factories (``all_ones``, ``identity``, ``lshape``, ...) build each
family's pattern. Each family is described in one place, its
``PatternClass`` subclass in ``fast.py``, beside ``classify_pattern``
(``matrix.classify_pattern`` still resolves there); a new family is that
class and its name in the export table of ``__init__.py``.
"""

from __future__ import annotations

import io


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


def bitmask(cells: bytes) -> int:
    """Pack 0/1 bytes into an int whose bit 8i is ``cells[i]``, every other bit 0.

    The bytes read as one little-endian number. The packing preserves order:
    cell i lies below cell i' in the int exactly when i < i', which is all the
    kernels need (AND, OR, ``x & -x``, ``x & (x - 1)``, ``bit_length``,
    ``bit_count`` and ``<< 1`` on a single bit keep their meaning).
    """
    return int.from_bytes(cells, "little")


def row_masks(M: BitMatrix):
    """The rows of M that hold a one, top to bottom, as bitmasks (bit 8(c-1) = column c).

    Each row is packed as it is read, and only after ``1 in row`` (a memchr)
    finds a one: an all-zero row takes part in no pattern with a one, so no
    row kernel needs it, and its position is not kept.
    """
    return (bitmask(row) for row in map(M.row, range(1, M.rows + 1)) if 1 in row)


def column_masks(M: BitMatrix):
    """Columns of M left to right as bitmasks (bit 8(r-1) = row r), packed as they are read.

    Every column is kept, the all-zero ones included: the oracle's greedy
    match places an all-zero column of P on any column of A, a zero one too,
    so each column must keep its place.
    """
    return (bitmask(M.column(c)) for c in range(1, M.cols + 1))


def __getattr__(name):
    """``classify_pattern`` lives in ``fast``; bound here on first use (PEP 562)."""
    if name != "classify_pattern":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fast import classify_pattern

    globals()[name] = classify_pattern  # later lookups skip __getattr__
    return classify_pattern


# --- text formats -----------------------------------------------------------
#
# Dense: one line of '0'/'1' characters per row; '#' lines are comments and
# blank lines are skipped; all rows must have equal length.
#
# Sparse: a header line "sparse R C" followed by one "r c" line per 1-entry
# (1-based, whitespace separated); R, C, r and c are ASCII decimal digits, and
# duplicate coordinates are an error. The parser builds the dense cells, so
# R*C is capped at SPARSE_MAX_CELLS.
#
# What ``serialize`` and ``serialize_sparse`` write is canonical: the one-pass
# parsers take it, and anything they refuse goes to the line-by-line parser,
# whose result and messages are the format's definition.

SPARSE_MAX_CELLS = 1 << 26
# b"0" -> 0, b"1" -> 1, and every other byte -> 2, which no cell holds
_DIGITS_TO_BITS = bytes({48: 0, 49: 1}.get(b, 2) for b in range(256))
_BITS_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def parse_matrix(text) -> BitMatrix:
    """Parse the dense or sparse text format, given as a str or as a file's bytes.

    A canonical file (see ``_parse_canonical``) is parsed from its bytes in
    one pass; an ASCII str takes that path after ``encode``. Any other input
    goes line by line, the bytes decoded first exactly as text-mode
    ``open()`` decodes them (locale encoding, universal newlines), so every
    message, decode errors included, is the one that text gives.
    """
    data = text.encode("ascii") if isinstance(text, str) and text.isascii() else text
    if isinstance(data, bytes):
        M = _parse_canonical(data)
        if M is not None:
            return M
    if isinstance(text, bytes):
        text = io.TextIOWrapper(io.BytesIO(text)).read()
    lines = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        raise MatrixFormatError("empty input")
    if content[0].split()[0] == "sparse":
        return _parse_sparse(content)
    return _parse_dense(content)


def _parse_canonical(data: bytes):
    """The matrix of a canonical file, else None (the line path decides).

    Canonical dense: rows of ``0``/``1`` of one width, each ending in a
    newline. One ``translate`` maps the digits to cells and deletes the
    newlines; the row ends are where they must be when every (width+1)-th
    byte is a newline and the cells number rows x width, so no other newline
    is left. Canonical sparse: the header ``sparse R C`` and ``r c`` lines
    of ASCII digits and single spaces, each ending in a newline, every
    coordinate in range and none twice. Anything else is None: a comment,
    blank line, ``\r``, other whitespace, non-ASCII byte or any error.
    """
    if data.startswith(b"sparse "):
        return _parse_sparse_canonical(data)
    width = data.find(b"\n")
    if width < 1 or len(data) % (width + 1):
        return None
    rows = len(data) // (width + 1)
    cells = data.translate(_DIGITS_TO_BITS, b"\n")
    if len(cells) != rows * width or 2 in cells or data[width :: width + 1] != b"\n" * rows:
        return None
    return _valid(rows, width, cells)


def _parse_sparse_canonical(data: bytes):
    """``_parse_canonical`` for the sparse format: whole-buffer splits, no loop over lines."""
    end = data.find(b"\n") + 1
    header = data[: end - 1].split(b" ")
    body = data[end:]
    if not end or len(header) != 3 or not (header[1].isdigit() and header[2].isdigit()):
        return None
    coords = body.split()
    lines = body.count(b"\n")
    if len(coords) != 2 * lines or body.translate(None, b"0123456789") != b" \n" * lines:
        return None
    try:
        rows, cols = int(header[1]), int(header[2])
        coords = list(map(int, coords))
    except ValueError:  # more digits than int() reads
        return None
    if not 0 < rows * cols <= SPARSE_MAX_CELLS:
        return None
    rs, cs = coords[0::2], coords[1::2]
    if coords and (min(coords) < 1 or max(rs) > rows or max(cs) > cols):
        return None
    cells = bytearray(rows * cols)
    skew = cols + 1  # cell (r, c) is at r * cols + c - skew
    for r, c in zip(rs, cs):
        cells[r * cols + c - skew] = 1
    if cells.count(1) != lines:  # a duplicate: the line path names it
        return None
    return _valid(rows, cols, bytes(cells))


def _valid(rows: int, cols: int, cells: bytes) -> BitMatrix:
    """The BitMatrix of cells that are already known to be rows x cols zeros and ones.

    The canonical parsers prove that as they build the cells, so the check
    in ``BitMatrix.__init__``, a second pass over them, is skipped.
    """
    M = object.__new__(BitMatrix)
    M.__dict__.update(rows=rows, cols=cols, cells=cells)
    return M


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
    # A non-ASCII character becomes b"?"; the joined text is freed once encoded.
    digits = "".join(content[:ragged]).encode("ascii", "replace")
    cells = digits.translate(_DIGITS_TO_BITS)  # one pass: any byte but "0" and "1" becomes 2
    del digits
    if 2 in cells:
        ch = next(ch for ln in content[:ragged] for ch in ln if ch not in "01")
        raise MatrixFormatError(f"invalid character {ch!r} in dense row")
    if ragged < len(content):
        raise MatrixFormatError(
            f"ragged rows: expected width {width}, got {len(content[ragged])}"
        )
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
    """Sparse text form; parse_matrix(serialize_sparse(M)) == M.

    The ones are listed row-major. ``bytes.find`` walks from one 1 to the
    next, so the Python loop runs once per 1, not once per cell.
    """
    cells, cols = M.cells, M.cols
    out = [f"sparse {M.rows} {cols}"]
    i = cells.find(1)
    while i >= 0:
        r, c = divmod(i, cols)
        out.append(f"{r + 1} {c + 1}")
        i = cells.find(1, i + 1)
    return "\n".join(out) + "\n"
