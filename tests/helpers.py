"""Shared test utilities: an independent textbook oracle and input generators.

``copy_masks`` is the one brute-force definition of containment: a copy of P
is a choice of P.rows rows and P.cols columns, as the mask of the cells where
it puts P's ones, and a matrix contains P exactly when it covers a copy.
``contains_textbook`` and ``ex_by_enumeration`` both test matrices against
these masks. They share no code path with the library's oracle (which
enumerates rows only and matches columns greedily), so the two can validate
each other.

``identity_dp`` is the identity dynamic program with its full suffix table
kept, the reference for the rolling two-column form in ``fast.max_tuple_identity_width``.

``bit_matrices`` is the Hypothesis strategy for matrices of bounded size,
one draw per cell.

``gen_random_reference`` and ``serialize_sparse_reference`` are the plain
per-cell forms of ``bench.gen_random`` and ``matrix.serialize_sparse``: one
``random()`` draw per cell and one loop step per cell. The library's forms
must give byte-identical output.

``ex_by_enumeration`` is ex(m x n, P) by brute force over every m x n matrix
up to 4 x 4.

``ex_reference`` is the extremal search in its plain recursive form, deciding
every node with a full ``contains_naive`` call and bounding by the cells left
only; the library's ``ex_exact`` must reproduce its value and witness.
"""

import random
from itertools import combinations, product

from hypothesis import strategies as st

from patcon import BitMatrix, ExtremalRecord, contains_naive


def copy_masks(P: BitMatrix, m: int, n: int) -> list:
    """P's copies in an m x n matrix, as masks with cell (r, c), counted from 0, at bit rn + c.

    There is one for every choice of P.rows rows and P.cols columns, none if P does not fit.
    """
    ones = [divmod(i, P.cols) for i, v in enumerate(P.cells) if v]
    return [sum(1 << rows[i] * n + cols[j] for i, j in ones)
            for rows in combinations(range(m), P.rows) for cols in combinations(range(n), P.cols)]


def contains_textbook(A: BitMatrix, P: BitMatrix) -> bool:
    """True iff A, as a mask with cell i of its row-major cells at bit i, covers a copy of P."""
    M = sum(1 << i for i, v in enumerate(A.cells) if v)
    return any(M & c == c for c in copy_masks(P, A.rows, A.cols))


@st.composite
def bit_matrices(draw, max_rows=6, max_cols=6, min_rows=1, min_cols=1):
    r = draw(st.integers(min_rows, max_rows))
    c = draw(st.integers(min_cols, max_cols))
    cells = draw(st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c))
    return BitMatrix(r, c, bytes(cells))


def random_matrix(rng, rows: int, cols: int, density: float = 0.5) -> BitMatrix:
    return BitMatrix(
        rows, cols, bytes(1 if rng.random() < density else 0 for _ in range(rows * cols))
    )


def gen_random_reference(n: int, density: float, seed: int) -> BitMatrix:
    return random_matrix(random.Random(seed), n, n, density)


def serialize_sparse_reference(M: BitMatrix) -> str:
    out = [f"sparse {M.rows} {M.cols}"]
    for r in range(1, M.rows + 1):
        out.extend(f"{r} {c}" for c, v in enumerate(M.row(r), 1) if v)
    return "\n".join(out) + "\n"


def all_matrices(rows: int, cols: int):
    """Every rows x cols 0-1 matrix, 2^(rows*cols) of them, the first cell changing fastest."""
    for cells in product(b"\0\1", repeat=rows * cols):
        yield BitMatrix(rows, cols, bytes(cells[::-1]))


def all_patterns_up_to(max_rows: int, max_cols: int, require_ones: bool = False):
    """Every pattern with dimensions up to max_rows x max_cols."""
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for P in all_matrices(r, c):
                if require_ones and sum(P.cells) == 0:
                    continue
                yield P


def identity_dp(A: BitMatrix, j: int = 1):
    """Completed suffix table of the j-tuple identity dynamic program.

    ``table[r][c]`` (1-based, sentinel zeros at r = rows+1 and c = cols+1) is
    the widest j-tuple identity contained in the submatrix on rows r.. and
    columns c..; row/column 0 are unused padding. table[1][1] is the maximum.
    """
    R, C = A.rows, A.cols
    D = [[0] * (C + 2) for _ in range(R + 2)]
    for c in range(C, 0, -1):
        col = A.column(c)
        one_rows = []
        for r in range(R, 0, -1):
            v = max(D[r + 1][c], D[r][c + 1])
            if col[r - 1]:
                one_rows.append(r)
                if len(one_rows) >= j:
                    v = max(v, 1 + D[one_rows[-j] + 1][c + 1])
            D[r][c] = v
    return tuple(tuple(row) for row in D)


def ex_by_enumeration(n: int, P: BitMatrix, m: int | None = None) -> int:
    """ex(m x n, P), m = n unless given: the most ones of an m x n matrix covering no copy."""
    m = n if m is None else m
    copies = copy_masks(P, m, n)
    best = 0
    for M in range(1 << m * n):
        if M.bit_count() > best and all(M & c != c for c in copies):
            best = M.bit_count()
    return best


def ex_reference(n: int, P: BitMatrix) -> ExtremalRecord:
    """Recursive branch and bound over row-major cells, 1 before 0, full oracle per node."""
    total = n * n
    cells = bytearray(total)
    best = [0, bytes(total)]
    nodes = 0

    def walk(idx: int, ones: int):
        nonlocal nodes
        nodes += 1
        if idx == total:
            if ones > best[0]:
                best[:] = [ones, bytes(cells)]
            return
        if ones + (total - idx) <= best[0]:
            return
        cells[idx] = 1
        if not contains_naive(BitMatrix(n, n, bytes(cells)), P):
            walk(idx + 1, ones + 1)
        cells[idx] = 0
        walk(idx + 1, ones)

    walk(0, 0)
    return ExtremalRecord(n, P, best[0], BitMatrix(n, n, best[1]), nodes)


# Files that the one-pass parser must hand to the line path, by what is not canonical in them.
NONCANONICAL_FILES = {
    "comment-lines": b"# a comment\n10\n# another\n01\n",
    "blank-lines": b"\n10\n\n01\n\n",
    "crlf": b"10\r\n01\r\n",
    "no-final-newline": b"10\n01",
    "utf8-bom": b"\xef\xbb\xbf10\n01\n",
    "byte-0xff": b"10\n0\xff\n",
    "tab": b"10\t\n01\n",
    "ragged-row": b"10\n011\n",
    "ragged-rows-of-whole-length": b"10\n0\n111\n",  # 3 rows and 6 digits, as 3 x 2 would have
    "bad-character-above-ragged-row": b"1x\n011\n",
    "sparse-duplicate": b"sparse 2 2\n1 1\n1 1\n",
    "sparse-out-of-range": b"sparse 2 2\n3 1\n",
    "sparse-three-fields": b"sparse 2 2\n1 1 1\n",
    "sparse-plus-two": b"sparse 2 2\n+2 1\n",
    "sparse-non-ascii-digits": "sparse 2 2\n\u0661 1\n".encode(),
    # valid sparse files, identity(2) as the dense ones above, that only the line path reads
    "sparse-crlf": b"sparse 2 2\r\n1 1\r\n2 2\r\n",
    "sparse-comment-line": b"sparse 2 2\n# the diagonal\n1 1\n2 2\n",
    "sparse-blank-line": b"sparse 2 2\n1 1\n\n2 2\n",
    "sparse-tab-and-double-space": b"sparse 2 2\n1\t1\n2  2\n",
    "sparse-no-final-newline": b"sparse 2 2\n1 1\n2 2",
    "sparse-header-double-space": b"sparse  2 2\n1 1\n2 2\n",
}
