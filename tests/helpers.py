"""Shared test utilities: an independent textbook oracle and input generators.

``contains_textbook`` enumerates every row subset AND every column subset and
checks each pattern cell directly. It shares no code path with the library's
oracle (which enumerates rows only and matches columns greedily), so the two
can validate each other.

``ex_reference`` is the extremal search in its plain recursive form, deciding
every node with a full ``contains_naive`` call; the library's incremental,
explicit-stack ``ex_exact`` must reproduce it node for node.
"""

from itertools import combinations

from patcon import BitMatrix, ExtremalRecord, contains_naive


def contains_textbook(A: BitMatrix, P: BitMatrix) -> bool:
    if P.rows > A.rows or P.cols > A.cols:
        return False
    pat_ones = [
        (i, j)
        for i in range(1, P.rows + 1)
        for j in range(1, P.cols + 1)
        if P.get(i, j)
    ]
    for rsel in combinations(range(1, A.rows + 1), P.rows):
        for csel in combinations(range(1, A.cols + 1), P.cols):
            if all(A.get(rsel[i - 1], csel[j - 1]) for i, j in pat_ones):
                return True
    return False


def random_matrix(rng, rows: int, cols: int, density: float = 0.5) -> BitMatrix:
    return BitMatrix(
        rows, cols, bytes(1 if rng.random() < density else 0 for _ in range(rows * cols))
    )


def all_matrices(rows: int, cols: int):
    """Every rows x cols 0-1 matrix, 2^(rows*cols) of them."""
    total = rows * cols
    for bits in range(1 << total):
        yield BitMatrix(rows, cols, bytes((bits >> i) & 1 for i in range(total)))


def all_patterns_up_to(max_rows: int, max_cols: int, require_ones: bool = False):
    """Every pattern with dimensions up to max_rows x max_cols."""
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for P in all_matrices(r, c):
                if require_ones and sum(P.cells) == 0:
                    continue
                yield P


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
