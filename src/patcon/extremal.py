"""Exact extremal values: the most ones an n x n matrix can carry while avoiding a pattern.

``ex_exact`` runs a depth-first branch and bound over the cells in row-major
order, placing a 1 before a 0 at every cell. A branch dies as soon as the
partial matrix (undecided cells read as 0) already contains the pattern --
adding more ones can only keep it contained -- or when the ones placed plus
the cells still undecided cannot beat the best avoider found so far. Trying
1 first makes the reported witness deterministic: among all maximum avoiders
it is the one preferring ones at the earliest row-major positions.

Containment is decided incrementally. The search only extends avoiders, and
a new 1 at (r, c) comes after every 1 already placed, so the extended matrix
contains P exactly when some copy of P maps P's row-major last 1 onto
(r, c): a copy must use the new 1, and the image of P's last 1 is the last
1 of the copy. ``naive.copies_through`` tests just those copies on
per-column row bitmasks, so no matrix is rebuilt per node and one test
serves every pattern.

The stack is explicit: the decided prefix of the cell array is the path from
the root, and since a 1 is tried before a 0, backtracking means turning the
deepest decided 1 into a 0 (a cell already decided 0 has both branches done).
The search depth is therefore not bounded by the interpreter's recursion
limit.

The search is exact but exponential; it is meant for desk-scale n. A node
budget turns runaway searches into a distinct error instead of a wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import BitMatrix, count_ones, parse_matrix, serialize
from .naive import contains_naive, copies_through
from .fast import dispatch

DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The branch-and-bound node budget ran out before the search finished."""

    def __init__(self, n: int, budget: int):
        super().__init__(f"node budget {budget} exceeded while searching n={n}")
        self.n = n
        self.budget = budget


@dataclass(frozen=True)
class ExtremalRecord:
    """Exact extremal value with a certifying avoider.

    ``witness`` is an n x n matrix with exactly ``value`` ones that avoids
    ``pattern``; no n x n matrix with more ones avoids it. ``nodes`` is the
    number of search nodes ``ex_exact`` visited to prove it (0 when the
    record did not come from a search).
    """

    n: int
    pattern: BitMatrix
    value: int
    witness: BitMatrix
    nodes: int = 0


def ex_exact(n: int, P: BitMatrix, node_budget: int = DEFAULT_NODE_BUDGET) -> ExtremalRecord:
    """Maximum number of ones an n x n matrix can hold while avoiding P.

    Raises ValueError for an all-zero P (every matrix contains it, so no
    avoider exists) and SearchBudgetExceeded when the node budget runs out.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if count_ones(P) == 0:
        raise ValueError("pattern has no ones; every matrix contains it")

    total = n * n
    through = copies_through(P, n)
    cells = bytearray(total)
    colmasks = [0] * n
    best_value = 0
    best_witness = bytes(total)  # all-zero avoids any pattern with a one
    nodes = 0
    idx = ones = 0  # the node being visited: cells[:idx] decided, `ones` of them 1
    while True:
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(n, node_budget)
        if idx == total:
            if ones > best_value:
                best_value = ones
                best_witness = bytes(cells)
        elif ones + (total - idx) > best_value:
            r, c = divmod(idx, n)
            bit = 1 << r
            colmasks[c] |= bit
            if through(colmasks, r, c):
                colmasks[c] ^= bit  # contained: only the 0 branch remains
            else:
                cells[idx] = 1
                ones += 1
            idx += 1
            continue
        # Backtrack: the deepest decided 1 still has its 0 branch to visit.
        idx = cells.rfind(1, 0, idx)
        if idx < 0:
            break
        cells[idx] = 0
        ones -= 1
        r, c = divmod(idx, n)
        colmasks[c] ^= 1 << r
        idx += 1

    witness = BitMatrix(n, n, best_witness)
    if dispatch(witness, P):  # cross-check of the incremental test
        raise RuntimeError(f"extremal search for n={n} produced a witness containing the pattern")
    return ExtremalRecord(n, P, best_value, witness, nodes)


def verify_record(rec: ExtremalRecord) -> bool:
    """Check the witness side of a record: size, ones count, avoidance.

    Maximality is ex_exact's contract and is not re-verified here.
    """
    w = rec.witness
    if w.rows != rec.n or w.cols != rec.n:
        return False
    if count_ones(w) != rec.value:
        return False
    return not contains_naive(w, rec.pattern)


def ex_table(n_max: int, P: BitMatrix, node_budget: int = DEFAULT_NODE_BUDGET):
    """Records for n = 1 .. n_max."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return [ex_exact(n, P, node_budget) for n in range(1, n_max + 1)]


# --- cache file --------------------------------------------------------------
#
# The first block is the line "pattern" followed by the pattern in dense
# format. Then one block per record: a line "n value", then the witness in
# dense format. Blocks are separated by blank lines. Recording the pattern
# lets a reader refuse bounds that were computed for another pattern.


def save_cache(records, path):
    """Write records of one pattern to the cache text format."""
    patterns = {rec.pattern for rec in records}
    if len(patterns) != 1:
        raise ValueError("a cache file holds the records of exactly one pattern")
    blocks = [f"pattern\n{serialize(patterns.pop())}"]
    for rec in records:
        blocks.append(f"{rec.n} {rec.value}\n{serialize(rec.witness)}")
    with open(path, "w") as fh:
        fh.write("\n".join(blocks))


def _read_cache(path):
    """(pattern, [(n, value, witness), ...]) from a cache file, every record verified."""
    with open(path) as fh:
        text = fh.read()
    blocks = [b.strip().splitlines() for b in text.split("\n\n") if b.strip()]
    if not blocks or blocks[0][0].strip() != "pattern":
        raise ValueError(f"cache file {path} does not record its pattern; rewrite it with --cache-out")
    pattern = parse_matrix("\n".join(blocks[0][1:]))
    out = []
    for lines in blocks[1:]:
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError(f"bad cache header line: {lines[0]!r}")
        n, value = int(head[0]), int(head[1])
        witness = parse_matrix("\n".join(lines[1:]))
        if not verify_record(ExtremalRecord(n, pattern, value, witness)):
            raise ValueError(
                f"cache record n={n} value={value}: the witness is not an {n}x{n} "
                f"avoider of the recorded pattern with {value} ones"
            )
        out.append((n, value, witness))
    return pattern, out


def load_cache(path):
    """Read a cache file; returns a list of (n, value, witness) tuples.

    Raises ValueError when the file records no pattern or a witness does not
    certify its record (size n x n, ``value`` ones, avoids the pattern).
    """
    return _read_cache(path)[1]


def bounds_from_cache(path, P: BitMatrix):
    """Build the (n, pattern) -> bound map dispatch expects from a cache file.

    Raises ValueError when the file was written for a pattern other than P.
    """
    pattern, records = _read_cache(path)
    if pattern != P:
        raise ValueError(f"bounds cache {path} was written for a different pattern")
    return {(n, P): value for n, value, _ in records}
