"""Exact extremal values: the most ones an n x n matrix can carry while avoiding a pattern.

``ex_exact`` runs a depth-first branch and bound over the cells in row-major
order, placing a 1 before a 0 at every cell. A branch dies as soon as the
partial matrix (undecided cells read as 0) already contains the pattern --
adding more ones can only keep it contained -- or when an upper bound on its
ones cannot beat the best avoider found so far. Trying 1 first makes the
witness deterministic: the row-major lexicographically greatest maximum avoider.

The bound comes from strips: ``ex_exact(n, P)`` first fills strip[m] =
ex(m x n, P) for m < n by the same search on m rows (m*n when P does not
fit). The rows below row r, and those from r on, are avoiding strips, so a
node at (r, c) can reach at most min(ones + (n - c) + strip[rows-r-1], ones
above row r + strip[rows-r]).
When every cell of P is 1, permuting rows or columns does not change
containment, and every matrix has a doubly lexical ordering (Lubiw 1987),
so a 1 is placed only where row r stays <= row r-1 and column c stays <=
column c-1 over the cells decided so far; a 0 never breaks that order.
Neither rule changes the value or the witness: the bound cuts only subtrees
that cannot strictly beat the best so far, and the witness is doubly sorted,
as swapping an out-of-order pair of its rows or columns would give a
lexicographically greater avoider with as many ones.

Each search also stops at the first leaf whose ones reach its cap, a proven
upper bound on the ones of any m x n avoider: ``fast.upper_bound``, the
``bound`` of P's family (m*n when P does not fit), and for m > 1 rows also
the row average m * strip[m-1] // (m-1). The search keeps the first leaf
with the most ones, so a leaf that reaches a proven bound is the witness the
full search would return; only the nodes after it are saved. A leaf above
the cap would disprove it and raises RuntimeError.

Containment is decided incrementally. The search only extends avoiders, and
a new 1 at (r, c) comes after every 1 already placed, so the extended matrix
contains P exactly when some copy of P maps P's row-major last 1 onto
(r, c): a copy must use the new 1, and the image of P's last 1 is the last
1 of the copy. ``_plans`` lists, per row, the row selections that can
place P's last 1 on that row, and the search tests just those copies on
per-column row bitmasks, so no matrix is rebuilt per node and one test
serves every pattern.

The stack is explicit: the decided prefix of the cell array is the path from
the root, and since a 1 is tried before a 0, backtracking means turning the
deepest decided 1 into a 0 (a cell already decided 0 has both branches done).
The search depth is therefore not bounded by the interpreter's recursion
limit.

The search is exact but exponential; it is meant for desk-scale n. A node
budget, shared with the strip searches, turns runaway searches into an error.
"""

from __future__ import annotations

import re
import sys
from itertools import combinations

from .matrix import (
    BitMatrix,
    Frozen,
    MatrixFormatError,
    count_ones,
    decimal_pair,
    parse_matrix,
    serialize,
)
from .naive import _column_needs, _greedy_columns, _pattern_column_rows, contains_naive
from .fast import dispatch, upper_bound

DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The branch-and-bound node budget ran out before the search finished."""

    def __init__(self, n: int, budget: int):
        super().__init__(f"node budget {budget} exceeded while searching n={n}")
        self.n = n
        self.budget = budget


class ExtremalRecord(Frozen):
    """Exact extremal value with a certifying avoider.

    ``witness`` is an n x n matrix with exactly ``value`` ones that avoids
    ``pattern``; no n x n matrix with more ones avoids it. ``nodes`` is the
    number of search nodes ``ex_exact`` visited to prove it (0 when the
    record did not come from a search), the searches for ``strip``, ex(m x n,
    P) for m < n, included; ``cut_*`` count the branches each rule cut, ``searches``
    the searches run, strips included, ``closed`` those that reached their
    cap (a proven bound), and ``cap`` the n x n search's (None if no search ran).
    """

    _fields = ("n", "pattern", "value", "witness", "nodes", "cut_contained", "cut_bound",
               "cut_symmetry", "strip", "searches", "closed", "cap")
    nodes = cut_contained = cut_bound = cut_symmetry = searches = closed = 0  # the defaults
    strip, cap = (), None


def _plans(P: BitMatrix, rows: int):
    """For each row r < ``rows``, (pin, left needs, right needs) per copy of P's last 1 on row r.

    P's row-major last 1 sits at (i*, j*): all rows of P below i* and the
    cells of row i* right of j* are zero. A copy that maps it onto row r picks
    i* rows above r and needs P.rows-1-i* spare rows below r. For each such
    selection, ``pin`` is the row bitmask (bit r is row r) that column j*
    needs, and the left and right needs are those of P's columns before and
    after j*, matched greedily as in ``contains_naive``.
    """
    i_star, j_star = divmod(P.cells.rindex(1), P.cols)
    pat_cols = _pattern_column_rows(P)
    plans = []
    for r in range(rows):
        plan = []
        if rows - r >= P.rows - i_star:
            for sel in combinations(range(r), i_star):
                needs = _column_needs(pat_cols, (*sel, r))  # pattern row i* on row r
                plan.append((needs[j_star], needs[:j_star], needs[j_star + 1 :]))
        plans.append(plan)
    return plans


def _search(rows: int, n: int, P: BitMatrix, strip, cap: int, nodes: int,
            node_budget: int) -> tuple:
    """(value, cells, nodes, cuts) of the first maximum rows x n avoider of P in 1-before-0 order.

    Needs strip[m] = ex(m x n, P) for m < rows and a proven upper bound
    ``cap`` on the value, at which the search stops; ``nodes`` counts on from
    those spent before. ``cuts``: branches cut by containment, bound and symmetry.
    """
    if nodes + n >= node_budget:  # row 0 is never cut, so n + 1 nodes: raise before allocating
        raise SearchBudgetExceeded(n, node_budget)
    total = rows * n
    plans = _plans(P, rows)
    sort = all(P.cells)  # J_{k x l}: search doubly sorted matrices only
    cells = bytearray(total)
    colmasks = [0] * n
    above = [0] * rows  # ones in the rows above each row, set on entering the row
    best_value = 0
    best_cells = bytes(total)  # all-zero avoids any pattern with a one
    contained = bounded = unsorted = 0
    idx = ones = 0  # the node being visited: cells[:idx] decided, `ones` of them 1
    while True:
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(n, node_budget)  # strips share n and the budget
        if idx == total:
            if ones > best_value:
                best_value = ones
                best_cells = bytes(cells)
                if ones >= cap:  # no leaf after this one can have more ones
                    if ones > cap:
                        raise RuntimeError(
                            f"a {rows}x{n} avoider with {ones} ones disproves the bound {cap}")
                    break
        else:
            r, c = divmod(idx, n)
            if not c:
                above[r] = ones
            bound = ones + n - c + strip[rows - r - 1]
            if r and above[r] + strip[rows - r] < bound:
                bound = above[r] + strip[rows - r]
            if bound > best_value:
                # A 1 may not lift row r over row r-1, nor column c over c-1.
                if sort and (
                    r and not cells[idx - n] and cells[idx - c : idx] == cells[idx - n - c : idx - n]
                    or c and not colmasks[c - 1] >> r & 1
                    and not (colmasks[c] ^ colmasks[c - 1]) & ((1 << r) - 1)
                ):
                    unsorted += 1
                else:
                    m = colmasks[c] | 1 << r
                    for pin, lneeds, rneeds in plans[r]:
                        if (m & pin == pin
                                and (not lneeds or _greedy_columns(colmasks[:c], lneeds))
                                and (not rneeds or _greedy_columns(colmasks[c + 1 :], rneeds))):
                            contained += 1  # a copy through (r, c): only the 0 branch remains
                            break
                    else:
                        colmasks[c] = m
                        cells[idx] = 1
                        ones += 1
                idx += 1
                continue
            bounded += 1
        # Backtrack: the deepest decided 1 still has its 0 branch to visit.
        idx = cells.rfind(1, 0, idx)
        if idx < 0:
            break
        cells[idx] = 0
        ones -= 1
        r, c = divmod(idx, n)
        colmasks[c] ^= 1 << r
        idx += 1
    return best_value, best_cells, nodes, (contained, bounded, unsorted)


def ex_exact(n: int, P: BitMatrix, node_budget: int = DEFAULT_NODE_BUDGET) -> ExtremalRecord:
    """Maximum number of ones an n x n matrix can hold while avoiding P.

    Raises ValueError for an all-zero P (every matrix contains it, so no
    avoider exists) and SearchBudgetExceeded when the node budget runs out.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if count_ones(P) == 0:
        raise ValueError("pattern has no ones; every matrix contains it")

    bound = upper_bound(P)
    nodes, cuts, searches, closed = 0, (0, 0, 0), 0, 0
    strip = [0]  # strip[m] = ex(m x n, P), for m < n
    for m in range(1, n + 1):  # the strips, then the n x n search itself
        if m < n and (m < P.rows or n < P.cols):
            value = m * n  # P does not fit, so the strip is all ones
        else:
            # Deleting any one row of an m x n avoider leaves an (m-1) x n
            # avoider. Over the m rows each 1 is kept m-1 times, so for m > 1,
            # (m-1) * ones <= m * strip[m-1].
            cap = bound(m, n) if m == 1 else min(bound(m, n), m * strip[m - 1] // (m - 1))
            value, cells, nodes, more = _search(m, n, P, strip, cap, nodes, node_budget)
            cuts = tuple(map(sum, zip(cuts, more)))
            searches, closed = searches + 1, closed + (value == cap)
        strip.append(value)
    witness = BitMatrix(n, n, cells)
    if dispatch(witness, P):  # cross-check of the incremental test
        raise RuntimeError(f"extremal search for n={n} produced a witness containing the pattern")
    return ExtremalRecord(n, P, value, witness, nodes, *cuts, tuple(strip[1:n]), searches,
                          closed, cap)


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


# --- cache file --------------------------------------------------------------
#
# The first block is the line "pattern" followed by the pattern in dense
# format. Then one block per record: a line "n value", then the witness in
# dense format. Blocks are separated by blank lines (whitespace allowed).
# Recording the pattern lets a reader refuse bounds computed for another pattern.


def save_cache(records, path):
    """Write records of one pattern to the cache text format."""
    patterns = {rec.pattern for rec in records}
    if len(patterns) != 1 or len({rec.n for rec in records}) < len(records):
        raise ValueError("a cache file holds the records of exactly one pattern, one per n")
    blocks = [f"pattern\n{serialize(patterns.pop())}"]
    for rec in records:
        blocks.append(f"{rec.n} {rec.value}\n{serialize(rec.witness)}")
    with open(path, "w") as fh:
        fh.write("\n".join(blocks))


def _read_cache(path):
    """(pattern, [(n, value, witness), ...]) from a cache file, every record verified.

    A decode or parse error is raised as a ValueError that names the file.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        blocks = [b.strip().splitlines() for b in re.split(r"\n\s*\n", text) if b.strip()]
        if not blocks or blocks[0][0].strip() != "pattern":
            raise ValueError(f"cache file {path} does not record its pattern; "
                             "rewrite it with --cache-out")
        pattern = parse_matrix("\n".join(blocks[0][1:]))
        out = []
        for lines in blocks[1:]:
            try:
                n, value = decimal_pair(lines[0].split(), lines[0])
            except ValueError:
                raise ValueError(f"bad cache header line: {lines[0]!r}") from None
            if any(n == m for m, _, _ in out):
                raise ValueError(f"second record for n={n} in cache file {path}")
            witness = parse_matrix("\n".join(lines[1:]))
            if not verify_record(ExtremalRecord(n, pattern, value, witness)):
                raise ValueError(f"cache record n={n} value={value}: the witness is not an "
                                 f"{n}x{n} avoider of the recorded pattern with {value} ones")
            out.append((n, value, witness))
        return pattern, out
    except (UnicodeDecodeError, MatrixFormatError) as exc:
        raise ValueError(f"cache file {path}: {exc}") from None


def load_cache(path):
    """Read a cache file; returns a list of (n, value, witness) tuples.

    Raises ValueError when the file records no pattern or a witness does not
    certify its record (size n x n, ``value`` ones, avoids the pattern).
    """
    return _read_cache(path)[1]


def bounds_from_cache(path, P: BitMatrix):
    """Build the (n, pattern) -> bound map dispatch expects from a cache file.

    A verified witness proves only ex(n, P) >= value, so a record is kept
    only when its value is also ``upper_bound(P)(n, n)``: then ex(n, P) is
    proven from both sides. Each record left out is named in a warning on
    stderr. Raises ValueError when the file was written for a pattern other than P.
    """
    pattern, records = _read_cache(path)
    if pattern != P:
        raise ValueError(f"bounds cache {path} was written for a different pattern")
    bound = upper_bound(P)
    bounds = {}
    for n, value, _ in records:
        if value == bound(n, n):
            bounds[n, P] = value
        else:
            print(f"patcon: warning: bounds cache value {value} for n={n} is not a proven "
                  f"upper bound; prefilter off for n={n}", file=sys.stderr)
    return bounds
