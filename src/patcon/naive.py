"""Reference containment oracle by explicit submatrix search.

``A`` contains ``P`` when there are strictly increasing row indices
r_1 < ... < r_k and column indices c_1 < ... < c_l of A such that
A(r_i, c_j) = 1 wherever P(i, j) = 1; zeros of P impose no constraint.

The oracle enumerates row subsets of A and matches pattern columns greedily
left to right. For a fixed row selection, whether a column of A can serve as
pattern column j does not depend on which columns were chosen earlier, so
taking the first workable column is safe (the usual exchange argument for
ordered subsequence matching). When P has more rows than columns the search
runs on the transposed instance so the enumerated subset is the smaller one.

This module exists to be trusted, not to be fast; every specialized scan in
the package is tested against it. ``copies_through`` reuses the same greedy
column matcher for the extremal search's incremental test, which looks only
at copies of P through one newly placed 1.
"""

from __future__ import annotations

from itertools import combinations

from .matrix import BitMatrix, SparseEntries, transpose, transpose_sparse


def _pattern_column_rows(P: BitMatrix):
    """For each pattern column, the 0-based row indices that must be ones."""
    return [
        tuple(i for i in range(P.rows) if P.get(i + 1, c + 1)) for c in range(P.cols)
    ]


def _column_mask(col: bytes) -> int:
    m = 0
    for i, v in enumerate(col):
        if v:
            m |= 1 << i
    return m


def _greedy_columns(colmasks, needs) -> bool:
    """Match pattern columns to matrix columns left to right; needs are row bitmasks."""
    j = 0
    last = len(needs)
    for mask in colmasks:
        if needs[j] & mask == needs[j]:
            j += 1
            if j == last:
                return True
    return False


def copies_through(P: BitMatrix, rows: int):
    """Build a test for copies of P whose row-major last 1 lands on one given cell.

    Returns ``through(colmasks, r, c)`` for matrices with ``rows`` rows, given
    as per-column row bitmasks (bit r of ``colmasks[c]`` is the 0-based cell
    (r, c)). It answers whether some copy of P maps P's row-major last 1,
    at (i*, j*), onto (r, c). All rows of P below i* and the cells of row i*
    right of j* are zero, so such a copy picks i* rows above r and needs
    k-1-i* spare rows below it (k = P.rows); with the rows fixed, P's columns
    before j* are matched greedily left of c and those after j* greedily
    right of c, as in ``contains_naive``, with column j* pinned to c.

    This decides containment incrementally: if A avoids P and (r, c) comes
    after every 1 of A in row-major order, then A plus a 1 at (r, c) contains
    P exactly when ``through`` holds, because a copy in the new matrix must
    use the new 1, and the image of P's last 1 is then the new matrix's last 1.
    """
    if not any(P.cells):
        raise ValueError("pattern has no ones")
    last = P.cells.rindex(1)
    i_star, j_star = divmod(last, P.cols)
    tail_rows = P.rows - 1 - i_star
    pat_cols = _pattern_column_rows(P)

    def plan(r: int):
        """(pin, left needs, right needs) row bitmasks for each row selection around row r."""
        out = []
        if rows - 1 - r >= tail_rows:
            for sel in combinations(range(r), i_star):
                needs = []
                for rows_needed in pat_cols:
                    m = 0
                    for i in rows_needed:
                        m |= 1 << (r if i == i_star else sel[i])
                    needs.append(m)
                out.append((needs[j_star], needs[:j_star], needs[j_star + 1 :]))
        return out

    plans = [plan(r) for r in range(rows)]

    def through(colmasks, r: int, c: int) -> bool:
        m = colmasks[c]
        left = colmasks[:c]
        right = colmasks[c + 1 :]
        for pin, lneeds, rneeds in plans[r]:
            if (
                m & pin == pin
                and (not lneeds or _greedy_columns(left, lneeds))
                and (not rneeds or _greedy_columns(right, rneeds))
            ):
                return True
        return False

    return through


def contains_naive(A: BitMatrix, P: BitMatrix) -> bool:
    """True iff A contains P (ground-truth semantics above)."""
    if P.rows > A.rows or P.cols > A.cols:
        return False
    if P.rows > P.cols:
        return contains_naive(transpose(A), transpose(P))
    colmasks = [_column_mask(A.column(c)) for c in range(1, A.cols + 1)]
    pat_cols = _pattern_column_rows(P)
    for sel in combinations(range(A.rows), P.rows):
        needs = []
        for rows_needed in pat_cols:
            m = 0
            for i in rows_needed:
                m |= 1 << sel[i]
            needs.append(m)
        if _greedy_columns(colmasks, needs):
            return True
    return False


def contains_naive_sparse(E: SparseEntries, P: BitMatrix) -> bool:
    """Containment decided from the 1-entries alone; equals contains_naive.

    Rows of P without any one never constrain cell values, but they still
    consume a distinct row of the source matrix. Row selections are therefore
    drawn from the rows that carry ones and checked against spacing:
    consecutive selected rows must be at least as far apart as the pattern
    rows they stand for, with enough slack before the first and after the
    last. Columns are matched by the same greedy scan as the dense oracle.
    """
    if P.rows > E.source_rows or P.cols > E.source_cols:
        return False
    if P.rows > P.cols:
        return contains_naive_sparse(transpose_sparse(E), transpose(P))

    active = [i for i in range(1, P.rows + 1) if any(P.get(i, c) for c in range(1, P.cols + 1))]
    if not active:
        return True  # all-zero pattern: dimensions already fit

    rows_of_ones = sorted({r for r, _ in E.entries})
    colmasks = [0] * E.source_cols
    for r, c in E.entries:
        colmasks[c - 1] |= 1 << (r - 1)

    # Per pattern column, the positions (indices into `active`) that must be ones.
    pos_of = {i: t for t, i in enumerate(active)}
    pat_cols = [
        tuple(pos_of[i] for i in active if P.get(i, c)) for c in range(1, P.cols + 1)
    ]

    m = len(active)
    tail_slack = P.rows - active[-1]
    for sel in combinations(rows_of_ones, m):
        if sel[0] < active[0]:
            continue
        if E.source_rows - sel[-1] < tail_slack:
            continue
        spaced = True
        for t in range(1, m):
            if sel[t] - sel[t - 1] < active[t] - active[t - 1]:
                spaced = False
                break
        if not spaced:
            continue
        needs = []
        for positions in pat_cols:
            mask = 0
            for t in positions:
                mask |= 1 << (sel[t] - 1)
            needs.append(mask)
        if _greedy_columns(colmasks, needs):
            return True
    return False
