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
the package is tested against it, ``fast.contains_general`` among them,
which is the search ``dispatch`` runs for patterns no family fits: the same
greedy column match, on rows picked top down and dropped as soon as a prefix
fails. The oracle itself runs for ``check --algo naive``. The extremal
search's incremental test builds on the same greedy column matcher.
"""

from __future__ import annotations

from itertools import combinations

from .matrix import BitMatrix, column_masks, transpose


def _pattern_column_rows(P: BitMatrix):
    """For each pattern column, the 0-based row indices that must be ones."""
    return [
        tuple(i for i in range(P.rows) if P.get(i + 1, c + 1)) for c in range(P.cols)
    ]


def _column_needs(pat_cols, row_of):
    """Row bitmask each pattern column needs when pattern row i sits at column-mask bit ``row_of[i]``."""
    needs = []
    for rows_needed in pat_cols:
        m = 0
        for i in rows_needed:
            m |= 1 << row_of[i]
        needs.append(m)
    return needs


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


def contains_naive(A: BitMatrix, P: BitMatrix) -> bool:
    """True iff A contains P (ground-truth semantics above)."""
    if P.rows > A.rows or P.cols > A.cols:
        return False
    if P.rows > P.cols:
        return contains_naive(transpose(A), transpose(P))
    colmasks = list(column_masks(A))
    pat_cols = _pattern_column_rows(P)
    for sel in combinations(range(0, 8 * A.rows, 8), P.rows):  # row r's bit in a column mask
        if _greedy_columns(colmasks, _column_needs(pat_cols, sel)):
            return True
    return False
