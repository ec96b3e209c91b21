"""Containment kernels, the paper's scans, and the pattern-dispatching front door.

Each recognized pattern family has two deciders. The ``contains_*``
functions are word-level kernels on rows or columns of A packed into Python
ints (``matrix.row_masks``/``column_masks``, packed as they are read, so an
early exit reads only the rows it needs):

* identity              -- patience sorting over row masks: the lowest column
                           ending a chain of each length
* tuple identity        -- the same over column masks, j rows per step
* L-shape and cross     -- bit-sliced "at least i ones above/below" masks,
                           ANDed with each row's ones that have enough ones
                           to their left and right; a column of ones is the
                           k x 1 L-shape and a row of ones the 1 x w one
* all-ones rectangle    -- a depth-min(k, l) search over ANDs of row or
                           column masks, kept while they have enough bits

The ``max_*`` functions are the paper's scans, run to completion: a suffix
dynamic program for (tuple) identity, per-column counters for L-shapes and
columns, counters over t-subsets of one axis for all-ones rectangles, plus
``_cross_tally_scan``, the cross scan, which has no max form. They report
the extremal statistic (largest identity size, tallest L-shape, ...) and are
what ``bench`` and the complexity gate time, because the paper's worst-case
claims are about them; the kernels decide what ``dispatch`` and ``check``
print, under the same labels.

``FAMILIES`` is the one per-family table. It maps each ``PatternClass`` of
``matrix.py`` to its route label, its ``contains_*`` kernel, the verdict of
its paper scan and its dense avoider; ``dispatch``, ``decider`` (the
``--algo``/``--algos`` selectors) and ``bench``'s avoiders read it, so a new
family is one new entry. The entries look the kernels and scans up as module
globals at call time. Every ``check`` imports this module, so it keeps to
cheap imports: ``Family`` is a ``matrix.Frozen`` value rather than a
dataclass, and ``BenchConfigError``, which ``decider`` raises, is defined
here and re-exported by ``bench``.

``dispatch`` first applies the ones-count prefilter when the caller supplies
a trusted extremal bound; if that leaves the answer open, it classifies the
pattern, routes to its family's kernel, or falls back to the oracle.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, repeat

from .matrix import (
    PATTERN_SHAPES,
    AllOnes,
    BitMatrix,
    ColumnOnes,
    Cross,
    Frozen,
    Identity,
    LShape,
    PatternClass,
    RowOnes,
    TupleIdentity,
    classify_pattern,
    column_masks,
    count_ones,
    fit,
    row_masks,
    transpose,
)
from .naive import contains_naive


# --- column of ones ----------------------------------------------------------


def max_column_ones(A: BitMatrix) -> int:
    """Largest number of ones in any single column of A."""
    return max(sum(A.column(c)) for c in range(1, A.cols + 1))


def contains_column_ones(A: BitMatrix, k: int) -> bool:
    """True iff some column of A has at least k ones: a 1 with k-1 ones above it."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > A.rows:
        return False
    return _arm_scan(A, k - 1, 0, 0, 0)


# --- identity and tuple identity ----------------------------------------------


def _tuple_scan(A: BitMatrix, j: int) -> int:
    """Rolling two-column form of the suffix program; returns the maximum width."""
    R, C = A.rows, A.cols
    nxt = [0] * (R + 2)
    cur = [0] * (R + 2)
    for c in range(C, 0, -1):
        col = A.column(c)
        one_rows = []
        for r in range(R, 0, -1):
            v = cur[r + 1]
            w = nxt[r]
            if w > v:
                v = w
            if col[r - 1]:
                one_rows.append(r)
                if len(one_rows) >= j:
                    t = 1 + nxt[one_rows[-j] + 1]
                    if t > v:
                        v = t
            cur[r] = v
        nxt, cur = cur, nxt
    return nxt[1]


def _block_chain(masks, j: int, k: int) -> bool:
    """True iff k of the masks, in order, each give j set bits, every block above the last.

    Patience sorting over the masks: ``ends[t]`` is the lowest single bit at
    which a chain of t+1 blocks can end among the masks read so far. A mask
    extends the chain of each length with its j lowest bits above that
    chain's end; longer chains go first, so an extension reads only ends
    that earlier masks set. Each mask costs O(j k) operations on its int.
    """
    ends = []
    for m in masks:
        for t in range(min(len(ends), k - 1), -1, -1):
            free = m & -(ends[t - 1] << 1) if t else m
            for _ in range(j - 1):
                free &= free - 1
            end = free & -free
            if not end:
                continue
            if t == len(ends):
                if t + 1 == k:
                    return True
                ends.append(end)
            elif end < ends[t]:
                ends[t] = end
    return False


def max_identity(A: BitMatrix) -> int:
    """Largest k such that A contains the k x k identity (0 for all-zero A)."""
    return _tuple_scan(A, 1)


def contains_identity(A: BitMatrix, k: int) -> bool:
    """True iff A contains the k x k identity: a chain of ones down and to the right."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > A.rows or k > A.cols:
        return False
    return _block_chain(row_masks(A), 1, k)


def max_tuple_identity_width(A: BitMatrix, j: int) -> int:
    """Largest k such that A contains the jk x k tuple identity."""
    if j < 1:
        raise ValueError("j must be positive")
    return _tuple_scan(A, j)


def contains_tuple_identity(A: BitMatrix, j: int, k: int) -> bool:
    """True iff A contains the jk x k tuple identity: k columns of j ones, block under block."""
    if j < 1 or k < 1:
        raise ValueError("j and k must be positive")
    if j * k > A.rows or k > A.cols:
        return False
    return _block_chain(column_masks(A), j, k)


# --- L-shape and cross ----------------------------------------------------------


def max_lshape_height(A: BitMatrix, w: int) -> int:
    """Largest h such that A contains the h x w L-shape (0 if none).

    Per-column counters driven bottom-to-top: the counter of column x is the
    tallest partial L of width w whose vertical arm sits in column x. It
    starts (unconditional increment) only on a row with w ones from x
    rightward, and grows (conditional increment) on any later one in column x.
    """
    if w < 1:
        raise ValueError("w must be positive")
    if w > A.cols:
        return 0
    counters = [0] * A.cols
    for r in range(A.rows, 0, -1):
        xs = [i for i, v in enumerate(A.row(r)) if v]
        starts = max(len(xs) - w + 1, 0)  # the ones with at least w-1 ones to their right
        for x in xs[:starts]:
            counters[x] += 1
        for x in xs[starts:]:
            if counters[x]:
                counters[x] += 1
    return max(counters)


def _with_ones_before(rows, count: int):
    """Yield (row mask, columns with at least ``count`` ones in earlier rows) for each row.

    Bit-sliced saturating counters: ``ge[i]`` is the mask of columns with at
    least i ones so far.
    """
    ge = [-1] + [0] * count
    for m in rows:
        yield m, ge[count]
        for i in range(count, 0, -1):
            ge[i] |= ge[i - 1] & m


def _arm_scan(A: BitMatrix, up: int, down: int, left: int, right: int) -> bool:
    """True iff some 1 of A has ``up`` ones above, ``down`` below, ``left`` before, ``right`` after.

    Rows go top to bottom with the "``up`` ones above" masks; the "``down``
    ones below" masks come from a bottom-to-top pass first, which only a
    cross with ones below its center needs. A row's candidates are its ones
    with ``left`` ones before and ``right`` after them: the row mask without
    its lowest ``left`` and highest ``right`` bits.
    """
    rows = row_masks(A)
    below = repeat(-1)
    if down:
        rows = list(rows)
        below = [ge for _, ge in _with_ones_before(reversed(rows), down)][::-1]
    for (m, above), floor in zip(_with_ones_before(rows, up), below):
        if m.bit_count() > left + right:
            x = m
            for _ in range(left):
                x &= x - 1
            for _ in range(right):
                x ^= 1 << (x.bit_length() - 1)
            if x & above & floor:
                return True
    return False


def contains_lshape(A: BitMatrix, h: int, w: int) -> bool:
    """True iff A contains the h x w pattern with ones in column 1 and row h."""
    if h < 1 or w < 1:
        raise ValueError("h and w must be positive")
    if h > A.rows or w > A.cols:
        return False
    return _arm_scan(A, h - 1, 0, 0, w - 1)


def contains_cross(A: BitMatrix, a: int, b: int, c: int, d: int) -> bool:
    """True iff A contains the a x b pattern with ones in row c and column d.

    A 1-entry can act as the intersection cell exactly when its row holds
    d-1 ones to its left and b-d to its right, and its column c-1 above and
    a-c below.
    """
    if not (1 <= c <= a and 1 <= d <= b):
        raise ValueError("cross center must satisfy 1 <= c <= a and 1 <= d <= b")
    if a > A.rows or b > A.cols:
        return False
    return _arm_scan(A, c - 1, a - c, d - 1, b - d)


def _cross_tally_scan(A: BitMatrix, a: int, b: int, c: int, d: int) -> bool:
    """The paper's cross scan: left/right/up/down tallies around every 1-entry, row-major.

    Same verdict as ``contains_cross``; bench times it as the cross family's
    full scan. A 1's left and right tallies are its index in its row's list
    of ones and the count after it; its up tally is streamed with
    per-column counters, and its down tally is the rest of its column total.
    """
    col_totals = [sum(A.column(x)) for x in range(1, A.cols + 1)]
    col_seen = [0] * A.cols
    for r in range(1, A.rows + 1):
        xs = [i for i, v in enumerate(A.row(r)) if v]
        q = len(xs)
        for left, x in enumerate(xs):
            up = col_seen[x]
            if (left >= d - 1 and q - left - 1 >= b - d
                    and up >= c - 1 and col_totals[x] - up - 1 >= a - c):
                return True
            col_seen[x] = up + 1
    return False


# --- all-ones rectangle ---------------------------------------------------------


def max_allones_rows(A: BitMatrix, t: int) -> int:
    """Largest number of rows of A sharing ones in some common t columns.

    Scans rows, counting per t-subset of columns the rows covering it;
    counters are created lazily, so a row with q ones costs C(q, t) increments.
    A subset's key is its columns read as a base-``A.cols`` number.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if t > A.cols:
        return 0
    counters: dict = {}
    best = 0
    for r in range(1, A.rows + 1):
        rowb = A.row(r)
        xs = [i for i, v in enumerate(rowb) if v]
        for head in combinations(range(len(xs) - 1), t - 1):
            base = 0
            for i in head:
                base = (base + xs[i]) * A.cols
            for x in xs[head[-1] + 1 if head else 0 :]:
                key = base + x
                v = counters.get(key, 0) + 1
                counters[key] = v
                if v > best:
                    best = v
    return best


def _shared_ones(masks, t: int, need: int) -> bool:
    """True iff some t of the masks have at least ``need`` set bits in common.

    Each mask read closes the t-sets it is the last of: a depth-first search
    over the earlier masks that keeps an AND only while it still has
    ``need`` bits.
    """
    kept = []

    def extend(acc: int, depth: int, end: int) -> bool:
        for i in range(end - 1, depth - 2, -1):
            x = acc & kept[i]
            if x.bit_count() >= need and (depth == 1 or extend(x, depth - 1, i)):
                return True
        return False

    for m in masks:
        if m.bit_count() >= need:
            if t == 1 or extend(m, t - 1, len(kept)):
                return True
            kept.append(m)
    return False


def contains_allones(A: BitMatrix, k: int, l: int) -> bool:
    """True iff A contains the k x l all-ones rectangle.

    The search picks min(k, l) lines: k rows whose masks share l columns
    when k <= l, otherwise l columns whose masks share k rows.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    if k > A.rows or l > A.cols:
        return False
    if k <= l:
        return _shared_ones(row_masks(A), k, l)
    return _shared_ones(column_masks(A), l, k)


# --- prefilter and dispatch ------------------------------------------------------


class PrefilterResult(Enum):
    CONTAINS = "contains"
    UNKNOWN = "unknown"


def ones_prefilter(A: BitMatrix, bound: int) -> PrefilterResult:
    """Certify containment from the ones count alone.

    The caller must guarantee that no matrix of A's size with more than
    ``bound`` ones avoids the pattern at hand (an exact extremal value or a
    proven upper bound); then more than ``bound`` ones forces containment.
    Anything else is UNKNOWN and needs a full scan.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if count_ones(A) > bound:
        return PrefilterResult.CONTAINS
    return PrefilterResult.UNKNOWN


# --- the pattern-family table ----------------------------------------------------


class UnsupportedPatternError(ValueError):
    """No dense avoiding construction is known for this pattern class."""


class BenchConfigError(ValueError):
    """Invalid bench configuration, or a selector that is unknown or does not fit P."""


def _full_rows(n: int, m: int) -> BitMatrix:
    """n x n matrix whose first m rows are all ones: no column has m+1 ones."""
    if m < 1:
        raise UnsupportedPatternError(
            "only the all-zero matrix avoids a single 1; no dense avoider"
        )
    m = min(m, n)
    return BitMatrix(n, n, b"\x01" * (m * n) + bytes((n - m) * n))


def _corner(n: int, m: int) -> BitMatrix:
    """n x n matrix with ones exactly in its first m rows and columns: no increasing m+1 chain."""
    m = min(m, n)
    return BitMatrix(n, n, b"\x01" * (m * n) + (b"\x01" * m + bytes(n - m)) * (n - m))


class Family(Frozen):
    """A pattern family; its callables take the class's fields after their first argument.

    ``label`` names the route in CLI output and in the ``--algo``/``--algos``
    selectors; ``contains(A, ...)`` is the kernel dispatch runs, ``scan(A,
    ...)`` the same verdict from the paper's full scan that bench times, and
    ``avoider(n, ...)`` a dense n x n matrix avoiding the pattern.
    """

    _fields = ("label", "contains", "scan", "avoider")


FAMILIES = {
    ColumnOnes: Family(
        "column",
        contains=lambda A, k: contains_column_ones(A, k),
        scan=lambda A, k: max_column_ones(A) >= k,
        avoider=lambda n, k: _full_rows(n, k - 1),
    ),
    RowOnes: Family(
        "column",
        contains=lambda A, w: contains_lshape(A, 1, w),
        scan=lambda A, w: max_column_ones(transpose(A)) >= w,
        avoider=lambda n, w: transpose(_full_rows(n, w - 1)),
    ),
    Identity: Family(
        "identity",
        contains=lambda A, k: contains_identity(A, k),
        scan=lambda A, k: max_identity(A) >= k,
        avoider=lambda n, k: _corner(n, k - 1),
    ),
    TupleIdentity: Family(
        "tuple-identity",
        contains=lambda A, j, k: contains_tuple_identity(A, j, k),
        scan=lambda A, j, k: max_tuple_identity_width(A, j) >= k,
        avoider=lambda n, j, k: _full_rows(n, j * k - 1),
    ),
    LShape: Family(
        "lshape",
        contains=lambda A, h, w: contains_lshape(A, h, w),
        scan=lambda A, h, w: max_lshape_height(A, w) >= h,
        avoider=lambda n, h, w: _full_rows(n, h - 1),
    ),
    Cross: Family(
        "cross",
        contains=lambda A, a, b, c, d: contains_cross(A, a, b, c, d),
        scan=lambda A, a, b, c, d: _cross_tally_scan(A, a, b, c, d),  # no max_* form
        avoider=lambda n, a, b, c, d: _full_rows(n, a - 1),
    ),
    AllOnes: Family(
        "allones",
        contains=lambda A, k, l: contains_allones(A, k, l),
        # subsets of size min(k, l)
        scan=lambda A, k, l: (
            max_allones_rows(A, l) >= k if l <= k else max_allones_rows(transpose(A), k) >= l
        ),
        avoider=lambda n, k, l: _full_rows(n, k - 1),
    ),
}

# The scan labels in table order, and the selectors: those plus dispatch (auto) and the oracle.
LABELS = tuple(dict.fromkeys(family.label for family in FAMILIES.values()))
ALGOS = ("auto", "naive", *LABELS)


def route_label(shape: PatternClass) -> str:
    """The label dispatch routes this class to: its family's, or naive for the oracle."""
    family = FAMILIES.get(type(shape))
    return family.label if family else "naive"


def match_label(label: str, P: BitMatrix):
    """(family, fields) of the first family under ``label`` whose factory rebuilds P, else None.

    ``matrix.fit`` runs on the label's shapes alone, so it builds only their
    factories, and not by canonical priority: ``identity`` fits the 1x1
    pattern although it classifies as a column of ones, and ``column`` fits
    a row of ones, whose family shares that label.
    """
    found = fit(P, [entry for entry in PATTERN_SHAPES if FAMILIES[entry[0]].label == label])
    return (FAMILIES[found[0]], found[1]) if found else None


def dispatch(A: BitMatrix, P: BitMatrix, bounds=None) -> bool:
    """Decide containment via the cheapest applicable scan.

    ``bounds`` optionally maps (n, pattern) to a trusted extremal bound for
    n x n matrices; when a bound for (A.rows, P) is present and A is square,
    the ones-count prefilter may settle the answer before any scan runs.
    Always agrees with contains_naive.
    """
    if bounds and A.rows == A.cols:
        bound = bounds.get((A.rows, P))
        if bound is not None and ones_prefilter(A, bound) is PrefilterResult.CONTAINS:
            return True
    shape = classify_pattern(P)
    family = FAMILIES.get(type(shape))
    if family is None:
        return contains_naive(A, P)
    return family.contains(A, *shape.__dict__.values())


def decider(algo: str, P: BitMatrix, full_scan: bool = False):
    """The ``A -> bool`` that selector ``algo`` runs for P: BenchConfigError if unknown or unfit.

    ``auto`` is ``dispatch`` without bounds, ``naive`` the oracle, and a scan
    label the family ``match_label`` fits: its kernel, or its paper scan with ``full_scan``.
    """
    if algo == "auto":
        return lambda A: dispatch(A, P)
    if algo == "naive":
        return lambda A: contains_naive(A, P)
    if algo not in LABELS:
        raise BenchConfigError(f"unknown algorithm label {algo!r}")
    fit = match_label(algo, P)
    if fit is None:
        raise BenchConfigError(f"pattern does not fit the {algo!r} algorithm")
    family, fields = fit
    run = family.scan if full_scan else family.contains
    return lambda A: run(A, *fields)
