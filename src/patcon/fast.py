"""Containment kernels, the paper's scans, and the pattern-dispatching front door.

Each recognized pattern family has two deciders. The ``contains_*``
functions are word-level kernels on rows or columns of A packed into Python
ints (``matrix.row_masks``/``column_masks``, cell i of a line at bit 8i,
packed as they are read, so an early exit reads only the rows it needs; the
kernels use only bit operations that keep the cells' order, so the spacing
changes none of them). ``row_masks`` skips the all-zero rows, which hold no
1 of a copy and change no counter, so no kernel sees one; each
``contains_*`` names the masks its kernel reads:

* (tuple) identity      -- bit-sliced counters over row masks, one level per
                           block: the columns with at least i ones of the
                           block since the block before it closed to their
                           left (an identity is the tuple identity with j = 1)
* L-shape and cross     -- one top-down pass: bit-sliced "at least i ones
                           above" masks, ANDed with each row's ones that have
                           enough ones to their left and right, give the
                           candidate centers, and counters opened by them
                           count the ones below; a column of ones is the
                           k x 1 L-shape and a row of ones the 1 x w one
* all-ones rectangle    -- a depth-min(k, l) search over ANDs of row or
                           column masks, kept while they have enough bits

Beside each kernel is one of the paper's scans, and each scan reads every
cell: ``max_tuple_identity_width``, a suffix dynamic program, for (tuple)
identity; ``_cross_tally_scan``, left/right/up/down tallies around each 1,
for crosses and so for L-shapes and lines of ones, which are crosses; and
``max_allones_rows``, counters over t-subsets of one axis, for all-ones
rectangles. The two ``max_*`` scans report an extremal statistic (the widest
tuple identity, the most rows sharing t columns), the tally scan only the
verdict. The scans are what ``bench`` and the complexity gate time, because
the paper's worst-case claims are about them; the kernels decide what
``dispatch`` and ``check`` print, under the same labels.

Each pattern family is one ``PatternClass`` subclass, the whole description
of it: its route label, the fields a pattern of P's size could have and the
factory that rebuilds P from them, its ``contains_*`` kernel, the verdict of
its paper scan, its dense avoider and a proven upper bound on the ones of an
m x n avoider, with its proof beside it. ``fit`` is the one loop that finds
the first family whose factory rebuilds P. Families overlap (a single 1 is a
column of ones, an identity, a cross, ...), so ``classify_pattern`` runs it
in the priority of ``PATTERN_SHAPES`` (column-ones, row-ones, all-ones,
identity, tuple identity, L-shape, cross) to name P's one canonical class,
``General`` when none fits; small patterns are classified once and then
served from a bounded cache. ``match_label`` runs ``fit`` on one label's
families, for ``decider`` (the ``--algo``/``--algos`` selectors).
``dispatch``, ``upper_bound`` (where the extremal search stops) and
``bench``'s avoiders call the classified pattern's methods, and its
``label`` names the route ``check`` prints. A new family is one class here
and its name in the export table of ``__init__.py``. The methods look the
kernels and scans up, and their callers ``classify_pattern``, as module
globals at call time. Every ``check`` imports this module, so it keeps to
cheap imports: the classes are ``matrix.Frozen`` values rather than
dataclasses, and ``BenchConfigError``, which ``decider`` raises, is defined
here and re-exported by ``bench``.

``dispatch`` first applies the ones-count prefilter when the caller supplies
a proven extremal bound; if that leaves the answer open, it classifies the
pattern and routes to its family's kernel, or, for a ``General`` pattern, to
``contains_general``: the oracle's search, rows first and pruned, which
reads A's lines only as far as it needs them. The oracle itself,
``contains_naive``, runs only for ``--algo naive`` and in the tests.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .matrix import (
    BitMatrix,
    Frozen,
    all_ones,
    bitmask,
    column_masks,
    count_ones,
    cross,
    identity,
    lshape,
    row_masks,
    transpose,
    tuple_identity,
)
from .naive import contains_naive


# --- column of ones ----------------------------------------------------------


def contains_column_ones(A: BitMatrix, k: int) -> bool:
    """True iff some column of A has at least k ones: a 1 with k-1 ones above it."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > A.rows:
        return False
    return _arm_scan(row_masks(A), k - 1, 0, 0, 0)


# --- identity and tuple identity ----------------------------------------------


def _block_levels(masks, j: int, k: int) -> bool:
    """True iff the row masks hold k blocks of j ones in a column, each right of and below the last.

    Level t counts the ones of block t+1 with bit-sliced counters: ``ge[t][i]``
    is the mask of columns with at least i ones since the column opened, and
    ``ge[t][0]`` the open columns. ``low[t]`` is the leftmost column, as a
    single bit, in which block t+1 is complete (0 while it is nowhere). Block
    t+1 may use the columns right of ``low[t-1]`` (all columns for the first
    block), and only a copy left of ``low[t]`` opens a column that block t+2
    lacks. So when block t+1 completes, its level keeps only the columns left
    of the new ``low[t]``, level t+1 opens the columns between ``low[t]`` and
    ``low[t+1]``, and a level with no open column is skipped. Levels run from
    the last down, so a block completed on a row opens the next level only
    from the following row. Each row costs O(j k) operations on its int.
    """
    ge = [[0] * (j + 1) for _ in range(k)]
    ge[0][0] = -1
    low = [0] * k
    for m in masks:
        for t in range(k - 1, -1, -1):
            level = ge[t]
            if not level[0]:
                continue
            for i in range(j, 0, -1):
                level[i] |= level[i - 1] & m
            done = level[j]
            if done:
                if t + 1 == k:
                    return True
                low[t] = done & -done
                ge[t] = [x & (low[t] - 1) for x in level]
                ge[t + 1][0] = -(low[t] << 1) & (low[t + 1] - 1)
    return False


def contains_identity(A: BitMatrix, k: int) -> bool:
    """True iff A contains the k x k identity: a chain of ones down and to the right."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > A.rows or k > A.cols:
        return False
    return _block_levels(row_masks(A), 1, k)


def max_tuple_identity_width(A: BitMatrix, j: int) -> int:
    """Largest k such that A contains the jk x k tuple identity: the suffix program, two columns kept."""
    if j < 1:
        raise ValueError("j must be positive")
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


def contains_tuple_identity(A: BitMatrix, j: int, k: int) -> bool:
    """True iff A contains the jk x k tuple identity: k columns of j ones, block under block."""
    if j < 1 or k < 1:
        raise ValueError("j and k must be positive")
    if j * k > A.rows or k > A.cols:
        return False
    return _block_levels(row_masks(A), j, k)


# --- L-shape and cross ----------------------------------------------------------


def _arm_scan(rows, up: int, down: int, left: int, right: int) -> bool:
    """True iff some 1 of the rows has ``up`` ones above, ``down`` below, ``left`` before, ``right`` after.

    One pass, top to bottom, with bit-sliced saturating counters of the ones
    above each row: ``above[i]`` is the mask of columns with at least i ones
    in the rows before. A row's candidates are its ones with ``left`` ones
    before and ``right`` after them (the row mask without its lowest ``left``
    and highest ``right`` bits) that are in ``above[up]``. A candidate opens
    its column, and ``below[i]`` likewise masks the open columns with at
    least i ones below their first candidate. The first row that brings a
    column to ``down`` answers (with ``down`` 0, a candidate answers at
    once), so the scan stops at the first copy.
    """
    above = [-1] + [0] * up
    below = [0] * (down + 1)
    for m in rows:
        if below[0]:
            for i in range(down, 0, -1):
                below[i] |= below[i - 1] & m
        if m.bit_count() > left + right:
            x = m
            for _ in range(left):
                x &= x - 1
            for _ in range(right):
                x ^= 1 << (x.bit_length() - 1)
            below[0] |= x & above[up]
        if below[down]:
            return True
        for i in range(up, 0, -1):
            above[i] |= above[i - 1] & m
    return False


def contains_lshape(A: BitMatrix, h: int, w: int) -> bool:
    """True iff A contains the h x w pattern with ones in column 1 and row h."""
    if h < 1 or w < 1:
        raise ValueError("h and w must be positive")
    if h > A.rows or w > A.cols:
        return False
    return _arm_scan(row_masks(A), h - 1, 0, 0, w - 1)


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
    return _arm_scan(row_masks(A), c - 1, a - c, d - 1, b - d)


def _cross_tally_scan(A: BitMatrix, a: int, b: int, c: int, d: int) -> bool:
    """The paper's cross scan: left/right/up/down tallies around every 1-entry, row-major.

    Same verdict as ``contains_cross``; bench times it as the full scan of
    the four families that are crosses: the cross itself, the L-shape
    (h, w, h, 1), the column of ones (k, 1, k, 1) and the row of ones
    (1, w, 1, 1). A 1's left and right tallies are its index in its row's list
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


# --- general patterns ------------------------------------------------------------


def _fits(serve) -> bool:
    """True iff the masks have increasing bits, one from each: the greedy match takes each lowest."""
    floor = -1
    for s in serve:
        s &= floor
        if not s:
            return False
        floor = -((s & -s) << 1)
    return True


def contains_general(A: BitMatrix, P: BitMatrix) -> bool:
    """True iff A contains P, for any P: the oracle's verdict from a pruned search.

    As ``contains_naive`` does, it enumerates P's shorter side: A's lines are
    its rows, or its columns with P transposed when P is taller than wide.
    It picks A's lines for P's lines top down, and tries a line only if it
    holds as many ones as P's line needs. ``serve[j]`` is the mask of the
    places across A's lines with a 1 in every picked line where P's column j
    needs one, so P's columns match the picks exactly when ``_fits`` finds
    increasing places, the lowest each time, as the oracle's greedy match
    does. A prefix of picks that does not fit is dropped with every
    extension, since P's top lines are a pattern inside P. Any line of A
    passes for an all-zero line of P, and no later one is tried for it:
    a later line leaves fewer lines below for the same ``serve``. Lines
    are packed (``bitmask``) when the search first reaches them, and only
    if they hold a one, so an early copy reads only the lines above it.
    """
    if P.rows > A.rows or P.cols > A.cols:
        return False
    if P.rows > P.cols:
        line, count, width, P = A.column, A.cols, A.rows, transpose(P)
    else:
        line, count, width = A.row, A.rows, A.cols
    needs = [[j for j, v in enumerate(P.row(i)) if v] for i in range(1, P.rows + 1)]
    k = len(needs)
    masks = []  # masks[r]: line r + 1 of A packed, 0 if it has no one
    picks = []  # (next line to try, serve) for each picked line, to resume from
    r, serve = 0, [bitmask(b"\1" * width)] * P.cols
    while len(picks) < k:
        i = len(picks)
        need, last = needs[i], count - k + i  # line `last` leaves one line for each later one
        trial = None
        while trial is None and r <= last:
            while len(masks) <= r:
                cells = line(len(masks) + 1)
                masks.append(bitmask(cells) if 1 in cells else 0)
            m = masks[r]
            r += 1
            if m.bit_count() >= len(need):
                trial = serve[:]
                for j in need:
                    trial[j] &= m
                if not _fits(trial):
                    trial = None
        if trial is not None:
            picks.append((r if need else count, serve))
            serve = trial
        elif picks:
            r, serve = picks.pop()
        else:
            return False
    return True


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


# --- the pattern families --------------------------------------------------------


class UnsupportedPatternError(ValueError):
    """No dense avoiding construction is known for this pattern class."""


class BenchConfigError(ValueError):
    """Invalid bench configuration, or a selector that is unknown or does not fit P."""


def _corner(n: int, rows: int, cols: int) -> BitMatrix:
    """n x n matrix with ones exactly in its first ``rows`` rows and ``cols`` columns.

    With no columns no column has rows+1 ones, with no rows no row has cols+1
    ones, and with m of each no increasing chain has m+1 ones.
    """
    if rows < 1 and cols < 1:
        raise UnsupportedPatternError(
            "only the all-zero matrix avoids a single 1; no dense avoider"
        )
    rows, cols = min(rows, n), min(cols, n)
    return BitMatrix(n, n, b"\x01" * (rows * n) + (b"\x01" * cols + bytes(n - cols)) * (n - rows))


# M contains cross(a, b, c, d) exactly when some 1 of M has c-1 ones above
# it, a-c below, d-1 to its left and b-d to its right. So in an avoider
# every 1 is column-short (among the top c-1 or bottom a-c ones of its
# column, so at most a-1 per column) or row-short (at most b-1 per row).
# Take the first d-1 and the last b-d of M's nonempty columns: a 1 in the
# i-th nonempty column from the left has at most i-1 ones to its left, so
# for i <= d-1 it is row-short, and likewise on the right. The ones that are
# column-short but not row-short lie in the other nonempty columns, at most
# n-b+1 of them, with at most a-1 in each: at most (b-1)m + (a-1)(n-b+1)
# ones, the bound. (With fewer than b-1 nonempty columns M holds at most
# (b-2)m ones, which is less.) It is exact: filling the first c-1 and last
# a-c rows and the first d-1 and last b-d columns leaves every 1 in a band
# where one arm is too short.
def _arm_bound(m: int, n: int, a: int, b: int) -> int:
    """ex(m x n, P), m >= a and n >= b, for every a x b cross P (lines and L-shapes too) and I_a."""
    return m * n - (m - a + 1) * (n - b + 1)


def _pair_bound(a: int, b: int) -> int:
    """Largest e with e(e - b) <= b a(a - 1): the root of e^2 - b e - b a(a-1), floored exactly."""
    return (b + isqrt(b * b + 4 * b * a * (a - 1))) // 2


class PatternClass(Frozen):
    """A pattern family; an instance is P classified, with the family's fields.

    Each subclass is the whole description of its family. On the class,
    ``label`` names the route in CLI output and in the ``--algo``/``--algos``
    selectors, ``read(P)`` gives the only fields a pattern of P's size could
    have (or None), and ``build(*fields)`` is the factory that rebuilds P from
    them; ``fit`` calls both on the class. On a classified pattern,
    ``contains(A)`` is the kernel dispatch runs, ``scan(A)`` the same verdict
    from the paper's full scan that bench times, ``avoider(n)`` a dense
    n x n matrix avoiding the pattern, and ``bound(m, n)`` a proven upper
    bound on the ones of an m x n matrix avoiding it, for m and n at least
    the pattern's rows and columns (the extremal search stops when it
    reaches it). The defaults are the oracle's label and the bound m*n.
    """

    label = "naive"
    bound = lambda self, m, n: m * n

    def __str__(self) -> str:
        """The ``classify`` text: the class name in kebab case, then field=value pairs."""
        name = re.sub(r"(?<=[a-z])(?=[A-Z])", "-", type(self).__name__).lower()
        return " ".join([name, *(f"{field}={value}" for field, value in vars(self).items())])


# The families, defined in the order of their labels in ``--help``: LABELS reads it.
class ColumnOnes(PatternClass):
    _fields = ("k",)
    label = "column"
    read = lambda P: (P.rows,) if P.cols == 1 else None
    build = lambda k: all_ones(k, 1)
    contains = lambda self, A: contains_column_ones(A, self.k)
    scan = lambda self, A: _cross_tally_scan(A, self.k, 1, self.k, 1)
    avoider = lambda self, n: _corner(n, self.k - 1, 0)
    bound = lambda self, m, n: _arm_bound(m, n, self.k, 1)


class RowOnes(PatternClass):
    _fields = ("w",)
    label = "column"
    read = lambda P: (P.cols,) if P.rows == 1 else None
    build = lambda w: all_ones(1, w)
    contains = lambda self, A: contains_lshape(A, 1, self.w)
    scan = lambda self, A: _cross_tally_scan(A, 1, self.w, 1, 1)
    avoider = lambda self, n: _corner(n, 0, self.w - 1)
    bound = lambda self, m, n: _arm_bound(m, n, 1, self.w)


class Identity(PatternClass):
    _fields = ("k",)
    label = "identity"
    read = lambda P: (P.rows,) if P.rows == P.cols else None
    build = identity
    contains = lambda self, A: contains_identity(A, self.k)
    scan = lambda self, A: max_tuple_identity_width(A, 1) >= self.k
    avoider = lambda self, n: _corner(n, self.k - 1, self.k - 1)
    # Label each 1 with the length t < k of the longest increasing chain
    # ending at it (Mirsky). No two 1s labelled t form an increasing pair
    # and none lies in the first t-1 rows or columns, so each of the
    # m+n-2t+1 diagonals of the corner left holds at most one of them:
    # sum over t < k of m+n-2t+1 is (k-1)(m+n-k+1) = _arm_bound(m, n, k, k).
    bound = lambda self, m, n: _arm_bound(m, n, self.k, self.k)


class TupleIdentity(PatternClass):
    _fields = ("j", "k")
    label = "tuple-identity"
    read = lambda P: (P.rows // P.cols, P.cols) if P.rows % P.cols == 0 else None
    build = tuple_identity
    contains = lambda self, A: contains_tuple_identity(A, self.j, self.k)
    scan = lambda self, A: max_tuple_identity_width(A, self.j) >= self.k
    avoider = lambda self, n: _corner(n, self.j * self.k - 1, 0)


class LShape(PatternClass):
    _fields = ("h", "w")
    label = "lshape"
    read = lambda P: (P.rows, P.cols)
    build = lshape
    contains = lambda self, A: contains_lshape(A, self.h, self.w)
    scan = lambda self, A: _cross_tally_scan(A, self.h, self.w, self.h, 1)
    avoider = lambda self, n: _corner(n, self.h - 1, 0)
    bound = lambda self, m, n: _arm_bound(m, n, self.h, self.w)


def _cross_center(P: BitMatrix):
    """(a, b, c, d) for P's first full row c and first full column d, else None."""
    c = next((r for r in range(1, P.rows + 1) if P.row(r).count(1) == P.cols), 0)
    d = c and next((x for x in range(1, P.cols + 1) if P.column(x).count(1) == P.rows), 0)
    return (P.rows, P.cols, c, d) if d else None


class Cross(PatternClass):
    _fields = ("a", "b", "c", "d")
    label = "cross"
    read = _cross_center
    build = cross
    contains = lambda self, A: contains_cross(A, self.a, self.b, self.c, self.d)
    scan = lambda self, A: _cross_tally_scan(A, self.a, self.b, self.c, self.d)
    avoider = lambda self, n: _corner(n, self.a - 1, 0)
    bound = lambda self, m, n: _arm_bound(m, n, self.a, self.b)


class AllOnes(PatternClass):
    _fields = ("k", "l")
    label = "allones"
    read = lambda P: (P.rows, P.cols)
    build = all_ones
    contains = lambda self, A: contains_allones(A, self.k, self.l)
    # The paper's counters, over the subsets of size min(k, l) of one axis.
    scan = lambda self, A: (max_allones_rows(A, self.l) >= self.k if self.l <= self.k
                            else max_allones_rows(transpose(A), self.k) >= self.l)
    avoider = lambda self, n: _corner(n, self.k - 1, 0)
    # J2 (Reiman 1958): two rows share at most one column, so the column
    # sums d_j of e ones satisfy sum C(d_j, 2) <= C(m, 2), and by Jensen
    # e(e - n) <= n m(m - 1); the same holds with rows and columns swapped.
    bound = lambda self, m, n: (min(_pair_bound(m, n), _pair_bound(n, m))
                                if self.k == self.l == 2 else m * n)


class General(PatternClass):
    """No family fits: dispatch runs ``contains_general`` under the oracle's label, and bench has no avoider."""


# The families in canonical priority: a pattern is in the first that fits.
PATTERN_SHAPES = (ColumnOnes, RowOnes, AllOnes, Identity, TupleIdentity, LShape, Cross)

# The scan labels in definition order, and the selectors: those, dispatch (auto) and the oracle.
LABELS = tuple(dict.fromkeys(c.label for c in PatternClass.__subclasses__() if c is not General))
ALGOS = ("auto", "naive", *LABELS)


def fit(P: BitMatrix, shapes=PATTERN_SHAPES):
    """P classified as the first of ``shapes`` whose factory rebuilds it, else None.

    ``_classify`` passes every shape, ``match_label`` only those of one label.
    """
    for shape in shapes:
        fields = shape.read(P)
        if fields is not None and shape.build(*fields) == P:
            return shape(*fields)
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
    return fit(P) or General()


@lru_cache(maxsize=4096)
def _classify_cached(rows: int, cols: int, cells: bytes) -> PatternClass:
    return _classify(BitMatrix(rows, cols, cells))


def upper_bound(P: BitMatrix):
    """(m, n) -> a proven bound on an m x n avoider's ones: P's family's ``bound``, else m*n."""
    shape = classify_pattern(P)
    return lambda m, n: m * n if m < P.rows or n < P.cols else shape.bound(m, n)


def match_label(label: str, P: BitMatrix):
    """P classified as the first family under ``label`` whose factory rebuilds it, else None.

    ``fit`` runs on the label's families alone, so it builds only their
    factories, and not by canonical priority: ``identity`` fits the 1x1
    pattern although it classifies as a column of ones, and ``column`` fits
    a row of ones, whose family shares that label.
    """
    return fit(P, [shape for shape in PATTERN_SHAPES if shape.label == label])


def dispatch(A: BitMatrix, P: BitMatrix, bounds=None) -> bool:
    """Decide containment via the cheapest applicable scan.

    ``bounds`` optionally maps (n, pattern) to a proven extremal bound for
    n x n matrices (``extremal.bounds_from_cache`` builds one); when a bound
    for (A.rows, P) is present and A is square, the ones-count prefilter may
    settle the answer before any scan runs.
    Always agrees with contains_naive.
    """
    if bounds and A.rows == A.cols:
        bound = bounds.get((A.rows, P))
        if bound is not None and ones_prefilter(A, bound) is PrefilterResult.CONTAINS:
            return True
    shape = classify_pattern(P)
    return contains_general(A, P) if type(shape) is General else shape.contains(A)


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
    shape = match_label(algo, P)
    if shape is None:
        raise BenchConfigError(f"pattern does not fit the {algo!r} algorithm")
    return shape.scan if full_scan else shape.contains
