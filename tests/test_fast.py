"""Specialized scans against the oracle, DP table invariants, and argument guards."""

import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patcon import (
    BenchConfigError,
    BitMatrix,
    PrefilterResult,
    all_ones,
    bench_compare,
    contains_allones,
    contains_column_ones,
    contains_cross,
    contains_general,
    contains_identity,
    contains_lshape,
    contains_naive,
    contains_tuple_identity,
    count_ones,
    cross,
    dispatch,
    ex_exact,
    identity,
    lshape,
    max_allones_rows,
    max_tuple_identity_width,
    ones_prefilter,
    transpose,
    tuple_identity,
    zeros,
)

from patcon import fast, matrix
from patcon.bench import gen_avoider
from patcon.fast import (LABELS, AllOnes, ColumnOnes, Cross, General, Identity, LShape, RowOnes,
                         TupleIdentity, classify_pattern, match_label)

from helpers import (all_matrices, all_patterns_up_to, bit_matrices, contains_textbook, identity_dp,
                     random_matrix)


class TestColumnOnes:
    def test_identity_columns(self):
        assert contains_column_ones(identity(4), 1)
        assert not contains_column_ones(identity(4), 2)

    def test_two_in_one_column(self):
        A = BitMatrix.from_entries(3, 3, [(1, 2), (3, 2)])
        assert contains_column_ones(A, 2)


class TestIdentityDP:
    def test_sentinels_and_monotonicity(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 6)
            A = random_matrix(rng, n, n, 0.5)
            D = identity_dp(A)
            assert all(D[n + 1][c] == 0 for c in range(1, n + 2))
            assert all(D[r][n + 1] == 0 for r in range(1, n + 2))
            for r in range(1, n + 1):
                for c in range(1, n + 1):
                    assert D[r][c] >= D[r + 1][c]
                    assert D[r][c] >= D[r][c + 1]

    def test_suffix_semantics_against_textbook(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            A = random_matrix(rng, n, n, 0.5)
            D = identity_dp(A)
            for r in range(1, n + 1):
                for c in range(1, n + 1):
                    sub = BitMatrix(
                        n - r + 1,
                        n - c + 1,
                        bytes(
                            A.get(rr, cc)
                            for rr in range(r, n + 1)
                            for cc in range(c, n + 1)
                        ),
                    )
                    best = 0
                    for s in range(1, min(sub.rows, sub.cols) + 1):
                        if contains_textbook(sub, identity(s)):
                            best = s
                    assert D[r][c] == best

    def test_table_corner_equals_rolling_scan(self):
        rng = random.Random(37)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.5)
            assert identity_dp(A)[1][1] == max_tuple_identity_width(A, 1)


class TestIdentity:
    def test_all_ones_has_full_identity(self):
        for n in (1, 2, 5):
            assert max_tuple_identity_width(all_ones(n, n), 1) == n

    def test_anti_diagonal(self):
        A = BitMatrix.from_entries(3, 3, [(1, 3), (2, 2), (3, 1)])
        assert max_tuple_identity_width(A, 1) == 1

    def test_two_swaps(self):
        A = BitMatrix.from_entries(4, 4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        assert max_tuple_identity_width(A, 1) == 2

    def test_exact_sizes(self):
        assert contains_identity(identity(3), 3)
        assert not contains_identity(identity(3), 4)


# Transition that reuses the last row of a block for the next one; kept here
# to pin the regression input that tells it apart from the correct scan.
def _tuple_scan_block_overlap(A, j, k):
    R, C = A.rows, A.cols
    D = [[0] * (C + 2) for _ in range(R + 2)]
    for c in range(C, 0, -1):
        one_rows = []
        for r in range(R, 0, -1):
            v = max(D[r + 1][c], D[r][c + 1])
            if A.get(r, c):
                one_rows.append(r)
                if len(one_rows) >= j:
                    v = max(v, 1 + D[one_rows[-j]][c + 1])
            D[r][c] = v
    return D[1][1] >= k


class TestTupleIdentity:
    def test_contains_itself(self):
        T = BitMatrix.from_entries(4, 2, [(1, 1), (2, 1), (3, 2), (4, 2)])
        assert T == tuple_identity(2, 2)
        assert contains_tuple_identity(T, 2, 2)

    def test_block_overlap_regression(self):
        A = BitMatrix.from_entries(4, 2, [(1, 1), (2, 1), (2, 2), (3, 2)])
        assert not contains_tuple_identity(A, 2, 2)
        assert not contains_naive(A, tuple_identity(2, 2))
        # the overlapping transition gets exactly this input wrong
        assert _tuple_scan_block_overlap(A, 2, 2)

    def test_exhaustive_4x4_j2(self):
        pats = {k: tuple_identity(2, k) for k in (1, 2)}
        for A in all_matrices(4, 4):
            width = max_tuple_identity_width(A, 2)
            for k, P in pats.items():
                assert contains_tuple_identity(A, 2, k) == (width >= k) == contains_naive(A, P)

    # Blocks complete on the same row: (1) block 1 ends on row 2 in column 1, where block 2's
    # column 2 also has a 1, which must not count; (2) block 1 ends on row 2 in both columns,
    # and block 2 takes rows 3-4 of column 2; (3) all three blocks end on row 1; (4) two
    # blocks end on each of rows 2 and 3, and the copy is the diagonal.
    @given(bit_matrices(max_rows=9, max_cols=5), st.integers(1, 3), st.integers(1, 3))
    @example(BitMatrix.from_rows([[1, 0], [1, 1], [0, 1], [0, 0]]), 2, 2)
    @example(BitMatrix.from_rows([[1, 1], [1, 1], [0, 1], [0, 1]]), 2, 2)
    @example(BitMatrix.from_rows([[1, 1, 1], [0, 0, 0], [0, 0, 0]]), 1, 3)
    @example(BitMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]), 1, 3)
    @settings(max_examples=1500, deadline=None)
    def test_row_mask_kernel_matches_oracle(self, A, j, k):
        assert contains_tuple_identity(A, j, k) == contains_naive(A, tuple_identity(j, k))


class TestLShape:
    def test_contains_itself(self):
        for h, w in ((1, 1), (2, 3), (3, 3), (4, 2)):
            assert contains_lshape(lshape(h, w), h, w)

    def test_all_zero(self):
        assert not contains_lshape(zeros(3, 3), 1, 1)

    def test_fixture_3x3(self):
        A = BitMatrix.from_entries(3, 3, [(3, 1), (3, 2), (3, 3), (2, 1), (1, 1)])
        assert contains_lshape(A, 3, 3)

    def test_oversize_dimensions(self):
        assert not contains_lshape(all_ones(3, 3), 4, 1)
        assert not contains_lshape(all_ones(3, 3), 1, 4)


class TestCross:
    def test_plus_sign(self):
        plus = cross(3, 3, 2, 2)
        assert contains_cross(plus, 3, 3, 2, 2)
        assert not contains_cross(plus, 3, 4, 2, 2)

    def test_unit_cross_is_any_one(self):
        rng = random.Random(67)
        for _ in range(50):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 0.2)
            assert contains_cross(A, 1, 1, 1, 1) == (count_ones(A) >= 1)

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError, match=r"^cross center must satisfy 1 <= c <= a and 1 <= d <= b$"):
            contains_cross(identity(2), 2, 2, 3, 1)


class TestAllOnes:
    def test_full_matrix(self):
        A = all_ones(4, 4)
        for k in (1, 2, 4):
            for l in (1, 3, 4):
                assert contains_allones(A, k, l)

    def test_punctured_square(self):
        A = BitMatrix.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
        assert contains_allones(A, 2, 2)

    def test_identity_cases(self):
        assert not contains_allones(identity(4), 2, 1)
        assert contains_allones(identity(4), 1, 1)

    def test_orientation_transpose(self):
        rng = random.Random(71)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.6)
            assert contains_allones(A, 3, 2) == contains_allones(transpose(A), 2, 3)


class TestPrefilter:
    def test_any_one_beats_bound_zero(self):
        A = BitMatrix.from_entries(3, 3, [(1, 1), (2, 3)])
        assert ones_prefilter(A, 0) is PrefilterResult.CONTAINS

    def test_all_zero_is_unknown(self):
        assert ones_prefilter(zeros(3, 3), 0) is PrefilterResult.UNKNOWN
        assert ones_prefilter(zeros(3, 3), 5) is PrefilterResult.UNKNOWN

    def test_ten_ones_above_extremal_nine(self):
        bound = ex_exact(4, all_ones(2, 2)).value
        assert bound == 9
        A = BitMatrix(4, 4, bytes([1] * 10 + [0] * 6))
        assert ones_prefilter(A, bound) is PrefilterResult.CONTAINS

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            ones_prefilter(zeros(2, 2), -1)


class TestDispatch:
    def test_routes_match_oracle_on_general(self):
        rng = random.Random(79)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
            P = random_matrix(rng, 2, 3, 0.5)
            assert dispatch(A, P) == contains_naive(A, P)

    def test_row_ones_routing(self):
        A = BitMatrix.from_rows([[0, 0, 0], [1, 1, 1], [0, 1, 0]])
        assert dispatch(A, all_ones(1, 3))
        assert not dispatch(A, all_ones(1, 4))

    def test_bounded_prefilter_short_circuits(self):
        P = all_ones(2, 2)
        bounds = {(4, P): 9}
        A = BitMatrix(4, 4, bytes([1] * 10 + [0] * 6))
        assert dispatch(A, P, bounds) is True
        assert dispatch(A, P, bounds) == contains_naive(A, P)

    def test_prefilter_unknown_falls_through(self):
        P = all_ones(2, 2)
        bounds = {(3, P): 6}
        A = zeros(3, 3)
        assert dispatch(A, P, bounds) is False

    def test_transpose_duality(self):
        rng = random.Random(83)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
            P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5)
            assert dispatch(A, P) == dispatch(transpose(A), transpose(P))


# Every pattern up to 3x3 that some scan label fits structurally.
FAMILY_PATTERNS = [
    P for P in all_patterns_up_to(3, 3) if any(match_label(label, P) for label in LABELS)
]


@lru_cache(maxsize=None)
def _exact_bound(n, P):
    return ex_exact(n, P).value


class TestEveryRoute:
    """Differential test of every dispatch route against the oracle."""

    @given(bit_matrices(max_rows=7, max_cols=7), st.sampled_from(FAMILY_PATTERNS))
    @settings(max_examples=400, deadline=None)
    def test_dispatch_and_every_label(self, A, P):
        want = contains_naive(A, P)
        assert dispatch(A, P) == want
        for label in LABELS:
            shape = match_label(label, P)
            if shape is not None:
                assert shape.contains(A) == want, label
                assert shape.scan(A) == want, label

    @given(st.integers(1, 4).flatmap(lambda n: bit_matrices(n, n, min_rows=n, min_cols=n)),
           st.sampled_from(FAMILY_PATTERNS))
    @settings(max_examples=400, deadline=None)
    def test_dispatch_with_exact_bounds(self, A, P):
        bounds = {(A.rows, P): _exact_bound(A.rows, P)}
        assert dispatch(A, P, bounds) == contains_naive(A, P)

    def test_family_patterns_cover_every_label(self):
        fitted = {label for P in FAMILY_PATTERNS for label in LABELS if match_label(label, P)}
        assert fitted == set(LABELS)


# Every family's kernel and paper scan, each case a classified pattern. Column, row, identity
# and L-shape heights reach 9, past the 8 rows of the matrices the scans are tested on.
KERNEL_CASES = (
    [ColumnOnes(k) for k in range(1, 10)]
    + [RowOnes(w) for w in range(1, 10)]
    + [Identity(k) for k in range(1, 10)]
    + [TupleIdentity(j, k) for j in range(1, 4) for k in range(1, 4)]
    + [LShape(h, w) for h in range(1, 10) for w in range(1, 6)]
    + [Cross(a, b, c, d) for a in range(1, 6) for b in range(1, 6)
       for c in range(1, a + 1) for d in range(1, b + 1)]
    + [AllOnes(k, l) for k in range(1, 5) for l in range(1, 5) if min(k, l) <= 3]
)


def pattern(shape):
    """The pattern a case decides: its class's factory on its fields."""
    return type(shape).build(*vars(shape).values())


MATRICES_3X3 = list(all_matrices(3, 3))


class TestKernels:
    """Each family's kernel against its paper scan and the oracle."""

    @given(bit_matrices(max_rows=8, max_cols=8), st.sampled_from(KERNEL_CASES))
    @settings(max_examples=3000, deadline=None)
    def test_kernel_matches_oracle(self, A, shape):
        assert shape.contains(A) == shape.scan(A) == contains_naive(A, pattern(shape)), str(shape)

    @pytest.mark.parametrize(
        "shape", [s for s in KERNEL_CASES if pattern(s).rows <= 3 and pattern(s).cols <= 3], ids=str)
    def test_exhaustive_3x3(self, shape):
        P = pattern(shape)
        for A in MATRICES_3X3:
            assert shape.contains(A) == shape.scan(A) == contains_naive(A, P), A

    @staticmethod
    def _planted(A, P, rng):
        """A with the ones of P written at random increasing rows and columns."""
        rows = sorted(rng.sample(range(A.rows), P.rows))
        cols = sorted(rng.sample(range(A.cols), P.cols))
        cells = bytearray(A.cells)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                if P.get(i + 1, j + 1):
                    cells[r * A.cols + c] = 1
        return BitMatrix(A.rows, A.cols, bytes(cells))

    @pytest.mark.parametrize("n", [64, 200])
    def test_contains_equals_scan_on_avoiders_and_planted(self, n):
        rng = random.Random(n)
        patterns = [all_ones(3, 1), all_ones(1, 3), identity(3), identity(5),
                    tuple_identity(2, 2), tuple_identity(3, 2), lshape(3, 3), lshape(4, 2),
                    cross(3, 3, 2, 2), cross(4, 5, 3, 2), all_ones(2, 2), all_ones(2, 3),
                    all_ones(3, 2)]
        for P in patterns:
            shape = classify_pattern(P)
            avoider = gen_avoider(n, P)
            for A, want in ((avoider, False), (self._planted(avoider, P, rng), True)):
                assert shape.contains(A) is want, (str(shape), want)
                assert shape.scan(A) is want, (str(shape), want)

    def test_line_routes_read_only_row_masks(self, monkeypatch):
        """Every row-mask route decides without transpose, a column copy or packing a zero row."""

        def refuse(*args):
            raise AssertionError("a row-mask route read a column or a transpose")

        def pack_nonzero(cells, pack=matrix.bitmask):
            assert 1 in cells, "a row-mask route packed an all-zero line"
            return pack(cells)

        monkeypatch.setattr(fast, "transpose", refuse)
        monkeypatch.setattr(BitMatrix, "column", refuse)
        monkeypatch.setattr(matrix, "bitmask", pack_nonzero)
        for A, P, want in _row_mask_cases():
            shape = classify_pattern(P)
            assert dispatch(A, P) is want, str(shape)
            assert shape.contains(A) is want, str(shape)

    def test_cross_scans_never_transpose(self, monkeypatch):
        """The paper scan of lines, L-shapes and crosses, the tally scan, reads A as it is."""

        def refuse(*args):
            raise AssertionError("a cross family's paper scan transposed A")

        monkeypatch.setattr(fast, "transpose", refuse)
        for A, P, want in _row_mask_cases():
            shape = classify_pattern(P)
            if isinstance(shape, (ColumnOnes, RowOnes, LShape, Cross)):
                assert shape.scan(A) is want, str(shape)


@lru_cache(maxsize=None)
def _row_mask_cases():
    """(A, P, verdict): an n = 200 avoider and a copy with P planted, for each row-mask route."""
    rng = random.Random(17)
    cases = []
    for P in (all_ones(3, 1), all_ones(1, 3), all_ones(5, 1), all_ones(1, 5), identity(3),
              identity(5), tuple_identity(2, 2), tuple_identity(3, 2), tuple_identity(2, 3),
              lshape(3, 3), cross(3, 3, 2, 2), all_ones(2, 2), all_ones(2, 3)):
        avoider = gen_avoider(200, P)
        cases += [(avoider, P, False), (TestKernels._planted(avoider, P, rng), P, True)]
    return cases


# Every pattern up to 3x3 that no family fits: zero rows and columns, and tall ones, among them.
GENERAL_PATTERNS = [P for P in all_patterns_up_to(3, 3) if type(classify_pattern(P)) is General]


@st.composite
def with_zero_lines(draw, max_rows=8, max_cols=8):
    """A matrix up to max_rows x max_cols with some of its rows and columns cleared."""
    A = draw(bit_matrices(max_rows, max_cols))
    rows = draw(st.sets(st.integers(1, A.rows)))
    cols = draw(st.sets(st.integers(1, A.cols)))
    return BitMatrix.from_rows(
        [0 if r in rows or c in cols else A.get(r, c) for c in range(1, A.cols + 1)]
        for r in range(1, A.rows + 1))


class TestGeneralRoute:
    """``dispatch``'s route for General patterns against the oracle."""

    def test_patterns_have_zero_lines_and_tall_shapes(self):
        assert any(1 not in P.row(r) for P in GENERAL_PATTERNS for r in range(1, P.rows + 1))
        assert any(1 not in P.column(c) for P in GENERAL_PATTERNS for c in range(1, P.cols + 1))
        assert any(P.rows > P.cols for P in GENERAL_PATTERNS)

    @given(with_zero_lines())
    @settings(max_examples=120, deadline=None)
    @example(zeros(8, 8))
    @example(all_ones(8, 8))
    def test_every_general_pattern_matches_the_oracle(self, A):
        for P in GENERAL_PATTERNS:
            assert contains_general(A, P) == contains_naive(A, P), P

    @given(with_zero_lines(), st.sampled_from(GENERAL_PATTERNS), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_planted_copy_is_found(self, A, P, rnd):
        if P.rows <= A.rows and P.cols <= A.cols:
            A = TestKernels._planted(A, P, rnd)
            assert contains_general(A, P) and contains_naive(A, P)

    def test_dispatch_takes_the_route_not_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dispatch called the oracle")

        monkeypatch.setattr(fast, "contains_naive", refuse)
        G = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert dispatch(identity(4), G) is False
        assert dispatch(all_ones(3, 3), G) is True

    def test_oracle_worst_cases_are_quick(self):
        # The oracle tries C(256, 2) and C(128, 3) row pairs and triples here.
        G = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        one_row = BitMatrix(256, 256, b"\1" * 256 + bytes(255 * 256))
        assert dispatch(one_row, G) is False
        p213 = BitMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert dispatch(identity(128), p213) is False
        assert dispatch(identity(128), transpose(p213)) is False

    def test_reads_only_the_rows_down_to_the_copy(self, monkeypatch):
        """A wide P: no column of A is read, and no row below the copy is packed."""
        G = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        A = BitMatrix(300, 300, b"\1" * (2 * 300) + bytes(298 * 300))
        packed = []

        def pack(cells, pack=matrix.bitmask):
            packed.append(cells)
            return pack(cells)

        def refuse(*args):
            raise AssertionError("the route read a column")

        monkeypatch.setattr(fast, "bitmask", pack)
        monkeypatch.setattr(BitMatrix, "column", refuse)
        assert contains_general(A, G) is True
        assert len(packed) == 3  # the full-row mask, then rows 1 and 2

    def test_zero_line_is_not_retried(self, monkeypatch):
        """A zero line of P keeps its first line of A: a later one leaves fewer lines below.

        Retrying it with each later line takes 557,847 ``_fits`` calls here, against 1,888.
        """
        calls = []

        def fits(serve, fits=fast._fits):
            calls.append(1)
            return fits(serve)

        monkeypatch.setattr(fast, "_fits", fits)
        n = 64
        anti = BitMatrix.from_entries(n, n, [(i, n + 1 - i) for i in range(1, n + 1)])
        P = BitMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        assert contains_general(anti, P) is False
        assert len(calls) <= n * n


CROSSES = [(a, b, c, d) for a in (1, 2, 3) for b in (1, 2, 3)
           for c in range(1, a + 1) for d in range(1, b + 1)]


class TestCrossScan:
    """``contains_cross`` in one top-down pass, against the oracle."""

    @given(with_zero_lines(10, 10))
    @settings(max_examples=300, deadline=None)
    def test_every_cross_matches_the_oracle(self, A):
        for a, b, c, d in CROSSES:
            assert contains_cross(A, a, b, c, d) == contains_naive(A, cross(a, b, c, d))

    @given(bit_matrices(max_rows=10, max_cols=10, min_rows=3, min_cols=3),
           st.sampled_from(CROSSES), st.floats(0, 0.3), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_planted_cross_is_found(self, A, shape, density, rnd):
        A = BitMatrix(A.rows, A.cols, bytes(v if rnd.random() < density else 0 for v in A.cells))
        planted = TestKernels._planted(A, cross(*shape), rnd)
        assert contains_cross(planted, *shape) is True
        assert contains_naive(planted, cross(*shape)) is True

    def test_stops_at_the_first_copy(self, monkeypatch):
        packed = []

        def pack(cells, pack=matrix.bitmask):
            packed.append(cells)
            return pack(cells)

        monkeypatch.setattr(matrix, "bitmask", pack)
        A = BitMatrix(500, 500, b"\1" * (3 * 500) + bytes(497 * 500))
        assert contains_cross(A, 3, 3, 2, 2) is True
        assert len(packed) == 3


A3 = identity(3)

# (call, error class, message) for every argument guard of the public functions
GUARDS = [
    # its own id: contains_identity's guard below has the same message
    pytest.param(lambda: contains_column_ones(A3, 0), ValueError, "k must be positive",
                 id="column-ValueError-k must be positive"),
    (lambda: contains_identity(A3, 0), ValueError, "k must be positive"),
    (lambda: contains_tuple_identity(A3, 0, 1), ValueError, "j and k must be positive"),
    (lambda: max_tuple_identity_width(A3, 0), ValueError, "j must be positive"),
    (lambda: contains_lshape(A3, 0, 1), ValueError, "h and w must be positive"),
    (lambda: contains_allones(A3, 1, 0), ValueError, "k and l must be positive"),
    (lambda: max_allones_rows(A3, 0), ValueError, "t must be positive"),
    (lambda: BitMatrix.from_rows([]), ValueError, "need at least one row"),
    (lambda: BitMatrix.from_rows([[1], [1, 0]]), ValueError, "rows must all have the same length"),
    (lambda: tuple_identity(0, 1), ValueError, "tuple identity parameters must be positive"),
    (lambda: lshape(1, 0), ValueError, "lshape dimensions must be positive"),
    (lambda: gen_avoider(0, identity(2)), ValueError, "n must be positive"),
    (lambda: bench_compare(["identity"], identity(2), [4, 8], 1.5, 1, 3), BenchConfigError,
     r"density must lie in \[0, 1\]"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_argument_guard_raises(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
