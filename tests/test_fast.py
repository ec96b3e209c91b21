"""Specialized scans against the oracle, DP table invariants, and reductions."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
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
    contains_identity,
    contains_lshape,
    contains_naive,
    contains_tuple_identity,
    count_ones,
    cross,
    dispatch,
    ex_exact,
    ex_table,
    identity,
    lshape,
    max_allones_rows,
    max_column_ones,
    max_identity,
    max_lshape_height,
    max_tuple_identity_width,
    ones_prefilter,
    transpose,
    tuple_identity,
    zeros,
)

from patcon import fast
from patcon.bench import gen_avoider
from patcon.fast import FAMILIES, LABELS, match_label
from patcon.matrix import RowOnes, classify_pattern

from helpers import all_matrices, all_patterns_up_to, contains_textbook, identity_dp, random_matrix
from test_matrix import bit_matrices


class TestColumnOnes:
    def test_identity_columns(self):
        assert contains_column_ones(identity(4), 1)
        assert not contains_column_ones(identity(4), 2)

    def test_two_in_one_column(self):
        A = BitMatrix.from_entries(3, 3, [(1, 2), (3, 2)])
        assert contains_column_ones(A, 2)

    def test_exhaustive_3x3(self):
        for A in all_matrices(3, 3):
            for k in range(1, 5):
                assert contains_column_ones(A, k) == contains_naive(A, all_ones(k, 1))

    def test_max_agrees_with_contains(self):
        rng = random.Random(23)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.4)
            m = max_column_ones(A)
            for k in range(1, A.rows + 2):
                assert contains_column_ones(A, k) == (m >= k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            contains_column_ones(identity(2), 0)


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
            assert identity_dp(A)[1][1] == max_identity(A)


class TestIdentity:
    def test_all_ones_has_full_identity(self):
        for n in (1, 2, 5):
            assert max_identity(all_ones(n, n)) == n

    def test_anti_diagonal(self):
        A = BitMatrix.from_entries(3, 3, [(1, 3), (2, 2), (3, 1)])
        assert max_identity(A) == 1

    def test_two_swaps(self):
        A = BitMatrix.from_entries(4, 4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        assert max_identity(A) == 2

    def test_exact_sizes(self):
        assert contains_identity(identity(3), 3)
        assert not contains_identity(identity(3), 4)

    def test_random_16x16_vs_oracle(self):
        rng = random.Random(41)
        for _ in range(20):
            A = random_matrix(rng, 16, 16, rng.choice([0.05, 0.15]))
            assert contains_identity(A, 3) == contains_naive(A, identity(3))

    def test_exhaustive_3x3(self):
        for A in all_matrices(3, 3):
            for k in (1, 2, 3):
                assert contains_identity(A, k) == contains_naive(A, identity(k))


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

    def test_random_12x12_vs_oracle(self):
        rng = random.Random(43)
        for _ in range(15):
            A = random_matrix(rng, 12, 12, rng.choice([0.1, 0.25]))
            assert contains_tuple_identity(A, 2, 2) == contains_naive(A, tuple_identity(2, 2))

    def test_width_one_reduces_to_identity(self):
        rng = random.Random(47)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.4)
            for k in (1, 2, 3):
                assert contains_tuple_identity(A, 1, k) == contains_identity(A, k)

    def test_exhaustive_4x4_j2(self):
        pats = {k: tuple_identity(2, k) for k in (1, 2)}
        for A in all_matrices(4, 4):
            for k, P in pats.items():
                assert contains_tuple_identity(A, 2, k) == contains_naive(A, P)

    def test_max_agrees_with_contains(self):
        rng = random.Random(53)
        for _ in range(150):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.5)
            for j in (1, 2, 3):
                m = max_tuple_identity_width(A, j)
                for k in range(1, 5):
                    assert contains_tuple_identity(A, j, k) == (m >= k)


class TestLShape:
    def test_contains_itself(self):
        for h, w in ((1, 1), (2, 3), (3, 3), (4, 2)):
            assert contains_lshape(lshape(h, w), h, w)

    def test_all_zero(self):
        assert not contains_lshape(zeros(3, 3), 1, 1)

    def test_fixture_3x3(self):
        A = BitMatrix.from_entries(3, 3, [(3, 1), (3, 2), (3, 3), (2, 1), (1, 1)])
        assert contains_lshape(A, 3, 3)

    def test_exhaustive_3x3(self):
        for A in all_matrices(3, 3):
            for h in (1, 2, 3):
                for w in (1, 2, 3):
                    assert contains_lshape(A, h, w) == contains_naive(A, lshape(h, w))

    def test_oversize_dimensions(self):
        assert not contains_lshape(all_ones(3, 3), 4, 1)
        assert not contains_lshape(all_ones(3, 3), 1, 4)

    def test_max_agrees_with_contains(self):
        rng = random.Random(59)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.5)
            for w in (1, 2, 3):
                m = max_lshape_height(A, w)
                for h in range(1, A.rows + 2):
                    assert contains_lshape(A, h, w) == (m >= h)


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

    def test_exhaustive_3x3(self):
        shapes = [
            (a, b, c, d)
            for a in (1, 2, 3)
            for b in (1, 2, 3)
            for c in range(1, a + 1)
            for d in range(1, b + 1)
        ]
        for A in all_matrices(3, 3):
            for a, b, c, d in shapes:
                assert contains_cross(A, a, b, c, d) == contains_naive(A, cross(a, b, c, d))

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
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

    def test_exhaustive_3x3(self):
        for A in all_matrices(3, 3):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    assert contains_allones(A, k, l) == contains_naive(A, all_ones(k, l))

    def test_orientation_transpose(self):
        rng = random.Random(71)
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.6)
            assert contains_allones(A, 3, 2) == contains_allones(transpose(A), 2, 3)

    def test_max_agrees_with_contains(self):
        rng = random.Random(73)
        for _ in range(150):
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.6)
            for t in (1, 2):
                m = max_allones_rows(A, t)
                for k in range(max(t, 1), A.rows + 2):
                    # k rows sharing t columns = containment of the k x t rectangle
                    assert contains_allones(A, k, t) == (m >= k and t <= A.cols)


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
            fit = match_label(label, P)
            if fit is not None:
                family, fields = fit
                assert family.contains(A, *fields) == want, label
                assert family.scan(A, *fields) == want, label

    @given(st.integers(1, 4).flatmap(lambda n: bit_matrices(n, n, min_rows=n, min_cols=n)),
           st.sampled_from(FAMILY_PATTERNS))
    @settings(max_examples=400, deadline=None)
    def test_dispatch_with_exact_bounds(self, A, P):
        bounds = {(A.rows, P): _exact_bound(A.rows, P)}
        assert dispatch(A, P, bounds) == contains_naive(A, P)

    def test_family_patterns_cover_every_label(self):
        fitted = {label for P in FAMILY_PATTERNS for label in LABELS if match_label(label, P)}
        assert fitted == set(LABELS)


# Kernel parameters beyond criterion 1's set, each with the pattern it decides.
KERNEL_CASES = (
    [(contains_column_ones, (k,), all_ones(k, 1)) for k in range(1, 6)]
    + [(FAMILIES[RowOnes].contains, (w,), all_ones(1, w)) for w in range(1, 6)]
    + [(contains_identity, (k,), identity(k)) for k in range(1, 6)]
    + [(contains_tuple_identity, (j, k), tuple_identity(j, k))
       for j in range(1, 4) for k in range(1, 4)]
    + [(contains_lshape, (h, w), lshape(h, w)) for h in range(1, 6) for w in range(1, 6)]
    + [(contains_cross, (a, b, c, d), cross(a, b, c, d))
       for a in range(1, 6) for b in range(1, 6)
       for c in range(1, a + 1) for d in range(1, b + 1)]
    + [(contains_allones, (k, l), all_ones(k, l))
       for k in range(1, 5) for l in range(1, 5) if min(k, l) <= 3]
)


class TestKernels:
    """The word-level contains_* kernels against the oracle, and against the paper's scans."""

    @given(bit_matrices(max_rows=8, max_cols=8), st.sampled_from(KERNEL_CASES))
    @settings(max_examples=3000, deadline=None)
    def test_kernel_matches_oracle(self, A, case):
        kernel, args, P = case
        assert kernel(A, *args) == contains_naive(A, P), (kernel.__name__, args)

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
            family = FAMILIES[type(shape)]
            fields = shape.__dict__.values()
            avoider = gen_avoider(n, P)
            for A, want in ((avoider, False), (self._planted(avoider, P, rng), True)):
                assert family.contains(A, *fields) is want, (str(shape), want)
                assert family.scan(A, *fields) is want, (str(shape), want)

    def test_line_routes_read_only_row_masks(self, monkeypatch):
        """Column and row of ones are decided without transpose or a strided column copy."""
        rng = random.Random(17)
        cases = []
        for P in (all_ones(3, 1), all_ones(1, 3), all_ones(5, 1), all_ones(1, 5)):
            avoider = gen_avoider(200, P)
            cases += [(avoider, P, False), (self._planted(avoider, P, rng), P, True)]

        def refuse(*args):
            raise AssertionError("a line-of-ones route read a column or a transpose")

        monkeypatch.setattr(fast, "transpose", refuse)
        monkeypatch.setattr(BitMatrix, "column", refuse)
        for A, P, want in cases:
            shape = classify_pattern(P)
            assert dispatch(A, P) is want, str(shape)
            assert FAMILIES[type(shape)].contains(A, *shape.__dict__.values()) is want, str(shape)


class TestReductions:
    def test_consistency_identities(self):
        rng = random.Random(89)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.45)
            k = rng.randint(1, 4)
            w = rng.randint(1, 4)
            assert contains_tuple_identity(A, 1, k) == contains_identity(A, k)
            assert contains_allones(A, k, 1) == contains_column_ones(A, k)
            assert contains_lshape(A, k, 1) == contains_column_ones(A, k)
            assert contains_lshape(A, 1, w) == contains_allones(A, 1, w)

    def test_lshape_is_a_cross(self):
        rng = random.Random(97)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.45)
            h = rng.randint(1, 4)
            w = rng.randint(1, 4)
            assert contains_lshape(A, h, w) == contains_cross(A, h, w, h, 1)


A3 = identity(3)

# (call, error class, message) for every argument guard of the public functions
GUARDS = [
    (lambda: contains_identity(A3, 0), ValueError, "k must be positive"),
    (lambda: contains_tuple_identity(A3, 0, 1), ValueError, "j and k must be positive"),
    (lambda: max_tuple_identity_width(A3, 0), ValueError, "j must be positive"),
    (lambda: contains_lshape(A3, 0, 1), ValueError, "h and w must be positive"),
    (lambda: max_lshape_height(A3, 0), ValueError, "w must be positive"),
    (lambda: contains_allones(A3, 1, 0), ValueError, "k and l must be positive"),
    (lambda: max_allones_rows(A3, 0), ValueError, "t must be positive"),
    (lambda: BitMatrix.from_rows([]), ValueError, "need at least one row"),
    (lambda: BitMatrix.from_rows([[1], [1, 0]]), ValueError, "rows must all have the same length"),
    (lambda: tuple_identity(0, 1), ValueError, "tuple identity parameters must be positive"),
    (lambda: lshape(1, 0), ValueError, "lshape dimensions must be positive"),
    (lambda: gen_avoider(0, identity(2)), ValueError, "n must be positive"),
    (lambda: ex_table(0, identity(2)), ValueError, "n_max must be positive"),
    (lambda: bench_compare(["identity"], identity(2), [4, 8], 1.5, 1, 3), BenchConfigError,
     r"density must lie in \[0, 1\]"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_argument_guard_raises(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
