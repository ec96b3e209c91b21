"""The brute-force oracle, validated against an even more literal textbook check."""

import random

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patcon import (
    BitMatrix,
    all_ones,
    contains_naive,
    contains_naive_sparse,
    count_ones,
    identity,
    to_sparse,
    transpose,
    zeros,
)

from patcon.naive import copies_through

from helpers import all_matrices, all_patterns_up_to, contains_textbook, random_matrix
from test_matrix import bit_matrices


ANTI_DIAG_3 = BitMatrix.from_entries(3, 3, [(1, 3), (2, 2), (3, 1)])


class TestAgainstTextbook:
    def test_exhaustive_3x3_ambient(self):
        patterns = list(all_patterns_up_to(2, 2))
        for A in all_matrices(3, 3):
            for P in patterns:
                assert contains_naive(A, P) == contains_textbook(A, P)

    def test_exhaustive_2x3_ambient(self):
        patterns = list(all_patterns_up_to(2, 2)) + [identity(2), all_ones(1, 3)]
        for A in all_matrices(2, 3):
            for P in patterns:
                assert contains_naive(A, P) == contains_textbook(A, P)

    def test_random_larger_ambients(self):
        rng = random.Random(7)
        patterns = list(all_patterns_up_to(3, 2, require_ones=True))
        for _ in range(120):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            A = random_matrix(rng, rows, cols, rng.choice([0.2, 0.5, 0.8]))
            for P in patterns:
                assert contains_naive(A, P) == contains_textbook(A, P)


class TestKnownCases:
    def test_single_one_pattern(self):
        P = all_ones(1, 1)
        rng = random.Random(3)
        for _ in range(50):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 0.3)
            assert contains_naive(A, P) == (count_ones(A) >= 1)

    def test_anti_diagonal_avoids_identity_2(self):
        assert not contains_naive(ANTI_DIAG_3, identity(2))
        assert contains_naive(ANTI_DIAG_3, identity(1))

    def test_all_ones_ambient_contains_everything_smaller(self):
        A = all_ones(4, 4)
        for P in all_patterns_up_to(3, 3):
            assert contains_naive(A, P)

    def test_oversized_pattern_is_never_contained(self):
        assert not contains_naive(all_ones(2, 2), all_ones(3, 1))
        assert not contains_naive(all_ones(2, 2), all_ones(1, 3))

    def test_all_zero_pattern_needs_only_dimensions(self):
        assert contains_naive(zeros(2, 2), zeros(2, 2))
        assert not contains_naive(zeros(2, 2), zeros(3, 2))


class TestProperties:
    @given(bit_matrices(max_rows=5, max_cols=5), bit_matrices(max_rows=3, max_cols=3))
    @settings(max_examples=150)
    def test_transpose_duality(self, A, P):
        assert contains_naive(A, P) == contains_naive(transpose(A), transpose(P))

    @given(bit_matrices(max_rows=4, max_cols=4))
    @settings(max_examples=150)
    def test_reflexivity(self, P):
        assert contains_naive(P, P)

    def test_monotone_under_adding_ones(self):
        rng = random.Random(11)
        for _ in range(300):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 0.4)
            P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5)
            if not contains_naive(A, P):
                continue
            cells = bytearray(A.cells)
            for _ in range(rng.randint(1, 4)):
                cells[rng.randrange(len(cells))] = 1
            assert contains_naive(BitMatrix(A.rows, A.cols, bytes(cells)), P)

    def test_subpattern_monotonicity(self):
        rng = random.Random(13)
        for _ in range(300):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
            P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0.6)
            if not contains_naive(A, P):
                continue
            weaker = bytearray(P.cells)
            ones = [i for i, v in enumerate(weaker) if v]
            if not ones:
                continue
            weaker[rng.choice(ones)] = 0
            assert contains_naive(A, BitMatrix(P.rows, P.cols, bytes(weaker)))


def _greedy_avoider(A: BitMatrix, P: BitMatrix) -> BitMatrix:
    """Keep A's ones in row-major order while the kept matrix still avoids P."""
    cells = bytearray(A.rows * A.cols)
    for i, v in enumerate(A.cells):
        if v:
            cells[i] = 1
            if contains_naive(BitMatrix(A.rows, A.cols, bytes(cells)), P):
                cells[i] = 0
    return BitMatrix(A.rows, A.cols, bytes(cells))


class TestCopiesThrough:
    """The incremental test the extremal search uses in place of a full oracle call."""

    @given(
        bit_matrices(max_rows=5, max_cols=5),
        bit_matrices(max_rows=3, max_cols=3).filter(lambda P: any(P.cells)),
        st.data(),
    )
    @settings(max_examples=300)
    def test_equals_oracle_after_last_one_of_an_avoider(self, A, P, data):
        A = _greedy_avoider(A, P)
        start = A.cells.rfind(1) + 1
        assume(start < len(A.cells))
        idx = data.draw(st.integers(start, len(A.cells) - 1))
        cells = bytearray(A.cells)
        cells[idx] = 1
        B = BitMatrix(A.rows, A.cols, bytes(cells))
        colmasks = [
            sum(1 << i for i, v in enumerate(B.column(c)) if v) for c in range(1, B.cols + 1)
        ]
        r, c = divmod(idx, A.cols)
        assert copies_through(P, A.rows)(colmasks, r, c) == contains_naive(B, P)

    def test_tail_rows_of_pattern_need_room_below(self):
        P = BitMatrix.from_rows([[1], [0]])  # the last 1 needs a spare row under it
        through = copies_through(P, 2)
        assert through([0b10], 1, 0) is False
        assert through([0b01], 0, 0) is True

    def test_all_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            copies_through(zeros(2, 2), 3)


class TestSparseOracle:
    def test_empty_entries(self):
        E = to_sparse(zeros(3, 3))
        assert not contains_naive_sparse(E, all_ones(1, 1))

    def test_identity_contains_itself(self):
        assert contains_naive_sparse(to_sparse(identity(2)), identity(2))

    def test_matches_dense_on_random_8x8(self):
        rng = random.Random(17)
        for _ in range(60):
            A = random_matrix(rng, 8, 8, rng.choice([0.1, 0.3, 0.6]))
            E = to_sparse(A)
            for P in all_patterns_up_to(2, 2):
                assert contains_naive_sparse(E, P) == contains_naive(A, P)

    def test_zero_pattern_rows_consume_rows(self):
        # ones in rows 1 and 3 with a forced gap: needs three distinct rows
        P = BitMatrix.from_rows([[1], [0], [1]])
        tall = all_ones(3, 1)
        short = all_ones(2, 1)
        gap = BitMatrix.from_rows([[1], [1], [0]])
        assert contains_naive_sparse(to_sparse(tall), P)
        assert not contains_naive_sparse(to_sparse(short), P)
        assert not contains_naive_sparse(to_sparse(gap), P)
        assert contains_naive(gap, P) == contains_naive_sparse(to_sparse(gap), P)

    def test_matches_dense_on_patterns_with_zero_rows(self):
        rng = random.Random(19)
        for _ in range(150):
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.4)
            P = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 3), 0.3)
            assert contains_naive_sparse(to_sparse(A), P) == contains_naive(A, P)
