"""The brute-force oracle, validated against an even more literal textbook check."""

import random

from hypothesis import given, settings

from patcon import (
    BitMatrix,
    all_ones,
    contains_naive,
    count_ones,
    identity,
    transpose,
    zeros,
)

from helpers import all_matrices, all_patterns_up_to, bit_matrices, contains_textbook, random_matrix


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

    def test_zero_pattern_rows_consume_rows(self):
        # ones in rows 1 and 3 with a forced gap: needs three distinct rows
        P = BitMatrix.from_rows([[1], [0], [1]])
        tall = all_ones(3, 1)
        short = all_ones(2, 1)
        gap = BitMatrix.from_rows([[1], [1], [0]])
        assert contains_naive(tall, P)
        assert not contains_naive(short, P)
        assert not contains_naive(gap, P)


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
