"""Exact extremal search: frozen values, enumeration cross-checks, cache files."""

from itertools import combinations

import pytest

from patcon import (
    BitMatrix,
    ExtremalRecord,
    SearchBudgetExceeded,
    all_ones,
    bounds_from_cache,
    contains_naive,
    count_ones,
    cross,
    ex_exact,
    ex_table,
    identity,
    load_cache,
    lshape,
    parse_matrix,
    save_cache,
    serialize,
    transpose,
    verify_record,
    zeros,
)

from helpers import all_patterns_up_to, ex_reference

G = parse_matrix("101\n011\n")


def ex_by_enumeration(n: int, P: BitMatrix) -> int:
    """Independent oracle: walk ones counts downward until an avoider appears."""
    positions = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    for k in range(n * n, -1, -1):
        for chosen in combinations(positions, k):
            if not contains_naive(BitMatrix.from_entries(n, n, chosen), P):
                return k
    raise AssertionError("unreachable: the all-zero matrix avoids any pattern with a one")


class TestFrozenValues:
    def test_single_one_pattern(self):
        rec = ex_exact(3, all_ones(1, 1))
        assert rec.value == 0
        assert rec.witness == zeros(3, 3)

    def test_column_pair_traces_column_capacity(self):
        values = [r.value for r in ex_table(3, all_ones(2, 1))]
        assert values == [1, 2, 3]

    def test_identity_2_at_n3(self):
        rec = ex_exact(3, identity(2))
        assert rec.value == 5
        # earliest-ones witness: full first row plus the rest of column one
        assert rec.witness == BitMatrix.from_rows([[1, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_all_ones_2x2_table(self):
        values = [r.value for r in ex_table(4, all_ones(2, 2))]
        assert values == [1, 3, 6, 9]

    def test_deterministic_witness(self):
        a = ex_exact(4, all_ones(2, 2))
        b = ex_exact(4, all_ones(2, 2))
        assert a == b


class TestAgainstEnumeration:
    def test_all_small_patterns_up_to_n3(self):
        patterns = list(all_patterns_up_to(2, 2, require_ones=True))
        for n in (1, 2, 3):
            for P in patterns:
                assert ex_exact(n, P).value == ex_by_enumeration(n, P)


class TestAgainstReferenceSearch:
    """The incremental search visits the recursive full-oracle search's nodes, in order."""

    def test_every_pattern_up_to_3x3_at_n_up_to_3(self):
        for P in all_patterns_up_to(3, 3, require_ones=True):
            for n in (1, 2, 3):
                assert ex_exact(n, P) == ex_reference(n, P), (serialize(P), n)

    def test_every_pattern_up_to_2x2_at_n4(self):
        for P in all_patterns_up_to(2, 2, require_ones=True):
            assert ex_exact(4, P) == ex_reference(4, P), serialize(P)

    def test_named_patterns_at_n4(self):
        for P in (all_ones(2, 2), identity(3), G, lshape(2, 3), cross(3, 3, 2, 2)):
            assert ex_exact(4, P) == ex_reference(4, P), serialize(P)

    def test_benchmark_pairs_frozen(self):
        # Values, witnesses and node counts of the recursive search before it
        # became incremental; the node counts fix the budget semantics too.
        cases = [
            (5, all_ones(2, 2), 12, 725_913, "11110/10001/01001/00101/00011"),
            (5, identity(3), 16, 165_969, "11111/11111/11000/11000/11000"),
            (6, identity(2), 11, 322_446, "111111/100000/100000/100000/100000/100000"),
            (5, G, 15, 276_678, "11000/01111/11100/11010/11001"),
        ]
        for n, P, value, nodes, witness in cases:
            rec = ex_exact(n, P)
            assert (rec.value, rec.nodes) == (value, nodes)
            assert rec.witness == parse_matrix(witness.replace("/", "\n"))

    def test_deep_search_needs_no_recursion(self):
        rec = ex_exact(32, all_ones(1, 1))
        assert rec.value == 0
        assert rec.nodes == 32 * 32 + 1


class TestRecordValidation:
    def test_nodes_default_for_four_argument_records(self):
        rec = ExtremalRecord(1, all_ones(1, 1), 0, zeros(1, 1))
        assert rec.nodes == 0
        assert verify_record(rec)

    def test_produced_records_verify(self):
        for P in (all_ones(2, 2), identity(2), all_ones(2, 1)):
            for n in (1, 2, 3):
                assert verify_record(ex_exact(n, P))

    def test_containing_witness_fails(self):
        rec = ex_exact(3, identity(2))
        bad = ExtremalRecord(rec.n, rec.pattern, rec.value, all_ones(3, 3))
        assert not verify_record(bad)

    def test_miscounted_value_fails(self):
        rec = ex_exact(3, identity(2))
        bad = ExtremalRecord(rec.n, rec.pattern, rec.value + 1, rec.witness)
        assert not verify_record(bad)

    def test_wrong_size_witness_fails(self):
        rec = ex_exact(3, identity(2))
        bad = ExtremalRecord(4, rec.pattern, rec.value, rec.witness)
        assert not verify_record(bad)


class TestErrors:
    def test_all_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            ex_exact(3, zeros(2, 2))

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            ex_exact(0, all_ones(1, 1))

    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            ex_exact(4, all_ones(2, 2), node_budget=50)
        assert info.value.n == 4
        assert info.value.budget == 50

    def test_budget_equal_to_nodes_suffices(self):
        nodes = ex_exact(4, all_ones(2, 2)).nodes
        assert ex_exact(4, all_ones(2, 2), node_budget=nodes).nodes == nodes
        with pytest.raises(SearchBudgetExceeded):
            ex_exact(4, all_ones(2, 2), node_budget=nodes - 1)


class TestStructuralProperties:
    def test_monotone_in_n(self):
        for P in (all_ones(2, 2), identity(2)):
            values = [r.value for r in ex_table(4, P)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_transpose_symmetry(self):
        P = BitMatrix.from_rows([[1, 1], [1, 0]])
        for n in (1, 2, 3):
            assert ex_exact(n, P).value == ex_exact(n, transpose(P)).value

    def test_pattern_monotonicity(self):
        # all-ones 2x2 contains each weaker 2x2 pattern, so its ex dominates
        big = all_ones(2, 2)
        for P in all_patterns_up_to(2, 2, require_ones=True):
            if P.rows == 2 and P.cols == 2 and contains_naive(big, P):
                assert ex_exact(3, P).value <= ex_exact(3, big).value


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        records = ex_table(3, all_ones(2, 2))
        path = tmp_path / "cache.txt"
        save_cache(records, path)
        loaded = load_cache(path)
        assert [(n, v) for n, v, _ in loaded] == [(r.n, r.value) for r in records]
        assert all(w == r.witness for (_, _, w), r in zip(loaded, records))

    def test_bounds_map(self, tmp_path):
        P = all_ones(2, 2)
        records = ex_table(3, P)
        path = tmp_path / "cache.txt"
        save_cache(records, path)
        bounds = bounds_from_cache(path, P)
        assert bounds == {(1, P): 1, (2, P): 3, (3, P): 6}

    def test_loaded_witnesses_avoid(self, tmp_path):
        P = identity(2)
        path = tmp_path / "cache.txt"
        save_cache(ex_table(3, P), path)
        for n, value, witness in load_cache(path):
            assert count_ones(witness) == value
            assert not contains_naive(witness, P)

    def test_file_records_its_pattern(self, tmp_path):
        P = identity(2)
        path = tmp_path / "cache.txt"
        save_cache(ex_table(2, P), path)
        head = path.read_text().split("\n\n")[0]
        assert parse_matrix(head.split("\n", 1)[1]) == P

    def test_bounds_for_another_pattern_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        save_cache(ex_table(3, identity(2)), path)
        with pytest.raises(ValueError, match="different pattern"):
            bounds_from_cache(path, all_ones(2, 2))

    def test_mixed_patterns_not_saved(self, tmp_path):
        records = [ex_exact(2, identity(2)), ex_exact(2, all_ones(2, 2))]
        with pytest.raises(ValueError):
            save_cache(records, tmp_path / "cache.txt")

    def test_file_without_pattern_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("1 1\n1\n\n2 3\n11\n10\n")
        with pytest.raises(ValueError, match="pattern"):
            load_cache(path)

    @pytest.mark.parametrize(
        "record",
        [
            "3 6\n111\n100\n100\n",  # value above the witness's ones count
            "3 5\n11\n10\n",  # witness not 3x3
            "3 6\n111\n110\n100\n",  # witness contains the pattern
        ],
    )
    def test_unverified_record_rejected(self, tmp_path, record):
        path = tmp_path / "cache.txt"
        path.write_text(f"pattern\n10\n01\n\n{record}")
        with pytest.raises(ValueError, match="n=3"):
            load_cache(path)
