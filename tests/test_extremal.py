"""Exact extremal search: frozen values, enumeration cross-checks, cache files."""

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patcon import (
    AllOnes,
    BitMatrix,
    ColumnOnes,
    Cross,
    ExtremalRecord,
    Identity,
    LShape,
    RowOnes,
    SearchBudgetExceeded,
    all_ones,
    bounds_from_cache,
    classify_pattern,
    contains_naive,
    count_ones,
    cross,
    ex_exact,
    identity,
    load_cache,
    lshape,
    parse_matrix,
    save_cache,
    serialize,
    transpose,
    tuple_identity,
    verify_record,
    zeros,
)
from patcon import extremal
from patcon.extremal import upper_bound
from patcon.fast import _arm_bound
from patcon.naive import _greedy_columns

from helpers import all_patterns_up_to, bit_matrices, ex_by_enumeration, ex_reference

G = parse_matrix("101\n011\n")


class TestFrozenValues:
    def test_single_one_pattern(self):
        rec = ex_exact(3, all_ones(1, 1))
        assert rec.value == 0
        assert rec.witness == zeros(3, 3)

    def test_column_pair_traces_column_capacity(self):
        values = [ex_exact(n, all_ones(2, 1)).value for n in range(1, 4)]
        assert values == [1, 2, 3]

    def test_identity_2_at_n3(self):
        rec = ex_exact(3, identity(2))
        assert rec.value == 5
        # earliest-ones witness: full first row plus the rest of column one
        assert rec.witness == BitMatrix.from_rows([[1, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_all_ones_2x2_table(self):
        values = [ex_exact(n, all_ones(2, 2)).value for n in range(1, 5)]
        assert values == [1, 3, 6, 9]

    def test_deterministic_witness(self):
        a = ex_exact(4, all_ones(2, 2))
        b = ex_exact(4, all_ones(2, 2))
        assert a == b


class TestAgainstEnumeration:
    def test_row_averaging_on_strips(self):
        # ex(m x n) <= m * ex((m-1) x n) // (m-1) caps every search of m > 1
        # rows. A capped search cannot show that its cap is too low, so only
        # enumeration checks the strips and values it returns.
        for P in all_patterns_up_to(2, 3, require_ones=True):
            for n in range(1, 5):
                ex = [ex_by_enumeration(n, P, m) for m in range(n + 1)]
                rec = ex_exact(n, P)
                assert (*rec.strip, rec.value) == tuple(ex[1:]), (serialize(P), n)
                for m in range(2, n + 1):
                    assert ex[m] <= m * ex[m - 1] // (m - 1), (serialize(P), m, n)


def has_zero_line(P):
    lines = [P.row(r) for r in range(1, P.rows + 1)] + [P.column(c) for c in range(1, P.cols + 1)]
    return not all(map(any, lines))


def assert_matches_reference(rec, n, P):
    """Same value and witness as the plain search, and a cap on the nodes.

    The strip searches count in ``rec.nodes``. They pay for themselves except
    where the strip bound barely prunes: for a P with an all-zero row or
    column, what a strip may hold depends mostly on the rows around it, which
    the bound ignores, and the 1x1 pattern has nothing to prune. Those cases
    may take 2.5 times the plain search's nodes (the worst of the 2,046 below
    is the 2x1 pattern 1/0 at n = 4, 51 against 21); all others no more.
    """
    ref = ex_reference(n, P)
    assert (rec.value, rec.witness) == (ref.value, ref.witness), (serialize(P), n)
    cap = 2.5 if has_zero_line(P) or P.rows * P.cols == 1 else 1
    assert rec.nodes <= cap * ref.nodes, (serialize(P), n, rec.nodes, ref.nodes)


def assert_frozen(cases):
    """Each (n, P, value, nodes, witness) is ex_exact's record; witness rows are split by '/'."""
    for n, P, value, nodes, witness in cases:
        rec = ex_exact(n, P)
        assert (rec.value, rec.nodes) == (value, nodes), (n, serialize(P))
        assert rec.witness == parse_matrix(witness.replace("/", "\n"))


class TestAgainstReferenceSearch:
    """Strip bound and symmetry rule keep the recursive full-oracle search's value and witness."""

    def test_every_pattern_up_to_3x3_at_n_up_to_3(self):
        for P in all_patterns_up_to(3, 3, require_ones=True):
            for n in (1, 2, 3):
                assert_matches_reference(ex_exact(n, P), n, P)

    def test_every_pattern_up_to_2x2_at_n4(self):
        for P in all_patterns_up_to(2, 2, require_ones=True):
            assert_matches_reference(ex_exact(4, P), 4, P)

    def test_named_patterns_at_n4(self):
        for P in (all_ones(2, 2), identity(3), G, lshape(2, 3), cross(3, 3, 2, 2)):
            assert_matches_reference(ex_exact(4, P), 4, P)

    @pytest.mark.parametrize("n, P", [
        (5, identity(2)), (5, identity(3)),
        (4, all_ones(3, 1)), (4, all_ones(1, 3)), (4, all_ones(4, 1)), (4, all_ones(1, 4)),
    ])
    def test_searches_stopped_at_their_bound(self, n, P):
        # These stop at their family's bound, which equals their closed form,
        # so only the plain search, which has no bound, checks them.
        rec = ex_exact(n, P)
        assert rec.closed
        assert_matches_reference(rec, n, P)

    def test_benchmark_pairs_frozen(self):
        # Values and witnesses of the plain search; node counts of this one,
        # strip tables included, all below the plain search's 725,913 /
        # 165,969 / 322,446 / 276,678. The counts fix the budget semantics too.
        # J2, I3 and I2 stop where their searches reach the family's bound.
        cases = [
            (5, all_ones(2, 2), 12, 373, "11110/10001/01001/00101/00011"),
            (5, identity(3), 16, 63, "11111/11111/11000/11000/11000"),
            (6, identity(2), 11, 125, "111111/100000/100000/100000/100000/100000"),
            (5, G, 15, 111_843, "11000/01111/11100/11010/11001"),
        ]
        assert_frozen(cases)

    def test_deep_plan_pairs_frozen(self):
        # The deepest plans: P's last 1 sits on row i* = 1, 3, 1 and 2, so
        # each plan picks up to three rows above the new 1.
        cases = [
            (7, all_ones(2, 2), 21, 100_651,
             "1110000/1001100/1000011/0101010/0100101/0011001/0010110"),
            (5, tuple_identity(2, 2), 17, 414_007, "11111/11111/11111/10000/10000"),
            (5, parse_matrix("10\n11\n"), 9, 74, "11111/10000/10000/10000/10000"),
            (7, parse_matrix("0\n0\n1\n"), 14, 1_301_591,
             "1111111/1111111/0000000/0000000/0000000/0000000/0000000"),
        ]
        assert_frozen(cases)

    def test_deep_search_needs_no_recursion(self):
        rec = ex_exact(32, all_ones(1, 1))
        assert rec.value == 0
        # 31 strips and the final search each visit the 32 cells of row 0 and
        # one node more: the 1-row strip's leaf, or (1, 0), where the bound cuts.
        assert rec.nodes == 32 * 33
        # A 33x1 column fits in no strip, so no strip is searched and the one
        # search dives 32 * 32 cells deep to its first leaf, which reaches the
        # bound 32 * 32.
        rec = ex_exact(32, all_ones(33, 1))
        assert (rec.value, rec.nodes) == (32 * 32, 32 * 32 + 1)
        assert rec.strip == tuple(32 * m for m in range(1, 32))


def _greedy_avoider(A: BitMatrix, P: BitMatrix) -> BitMatrix:
    """Keep A's ones in row-major order while the kept matrix still avoids P."""
    cells = bytearray(A.rows * A.cols)
    for i, v in enumerate(A.cells):
        if v:
            cells[i] = 1
            if contains_naive(BitMatrix(A.rows, A.cols, bytes(cells)), P):
                cells[i] = 0
    return BitMatrix(A.rows, A.cols, bytes(cells))


def copy_through(plans, colmasks, r, c) -> bool:
    """Whether some plan of row r matches the column masks, the new 1 at (r, c) included."""
    return any(
        colmasks[c] & pin == pin
        and (not lneeds or _greedy_columns(colmasks[:c], lneeds))
        and (not rneeds or _greedy_columns(colmasks[c + 1 :], rneeds))
        for pin, lneeds, rneeds in plans[r]
    )


class TestPlans:
    """The per-row plans the search tests in place of a full oracle call."""

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
        assert copy_through(extremal._plans(P, A.rows), colmasks, r, c) == contains_naive(B, P)

    def test_tail_rows_of_pattern_need_room_below(self):
        P = BitMatrix.from_rows([[1], [0]])  # the last 1 needs a spare row under it
        plans = extremal._plans(P, 2)
        assert not copy_through(plans, [0b10], 1, 0)
        assert copy_through(plans, [0b01], 0, 0)


def with_bound(monkeypatch, cls, shift):
    """Replace the bound of family ``cls`` by that bound plus ``shift``."""
    bound = cls.bound
    monkeypatch.setattr(cls, "bound", lambda self, m, n: bound(self, m, n) + shift)


class TestStoppingBound:
    def test_raised_bound_keeps_value_and_witness(self, monkeypatch):
        # (n, P, searches closed): J2's last two searches close at the row
        # averaging cap, 4 * 8 // 3 = 10 and 5 * 10 // 4 = 12, which is not raised.
        cases = [(4, identity(2), 0), (5, identity(3), 0), (5, all_ones(2, 2), 2),
                 (4, all_ones(3, 1), 0)]
        expected = [ex_exact(n, P) for n, P, _ in cases]
        for cls in (Identity, AllOnes, ColumnOnes):
            with_bound(monkeypatch, cls, 1)
        for (n, P, closed), rec in zip(cases, expected):
            raised = ex_exact(n, P)
            assert (raised.value, raised.witness) == (rec.value, rec.witness)
            assert raised.nodes >= rec.nodes and raised.closed == closed
        # A bound that is never reached stops nothing: the full search's nodes.
        assert ex_exact(4, identity(2)).nodes == 1_082

    def test_bound_below_a_leaf_raises(self, monkeypatch):
        with_bound(monkeypatch, Identity, -1)
        with pytest.raises(RuntimeError, match="disproves the bound"):
            ex_exact(4, identity(2))


def count_searches(monkeypatch):
    """Record (rows, cap) of every ``_search`` call ``ex_exact`` makes from now on."""
    calls = []
    search = extremal._search

    def counted(rows, n, P, strip, cap, *rest):
        calls.append((rows, cap))
        return search(rows, n, P, strip, cap, *rest)

    monkeypatch.setattr(extremal, "_search", counted)
    return calls


class TestSearchAccount:
    @pytest.mark.parametrize("n, P, searches, cap, closed, rows", [
        (5, identity(3), 3, 16, 3, [3, 4, 5]),
        (32, all_ones(33, 1), 1, 32 * 32, 1, [32]),
        (5, all_ones(2, 2), 4, 12, 4, [2, 3, 4, 5]),
        (5, G, 4, 16, 2, [2, 3, 4, 5]),
        (1, all_ones(1, 1), 1, 0, 1, [1]),
    ])
    def test_record_counts_its_searches_and_cap(self, monkeypatch, n, P, searches, cap, closed,
                                                rows):
        calls = count_searches(monkeypatch)
        rec = ex_exact(n, P)
        assert (rec.searches, rec.cap, rec.closed) == (searches, cap, closed)
        assert [r for r, _ in calls] == rows
        assert rec.searches == len(calls) and calls[-1] == (n, rec.cap)

    def test_cache_record_ran_no_search(self, tmp_path):
        path = tmp_path / "cache.txt"
        save_cache([ex_exact(n, identity(2)) for n in range(1, 4)], path)
        for n, value, witness in load_cache(path):
            rec = ExtremalRecord(n, identity(2), value, witness)
            assert (rec.searches, rec.cap) == (0, None)

    def test_cap_follows_a_raised_bound(self, monkeypatch):
        assert ex_exact(5, identity(3)).cap == 16
        with_bound(monkeypatch, Identity, 1)
        calls = count_searches(monkeypatch)
        rec = ex_exact(5, identity(3))
        assert (rec.searches, rec.cap, rec.closed) == (3, 17, 0)
        assert calls[-1] == (5, 17)


class TestBoundTable:
    @pytest.mark.parametrize("cls, P", [
        (ColumnOnes, lambda k: all_ones(k, 1)),
        (RowOnes, lambda k: all_ones(1, k)),
        (Identity, identity),
    ])
    def test_bound_is_tight_for_the_family_avoider(self, cls, P):
        for k in (2, 3, 4):
            for n in range(k, 9):
                avoider = cls(k).avoider(n)
                assert not contains_naive(avoider, P(k)), (k, n)
                assert count_ones(avoider) == cls(k).bound(n, n), (k, n)

    def test_pair_bound_is_the_zarankiewicz_table(self):
        bound = upper_bound(all_ones(2, 2))
        expected = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21}
        assert {n: bound(n, n) for n in expected} == expected
        assert tuple(bound(m, 5) for m in range(1, 5)) == (5, 6, 8, 10)

    def test_pattern_that_does_not_fit_is_guarded(self):
        # The identity formula falls below m*n, and below 0, where I_k does not fit.
        assert Identity(4).bound(1, 1) == -3
        assert upper_bound(identity(4))(1, 1) == 1
        assert ex_exact(2, identity(3)).value == 4
        assert ex_exact(3, identity(3)).strip[0] == 3

    def test_other_patterns_get_the_trivial_bound(self):
        assert upper_bound(G)(5, 5) == 25
        assert upper_bound(all_ones(2, 3))(4, 5) == 20


CROSSES = [P for P in all_patterns_up_to(3, 3, require_ones=True)
           if isinstance(classify_pattern(P), (ColumnOnes, RowOnes, LShape, Cross))]


class TestArmBound:
    """ex(m x n, P) = mn - (m - a + 1)(n - b + 1) for every a x b cross, lines and L-shapes too."""

    def test_every_cross_up_to_3x3_at_n_up_to_4(self):
        assert len(CROSSES) == 30
        for P in CROSSES:
            for n in range(1, 5):
                rec = ex_exact(n, P)
                assert_matches_reference(rec, n, P)
                if n >= max(P.rows, P.cols):
                    assert rec.value == _arm_bound(n, n, P.rows, P.cols), (serialize(P), n)

    def test_strips_by_brute_force(self):
        # The search stops at its cap, so only enumeration can show that the
        # formula is not below the true strip value.
        for P in CROSSES:
            for n in range(P.cols, 5):
                rec = ex_exact(n, P)
                for m in range(P.rows, n):
                    assert (ex_by_enumeration(n, P, m) == _arm_bound(m, n, P.rows, P.cols)
                            == rec.strip[m - 1]), (serialize(P), m, n)

    def test_identity_bound_is_mirskys(self):
        # The identity's bound is the arm formula at a = b = k.
        for k in range(1, 9):
            for m in range(k, 40):
                for n in range(k, 40):
                    assert Identity(k).bound(m, n) == (k - 1) * (m + n - k + 1), (k, m, n)

    @pytest.mark.parametrize("P, value", [
        (parse_matrix("10\n11\n"), 11), (parse_matrix("11\n01\n01\n"), 16),
        (lshape(3, 2), 16), (lshape(2, 3), 16), (lshape(3, 3), 20),
        (cross(3, 3, 2, 2), 20), (cross(3, 2, 2, 1), 16),
    ])
    def test_closes_at_n6(self, P, value):
        # Each ran past 3 * 10^6 nodes with the trivial bound m*n.
        rec = ex_exact(6, P, node_budget=200)
        assert rec.value == value == _arm_bound(6, 6, P.rows, P.cols)
        assert rec.closed == rec.searches
        assert verify_record(rec)


class TestClosedForms:
    def test_zarankiewicz_numbers(self):
        # z(n; 2), the most ones in an n x n matrix with no 2x2 all-ones submatrix
        expected = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21}
        assert {n: ex_exact(n, all_ones(2, 2)).value for n in expected} == expected

    def test_lines_of_ones(self):
        for k in (2, 3, 4):
            for n in range(k, 7):
                assert ex_exact(n, all_ones(k, 1)).value == (k - 1) * n, (k, n)
                assert ex_exact(n, all_ones(1, k)).value == (k - 1) * n, (k, n)

    def test_identities(self):
        for k in (2, 3):
            for n in range(k, 6):
                assert ex_exact(n, identity(k)).value == (k - 1) * (2 * n - k + 1), (k, n)

    def test_strip_table_is_the_rectangular_extremal_function(self):
        rec = ex_exact(5, all_ones(2, 2))
        assert rec.strip == (5, 6, 8, 10)
        assert ex_exact(3, all_ones(3, 1)).strip == (3, 6)  # strips too short for P are all ones


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

    def test_huge_n_runs_out_of_budget_before_allocating(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            ex_exact(10**15, all_ones(2, 2), node_budget=5)
        assert (info.value.n, info.value.budget) == (10**15, 5)

    @pytest.mark.parametrize("phase", ["strip", "final"])
    def test_budget_names_the_callers_search(self, phase):
        # The strips are searched first: budget 1 runs out in the m = 3 strip
        # (I3 fits no shorter one), one node short of the total at the last
        # node of the n x n search. Either way the error names n and the budget.
        budget = 1 if phase == "strip" else ex_exact(5, identity(3)).nodes - 1
        with pytest.raises(SearchBudgetExceeded) as info:
            ex_exact(5, identity(3), node_budget=budget)
        assert (info.value.n, info.value.budget) == (5, budget)
        assert str(info.value) == f"node budget {budget} exceeded while searching n=5"


class TestStructuralProperties:
    def test_monotone_in_n(self):
        for P in (all_ones(2, 2), identity(2)):
            values = [ex_exact(n, P).value for n in range(1, 5)]
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
        records = [ex_exact(n, all_ones(2, 2)) for n in range(1, 4)]
        path = tmp_path / "cache.txt"
        save_cache(records, path)
        loaded = load_cache(path)
        assert [(n, v) for n, v, _ in loaded] == [(r.n, r.value) for r in records]
        assert all(w == r.witness for (_, _, w), r in zip(loaded, records))

    def test_bounds_map(self, tmp_path):
        P = all_ones(2, 2)
        records = [ex_exact(n, P) for n in range(1, 4)]
        path = tmp_path / "cache.txt"
        save_cache(records, path)
        bounds = bounds_from_cache(path, P)
        assert bounds == {(1, P): 1, (2, P): 3, (3, P): 6}

    def test_loaded_witnesses_avoid(self, tmp_path):
        P = identity(2)
        path = tmp_path / "cache.txt"
        save_cache([ex_exact(n, P) for n in range(1, 4)], path)
        for n, value, witness in load_cache(path):
            assert count_ones(witness) == value
            assert not contains_naive(witness, P)

    def test_file_records_its_pattern(self, tmp_path):
        P = identity(2)
        path = tmp_path / "cache.txt"
        save_cache([ex_exact(n, P) for n in range(1, 3)], path)
        head = path.read_text().split("\n\n")[0]
        assert parse_matrix(head.split("\n", 1)[1]) == P

    def test_bounds_for_another_pattern_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        save_cache([ex_exact(n, identity(2)) for n in range(1, 4)], path)
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

    # int() reads each of these as n=2, value=3; the format has ASCII decimal digits only
    @pytest.mark.parametrize("line", ["+2 3", "0_2 3", "\u0662 \u0663", "2", "2 3 4"])
    def test_non_decimal_record_line_rejected(self, tmp_path, line):
        path = tmp_path / "cache.txt"
        path.write_text(f"pattern\n11\n11\n\n{line}\n11\n10\n")
        with pytest.raises(ValueError, match="bad cache header line"):
            load_cache(path)

    def test_second_record_for_one_n_rejected(self, tmp_path):
        # ex(2, J2) = 3; a lower second record for n = 2 would let the
        # prefilter call a 3-ones avoider of J2 a container
        P = all_ones(2, 2)
        path = tmp_path / "cache.txt"
        save_cache([ex_exact(n, P) for n in range(1, 3)], path)
        with open(path, "a") as fh:
            fh.write("\n2 2\n10\n01\n")
        with pytest.raises(ValueError, match="second record for n=2"):
            load_cache(path)
        with pytest.raises(ValueError, match="second record for n=2"):
            bounds_from_cache(path, P)

    def test_separator_lines_may_hold_whitespace(self, tmp_path):
        path = tmp_path / "cache.txt"
        save_cache([ex_exact(n, all_ones(1, 1)) for n in range(1, 4)], path)
        text = path.read_text()
        assert text.count("\n\n") == 3
        spaced = tmp_path / "spaced.txt"
        spaced.write_text(text.replace("\n\n", "\n  \n"))
        assert load_cache(spaced) == load_cache(path)

    def test_two_records_for_one_n_not_saved(self, tmp_path):
        records = [ex_exact(2, identity(2)), ex_exact(2, identity(2))]
        with pytest.raises(ValueError):
            save_cache(records, tmp_path / "cache.txt")
