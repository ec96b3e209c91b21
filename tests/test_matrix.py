"""Matrix representations, text formats, and shape classification."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from patcon import (
    AllOnes,
    BitMatrix,
    ColumnOnes,
    Cross,
    General,
    Identity,
    LShape,
    MatrixFormatError,
    RowOnes,
    TupleIdentity,
    all_ones,
    classify_pattern,
    count_ones,
    cross,
    identity,
    lshape,
    parse_matrix,
    serialize,
    serialize_sparse,
    transpose,
    tuple_identity,
    zeros,
)

from patcon.bench import BenchReport, gen_random
from patcon.extremal import ExtremalRecord
from patcon.fast import LABELS, match_label
from patcon import matrix
from patcon.matrix import column_masks, row_masks

from helpers import NONCANONICAL_FILES, all_matrices, bit_matrices, serialize_sparse_reference


class TestBitMatrix:
    def test_access_is_one_based(self):
        M = BitMatrix.from_rows([[1, 0], [0, 1]])
        assert M.get(1, 1) == 1
        assert M.get(1, 2) == 0
        assert M.get(2, 2) == 1

    def test_row_and_column_views(self):
        M = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert M.row(2) == bytes([0, 1, 1])
        assert M.column(3) == bytes([1, 1])

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            BitMatrix(0, 3, b"")
        with pytest.raises(ValueError):
            BitMatrix(2, 2, bytes([0, 1, 0]))

    def test_rejects_non_binary_cells(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, bytes([0, 2]))

    def test_get_bounds(self):
        M = identity(2)
        with pytest.raises(IndexError):
            M.get(0, 1)
        with pytest.raises(IndexError):
            M.get(1, 3)

    def test_from_entries(self):
        M = BitMatrix.from_entries(2, 2, [(1, 1), (2, 2)])
        assert M == identity(2)
        with pytest.raises(ValueError):
            BitMatrix.from_entries(2, 2, [(3, 1)])


class TestFactories:
    def test_identity_cells(self):
        I3 = identity(3)
        assert count_ones(I3) == 3
        assert all(I3.get(i, i) == 1 for i in range(1, 4))

    def test_tuple_identity_blocks(self):
        T = tuple_identity(2, 3)
        assert (T.rows, T.cols) == (6, 3)
        assert [T.get(r, 2) for r in range(1, 7)] == [0, 0, 1, 1, 0, 0]

    def test_lshape_arms(self):
        L = lshape(3, 4)
        assert count_ones(L) == 6
        assert all(L.get(r, 1) == 1 for r in range(1, 4))
        assert all(L.get(3, c) == 1 for c in range(1, 5))

    def test_cross_arms(self):
        X = cross(3, 4, 2, 3)
        assert count_ones(X) == 6
        assert all(X.get(2, c) == 1 for c in range(1, 5))
        assert all(X.get(r, 3) == 1 for r in range(1, 4))
        with pytest.raises(ValueError):
            cross(3, 3, 4, 1)


class TestMasks:
    @given(bit_matrices())
    def test_row_and_column_masks_hold_the_cells(self, M):
        # cell c of a row sits at bit 8(c-1), cell r of a column at bit 8(r-1); no other bit is set.
        # The row masks are those of the rows that hold a one, in order; every column keeps its mask.
        rows = [sum(M.get(r, c) << 8 * (c - 1) for c in range(1, M.cols + 1))
                for r in range(1, M.rows + 1)]
        cols = [sum(M.get(r, c) << 8 * (r - 1) for r in range(1, M.rows + 1))
                for c in range(1, M.cols + 1)]
        assert list(row_masks(M)) == [m for m in rows if m]
        assert list(column_masks(M)) == cols


class TestParsing:
    def test_dense_identity(self):
        assert parse_matrix("10\n01\n") == identity(2)

    def test_sparse_identity(self):
        assert parse_matrix("sparse 2 2\n1 1\n2 2\n") == identity(2)

    def test_comments_and_blank_lines(self):
        text = "# a pattern\n\n10\n# middle comment\n01\n\n"
        assert parse_matrix(text) == identity(2)

    def test_sparse_no_entries_is_all_zero(self):
        assert parse_matrix("sparse 2 3\n") == zeros(2, 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("10\n011\n")

    def test_bad_character_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("10\n0x\n")

    @pytest.mark.parametrize("text, message", [
        ("10\n011\n", "ragged rows: expected width 2, got 3"),
        ("10\n0x\n", "invalid character 'x' in dense row"),
        ("10\n0\u00e9\n", "invalid character '\u00e9' in dense row"),
        ("1x\n011\n", "invalid character 'x' in dense row"),  # the first faulty row decides
        ("10\n011\n0x\n", "ragged rows: expected width 2, got 3"),
    ], ids=["ragged", "bad-character", "non-ascii", "bad-above-ragged", "ragged-above-bad"])
    def test_dense_fault_messages(self, text, message):
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix(text)
        assert str(exc.value) == message

    def test_empty_input_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("")
        with pytest.raises(MatrixFormatError):
            parse_matrix("# only a comment\n")

    def test_sparse_duplicate_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("sparse 2 2\n1 1\n1 1\n")

    def test_sparse_out_of_range_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("sparse 2 2\n3 1\n")

    def test_sparse_header_over_the_cap_rejected(self):
        # rejected before the dense cells are allocated
        with pytest.raises(MatrixFormatError, match="cap"):
            parse_matrix("sparse 100000000 100000000\n1 1\n")

    def test_sparse_bad_header_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("sparse 2\n")
        with pytest.raises(MatrixFormatError):
            parse_matrix("sparse x y\n")
        # signs, underscores, non-ASCII digits, decimals and numbers int() refuses
        huge = "1" * 5000  # over int()'s digit limit
        for header in ("sparse 1_0 1_0", "sparse +2 2", "sparse 2 ٣", "sparse -2 2", "sparse 2.0 2",
                       f"sparse {huge} 2"):
            with pytest.raises(MatrixFormatError, match="bad sparse dimensions"):
                parse_matrix(header + "\n1 1\n")

    @pytest.mark.parametrize("entry", ["1_0 ٣", "+1 1", "1 ١", "-1 1", "1 0x1", "1" * 5000 + " 1"],
                             ids=["underscore-arabic", "plus", "arabic", "minus", "hex", "too-long"])
    def test_sparse_coordinate_must_be_ascii_decimal(self, entry):
        # signs, underscores, non-ASCII digits, prefixes and numbers int() refuses
        with pytest.raises(MatrixFormatError, match="bad sparse coordinate"):
            parse_matrix(f"sparse 10 10\n{entry}\n")

    @given(bit_matrices())
    def test_dense_round_trip(self, M):
        assert parse_matrix(serialize(M)) == M

    @given(bit_matrices())
    def test_sparse_round_trip(self, M):
        assert parse_matrix(serialize_sparse(M)) == M

    @given(bit_matrices(max_rows=9, max_cols=9), st.booleans(), st.randoms(use_true_random=False))
    def test_canonical_bytes_parse_in_one_pass(self, M, sparse, rnd):
        if sparse:  # the entries may come in any order
            header, *entries = serialize_sparse(M).splitlines(keepends=True)
            rnd.shuffle(entries)
            text = "".join([header, *entries])
        else:
            text = serialize(M)
        assert matrix._parse_canonical(text.encode()) == M
        assert parse_matrix(text.encode()) == parse_matrix(text) == M

    @pytest.mark.parametrize("name", list(NONCANONICAL_FILES))
    def test_other_bytes_parse_as_their_text(self, name, tmp_path):
        """What is not canonical goes line by line, decoded as text-mode open() decodes it."""
        data = NONCANONICAL_FILES[name]
        assert matrix._parse_canonical(data) is None
        path = tmp_path / "m.txt"
        path.write_bytes(data)

        def outcome(read):
            try:
                with open(path, *read) as fh:
                    return parse_matrix(fh.read())
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(["rb"]) == outcome([])

    @pytest.mark.parametrize("name", [
        "comment-lines", "blank-lines", "crlf", "no-final-newline", "tab", "sparse-crlf",
        "sparse-comment-line", "sparse-blank-line", "sparse-tab-and-double-space",
        "sparse-no-final-newline", "sparse-header-double-space"])
    def test_valid_files_that_are_not_canonical_parse_on_the_line_path(self, name):
        data = NONCANONICAL_FILES[name]
        assert matrix._parse_canonical(data) is None
        assert parse_matrix(data) == parse_matrix(data.decode()) == identity(2)


class TestSerializeSparse:
    """serialize_sparse walks the ones but must write what a loop over every cell writes."""

    CASES = {
        "1x1-zero": zeros(1, 1),
        "1x1-one": all_ones(1, 1),
        "all-zero": zeros(6, 4),
        "all-ones": all_ones(4, 6),
        "3x7": BitMatrix.from_rows([[1, 0, 0, 1, 0, 0, 1], [0] * 7, [0, 1, 1, 0, 0, 0, 0]]),
        "7x3": BitMatrix.from_rows(
            [[0, 0, 1], [1, 0, 0], [0] * 3, [0] * 3, [1, 1, 1], [0, 1, 0], [0, 0, 1]]
        ),
        "random-0.01": gen_random(96, 0.01, 3),
        "random-0.5": gen_random(40, 0.5, 4),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_text_equals_per_cell_writer_and_round_trips(self, name):
        M = self.CASES[name]
        text = serialize_sparse(M)
        assert text == serialize_sparse_reference(M)
        assert parse_matrix(text) == M

    def test_all_zero_is_the_header_line_only(self):
        assert serialize_sparse(zeros(6, 4)) == "sparse 6 4\n"


class TestTranspose:
    def test_row_becomes_column(self):
        assert transpose(all_ones(1, 3)) == all_ones(3, 1)

    def test_identity_is_symmetric(self):
        assert transpose(identity(4)) == identity(4)

    @given(bit_matrices())
    def test_involution(self, M):
        assert transpose(transpose(M)) == M

    @given(bit_matrices())
    def test_cell_level(self, M):
        T = transpose(M)
        assert all(
            T.get(c, r) == M.get(r, c)
            for r in range(1, M.rows + 1)
            for c in range(1, M.cols + 1)
        )


class TestClassification:
    def test_basic_shapes(self):
        assert classify_pattern(all_ones(3, 1)) == ColumnOnes(3)
        T = BitMatrix.from_rows([[1, 0], [1, 0], [0, 1], [0, 1]])
        assert classify_pattern(T) == TupleIdentity(2, 2)
        assert classify_pattern(cross(3, 3, 2, 2)) == Cross(3, 3, 2, 2)

    def test_priority_on_overlaps(self):
        # a single 1 satisfies nearly every family; column-ones wins
        assert classify_pattern(all_ones(1, 1)) == ColumnOnes(1)
        assert classify_pattern(all_ones(1, 4)) == RowOnes(4)
        assert classify_pattern(all_ones(2, 2)) == AllOnes(2, 2)
        # width-1 tuple identities are plain identities
        assert classify_pattern(tuple_identity(1, 3)) == Identity(3)
        # every L-shape is also a cross, but keeps its own class
        assert classify_pattern(lshape(2, 2)) == LShape(2, 2)

    def test_general_catch_all(self):
        P = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert classify_pattern(P) == General()

    def test_column_transposes_to_row(self):
        for k in (1, 2, 5):
            cls = classify_pattern(transpose(all_ones(k, 1)))
            assert cls == (ColumnOnes(1) if k == 1 else RowOnes(k))

    def test_total_and_deterministic_on_all_3x3(self):
        for P in all_matrices(3, 3):
            first = classify_pattern(P)
            assert classify_pattern(P) == first

    def test_factories_classify_to_their_class(self):
        assert classify_pattern(tuple_identity(2, 3)) == TupleIdentity(2, 3)
        assert classify_pattern(lshape(4, 2)) == LShape(4, 2)
        assert classify_pattern(cross(4, 5, 2, 3)) == Cross(4, 5, 2, 3)
        assert classify_pattern(identity(4)) == Identity(4)
        assert classify_pattern(all_ones(3, 2)) == AllOnes(3, 2)


# Each class's factory, written out here independently of the library's table.
FACTORIES = {
    ColumnOnes: lambda k: all_ones(k, 1),
    RowOnes: lambda w: all_ones(1, w),
    AllOnes: all_ones,
    Identity: identity,
    TupleIdentity: tuple_identity,
    LShape: lshape,
    Cross: cross,
}


def test_classification_and_label_fits_pinned_on_small_patterns():
    """Every pattern with r, c <= 4 and at most 12 cells: class counts, label fits, rebuilds."""
    classes, fits, total = Counter(), Counter(), 0
    for r in range(1, 5):
        for c in range(1, 5):
            if r * c > 12:
                continue
            for P in all_matrices(r, c):
                total += 1
                shape = classify_pattern(P)
                classes[str(shape).split()[0]] += 1
                if type(shape) is not General:
                    assert FACTORIES[type(shape)](*vars(shape).values()) == P, shape
                for label in LABELS:
                    fit = match_label(label, P)
                    if fit is not None:
                        fits[label] += 1
                        assert fit.label == label
                        assert FACTORIES[type(fit)](*vars(fit).values()) == P, (label, fit)
    assert total == 9418
    assert classes == {
        "all-ones": 8, "column-ones": 4, "cross": 57, "general": 9335,
        "identity": 2, "lshape": 8, "row-ones": 3, "tuple-identity": 1,
    }
    assert fits == {
        "allones": 15, "column": 7, "cross": 72, "identity": 3, "lshape": 15,
        "tuple-identity": 7,
    }


class TestValueSemantics:
    """The records are plain classes that behave as frozen dataclasses did."""

    def test_matrices_equal_by_fields(self):
        assert identity(2) == BitMatrix(2, 2, b"\x01\x00\x00\x01")
        assert identity(2) == BitMatrix(rows=2, cols=2, cells=[1, 0, 0, 1])
        assert hash(identity(2)) == hash(BitMatrix.from_rows([[1, 0], [0, 1]]))
        assert identity(2) != all_ones(2, 2)
        assert all_ones(1, 4) != all_ones(4, 1)
        assert identity(2) != (2, 2, b"\x01\x00\x00\x01")

    def test_pattern_classes_equal_by_class_and_fields(self):
        assert ColumnOnes(3) == ColumnOnes(k=3)
        assert hash(Cross(4, 5, 2, 3)) == hash(Cross(4, 5, 2, 3))
        assert ColumnOnes(3) != RowOnes(3)
        assert ColumnOnes(3) != ColumnOnes(4)
        assert Identity(2) != TupleIdentity(1, 2)
        assert General() == General()
        assert len({ColumnOnes(3), RowOnes(3), ColumnOnes(3)}) == 2

    def test_matrix_and_pattern_key_a_bounds_dict(self):
        bounds = {(3, identity(2)): 5, (3, all_ones(2, 2)): 6}
        assert bounds[(3, BitMatrix.from_rows([[1, 0], [0, 1]]))] == 5
        assert (3, all_ones(2, 1)) not in bounds
        assert {RowOnes(2): "row"}[RowOnes(w=2)] == "row"

    def test_fields_cannot_be_assigned(self):
        M, shape = identity(2), classify_pattern(lshape(3, 2))
        rec = ExtremalRecord(1, M, 0, zeros(1, 1))
        for value, field in ((M, "rows"), (shape, "h"), (rec, "value"), (shape, "label")):
            with pytest.raises(AttributeError):
                setattr(value, field, 9)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            M.extra = 1
        assert vars(shape) == {"h": 3, "w": 2}

    def test_constructor_arity(self):
        with pytest.raises(TypeError):
            ColumnOnes()
        with pytest.raises(TypeError):
            ColumnOnes(1, 2)
        with pytest.raises(TypeError):
            AllOnes(2, m=3)
        with pytest.raises(TypeError):
            ExtremalRecord(1, identity(2), 0)

    def test_extremal_record_defaults(self):
        rec = ExtremalRecord(3, identity(2), 5, zeros(3, 3))
        assert (rec.n, rec.value, rec.nodes, rec.cut_contained, rec.cut_bound) == (3, 5, 0, 0, 0)
        assert (rec.cut_symmetry, rec.strip) == (0, ())
        assert rec == ExtremalRecord(3, identity(2), 5, zeros(3, 3), 0, strip=())
        assert rec != ExtremalRecord(3, identity(2), 5, zeros(3, 3), 1)
        assert list(vars(rec))[:4] == ["n", "pattern", "value", "witness"]

    def test_reprs(self):
        assert repr(BitMatrix(1, 2, b"\x01\x00")) == "BitMatrix(rows=1, cols=2, cells=b'\\x01\\x00')"
        assert repr(Cross(4, 5, 2, 3)) == "Cross(a=4, b=5, c=2, d=3)"
        assert repr(General()) == "General()"
        assert repr(ExtremalRecord(1, all_ones(1, 1), 0, zeros(1, 1))) == (
            "ExtremalRecord(n=1, pattern=BitMatrix(rows=1, cols=1, cells=b'\\x01'), value=0, "
            "witness=BitMatrix(rows=1, cols=1, cells=b'\\x00'), nodes=0, cut_contained=0, "
            "cut_bound=0, cut_symmetry=0, strip=(), searches=0, closed=0, cap=None)"
        )
        rep = BenchReport("identity", ((8, 0.5, 3),), None, 1, ())
        assert repr(rep) == (
            "BenchReport(algo='identity', measurements=((8, 0.5, 3),), exponent=None, seed=1, "
            "runs=())"
        )

    def test_classification_is_shared_and_immutable(self):
        P = BitMatrix.from_rows([[1, 0], [0, 1]])
        shape = classify_pattern(P)
        assert classify_pattern(identity(2)) is shape
        with pytest.raises(AttributeError):
            shape.k = 3
        assert str(classify_pattern(identity(2))) == "identity k=2"
        big = identity(40)  # over the cache's cell limit: classified afresh, same value
        assert classify_pattern(big) == classify_pattern(identity(40)) == Identity(40)


def test_pattern_families_are_exported_from_fast():
    import patcon
    from patcon import fast, matrix
    from patcon.matrix import classify_pattern

    assert classify_pattern is matrix.classify_pattern is fast.classify_pattern
    assert patcon.classify_pattern is fast.classify_pattern
    families = fast.PatternClass.__subclasses__()
    assert {cls.__name__ for cls in families} == {
        "AllOnes", "ColumnOnes", "Cross", "General", "Identity", "LShape", "RowOnes",
        "TupleIdentity"}
    for cls in (fast.PatternClass, *families):
        assert getattr(patcon, cls.__name__) is cls
        assert cls.__name__ in patcon.__all__
    with pytest.raises(AttributeError):
        matrix.no_such_name


def test_matrix_classify_pattern_imports_first():
    """``from patcon.matrix import classify_pattern`` in a fresh process, before ``fast``."""
    import os
    import subprocess
    import sys

    import patcon

    code = ("from patcon.matrix import classify_pattern, identity; import patcon.fast; "
            "assert classify_pattern is patcon.fast.classify_pattern; "
            "print(classify_pattern(identity(2)))")
    src = os.path.dirname(os.path.dirname(patcon.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "identity k=2\n"


def test_every_export_resolves():
    import patcon

    for name in patcon.__all__:
        assert hasattr(patcon, name), name
