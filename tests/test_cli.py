"""Command-line contract: verdict text, exit codes, file side effects, and start-up imports."""

import os
import subprocess
import sys

import pytest

import patcon

from patcon import (
    BitMatrix,
    all_ones,
    cross,
    ex_exact,
    identity,
    load_cache,
    lshape,
    parse_matrix,
    serialize,
    serialize_sparse,
    tuple_identity,
    zeros,
)
from patcon import cli
from patcon.cli import main

from helpers import NONCANONICAL_FILES, random_matrix
import random


@pytest.fixture
def files(tmp_path):
    def write(name, M, sparse=False):
        path = tmp_path / name
        path.write_text(serialize_sparse(M) if sparse else serialize(M))
        return str(path)

    return write


class TestCheck:
    def test_contains_exit_zero(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", a, "--pattern", p]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CONTAINS")
        assert "column" in out

    def test_avoids_exit_one(self, files, capsys):
        a = files("a.txt", zeros(3, 3))
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", a, "--pattern", p]) == 1
        assert capsys.readouterr().out.startswith("AVOIDS")

    def test_malformed_matrix_exit_two(self, tmp_path, files, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("10\n011\n")
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", str(bad), "--pattern", p]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, files, capsys):
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", "/nonexistent.txt", "--pattern", p]) == 2
        assert capsys.readouterr().err

    def test_sparse_input_accepted(self, files):
        a = files("a.txt", identity(4), sparse=True)
        p = files("p.txt", identity(2))
        assert main(["check", "--matrix", a, "--pattern", p]) == 0

    def test_naive_and_auto_agree(self, files, capsys):
        rng = random.Random(5)
        mats = [random_matrix(rng, 6, 6, d) for d in (0.1, 0.4, 0.8)]
        pats = [identity(2), all_ones(2, 2), lshape(2, 2), cross(3, 3, 2, 2),
                tuple_identity(2, 2), all_ones(2, 1)]
        for i, A in enumerate(mats):
            for j, P in enumerate(pats):
                a = files(f"a{i}.txt", A)
                p = files(f"p{j}.txt", P)
                auto = main(["check", "--matrix", a, "--pattern", p, "--algo", "auto"])
                v_auto = capsys.readouterr().out.split()[0]
                naive = main(["check", "--matrix", a, "--pattern", p, "--algo", "naive"])
                v_naive = capsys.readouterr().out.split()[0]
                assert auto == naive
                assert v_auto == v_naive

    def test_forced_algorithm_runs(self, files, capsys):
        a = files("a.txt", all_ones(4, 4))
        p = files("p.txt", identity(2))
        assert main(["check", "--matrix", a, "--pattern", p, "--algo", "identity"]) == 0
        assert "identity" in capsys.readouterr().out

    def test_forced_identity_on_unit_pattern(self, files):
        # structural forcing: the 1x1 pattern is an identity even though its
        # canonical class is column-ones
        a = files("a.txt", identity(3))
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", a, "--pattern", p, "--algo", "identity"]) == 0

    def test_selector_mismatch_exit_two(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", all_ones(2, 2))
        assert main(["check", "--matrix", a, "--pattern", p, "--algo", "identity"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bounds_cache_feeds_prefilter(self, files, tmp_path, capsys):
        p = files("p.txt", all_ones(2, 2))
        a = files("a.txt", parse_matrix("1111\n1111\n1100\n0000\n"))
        cache = tmp_path / "cache.txt"
        assert main(["extremal", "--pattern", p, "--n-max", "4",
                     "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        code = main(["check", "--matrix", a, "--pattern", p, "--bounds", str(cache)])
        assert code == 0
        assert capsys.readouterr().out.startswith("CONTAINS")

    def test_bounds_cache_separator_may_hold_whitespace(self, files, tmp_path, capsys):
        p = files("p.txt", all_ones(2, 2))
        a = files("a.txt", all_ones(3, 3))
        cache = tmp_path / "cache.txt"
        assert main(["extremal", "--pattern", p, "--n-max", "3", "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        runs = []
        for text in (cache.read_text(), cache.read_text().replace("\n\n", "\n  \n")):
            cache.write_text(text)
            runs.append((main(["check", "--matrix", a, "--pattern", p, "--bounds", str(cache)]),
                         capsys.readouterr()))
        assert runs[0] == runs[1] == (0, ("CONTAINS allones\n", ""))

    def test_lowered_bounds_cache_value_is_not_trusted(self, files, tmp_path, capsys):
        # ex(2, J2) = 3, and the 2 x 2 record lowered to a 2-ones avoider still
        # verifies; its value is not the proven bound 3, so 11/10 is scanned
        p = files("p.txt", all_ones(2, 2))
        a = files("a.txt", parse_matrix("11\n10\n"))
        cache = tmp_path / "cache.txt"
        assert main(["extremal", "--pattern", p, "--n-max", "2", "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        text = cache.read_text()
        assert "2 3\n11\n10\n" in text
        cache.write_text(text.replace("2 3\n11\n10\n", "2 2\n10\n01\n"))
        assert main(["check", "--matrix", a, "--pattern", p, "--bounds", str(cache)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "AVOIDS allones\n"
        assert captured.err == ("patcon: warning: bounds cache value 2 for n=2 is not a proven "
                                "upper bound; prefilter off for n=2\n")

    def test_bounds_cache_of_another_pattern_exit_two(self, files, tmp_path, capsys):
        # 6 ones exceed ex(3, I2) = 5 but not ex(3, J2) = 6: the matrix avoids J2
        p_i2 = files("i2.txt", identity(2))
        p_j2 = files("j2.txt", all_ones(2, 2))
        a = files("a.txt", parse_matrix("110\n101\n011\n"))
        cache = tmp_path / "c.txt"
        assert main(["extremal", "--pattern", p_i2, "--n-max", "3",
                     "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        assert main(["check", "--matrix", a, "--pattern", p_j2, "--bounds", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "different pattern" in captured.err
        assert main(["check", "--matrix", a, "--pattern", p_j2]) == 1

    def test_huge_sparse_header_exit_two(self, tmp_path, files, capsys):
        a = tmp_path / "a.txt"
        a.write_text("sparse 100000000 100000000\n1 1\n")
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", str(a), "--pattern", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"patcon: error: cannot read {a}: sparse dimensions")

    def test_python_number_syntax_in_sparse_file_exit_two(self, tmp_path, files, capsys):
        # int() would read this as a 10x10 matrix with a 1 at (10, 3)
        a = tmp_path / "a.txt"
        a.write_text("sparse 1_0 1_0\n1_0 ٣\n")
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", str(a), "--pattern", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"patcon: error: cannot read {a}: bad sparse dimensions")

    @pytest.mark.parametrize(
        "text, prefix",
        [
            ("sparse 2 2\n1\n", "patcon: error: sparse entry must be 'r c'"),
            ("sparse 0 2\n", "patcon: error: sparse dimensions must be positive"),
        ],
    )
    def test_bad_sparse_file_exit_two(self, tmp_path, files, capsys, text, prefix):
        a = tmp_path / "a.txt"
        a.write_text(text)
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", str(a), "--pattern", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the message follows the name of the file at fault
        assert captured.err.startswith(prefix.replace("error:", f"error: cannot read {a}:", 1))

    @pytest.mark.parametrize("option", ["--matrix", "--pattern"])
    @pytest.mark.parametrize("data", [b"", b"1\xff\n"], ids=["empty", "byte-0xff"])
    def test_unreadable_input_names_its_file(self, tmp_path, files, capsys, option, data):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        # the error reading the file raises, decode errors included
        with pytest.raises(ValueError) as exc:
            with open(bad) as fh:
                parse_matrix(fh.read())
        paths = {"--matrix": files("a.txt", identity(3)), "--pattern": files("p.txt", identity(2))}
        paths[option] = str(bad)
        assert main(["check", "--matrix", paths["--matrix"], "--pattern", paths["--pattern"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"patcon: error: cannot read {bad}: {exc.value}\n"
        if not data:
            assert str(exc.value) == "empty input"

    @pytest.mark.parametrize(
        "block, prefix",
        [
            # without the check, 3 ones > 2 would print CONTAINS for an avoider of J2
            ("2 2\n10\n01\n", "patcon: error: second record for n=2"),
            ("2\n11\n10\n", "patcon: error: bad cache header line"),
            # a header with no witness: the parse error names the cache file
            ("3 6\n", "patcon: error: cache file {cache}: empty input"),
        ],
    )
    def test_bad_bounds_cache_exit_two(self, files, tmp_path, capsys, block, prefix):
        p = files("p.txt", all_ones(2, 2))
        a = files("a.txt", parse_matrix("11\n10\n"))
        cache = tmp_path / "c.txt"
        assert main(["extremal", "--pattern", p, "--n-max", "2",
                     "--cache-out", str(cache)]) == 0
        with open(cache, "a") as fh:
            fh.write("\n" + block)
        capsys.readouterr()
        assert main(["check", "--matrix", a, "--pattern", p, "--bounds", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix.format(cache=cache))
        assert main(["check", "--matrix", a, "--pattern", p]) == 1

    def test_missing_bounds_file_warns(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", all_ones(1, 1))
        for bounds in ("/nonexistent-cache.txt", ""):  # an empty path is a missing file too
            code = main(["check", "--matrix", a, "--pattern", p, "--bounds", bounds])
            assert code == 0
            captured = capsys.readouterr()
            assert captured.out == "CONTAINS column\n"
            assert captured.err == (
                f"patcon: warning: bounds file {bounds} not found; prefilter off\n"
            )

    def test_bounds_with_forced_algo_warns(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", identity(2))
        for bounds in ("/nonexistent-cache.txt", ""):
            code = main(["check", "--matrix", a, "--pattern", p, "--algo", "identity",
                         "--bounds", bounds])
            assert code == 0
            captured = capsys.readouterr()
            assert captured.out == "CONTAINS identity\n"
            assert captured.err == "patcon: warning: --bounds is ignored with --algo identity\n"


FORCED_LABELS = ("naive", "column", "identity", "tuple-identity", "lshape", "cross", "allones")

# (pattern, classify line, auto-mode check label, --algo labels that run).
# The canonical pattern of each family, then the overlaps that the priority
# order (classify, auto) and the structural matching (--algo) decide.
FAMILY_OVERLAPS = [
    (all_ones(3, 1), "column-ones k=3", "column",
     {"naive", "column", "tuple-identity", "lshape", "cross", "allones"}),
    (all_ones(1, 3), "row-ones w=3", "column", {"naive", "column", "lshape", "cross", "allones"}),
    (all_ones(2, 2), "all-ones k=2 l=2", "allones", {"naive", "allones"}),
    (all_ones(2, 3), "all-ones k=2 l=3", "allones", {"naive", "allones"}),
    (identity(3), "identity k=3", "identity", {"naive", "identity", "tuple-identity"}),
    (tuple_identity(2, 2), "tuple-identity j=2 k=2", "tuple-identity", {"naive", "tuple-identity"}),
    (lshape(3, 3), "lshape h=3 w=3", "lshape", {"naive", "lshape", "cross"}),
    (cross(3, 3, 2, 2), "cross a=3 b=3 c=2 d=2", "cross", {"naive", "cross"}),
    (BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]]), "general", "naive", {"naive"}),
    (all_ones(1, 1), "column-ones k=1", "column", set(FORCED_LABELS)),
    (identity(1), "column-ones k=1", "column", set(FORCED_LABELS)),
    (all_ones(1, 4), "row-ones w=4", "column", {"naive", "column", "lshape", "cross", "allones"}),
    (all_ones(2, 1), "column-ones k=2", "column",
     {"naive", "column", "tuple-identity", "lshape", "cross", "allones"}),
    (lshape(1, 3), "row-ones w=3", "column", {"naive", "column", "lshape", "cross", "allones"}),
    (lshape(3, 1), "column-ones k=3", "column",
     {"naive", "column", "tuple-identity", "lshape", "cross", "allones"}),
    (tuple_identity(1, 3), "identity k=3", "identity", {"naive", "identity", "tuple-identity"}),
    (tuple_identity(2, 1), "column-ones k=2", "column",
     {"naive", "column", "tuple-identity", "lshape", "cross", "allones"}),
    (cross(1, 3, 1, 2), "row-ones w=3", "column",
     {"naive", "column", "lshape", "cross", "allones"}),
]


@pytest.mark.parametrize("P, line, label, runs", FAMILY_OVERLAPS)
def test_family_overlaps_pinned(files, capsys, P, line, label, runs):
    p = files("p.txt", P)
    a = files("a.txt", all_ones(4, 4))
    assert main(["classify", "--pattern", p]) == 0
    assert capsys.readouterr().out == line + "\n"
    assert main(["check", "--matrix", a, "--pattern", p]) == 0
    assert capsys.readouterr().out == f"CONTAINS {label}\n"
    for algo in FORCED_LABELS:
        code = main(["check", "--matrix", a, "--pattern", p, "--algo", algo])
        captured = capsys.readouterr()
        if algo in runs:
            assert (code, captured.out) == (0, f"CONTAINS {algo}\n")
        else:
            assert (code, captured.out) == (2, ""), algo
            assert "does not fit" in captured.err


class TestClassify:
    def test_tuple_identity_output(self, files, capsys):
        p = files("p.txt", tuple_identity(2, 2))
        assert main(["classify", "--pattern", p]) == 0
        assert capsys.readouterr().out.strip() == "tuple-identity j=2 k=2"

    def test_unit_pattern_is_column_ones(self, files, capsys):
        p = files("p.txt", all_ones(1, 1))
        assert main(["classify", "--pattern", p]) == 0
        assert capsys.readouterr().out.strip() == "column-ones k=1"

    def test_general_output(self, files, capsys):
        from patcon import BitMatrix

        p = files("p.txt", BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
        assert main(["classify", "--pattern", p]) == 0
        assert capsys.readouterr().out.strip() == "general"

    def test_parse_failure_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("12\n")
        assert main(["classify", "--pattern", str(bad)]) == 2
        capsys.readouterr()


class TestExtremal:
    def test_single_n(self, files, capsys):
        p = files("p.txt", all_ones(1, 1))
        assert main(["extremal", "--pattern", p, "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "ex(3,P) = 0"

    def test_table_values(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "ex(1,P) = 1",
            "ex(2,P) = 3",
            "ex(3,P) = 6",
            "ex(4,P) = 9",
        ]

    def test_all_zero_pattern_exit_two(self, files, capsys):
        p = files("p.txt", zeros(2, 2))
        assert main(["extremal", "--pattern", p, "--n", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_deep_search_exit_zero(self, files, capsys):
        p = files("p.txt", all_ones(1, 1))
        assert main(["extremal", "--pattern", p, "--n", "32"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ex(32,P) = 0\n"
        assert "internal error" not in captured.err

    def test_huge_n_max_stops_at_the_budget(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        argv = ["extremal", "--pattern", p, "--n-max", str(10**15), "--node-budget", "50"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "ex(1,P) = 1\nex(2,P) = 3\nex(3,P) = 6\n"
        assert captured.err.endswith(
            "ex(4,P) inconclusive: node budget 50 exceeded while searching n=4\n")

    def test_huge_n_is_inconclusive(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n", str(10**15)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inconclusive" in captured.err and "internal error" not in captured.err

    def test_search_nodes_reported_on_stderr(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n", "3", "--node-budget", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ex(3,P) = 6\n"
        rec = ex_exact(3, all_ones(2, 2))
        assert captured.err == (
            f"ex(3,P): {rec.nodes} search nodes, {rec.nodes / 10:.2f}% of the node budget\n"
            f"ex(3,P): cut {rec.cut_contained} by containment, {rec.cut_bound} by bound, "
            f"{rec.cut_symmetry} by symmetry; strip table ex(m x 3,P), m < 3: 3 4\n"
            "ex(3,P): 2 of 2 searches closed at a proven upper bound (6 for the n x n search)\n"
        )
        assert (rec.nodes, rec.cut_contained, rec.cut_bound, rec.cut_symmetry) == (35, 5, 2, 8)

    def test_searches_closed_at_their_bound_reported_on_stderr(self, files, capsys):
        # I3 fits the strips m = 3, 4 and the 5 x 5 search; each stops at
        # (k-1)(m+n-k+1). G's family bound is m*n, but the row average
        # m * strip[m-1] // (m-1) closes its 3 x 5 and 4 x 5 strips at 10 and 13.
        p = files("p.txt", identity(3))
        assert main(["extremal", "--pattern", p, "--n", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ex(5,P) = 16\n"
        assert captured.err.splitlines()[2:] == [
            "ex(5,P): 3 of 3 searches closed at a proven upper bound (16 for the n x n search)"]
        g = files("g.txt", parse_matrix("101\n011\n"))
        assert main(["extremal", "--pattern", g, "--n", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ex(5,P) = 15\n"
        assert captured.err.splitlines()[1:] == [
            "ex(5,P): cut 34436 by containment, 36437 by bound, 0 by symmetry; "
            "strip table ex(m x 5,P), m < 5: 5 7 10 13",
            "ex(5,P): 2 of 4 searches closed at a proven upper bound (16 for the n x n search)"]

    def test_n1_reports_an_empty_strip_table(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ex(1,P) = 1\n"
        assert captured.err.splitlines()[1] == (
            "ex(1,P): cut 0 by containment, 0 by bound, 0 by symmetry; "
            "strip table ex(m x 1,P), m < 1: none"
        )

    def test_zarankiewicz_n8(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n", "8"]) == 0
        assert capsys.readouterr().out == "ex(8,P) = 24\n"

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_nonpositive_n_max_exit_two(self, files, capsys, n_max):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "patcon: error: n-max must be positive\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_node_budget_exit_two(self, files, capsys, budget):
        p = files("p.txt", all_ones(1, 1))
        assert main(["extremal", "--pattern", p, "--n", "1", "--node-budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "patcon: error: node-budget must be positive\n"

    def test_budget_exhaustion_exit_three(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        code = main(["extremal", "--pattern", p, "--n-max", "4", "--node-budget", "40"])
        captured = capsys.readouterr()
        assert code == 3
        assert "inconclusive" in captured.err

    @pytest.mark.parametrize("phase", ["strip", "final"])
    def test_budget_exhaustion_in_either_phase_exit_three(self, files, capsys, phase):
        # Budget 1 runs out in the first strip search (m = 3), one node short
        # of the total at the last node of the n x n search.
        p = files("p.txt", identity(3))
        budget = 1 if phase == "strip" else ex_exact(5, identity(3)).nodes - 1
        code = main(["extremal", "--pattern", p, "--n", "5", "--node-budget", str(budget)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"ex(5,P) inconclusive: node budget {budget} exceeded while searching n=5\n"
        )

    def test_witness_and_cache_outputs(self, files, tmp_path, capsys):
        p = files("p.txt", all_ones(2, 2))
        wdir = tmp_path / "wit"
        cache = tmp_path / "cache.txt"
        assert main(["extremal", "--pattern", p, "--n-max", "3",
                     "--witness-out", str(wdir), "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        assert sorted(f.name for f in wdir.iterdir()) == [
            "witness_n1.txt", "witness_n2.txt", "witness_n3.txt"
        ]
        loaded = load_cache(cache)
        assert [(n, v) for n, v, _ in loaded] == [(1, 1), (2, 3), (3, 6)]
        w3 = parse_matrix((wdir / "witness_n3.txt").read_text())
        assert w3 == loaded[2][2]

    @pytest.mark.parametrize("option, where", [
        ("--cache-out", "."),  # a directory
        ("--cache-out", "missing/cache.txt"),
        ("--cache-out", "p.txt/cache.txt"),  # under a file
        ("--witness-out", "p.txt"),  # a file
        ("--witness-out", "missing/wit"),  # no parent is made
        ("--cache-out", ""),
        ("--witness-out", ""),
    ])
    def test_bad_output_path_fails_before_any_search(self, files, tmp_path, capsys, monkeypatch,
                                                     option, where):
        def refuse(*args, **kwargs):
            raise AssertionError("searched before checking an output path")

        monkeypatch.setattr(patcon.extremal, "ex_exact", refuse)
        p = files("p.txt", identity(2))
        path = where and os.path.normpath(tmp_path / where)
        # the error open() or mkdir() raises when it is reached after the searches
        with pytest.raises(OSError) as exc:
            os.mkdir(path) if option == "--witness-out" else open(path, "w")
        code = main(["extremal", "--pattern", p, "--n-max", "3", option, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"patcon: error: {exc.value}\n"
        assert not (tmp_path / "missing").exists()

    def test_output_check_creates_and_truncates_nothing(self, files, tmp_path, capsys):
        p = files("p.txt", identity(2))
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("kept\n")
        for cache in (new, old):
            # the search stops at its node budget, so no cache is written
            assert main(["extremal", "--pattern", p, "--n", "3", "--node-budget", "1",
                         "--cache-out", str(cache)]) == 3
        capsys.readouterr()
        assert not new.exists()
        assert old.read_text() == "kept\n"

    @pytest.mark.parametrize("pattern, argv, code", [
        (identity(2), ["--n", "0"], 2),
        (zeros(2, 2), ["--n", "2"], 2),  # no avoider exists
        (identity(2), ["--n", "3", "--node-budget", "1"], 3),
    ], ids=["n-zero", "all-zero-pattern", "budget-stop"])
    def test_witness_directory_made_for_no_witness_is_removed(self, files, tmp_path, capsys,
                                                              pattern, argv, code):
        p = files("p.txt", pattern)
        wdir = tmp_path / "wit"
        assert main(["extremal", "--pattern", p, *argv, "--witness-out", str(wdir)]) == code
        capsys.readouterr()
        assert not wdir.exists()

    def test_existing_witness_directory_is_kept(self, files, tmp_path, capsys):
        p = files("p.txt", zeros(2, 2))
        wdir = tmp_path / "wit"
        wdir.mkdir()
        assert main(["extremal", "--pattern", p, "--n", "2", "--witness-out", str(wdir)]) == 2
        capsys.readouterr()
        assert wdir.is_dir() and not any(wdir.iterdir())


class TestBench:
    def test_csv_and_exponent_output(self, files, tmp_path, capsys):
        p = files("p.txt", all_ones(2, 1))
        csv = tmp_path / "out.csv"
        code = main(["bench", "--pattern", p, "--sizes", "8,16", "--density", "0.5",
                     "--seed", "42", "--trials", "3", "--csv", str(csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("column exponent")
        lines = csv.read_text().splitlines()
        assert lines[0] == "algo,n,trial,seconds,contains"
        assert sum(1 for ln in lines if ",summary," in ln) == 2

    def test_zero_trials_exit_two(self, files, tmp_path, capsys):
        p = files("p.txt", all_ones(2, 1))
        code = main(["bench", "--pattern", p, "--sizes", "8,16",
                     "--trials", "0", "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_contains_column_identical_across_runs(self, files, tmp_path, capsys):
        p = files("p.txt", identity(2))
        cols = []
        for name in ("r1.csv", "r2.csv"):
            csv = tmp_path / name
            assert main(["bench", "--pattern", p, "--sizes", "8,16", "--seed", "9",
                         "--trials", "3", "--csv", str(csv)]) == 0
            capsys.readouterr()
            rows = [ln.split(",") for ln in csv.read_text().splitlines()[1:]]
            cols.append([r[4] for r in rows if r[2] != "summary"])
        assert cols[0] == cols[1] and cols[0]

    def test_explicit_algos_list(self, files, tmp_path, capsys):
        p = files("p.txt", identity(2))
        csv = tmp_path / "out.csv"
        code = main(["bench", "--pattern", p, "--sizes", "8,16", "--trials", "3",
                     "--algos", "naive,identity,auto", "--csv", str(csv)])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 3

    def test_empty_sizes_list_names_the_problem(self, files, tmp_path, capsys):
        p = files("p.txt", identity(2))
        code = main(["bench", "--pattern", p, "--sizes", ",", "--trials", "3",
                     "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "patcon: error: need at least one size\n"

    @pytest.mark.parametrize("algos", ["", ","])
    def test_empty_algos_list_names_the_problem(self, files, tmp_path, capsys, algos):
        p = files("p.txt", identity(2))
        code = main(["bench", "--pattern", p, "--sizes", "8,16", "--trials", "3",
                     "--csv", str(tmp_path / "x.csv"), "--algos", algos])
        assert code == 2
        assert capsys.readouterr().err == "patcon: error: need at least one algorithm label\n"

    @pytest.mark.parametrize("where, error", [
        ("missing/x.csv", "[Errno 2] No such file or directory: '{}'"),
        (".", "[Errno 21] Is a directory: '{}'"),
        ("", "[Errno 2] No such file or directory: ''"),
    ], ids=["missing-directory", "directory", "empty"])
    def test_unwritable_csv_fails_before_generating(self, files, tmp_path, capsys, monkeypatch,
                                                     where, error):
        import patcon.bench

        def refuse(*args):
            raise AssertionError("generated inputs for an unwritable --csv")

        monkeypatch.setattr(patcon.bench, "gen_random", refuse)
        p = files("p.txt", identity(2))
        csv = where and os.path.normpath(tmp_path / where)
        code = main(["bench", "--pattern", p, "--sizes", "8,16", "--trials", "3", "--csv", csv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        # the message open() gives when it fails after the timings
        assert captured.err == f"patcon: error: {error.format(csv)}\n"
        assert not (tmp_path / "missing").exists()

    def test_bad_sizes_exit_two(self, files, tmp_path, capsys):
        p = files("p.txt", identity(2))
        code = main(["bench", "--pattern", p, "--sizes", "8,oops",
                     "--trials", "3", "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()


class TestExitContract:
    def test_usage_error_exits_two(self, capsys):
        assert main(["check"]) == 2
        capsys.readouterr()
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_all_statuses_in_contract(self, files, tmp_path, capsys):
        p_one = files("p1.txt", all_ones(1, 1))
        p_sq = files("p22.txt", all_ones(2, 2))
        a_full = files("af.txt", all_ones(3, 3))
        a_zero = files("az.txt", zeros(3, 3))
        invocations = [
            ["check", "--matrix", a_full, "--pattern", p_one],
            ["check", "--matrix", a_zero, "--pattern", p_one],
            ["check", "--matrix", a_zero, "--pattern", "/missing"],
            ["extremal", "--pattern", p_sq, "--n-max", "4", "--node-budget", "10"],
            ["classify", "--pattern", p_one],
        ]
        for argv in invocations:
            assert main(argv) in {0, 1, 2, 3}
            capsys.readouterr()

    def test_unexpected_exception_is_an_internal_error(self, files, capsys, monkeypatch):
        p = files("p.txt", identity(2))
        for exc, err in [
            (RuntimeError("boom"), "patcon: internal error: boom\n"),
            (MemoryError(), "patcon: error: out of memory\n"),
        ]:
            def broken(P):
                raise exc

            monkeypatch.setattr(cli, "classify_pattern", broken)
            assert main(["classify", "--pattern", p]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == err


class TestStartupImports:
    """A process imports only what its command runs (the package exports resolve lazily)."""

    FORBIDDEN = {"patcon.bench", "patcon.extremal", "dataclasses", "logging", "statistics"}

    @staticmethod
    def loaded(code, *args):
        """Modules a fresh interpreter holds after running ``code``, less those of ``pass``."""
        src = os.path.dirname(os.path.dirname(patcon.__file__))
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

        def modules(snippet):
            proc = subprocess.run(
                [sys.executable, "-c", snippet + "\nimport sys; print(*sys.modules)", *args],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            return set(proc.stdout.splitlines()[-1].split())

        return modules(code) - modules("pass")

    def test_import_patcon_loads_no_submodule(self):
        assert {m for m in self.loaded("import patcon") if m.startswith("patcon.")} == set()

    def test_submodule_attribute_imports_only_that_module(self):
        code = "import patcon, types; assert isinstance(patcon.extremal, types.ModuleType)"
        loaded = self.loaded(code)
        assert "patcon.extremal" in loaded
        assert "patcon.bench" not in loaded

    def test_import_cli_skips_extremal_and_bench(self):
        loaded = self.loaded("import patcon.cli")
        assert "patcon.fast" in loaded
        assert loaded & self.FORBIDDEN == set()

    def test_check_skips_extremal_and_bench(self, files, tmp_path):
        a, p = files("a.txt", identity(5)), files("p.txt", identity(2))
        run = "from patcon.cli import main; import sys; assert main(sys.argv[1:]) == 0"
        loaded = self.loaded(run, "check", "--matrix", a, "--pattern", p)
        assert loaded & self.FORBIDDEN == set()
        # the test sees the import when it does happen: --bounds reads the extremal cache
        cache = str(tmp_path / "cache.txt")
        assert main(["extremal", "--pattern", p, "--n", "2", "--cache-out", cache]) == 0
        assert "patcon.extremal" in self.loaded(
            run, "check", "--matrix", a, "--pattern", p, "--bounds", cache)

    def test_exports_listed_and_star_importable(self):
        assert set(patcon.__all__) <= set(dir(patcon))
        namespace = {}
        exec("from patcon import *", namespace)
        assert set(patcon.__all__) <= set(namespace)
        assert namespace["BitMatrix"] is patcon.matrix.BitMatrix
        assert patcon.BenchConfigError is patcon.bench.BenchConfigError is patcon.fast.BenchConfigError
        with pytest.raises(AttributeError):
            patcon.no_such_name


# `check --matrix F --pattern 1` on each non-canonical file F: (exit code, stdout, stderr), with
# {path} for F. The texts are those of the line-by-line parser, which reads these files as
# text-mode open() decodes them; the 0xff decode error is open()'s own message.
NONCANONICAL_OUTCOMES = {
    "comment-lines": (0, "CONTAINS column\n", ""),
    "blank-lines": (0, "CONTAINS column\n", ""),
    "crlf": (0, "CONTAINS column\n", ""),
    "no-final-newline": (0, "CONTAINS column\n", ""),
    "utf8-bom": (2, "", "patcon: error: cannot read {path}: invalid character '\\ufeff' in dense row\n"),
    "byte-0xff": (2, "", "patcon: error: cannot read {path}: {decode_error}\n"),
    "tab": (0, "CONTAINS column\n", ""),
    "ragged-row": (2, "", "patcon: error: cannot read {path}: ragged rows: expected width 2, got 3\n"),
    "ragged-rows-of-whole-length": (
        2, "", "patcon: error: cannot read {path}: ragged rows: expected width 2, got 1\n"),
    "bad-character-above-ragged-row": (
        2, "", "patcon: error: cannot read {path}: invalid character 'x' in dense row\n"),
    "sparse-duplicate": (2, "", "patcon: error: cannot read {path}: duplicate coordinate (1, 1)\n"),
    "sparse-out-of-range": (
        2, "", "patcon: error: cannot read {path}: coordinate (3, 1) outside 2x2\n"),
    "sparse-three-fields": (
        2, "", "patcon: error: cannot read {path}: sparse entry must be 'r c', got '1 1 1'\n"),
    "sparse-plus-two": (2, "", "patcon: error: cannot read {path}: bad sparse coordinate: "
                               "'+2 1' is not two decimal numbers\n"),
    "sparse-non-ascii-digits": (2, "", "patcon: error: cannot read {path}: bad sparse coordinate: "
                                       "'\u0661 1' is not two decimal numbers\n"),
    "sparse-crlf": (0, "CONTAINS column\n", ""),
    "sparse-comment-line": (0, "CONTAINS column\n", ""),
    "sparse-blank-line": (0, "CONTAINS column\n", ""),
    "sparse-tab-and-double-space": (0, "CONTAINS column\n", ""),
    "sparse-no-final-newline": (0, "CONTAINS column\n", ""),
    "sparse-header-double-space": (0, "CONTAINS column\n", ""),
}


@pytest.mark.parametrize("name", list(NONCANONICAL_FILES))
def test_noncanonical_input_outcome_pinned(name, tmp_path, files, capsys):
    path = tmp_path / "a.txt"
    path.write_bytes(NONCANONICAL_FILES[name])
    decode_error = None
    if name == "byte-0xff":
        with pytest.raises(UnicodeDecodeError) as exc:
            path.read_text()
        decode_error = exc.value
    code, out, err = NONCANONICAL_OUTCOMES[name]
    p = files("p.txt", all_ones(1, 1))
    assert main(["check", "--matrix", str(path), "--pattern", p]) == code
    assert capsys.readouterr() == (out, err.format(path=path, decode_error=decode_error))


class TestEntrypoint:
    """``python -m patcon.cli`` ends with os._exit after a flush: nothing it prints or writes is lost."""

    @staticmethod
    def run(*argv, **kwargs):
        src = os.path.dirname(os.path.dirname(patcon.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        env.update(kwargs.pop("env", {}))
        return subprocess.run([sys.executable, "-m", "patcon.cli", *argv], env=env,
                              timeout=120, **kwargs)

    def test_every_exit_code_with_its_whole_output(self, files, tmp_path, capsys):
        p_one, p_j2 = files("p1.txt", all_ones(1, 1)), files("p22.txt", all_ones(2, 2))
        a_full, a_zero = files("af.txt", all_ones(3, 3)), files("az.txt", zeros(3, 3))
        cases = [
            (0, ["check", "--matrix", a_full, "--pattern", p_one]),
            (1, ["check", "--matrix", a_zero, "--pattern", p_one]),
            (2, ["check", "--matrix", a_zero, "--pattern", str(tmp_path / "missing.txt")]),
            (3, ["extremal", "--pattern", p_j2, "--n-max", "4", "--node-budget", "40"]),
            (0, ["extremal", "--pattern", p_j2, "--n-max", "6"]),
        ]
        for code, argv in cases:
            assert main(argv) == code
            want = capsys.readouterr()
            proc = self.run(*argv, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, want.out, want.err)

    def test_written_files_are_complete(self, files, tmp_path, capsys):
        p = files("p.txt", identity(2))
        outputs = {}
        for where in ("in-process", "child"):
            wdir, cache, csv = (tmp_path / f"{where}-{name}" for name in ("wit", "cache.txt", "b.csv"))
            extremal = ["extremal", "--pattern", p, "--n-max", "6", "--witness-out", str(wdir),
                        "--cache-out", str(cache)]
            bench = ["bench", "--pattern", p, "--sizes", "8,16,32", "--trials", "3",
                     "--csv", str(csv)]
            for argv in (extremal, bench):
                if where == "child":
                    assert self.run(*argv, capture_output=True).returncode == 0
                else:
                    assert main(argv) == 0
                    capsys.readouterr()
            rows = csv.read_text().splitlines()
            outputs[where] = ({f.name: f.read_text() for f in wdir.iterdir()}, cache.read_text(),
                              [row.split(",")[:3] for row in rows], csv.read_text()[-1])
        assert outputs["child"] == outputs["in-process"]
        assert len(outputs["child"][0]) == 6 and len(outputs["child"][2]) == 1 + 3 * (3 + 1)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_pipe(self, files, unbuffered):
        """The exit code and stderr are Python's usual ones for a write to a closed pipe."""
        a, p = files("a.txt", identity(3)), files("p.txt", all_ones(1, 1))
        read, write = os.pipe()
        os.close(read)
        env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
        try:
            proc = self.run("check", "--matrix", a, "--pattern", p, stdout=write,
                            stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        if unbuffered:  # print raises inside main, which reports it as an error
            assert (proc.returncode, proc.stderr) == (2, "patcon: error: [Errno 32] Broken pipe\n")
        else:  # the flush at exit fails, and the interpreter reports it
            assert proc.returncode == 120
            assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
            assert proc.stderr.endswith(">\nBrokenPipeError: [Errno 32] Broken pipe\n")
            assert proc.stderr.count("\n") == 2
