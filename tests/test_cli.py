"""Command-line contract: verdict text, exit codes, and file side effects."""

import pytest

from patcon import (
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
from patcon.cli import main

from helpers import random_matrix
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

    def test_missing_bounds_file_is_silently_ignored(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", all_ones(1, 1))
        code = main(["check", "--matrix", a, "--pattern", p,
                     "--bounds", "/nonexistent-cache.txt"])
        assert code == 0
        assert capsys.readouterr().err == ""


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

    def test_search_nodes_reported_on_stderr(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        assert main(["extremal", "--pattern", p, "--n", "3", "--node-budget", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ex(3,P) = 6\n"
        nodes = ex_exact(3, all_ones(2, 2)).nodes
        assert captured.err == (
            f"ex(3,P): {nodes} search nodes, {nodes / 10:.2f}% of the node budget\n"
        )

    def test_budget_exhaustion_exit_three(self, files, capsys):
        p = files("p.txt", all_ones(2, 2))
        code = main(["extremal", "--pattern", p, "--n-max", "4", "--node-budget", "40"])
        captured = capsys.readouterr()
        assert code == 3
        assert "inconclusive" in captured.err

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
