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

    def test_huge_sparse_header_exit_two(self, tmp_path, files, capsys):
        a = tmp_path / "a.txt"
        a.write_text("sparse 100000000 100000000\n1 1\n")
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", str(a), "--pattern", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("patcon: error: sparse dimensions")

    def test_python_number_syntax_in_sparse_file_exit_two(self, tmp_path, files, capsys):
        # int() would read this as a 10x10 matrix with a 1 at (10, 3)
        a = tmp_path / "a.txt"
        a.write_text("sparse 1_0 1_0\n1_0 ٣\n")
        p = files("p.txt", all_ones(1, 1))
        assert main(["check", "--matrix", str(a), "--pattern", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("patcon: error: bad sparse dimensions")

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
        assert captured.err.startswith(prefix)

    @pytest.mark.parametrize(
        "block, prefix",
        [
            # without the check, 3 ones > 2 would print CONTAINS for an avoider of J2
            ("2 2\n10\n01\n", "patcon: error: second record for n=2"),
            ("2\n11\n10\n", "patcon: error: bad cache header line"),
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
        assert captured.err.startswith(prefix)
        assert main(["check", "--matrix", a, "--pattern", p]) == 1

    def test_missing_bounds_file_warns(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", all_ones(1, 1))
        code = main(["check", "--matrix", a, "--pattern", p,
                     "--bounds", "/nonexistent-cache.txt"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "CONTAINS column\n"
        assert captured.err == (
            "patcon: warning: bounds file /nonexistent-cache.txt not found; prefilter off\n"
        )

    def test_bounds_with_forced_algo_warns(self, files, capsys):
        a = files("a.txt", identity(3))
        p = files("p.txt", identity(2))
        code = main(["check", "--matrix", a, "--pattern", p, "--algo", "identity",
                     "--bounds", "/nonexistent-cache.txt"])
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
        assert captured.out == "ex(1,P) = 1\nex(2,P) = 3\n"
        assert captured.err.endswith(
            "ex(3,P) inconclusive: node budget 50 exceeded while searching n=3\n")

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
        )
        assert (rec.nodes, rec.cut_contained, rec.cut_bound, rec.cut_symmetry) == (51, 6, 12, 11)

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
