"""Generators, timing harness, exponent fits, and CSV emission."""

import hashlib
import math
import random

import pytest

from patcon import fast
from patcon import (
    BenchConfigError,
    UnsupportedPatternError,
    all_ones,
    bench_compare,
    contains_naive,
    count_ones,
    cross,
    dispatch,
    fit_exponent,
    gen_avoider,
    gen_random,
    identity,
    lshape,
    transpose,
    tuple_identity,
    write_bench_csv,
    zeros,
)

from helpers import gen_random_reference


class TestGenRandom:
    def test_density_extremes(self):
        assert gen_random(5, 0.0, 1) == zeros(5, 5)
        assert gen_random(5, 1.0, 1) == all_ones(5, 5)

    def test_deterministic(self):
        assert gen_random(64, 0.5, 42) == gen_random(64, 0.5, 42)

    def test_seed_changes_output(self):
        assert gen_random(16, 0.5, 1) != gen_random(16, 0.5, 2)

    def test_density_is_roughly_honored(self):
        M = gen_random(64, 0.25, 7)
        frac = count_ones(M) / (64 * 64)
        assert 0.2 < frac < 0.3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random(0, 0.5, 1)
        with pytest.raises(ValueError):
            gen_random(4, 1.5, 1)


class TestGenRandomStream:
    """gen_random draws a row at a time but must match one random() call per cell."""

    SIZES = (1, 2, 3, 7, 8, 9, 33, 64)
    DENSITIES = (0.0, 1.0, 0.5, 0.25, 0.01, 0.3, 5e-324, 0.5 - 2**-53, 1 - 2**-53)
    # sha256 of gen_random(n, density, seed).cells from the one-draw-per-cell generator
    PINNED = {
        (256, 0.5, 42): "def1c1b6270394b5e87659cdac9c800c8427d429049afcdc85fb2c5d32b49e8b",
        (512, 0.01, 7): "df0255509d7a9c4b6a61399de526ef41d430649bb44f1e5c6e8aa15b1822a8c5",
        (100, 0.3, 1): "b89747b8baaf5dd68467a04e6348167f12088e15a863782ea98e397f9d6833d3",
    }

    @pytest.mark.parametrize("density", DENSITIES, ids=repr)
    def test_equals_one_draw_per_cell(self, density):
        for n in self.SIZES:
            for seed in (0, 1, 7, 2024, 2**32 - 1):
                assert gen_random(n, density, seed) == gen_random_reference(n, density, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_threshold_equal_to_the_draw(self, seed):
        # the cell is 1 iff its draw is strictly below the density, at the exact float
        v = random.Random(seed).random()
        assert gen_random(1, v, seed).cells == b"\0"
        assert gen_random(1, math.nextafter(v, 1.0), seed).cells == b"\1"

    @pytest.mark.parametrize("args", sorted(PINNED))
    def test_pinned_digests(self, args):
        assert hashlib.sha256(gen_random(*args).cells).hexdigest() == self.PINNED[args]


# The benchmark's seven check families, and the sha256 of gen_avoider(n, P).cells at its two sizes,
# pinned before the row avoider was built without a transpose and the masks were repacked.
BENCHMARK_FAMILIES = {
    "column": all_ones(3, 1),
    "row": all_ones(1, 3),
    "identity": identity(3),
    "tuple-identity": tuple_identity(2, 2),
    "lshape": lshape(3, 3),
    "cross": cross(3, 3, 2, 2),
    "allones": all_ones(2, 2),
}
BENCHMARK_AVOIDER_SHA256 = {
    ("column", 1024): "597e328d857e252884f01c4e5a6525549701c698bf642c574119bb3536d00932",
    ("column", 2048): "44e2cbc3da4481f317b9044d88397daef23b9262e5b251e436989b8617bf8fd4",
    ("row", 1024): "618df69d3107825057d4c2cfb42131966c10d7ee1835a097614ca952539a5129",
    ("row", 2048): "12166190571eaa101dac386f11cfec3928a384b53683328f135c0174c37d5c3c",
    ("identity", 1024): "aab78877eefadc22c4cb26037b26e460ed529f8fa4569408c8d742f5dfebeafe",
    ("identity", 2048): "0352222f0c0bb64e3daf41ed293355dbb14f6a7772ca85f0304c6a7a0d42beed",
    ("tuple-identity", 1024): "65dc66195ad1236edcf5049e3a09c77159c50541be9ded79586c10db73617b6e",
    ("tuple-identity", 2048): "1fed090e5ffe1f50acd709eb4b41772b80dce1960e1347bed14e28730bc24603",
    ("lshape", 1024): "597e328d857e252884f01c4e5a6525549701c698bf642c574119bb3536d00932",
    ("lshape", 2048): "44e2cbc3da4481f317b9044d88397daef23b9262e5b251e436989b8617bf8fd4",
    ("cross", 1024): "597e328d857e252884f01c4e5a6525549701c698bf642c574119bb3536d00932",
    ("cross", 2048): "44e2cbc3da4481f317b9044d88397daef23b9262e5b251e436989b8617bf8fd4",
    ("allones", 1024): "88b4f015cf3eceafe5e72191fa79ab5df77fce7caa992b6ad87a350d523158a4",
    ("allones", 2048): "e1f1cefe68402acd998114d5c12405879fcd6b40931bd87465389a965a4e6082",
}


class TestGenAvoider:
    SUPPORTED = [
        all_ones(3, 1),          # column of ones
        transpose(all_ones(3, 1)),  # row of ones
        identity(2),
        identity(4),
        tuple_identity(2, 2),
        lshape(3, 3),
        cross(3, 3, 2, 2),
        all_ones(2, 2),
        all_ones(3, 3),
    ]

    def test_constructions_avoid_and_are_dense(self):
        for P in self.SUPPORTED:
            for n in (3, 6, 12):
                M = gen_avoider(n, P)
                assert not dispatch(M, P)
                assert count_ones(M) >= n

    def test_small_sizes_against_oracle(self):
        for P in self.SUPPORTED:
            for n in (3, 5, 8):
                assert not contains_naive(gen_avoider(n, P), P)

    def test_identity_2_is_first_row_plus_column(self):
        M = gen_avoider(5, identity(2))
        assert count_ones(M) == 2 * 5 - 1
        assert all(M.get(1, c) for c in range(1, 6))
        assert all(M.get(r, 1) for r in range(1, 6))

    def test_column_pattern_gets_full_rows(self):
        M = gen_avoider(6, all_ones(3, 1))
        assert count_ones(M) == 2 * 6
        assert M.row(1) == b"\x01" * 6 and M.row(2) == b"\x01" * 6

    def test_single_one_unsupported(self):
        with pytest.raises(UnsupportedPatternError):
            gen_avoider(4, all_ones(1, 1))

    @pytest.mark.parametrize("family, n", sorted(BENCHMARK_AVOIDER_SHA256))
    def test_pinned_benchmark_avoiders(self, family, n):
        M = gen_avoider(n, BENCHMARK_FAMILIES[family])
        assert (M.rows, M.cols) == (n, n)
        assert hashlib.sha256(M.cells).hexdigest() == BENCHMARK_AVOIDER_SHA256[family, n]

    def test_general_unsupported(self):
        from patcon import BitMatrix, General, classify_pattern

        P = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert classify_pattern(P) == General()
        with pytest.raises(UnsupportedPatternError):
            gen_avoider(4, P)


class TestFitExponent:
    def test_exact_powers(self):
        meas = [(n, 1e-6 * n**2, 3) for n in (64, 128, 256)]
        assert math.isclose(fit_exponent(meas), 2.0, abs_tol=1e-9)
        meas = [(n, 3e-9 * n**3, 3) for n in (64, 128, 256)]
        assert math.isclose(fit_exponent(meas), 3.0, abs_tol=1e-9)

    def test_single_point_undefined(self):
        assert fit_exponent([(64, 0.1, 3)]) is None


class TestBenchCompare:
    def test_report_shape(self):
        reports = bench_compare(["column", "naive"], all_ones(2, 1), [8, 16], 0.5, 7, 3)
        assert [r.algo for r in reports] == ["column", "naive"]
        for rep in reports:
            assert [n for n, _, _ in rep.measurements] == [8, 16]
            assert all(t == 3 for _, _, t in rep.measurements)
            assert len(rep.runs) == 6
            assert rep.exponent is not None
            assert rep.seed == 7

    def test_single_size_has_no_exponent(self):
        rep = bench_compare(["naive"], all_ones(1, 1), [8], 0.5, 1, 3)[0]
        assert rep.exponent is None
        assert len(rep.measurements) == 1

    def test_booleans_deterministic_across_runs(self):
        a = bench_compare(["identity"], identity(2), [8, 16], 0.5, 3, 3)[0]
        b = bench_compare(["identity"], identity(2), [8, 16], 0.5, 3, 3)[0]
        assert [run[3] for run in a.runs] == [run[3] for run in b.runs]

    def test_naive_and_auto_agree_per_trial(self):
        P = identity(2)
        naive_rep, auto_rep = bench_compare(["naive", "auto"], P, [8, 16], 0.3, 11, 3)
        assert [r[3] for r in naive_rep.runs] == [r[3] for r in auto_rep.runs]

    def test_oracle_cross_check_runs_at_small_sizes(self):
        # all sizes <= 64, so every timed run is cross-checked internally
        bench_compare(["lshape"], lshape(2, 2), [8, 16, 32], 0.4, 5, 3)

    def test_label_pattern_mismatch(self):
        with pytest.raises(BenchConfigError):
            bench_compare(["identity"], all_ones(2, 2), [8, 16], 0.5, 1, 3)

    def test_unknown_label(self):
        with pytest.raises(BenchConfigError):
            bench_compare(["quantum"], identity(2), [8, 16], 0.5, 1, 3)

    def test_falling_medians_warn_like_the_cli(self, monkeypatch, capsys):
        import patcon.bench

        clock = iter([0.0, 2.0] * 3 + [0.0, 1.0] * 3)  # start and end of each timed run
        monkeypatch.setattr(patcon.bench, "perf_counter", lambda: next(clock))
        bench_compare(["naive"], identity(2), [8, 16], 0.5, 1, 3)
        assert capsys.readouterr().err == (
            "patcon: warning: median times for naive are not nondecreasing in n: [2.0, 1.0]\n")

    def test_bad_config(self):
        with pytest.raises(BenchConfigError):
            bench_compare(["naive"], identity(2), [16, 8], 0.5, 1, 3)
        with pytest.raises(BenchConfigError):
            bench_compare(["naive"], identity(2), [8, 16], 0.5, 1, 2)
        with pytest.raises(BenchConfigError):
            bench_compare([], identity(2), [8], 0.5, 1, 3)
        with pytest.raises(BenchConfigError, match="need at least one size"):
            bench_compare(["naive"], identity(2), [], 0.5, 1, 3)
        with pytest.raises(BenchConfigError, match="sizes must be positive"):
            bench_compare(["naive"], identity(2), [0, 8], 0.5, 1, 3)


class TestCsv:
    def test_layout(self, tmp_path):
        reports = bench_compare(["column", "naive"], all_ones(2, 1), [8, 16], 0.5, 7, 3)
        path = tmp_path / "out.csv"
        write_bench_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algo,n,trial,seconds,contains"
        body = lines[1:]
        # per algo: sizes*trials run rows plus one summary row per size
        assert len(body) == 2 * (2 * 3 + 2)
        summaries = [ln for ln in body if ",summary," in ln]
        assert len(summaries) == 4
        for ln in summaries:
            parts = ln.split(",")
            assert len(parts) == 5
            float(parts[3])  # median parses
            float(parts[4])  # exponent parses (two sizes -> defined)

    def test_contains_column_reproducible(self, tmp_path):
        cols = []
        for name in ("a.csv", "b.csv"):
            reports = bench_compare(["allones"], all_ones(2, 2), [8, 16], 0.5, 13, 3)
            path = tmp_path / name
            write_bench_csv(reports, path)
            rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
            cols.append([r[4] for r in rows if r[2] != "summary"])
        assert cols[0] == cols[1]

    def test_undefined_exponent_left_empty(self, tmp_path):
        reports = bench_compare(["naive"], all_ones(1, 1), [8], 0.5, 1, 3)
        path = tmp_path / "one.csv"
        write_bench_csv(reports, path)
        summary = [ln for ln in path.read_text().splitlines() if ",summary," in ln]
        assert summary[0].endswith(",")


class TestRunnerFor:
    """bench times the paper's full scans, never the early-exit kernels."""

    # family's label ("row" for the row of ones, which runs under "column") ->
    # (pattern of that family, paper scan, kernel), names in patcon.fast
    CASES = {
        "column": (all_ones(2, 1), "_cross_tally_scan", "contains_column_ones"),
        "row": (all_ones(1, 2), "_cross_tally_scan", "contains_lshape"),
        "identity": (identity(3), "max_tuple_identity_width", "contains_identity"),
        "tuple-identity": (tuple_identity(2, 2), "max_tuple_identity_width",
                           "contains_tuple_identity"),
        "lshape": (lshape(2, 2), "_cross_tally_scan", "contains_lshape"),
        "cross": (cross(3, 3, 2, 2), "_cross_tally_scan", "contains_cross"),
        "allones": (all_ones(2, 2), "max_allones_rows", "contains_allones"),
    }

    def test_cases_cover_every_label(self):
        """Every family has a case, and so every label has one."""
        families = {type(fast.classify_pattern(P)) for P, _, _ in self.CASES.values()}
        assert families == set(fast.PATTERN_SHAPES)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_label_runs_the_paper_scan(self, case, monkeypatch):
        P, scan, kernel = self.CASES[case]
        real = getattr(fast, scan)
        calls = []

        def recording(*args):
            calls.append(args)
            return real(*args)

        def unexpected(*args):
            raise AssertionError(f"{kernel} ran under bench")

        monkeypatch.setattr(fast, scan, recording)
        monkeypatch.setattr(fast, kernel, unexpected)
        A = gen_random(16, 0.5, 3)
        label = fast.classify_pattern(P).label
        assert fast.decider(label, P, full_scan=True)(A) == contains_naive(A, P)
        assert calls
