"""Generators, timing harness, exponent fits, and CSV emission."""

import math

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

    def test_bad_config(self):
        with pytest.raises(BenchConfigError):
            bench_compare(["naive"], identity(2), [16, 8], 0.5, 1, 3)
        with pytest.raises(BenchConfigError):
            bench_compare(["naive"], identity(2), [8, 16], 0.5, 1, 2)
        with pytest.raises(BenchConfigError):
            bench_compare([], identity(2), [8], 0.5, 1, 3)
        with pytest.raises(BenchConfigError):
            bench_compare(["naive"], identity(2), [], 0.5, 1, 3)


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

    # label -> (fitting pattern, paper scan, kernel), names in patcon.fast
    CASES = {
        "column": (all_ones(2, 1), "max_column_ones", "contains_column_ones"),
        "identity": (identity(3), "max_identity", "contains_identity"),
        "tuple-identity": (tuple_identity(2, 2), "max_tuple_identity_width",
                           "contains_tuple_identity"),
        "lshape": (lshape(2, 2), "max_lshape_height", "contains_lshape"),
        "cross": (cross(3, 3, 2, 2), "_cross_tally_scan", "contains_cross"),
        "allones": (all_ones(2, 2), "max_allones_rows", "contains_allones"),
    }

    def test_cases_cover_every_label(self):
        assert set(self.CASES) == set(fast.LABELS)

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_label_runs_the_paper_scan(self, label, monkeypatch):
        P, scan, kernel = self.CASES[label]
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
        assert fast.decider(label, P, full_scan=True)(A) == contains_naive(A, P)
        assert calls
