"""The pair summary of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_quartiles_are_inclusive():
    q = bench_pairs.quartiles(PARENT)
    assert (q["q1"], q["median"], q["q3"]) == (12.25, 14.5, 16.75)
    assert q["runs"] == PARENT


def test_gain_holds_with_nine_wins_and_a_gap_wider_than_the_iqr():
    change = [p - 6 for p in PARENT]
    change[3] = 13.0  # a tie counts for neither side
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["change"]["median"] == 9.5  # 5.0 below the parent's, whose IQR is 4.5
    assert s["change_over_parent"] == pytest.approx(9.5 / 14.5)
    assert s["change_worse_by"] == pytest.approx(9.5 / 14.5 - 1)
    assert s["parent_iqr_over_median"] == pytest.approx(4.5 / 14.5)
    assert s["gain_rule_holds"] and s["within_bound"]
    assert s["unresolved"]  # the parent's own IQR is 31% of its median, over the 0.25 bound


def test_gain_fails_on_eight_wins_or_a_narrow_gap():
    eight = [p - 5 for p in PARENT[:8]] + PARENT[8:]
    assert not bench_pairs.summarize(PARENT, eight, "lower", 0.25)["gain_rule_holds"]
    narrow = [p - 1 for p in PARENT]  # wins every pair, but 1 < IQR 4.5
    s = bench_pairs.summarize(PARENT, narrow, "lower", 0.25)
    assert s["change_wins"] == 10 and not s["gain_rule_holds"]


def test_higher_is_better_and_the_bound():
    worse = [p * 0.7 for p in PARENT]  # 30% lower throughput
    s = bench_pairs.summarize(PARENT, worse, "higher", 0.25)
    assert s["change_wins"] == 0
    assert s["change_worse_by"] == pytest.approx(0.3)
    assert not s["within_bound"] and not s["gain_rule_holds"]
    better = [p * 1.5 for p in PARENT]
    s = bench_pairs.summarize(PARENT, better, "higher", 0.25)
    assert s["change_wins"] == 10 and s["gain_rule_holds"] and s["within_bound"]


def test_every_change_run_better_than_every_parent_run_is_resolved():
    # The parent's IQR is 31% of its median, over the 0.25 bound.
    assert not bench_pairs.summarize(PARENT, [p - 10 for p in PARENT], "lower", 0.25)["unresolved"]
    assert not bench_pairs.summarize(PARENT, [p + 10 for p in PARENT], "higher", 0.25)["unresolved"]
    touching = [p - 9 for p in PARENT]  # its worst run ties the parent's best
    assert bench_pairs.summarize(PARENT, touching, "lower", 0.25)["unresolved"]
    assert bench_pairs.summarize(PARENT, [p - 10 for p in PARENT], "higher", 0.25)["unresolved"]


def test_compare_reads_each_metric_and_counts_operations():
    def run(value, failed):
        return {"attempted": 5, "failed": failed, "metrics": {"m": {"value": value, "unit": "s"}}}

    entry = bench_pairs.compare([run(2.0, 0), run(4.0, 1)], [run(1.0, 0), run(3.0, 0)],
                                [{"name": "m", "unit": "s", "better": "lower", "bound": 0.25}])
    assert entry["metrics"]["m"]["parent"]["median"] == 3.0
    assert entry["metrics"]["m"]["change_wins"] == 2
    assert entry["operations"] == {"parent": {"attempted": 10, "failed": 1},
                                   "change": {"attempted": 10, "failed": 0}}


def test_unequal_pairs_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, PARENT[:9], "lower", 0.25)
