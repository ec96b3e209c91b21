"""``tools/bench_pairs.py``: its pair summary on fixed numbers, its git export and its document."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

REPO = TOOL.parents[1]
IN_GIT = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=REPO,
                        capture_output=True, text=True).stdout.strip() == "true"
needs_git = pytest.mark.skipif(not IN_GIT, reason="the tool exports commits of a git work tree")

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


def head_id():
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                          text=True, check=True).stdout.strip()


@needs_git
def test_export_unpacks_the_commit_alone(tmp_path):
    assert bench_pairs.export("HEAD", str(tmp_path)) == head_id()
    assert (tmp_path / "benchmark" / "run.py").is_file()
    names = {name for _, dirs, files in os.walk(tmp_path) for name in dirs + files}
    assert ".git" not in names and "__pycache__" not in names


@needs_git
def test_main_writes_one_document_of_alternating_pairs(tmp_path, monkeypatch):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    side_of, calls = {}, []
    export = bench_pairs.export

    def recording_export(rev, tree):
        side_of[tree] = "parent" if rev == "HEAD" else "change"
        return export(rev, tree)

    def run_once(tree, workload, seed, seconds):
        assert seconds == spec["run_seconds"]
        calls.append((workload, seed, side_of[tree]))
        value = 2.0 if side_of[tree] == "parent" else 1.0
        return {"seed": seed, "correct": True, "attempted": 3, "failed": 0,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in metrics}}

    monkeypatch.setattr(bench_pairs, "export", recording_export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    # HEAD~0 is HEAD under another name, so the two trees can be told apart.
    assert bench_pairs.main(["--parent", "HEAD", "--change", "HEAD~0", "--seeds", "5,6,7",
                             "--workloads", "extremal,check_random", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["parent"] == doc["change"] == head_id()
    assert list(doc["workloads"]) == ["extremal", "check_random"]
    order = ["parent", "change", "change", "parent", "parent", "change"]
    for workload, entry in doc["workloads"].items():
        assert [side for w, _, side in calls if w == workload] == order
        assert [seed for w, seed, _ in calls if w == workload] == [5, 5, 6, 6, 7, 7]
        assert entry["seeds"] == [5, 6, 7]
        assert entry["first_side_per_pair"] == ["parent", "change", "parent"]
        assert set(entry["metrics"]) == {m["name"] for m in metrics}
        s = entry["metrics"]["extremal_s"]
        assert (s["parent"]["median"], s["change"]["median"], s["change_wins"]) == (2.0, 1.0, 3)
        assert entry["operations"]["parent"] == {"attempted": 9, "failed": 0}
        assert entry["runs"]["change"][0] == {
            "seed": 5, "correct": True, "metrics": {m["name"]: 1.0 for m in metrics}}
    assert side_of and not any(os.path.exists(tree) for tree in side_of)


@needs_git
def test_unknown_workload_fails_before_the_first_run(tmp_path, monkeypatch, capsys):
    def run_once(*args):
        raise AssertionError("ran a workload before checking the names")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--seeds", "1",
                          "--workloads", "extremal,nope", "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("--workloads: not in BENCHMARK.json: nope\n")
