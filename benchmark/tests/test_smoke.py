"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmark/tests

Runs every workload through benchmark/run.py with --tiny, traced and
untraced, and checks that every metric BENCHMARK.json names is printed with
its unit, that a wrong expected verdict is caught, and that the benchmark
refuses to run where there are no patcon sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workdir, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--seed", "5", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(tmp_path, workload, trace):
    proc, res = run(tmp_path, "--workload", workload, "--trace", str(trace), "--tiny",
                    "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
        line = re.compile(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$", re.M)
        assert line.search(proc.stderr), m["name"]
    assert re.search(r"^fail_ratio = 0 ratio", proc.stderr, re.M)


@pytest.mark.parametrize("workload", ["check_fullscan", "extremal"])
def test_wrong_expected_verdict_fails_the_run(tmp_path, workload):
    proc, res = run(tmp_path, "--workload", workload, "--trace", "0", "--tiny",
                    "--workdir", str(tmp_path), "--wrong-expectation")
    assert proc.returncode != 0
    assert res["correct"] is False and res["failed"] >= 1
    with open(tmp_path / "results" / f"{workload}-5-trace0.json") as fh:
        assert json.load(fh)["fail_ratio"] > 0
    assert re.search(r"^fail_ratio = 0\.\d+", proc.stderr, re.M)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc, res = run(tmp_path, "--workload", "check_random", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert res is None
