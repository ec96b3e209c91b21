"""Run the benchmark as alternating pairs of two git revisions and summarise them.

    python tools/bench_pairs.py --parent REV --change REV --seeds 1,2,3 \
        [--workloads W1,W2] [--out BENCH.json]

Each REV is resolved with ``git rev-parse --verify REV^{commit}`` in the
repository that holds this tool and unpacked with ``git archive`` into a
fresh temporary tree, deleted at the end, so each side runs exactly its
commit's files: no ``.git``, no bytecode, nothing a test run left behind.
For each workload (default: every one in the change's ``BENCHMARK.json``;
a name it does not list fails before the first run) and each seed, in
order, the tool runs
``python3 benchmark/run.py --workload W --seed S --seconds T --trace 0``,
with T the change's ``run_seconds``, once in each tree, the parent first on
even pairs and the change first on odd ones, and reads the JSON on the
run's last line of output. For each
end-to-end metric of the change's ``BENCHMARK.json`` the workload's entry
holds each side's runs, median and quartiles, the change's wins, whether
the gain rule holds (wins on at least 9 of 10 pairs and a gap between the
medians wider than the parent's interquartile range) and whether the metric
stays within its bound.

The one JSON document, with the full ids of both commits and an entry per
workload, goes to ``--out`` or to stdout. ``--out`` is opened, and emptied,
before the first run, so a path that cannot be written fails at once.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

GAIN_SHARE = 0.9  # the change must win at least this share of the pairs


def quartiles(values) -> dict:
    """q1, median and q3 (``statistics.quantiles``, inclusive method) and the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": list(values)}


def summarize(parent, change, better: str, bound: float) -> dict:
    """The comparison of one metric over pairs: parent[i] and change[i] are pair i's runs.

    ``change_worse_by`` is the relative move of the change's median in the
    worse direction (negative when it improved); the metric is within its
    bound when that is at most ``bound``. It is unresolved when the
    parent's own interquartile range, relative to its median, exceeds the
    bound, unless every change run is better than every parent run. The
    gain rule holds when the change is better in at least 90% of the pairs
    and its median is better than the parent's by more than the parent's
    interquartile range.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs with one run on each side")
    p, c = quartiles(parent), quartiles(change)
    lower = better == "lower"
    ratio = c["median"] / p["median"] if p["median"] else float("inf")
    worse_by = ratio - 1 if lower else 1 - ratio
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    gap = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    iqr_over_median = iqr / p["median"] if p["median"] else float("inf")
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_over_parent": ratio,
        "change_wins": wins,
        "pairs": len(parent),
        "change_worse_by": worse_by,
        "parent_iqr_over_median": iqr_over_median,
        "gain_rule_holds": wins >= GAIN_SHARE * len(parent) and gap > iqr,
        "within_bound": worse_by <= bound,
        "unresolved": iqr_over_median > bound and not all_better,
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: the JSON of its last line, with the seed."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"benchmark run in {checkout} failed: {proc.stderr.strip()[-500:]}")
    return {"seed": seed, **json.loads(lines[-1])}


def export(rev: str, tree: str) -> str:
    """Unpack commit ``rev`` of this repository into the directory ``tree``; its full id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=REPO, stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", tree], input=tar.stdout, check=True)
    return commit


def compare(parent_runs, change_runs, metrics) -> dict:
    """The workload entry: the summary of each end-to-end metric, the operations and the runs."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        values = [[run["metrics"][name]["value"] for run in runs]
                  for runs in (parent_runs, change_runs)]
        out[name] = {"unit": spec["unit"], **summarize(*values, spec["better"], spec["bound"])}
    ops = {side: {key: sum(r[key] for r in runs) for key in ("attempted", "failed")}
           for side, runs in zip(SIDES, (parent_runs, change_runs))}
    return {"metrics": out, "operations": ops}


def run_pairs(trees: dict, workload: str, seeds, seconds: float, metrics) -> dict:
    """The workload's entry: one pair of runs per seed, the parent first on even pairs."""
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(trees[side], workload, seed, seconds)
            runs[side].append(run)
            print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} {side}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()),
                  file=sys.stderr)
    entry = {"seeds": seeds, "first_side_per_pair": [SIDES[i % 2] for i in range(len(seeds))],
             **compare(runs["parent"], runs["change"], metrics),
             "runs": {side: [{"seed": r["seed"], "correct": r["correct"],
                              "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                             for r in rs] for side, rs in runs.items()}}
    for name, m in entry["metrics"].items():
        print(f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
              f"wins {m['change_wins']}/{m['pairs']} gain_rule {m['gain_rule_holds']} "
              f"within_bound {m['within_bound']}", file=sys.stderr)
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent commit")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    p.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    p.add_argument("--out", type=argparse.FileType("w"), default="-", help="default: stdout")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        trees = {"parent": parent, "change": change}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        spec = json.loads(Path(change, "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        workloads = args.workloads.split(",") if args.workloads else names
        if unknown := [w for w in workloads if w not in names]:
            p.error(f"--workloads: not in BENCHMARK.json: {','.join(unknown)}")
        seconds = spec["run_seconds"]
        doc = {"what": f"python3 benchmark/run.py --workload W --seed S --seconds {seconds:g}"
                       " --trace 0, alternating parent/change pairs of git archives", **commits,
               "workloads": {w: run_pairs(trees, w, seeds, seconds, spec["end_to_end"])
                             for w in workloads}}
    with args.out:
        args.out.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
