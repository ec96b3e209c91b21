"""patcon benchmark: one workload, one run, metrics as JSON on the last line.

    python3 benchmark/run.py --workload check_fullscan --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; nothing needs to be
installed. The run generates its inputs from --seed under .benchrun/, drives
`python -m patcon.cli` in child processes one at a time (a closed loop with one
client), checks every verdict and extremal value, and prints one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones from those children; with --trace 1 the run
instead does the same work in process with spans around each layer and
reports per-layer metrics (see layers.py). A human-readable summary,
fail_ratio and the environment go to stderr and to .benchrun/results/.

The exit code is 0 when every operation gave the right answer, 1 when one did
not (the JSON is still printed) and 2 when the run could not be made.
--tiny and --wrong-expectation exist for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("check_fullscan", "check_random", "extremal")


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "load": "closed loop, one client, one patcon child process at a time",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the measured loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", default=os.path.join(ROOT, ".benchrun"))
    p.add_argument("--tiny", action="store_true", help="the workload at test sizes")
    p.add_argument("--wrong-expectation", action="store_true",
                   help="invert one expected verdict, to test that failures are caught")
    return p.parse_args(argv)


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "patcon", "__init__.py")):
        print(f"benchmark: no patcon sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import layers
    import measure
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)
    inputs_dir = os.path.join(args.workdir, "inputs", f"{wl.name}-{args.seed}-{args.trace}")
    shutil.rmtree(inputs_dir, ignore_errors=True)
    try:
        if args.trace:
            if args.wrong_expectation:
                print("benchmark: --wrong-expectation applies to --trace 0", file=sys.stderr)
                return 2
            metrics, details, tally = layers.run_traced(
                wl, ROOT, inputs_dir, args.seed, os.path.join(args.workdir, "trace")
            )
        else:
            metrics, details, tally = measure.run_untraced(
                wl, ROOT, inputs_dir, args.seed, args.seconds, args.wrong_expectation
            )
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    failed = len(tally.failures)
    fail_ratio = failed / tally.attempted if tally.attempted else 1.0
    result = {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "environment": environment(ROOT), "fail_ratio": fail_ratio,
        "failures": tally.failures, "details": details, "run_s": perf_counter() - start,
        "result": result,
    }
    results_dir = os.path.join(args.workdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{wl.name}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, (v, u) in metrics.items():
        print(f"{name} = {v:.6g} {u}", file=sys.stderr)
    print(f"fail_ratio = {fail_ratio:.6g} ratio ({failed} of {tally.attempted})", file=sys.stderr)
    brief = {k: v for k, v in details.items() if k != "check_samples"}
    print(f"details: {json.dumps(brief)} run_s={record['run_s']:.1f}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
