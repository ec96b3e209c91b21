"""End-to-end measurement: the real CLI in child processes, one at a time.

A run is a closed loop with one client: each `python -m patcon.cli` child
starts only after the previous one has exited. A round runs the workload's
extremal pairs once and every check ``check_repeats`` times, in an order
fixed by the seed. Rounds repeat until ``seconds`` have passed and at least
``min_rounds`` have run, so that the sample mix does not depend on the
machine's speed of the moment.
"""

from __future__ import annotations

import os
import random
import re
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from patcon import extremal

CHILD_TIMEOUT_S = 150
SETUP_MIN_S = 0.2  # set-up repeats until it has taken this long in total ...
SETUP_MAX_REPEATS = 200  # ... or this many times, and at least twice
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it

_EX_LINE = re.compile(r"^ex\((\d+),P\) = (\d+)$")


class Cli:
    """Runs `python -m patcon.cli` with the checkout's src on the import path."""

    def __init__(self, root: str):
        self.root = root
        path = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=path + (os.pathsep + old if old else ""))

    def run(self, args):
        """(wall seconds, exit code, stdout, stderr); exit code None on timeout."""
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "patcon.cli", *args],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, None, "", "timeout"
        return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr

    def check(self, chk: workloads.Check):
        """(wall, failure reason or None) for one check."""
        args = ["check", "--matrix", chk.matrix, "--pattern", chk.pattern]
        if chk.bounds:
            args += ["--bounds", chk.bounds]
        wall, code, out, err = self.run(args)
        want = "CONTAINS" if chk.expected else "AVOIDS"
        words = out.split()
        if code != (0 if chk.expected else 1) or not words or words[0] != want or "internal error" in err:
            return wall, f"{chk.label}: wanted {want}, got exit {code} {out.strip()!r} {err.strip()!r}"
        return wall, None

    def extremal(self, name: str, n: int, pattern: str, cache: str):
        """(wall, failure reason or None, witness) for `patcon extremal --n n --cache-out`."""
        wall, code, out, err = self.run(
            ["extremal", "--pattern", pattern, "--n", str(n), "--cache-out", cache]
        )
        m = _EX_LINE.match(out.strip())
        if code != 0 or m is None or "internal error" in err:
            return wall, f"ex({n},{name}): exit {code} {out.strip()!r} {err.strip()!r}", None
        if int(m.group(2)) != workloads.expected_ex(name, n):
            return wall, f"ex({n},{name}) printed {m.group(2)}, expected {workloads.expected_ex(name, n)}", None
        loaded = extremal.load_cache(cache)
        reason = workloads.verify_records(name, n, loaded)
        return wall, reason, None if reason else loaded[0][2]


def timed_setup(wl, workdir, seed):
    """Set up repeatedly; (median seconds, repeats, inputs of the last set-up)."""
    times = []
    total = 0.0
    while len(times) < 2 or (total < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        inputs = workloads.setup(wl, workdir, seed)
        dt = perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times), len(times), inputs


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    i = len(s) - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / len(s)


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, reason):
        self.attempted += 1
        if reason:
            self.failures.append(reason)
            print(f"FAIL {reason}", file=sys.stderr)


def run_untraced(wl, root, workdir, seed, seconds, wrong_expectation=False):
    """Measure the end-to-end metrics; returns (metrics, details, tally)."""
    cli = Cli(root)
    tally = Tally()
    setup_s, setup_repeats, inputs = timed_setup(wl, workdir, seed)
    checks = list(inputs.checks)
    for label in workloads.oracle_disagreements(checks):
        tally.add(f"{label}: contains_naive disagrees with the constructed verdict")
    rng = random.Random(seed)
    rng.shuffle(checks)
    if wrong_expectation and checks:
        checks[0].expected = not checks[0].expected

    caches = {name: os.path.join(workdir, f"cache_{name}_{n}.txt") for name, n in wl.pairs}
    own = {}  # pair name -> the checks of its witness, once built
    check_walls, check_cells, passes, samples = [], 0, [], []

    def run_checks(batch):
        nonlocal check_cells
        for chk in batch:
            wall, reason = cli.check(chk)
            tally.add(reason)
            check_walls.append(wall)
            check_cells += chk.cells
            samples.append((chk.label, round(wall, 6)))

    # Each pair's witness checks follow its extremal run, so that the checks
    # sample the whole run and not only its end.
    rounds = 0
    start = perf_counter()
    while True:
        rounds += 1
        pass_wall = 0.0
        for name, n in wl.pairs:
            pattern = inputs.patterns["x" + name]
            wall, reason, witness = cli.extremal(name, n, pattern, caches[name])
            tally.add(reason)
            pass_wall += wall
            if wl.witness_checks and name not in own and witness is not None:
                own[name] = workloads.witness_checks(workdir, name, n, witness, caches[name], pattern, rng)
                for label in workloads.oracle_disagreements(own[name]):
                    tally.add(f"{label}: contains_naive disagrees with the constructed verdict")
                if wrong_expectation and len(own) == 1:
                    own[name][0].expected = not own[name][0].expected
            run_checks(own.get(name, []) * wl.check_repeats)
        passes.append(pass_wall)
        run_checks(checks * wl.check_repeats)
        if rounds >= wl.min_rounds and perf_counter() - start >= seconds:
            break

    metrics = {"setup_s": (setup_s, "s")}
    details = {"setup_repeats": setup_repeats, "rounds": rounds, "checks": len(check_walls),
               "extremal_passes_s": passes, "check_samples": samples}
    if check_walls:
        tail_s, pct = tail(check_walls)
        metrics["check_p50_s"] = (statistics.median(check_walls), "s")
        metrics["check_tail_s"] = (tail_s, "s")
        metrics["check_mcells_per_s"] = (check_cells / sum(check_walls) / 1e6, "Mcell/s")
        details["check_tail_percentile"] = round(pct, 1)
    metrics["extremal_s"] = (statistics.median(passes), "s")
    details["extremal_pairs"] = [f"({n},{name})" for name, n in wl.pairs]
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    return metrics, details, tally
