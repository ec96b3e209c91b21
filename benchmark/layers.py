"""The traced run: per-layer metrics from the same work, done in process.

The run calls the public functions of patcon's modules in the order
``cmd_extremal`` and ``cmd_check`` call them and records a span around each
call. Calls that happen inside the program (dispatch's classify, transpose,
prefilter, scan or oracle; the extremal search's dispatch) are recorded by
replacing the module attributes they are looked up through with recording
stand-ins for the length of the traced pass. The same pass then runs again
with the stand-ins removed, and the difference in wall time is the tracing
overhead. A layer the workload never reaches is timed on the small probe
workload instead, so that every metric has a value; ``layers.json`` names
the source of each.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import workloads
from measure import Cli, Tally
from patcon import extremal, fast, matrix
from spans import NULL_TRACER, Tracer

SCAN_LABELS = ("column", "identity", "tuple-identity", "lshape", "cross", "allones")
IMPORT_SAMPLES = 5

# (module, attribute, span name, outcome key of the result or None)
PATCHES = [
    (fast, "classify_pattern", "matrix.classify", None),
    (fast, "transpose", "matrix.transpose", None),
    (fast, "count_ones", "matrix.count_ones", None),
    (fast, "ones_prefilter", "fast.prefilter", lambda r: r.name),
    (fast, "contains_column_ones", "fast.scan.column", None),
    (fast, "contains_identity", "fast.scan.identity", None),
    (fast, "contains_tuple_identity", "fast.scan.tuple-identity", None),
    (fast, "contains_lshape", "fast.scan.lshape", None),
    (fast, "contains_cross", "fast.scan.cross", None),
    (fast, "contains_allones", "fast.scan.allones", None),
    (fast, "contains_naive", "naive.oracle", None),
    (extremal, "dispatch", "fast.dispatch", bool),
    (extremal, "contains_naive", "naive.oracle", None),
]


@contextmanager
def patched(tr: Tracer):
    """Route the program's internal calls through recording stand-ins."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
    for mod, attr, name, outcome in PATCHES:
        setattr(mod, attr, tr.wrap(getattr(mod, attr), name, outcome))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


class Pass:
    """One in-process pass over a workload: its extremal pairs, then its checks."""

    def __init__(self, wl, inputs, workdir, seed, tally, prefix=""):
        self.wl, self.inputs, self.workdir = wl, inputs, workdir
        self.tally, self.prefix = tally, prefix
        self.checks = list(inputs.checks)
        self.caches = {name: os.path.join(workdir, f"cache_{name}_{n}.txt") for name, n in wl.pairs}
        self.own = {}  # pair name -> the checks of its witness, once built
        self.rng = random.Random(seed)

    def run(self, tr) -> list:
        """Run the pass under tracer tr; returns the in-process seconds of each check."""
        for name, n in self.wl.pairs:
            tr.new_op(self.prefix + "extremal", f"{name} n={n}")
            pattern = self.inputs.patterns["x" + name]
            with tr.span("cli.extremal"):
                with tr.span("matrix.parse"):
                    P = matrix.parse_matrix(_read(pattern))
                with tr.span("extremal.solve." + name, n * n, rollup=True):
                    rec = extremal.ex_exact(n, P)
                with tr.span("extremal.save_cache"):
                    extremal.save_cache([rec], self.caches[name])
            tr.new_op(self.prefix + "verify", f"{name} n={n}")
            reason = workloads.verify_records(name, n, [(rec.n, rec.value, rec.witness)])
            self.tally.add(reason)
            if self.wl.witness_checks and name not in self.own:
                self.own[name] = workloads.witness_checks(
                    self.workdir, name, n, rec.witness, self.caches[name], pattern, self.rng)
                self.checks += self.own[name]
        seconds = []
        for chk in self.checks:
            tr.new_op(self.prefix + "check", chk.label)
            t0 = perf_counter()
            result = self._check(tr, chk)
            seconds.append(perf_counter() - t0)
            want = "CONTAINS" if chk.expected else "AVOIDS"
            self.tally.add(None if result == chk.expected else f"{chk.label}: in process, wanted {want}")
        return seconds

    @staticmethod
    def _check(tr, chk) -> bool:
        with tr.span("cli.check"):
            text = _read(chk.matrix)
            with tr.span("matrix.parse_sparse" if chk.sparse else "matrix.parse", chk.cells):
                A = matrix.parse_matrix(text)
            text = _read(chk.pattern)
            with tr.span("matrix.parse"):
                P = matrix.parse_matrix(text)
            with tr.span("matrix.classify"):
                matrix.classify_pattern(P)
            bounds = None
            if chk.bounds and os.path.exists(chk.bounds):
                with tr.span("extremal.cache_load"):
                    bounds = extremal.bounds_from_cache(chk.bounds, P)
            with tr.span("fast.dispatch", chk.cells):
                result = fast.dispatch(A, P, bounds)
        # Costs `patcon check` pays inside parse or only with --bounds, timed on their own.
        with tr.span("matrix.validate", chk.cells):
            matrix.BitMatrix(A.rows, A.cols, A.cells)
        with tr.span("matrix.count_ones", chk.cells):
            matrix.count_ones(A)
        return result


def import_seconds(cli: Cli) -> float:
    """Median time of `import patcon` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import patcon; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=cli.root, env=cli.env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


class _Source:
    """Stats of the workload's ops, falling back to the probe's for names it never reached."""

    def __init__(self, tr: Tracer, kinds):
        self.ops = tr.op_ids(kinds)
        self.probe_ops = tr.op_ids({"probe." + k for k in kinds})
        self.stats = tr.stats(self.ops)
        self.probe = tr.stats(self.probe_ops)
        self.used = {}  # metric -> "workload" or "probe"

    def pick(self, metric, names):
        """(stats per name, ops) for the given span names, from the workload if any was called."""
        if any(self.stats.get(n, {}).get("calls") for n in names):
            self.used[metric] = "workload"
            return self.stats, self.ops
        self.used[metric] = "probe"
        return self.probe, self.probe_ops

    def total(self, metric, names, field="busy_s"):
        stats, _ = self.pick(metric, names)
        return sum(stats.get(n, {}).get(field, 0) for n in names)

    def per_cell(self, metric, names, scale):
        stats, _ = self.pick(metric, names)
        busy = sum(stats.get(n, {}).get("busy_s", 0.0) for n in names)
        cells = sum(stats.get(n, {}).get("cells", 0) for n in names)
        return busy / cells * scale if cells else 0.0


def run_traced(wl, root, workdir, seed, outdir):
    """Traced pass, untraced pass, probe and child timings; returns (metrics, details, tally)."""
    cli = Cli(root)
    tally = Tally()
    tr = Tracer()
    with patched(tr):
        tr.new_op("setup", wl.name)
        inputs = workloads.setup(wl, workdir, seed, tr)
        for label in workloads.oracle_disagreements(inputs.checks):
            tally.add(f"{label}: contains_naive disagrees with the constructed verdict")
    # Untraced first, so that any first-pass cost is not charged to tracing.
    work = Pass(wl, inputs, workdir, seed, tally)
    t0 = perf_counter()
    inproc = work.run(NULL_TRACER)
    untraced_s = perf_counter() - t0
    with patched(tr):
        t0 = perf_counter()
        work.run(tr)
        traced_s = perf_counter() - t0

    probe_dir = os.path.join(workdir, "probe")
    with patched(tr):
        tr.new_op("probe.setup", workloads.PROBE.name)
        probe_inputs = workloads.setup(workloads.PROBE, probe_dir, seed, tr)
        Pass(workloads.PROBE, probe_inputs, probe_dir, seed, tally, prefix="probe.").run(tr)

    overheads = []
    for chk, inproc_s in zip(work.checks, inproc):
        wall, reason = cli.check(chk)
        tally.add(reason)
        overheads.append(wall - inproc_s)
    import_s = import_seconds(cli)

    src = _Source(tr, {"check", "extremal"})
    setup_src = _Source(tr, {"setup"})
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.overhead_s": (statistics.median(overheads) if overheads else 0.0, "s"),
        "matrix.parse_s": (src.total("matrix.parse_s", ["matrix.parse"]), "s"),
        "matrix.parse_ns_per_cell": (src.per_cell("matrix.parse_ns_per_cell", ["matrix.parse"], 1e9), "ns/cell"),
        "matrix.parse_sparse_s": (src.total("matrix.parse_sparse_s", ["matrix.parse_sparse"]), "s"),
        "matrix.validate_s": (src.total("matrix.validate_s", ["matrix.validate"]), "s"),
        "matrix.classify_s": (src.total("matrix.classify_s", ["matrix.classify"]), "s"),
        "matrix.transpose_s": (src.total("matrix.transpose_s", ["matrix.transpose"]), "s"),
        "matrix.count_ones_s": (src.total("matrix.count_ones_s", ["matrix.count_ones"]), "s"),
        "matrix.serialize_s": (
            setup_src.total("matrix.serialize_s", ["matrix.serialize", "matrix.serialize_sparse"]), "s"),
        "fast.dispatch_s": (src.total("fast.dispatch_s", ["fast.dispatch"]), "s"),
        "fast.dispatch_self_s": (src.total("fast.dispatch_self_s", ["fast.dispatch"], "self_s"), "s"),
    }
    scans = ["fast.scan." + label for label in SCAN_LABELS]
    for label, name in zip(SCAN_LABELS, scans):
        m["fast.scan_s." + label] = (src.total("fast.scan_s." + label, [name]), "s")
    m["fast.scan_ns_per_cell"] = (src.per_cell("fast.scan_ns_per_cell", scans, 1e9), "ns/cell")
    m["fast.prefilter_s"] = (src.total("fast.prefilter_s", ["fast.prefilter"]), "s")
    stats, ops = src.pick("fast.prefilter_decided_ratio", ["fast.prefilter"])
    attempts = stats.get("fast.prefilter", {}).get("calls", 0)
    decided = tr.outcome_count(ops, "fast.prefilter", "CONTAINS")
    m["fast.prefilter_decided_ratio"] = (decided / attempts if attempts else 0.0, "ratio")
    m["naive.oracle_s"] = (src.total("naive.oracle_s", ["naive.oracle"]), "s")
    m["naive.oracle_calls"] = (src.total("naive.oracle_calls", ["naive.oracle"], "calls"), "count")

    solve_ops = tr.op_ids({"extremal"})
    for name, n in wl.pairs:
        ops = tr.op_ids({"extremal"}, f"{name} n={n}")
        s = tr.stats(ops)
        m[f"extremal.solve_s.{name}"] = (s["extremal.solve." + name]["busy_s"], "s")
        m[f"extremal.dispatch_calls.{name}"] = (s.get("fast.dispatch", {}).get("calls", 0), "count")
    s = tr.stats(solve_ops).get("fast.dispatch", {"calls": 0, "busy_s": 0.0})
    calls_total, busy_total = s["calls"], s["busy_s"]
    avoids = tr.outcome_count(solve_ops, "fast.dispatch", False)
    m["extremal.us_per_dispatch"] = (busy_total / calls_total * 1e6 if calls_total else 0.0, "us")
    m["extremal.extend_ratio"] = (avoids / calls_total if calls_total else 0.0, "ratio")
    m["extremal.cache_load_s"] = (src.total("extremal.cache_load_s", ["extremal.cache_load"]), "s")
    m["bench.gen_random_s"] = (setup_src.total("bench.gen_random_s", ["bench.gen_random"]), "s")
    m["bench.gen_avoider_s"] = (setup_src.total("bench.gen_avoider_s", ["bench.gen_avoider"]), "s")
    m["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")

    os.makedirs(outdir, exist_ok=True)
    spans_path = os.path.join(outdir, f"spans-{wl.name}-{seed}.jsonl")
    tr.write(spans_path)
    summary = {
        "workload": wl.name,
        "seed": seed,
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        "metric_source": {**src.used, **setup_src.used},
        "spans": src.stats,
        "layers": tr.layers(src.ops),
        "setup_spans": setup_src.stats,
        "probe_spans": src.probe,
    }
    with open(os.path.join(outdir, f"layers-{wl.name}-{seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    details = {"spans_file": os.path.relpath(spans_path, root), "spans": len(tr.spans),
               "rolled_up_records": len(tr.rollups)}
    return m, details, tally
