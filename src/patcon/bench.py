"""Input generators, wall-clock measurement, and empirical complexity exponents.

``bench_compare`` times containment scans on pseudorandom matrices across a
ladder of sizes and fits the slope of log median-time against log n. A
selector resolves by ``fast.decider`` as in ``check --algo``, but a scan
label times its family's full scan: the worst-case cost claims being checked
are about complete scans, and on random inputs the early-exit kernels would
mostly measure how soon a threshold fires. The verdict is still derived
from the scanned statistic and, for sizes up to 64, cross-checked against
the brute-force oracle.

Generation is deterministic: ``gen_random(n, density, seed)`` fills cells
row-major with one Mersenne Twister draw each, so identical arguments give
identical matrices on every platform and run.
"""

from __future__ import annotations

import logging
import math
import random
import statistics
from time import perf_counter

from .matrix import BitMatrix, Frozen, classify_pattern
from .naive import contains_naive
from .fast import FAMILIES, BenchConfigError, UnsupportedPatternError, decider, dispatch

log = logging.getLogger(__name__)


def gen_random(n: int, density: float, seed: int) -> BitMatrix:
    """n x n matrix with i.i.d. ones at the given density.

    Cell (r, c) is 1 iff the next float of ``random.Random(seed)`` is below
    ``density``, drawn row-major. The generator algorithm is fixed, so the
    output is reproducible across runs and platforms.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    draw = rng.random
    return BitMatrix(n, n, bytes(1 if draw() < density else 0 for _ in range(n * n)))


def gen_avoider(n: int, P: BitMatrix) -> BitMatrix:
    """Dense n x n matrix avoiding P, for worst-case full-scan inputs.

    The construction is the avoider of P's family in ``fast.FAMILIES``.
    Every output is re-verified by dispatch before it is returned.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cls = classify_pattern(P)
    family = FAMILIES.get(type(cls))
    if family is None:
        raise UnsupportedPatternError(f"no avoider construction for {cls!r}")
    M = family.avoider(n, *cls.__dict__.values())
    if dispatch(M, P):
        raise RuntimeError(f"avoider construction for {cls!r} failed verification")
    return M


class BenchReport(Frozen):
    """Timing summary for one algorithm label.

    ``measurements`` holds (n, median_seconds, trials) per size in increasing
    order; ``exponent`` is the least-squares slope of log median against
    log n, or None with fewer than two sizes. ``runs`` keeps the raw
    (n, trial, seconds, contains) tuples for CSV emission.
    """

    _fields = ("algo", "measurements", "exponent", "generator", "seed", "runs")


def fit_exponent(measurements) -> float | None:
    """Slope of the least-squares line through (log n, log median-seconds)."""
    if len(measurements) < 2:
        return None
    xs = [math.log(n) for n, _, _ in measurements]
    ys = [math.log(max(med, 1e-12)) for _, med, _ in measurements]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def bench_compare(algos, P: BitMatrix, sizes, density: float, seed: int, trials: int):
    """Time each labeled algorithm on shared generated inputs; fit exponents.

    Per size, ``trials`` matrices are generated with seeds seed, seed+1, ...
    and shared across all labels; each label gets one untimed warm-up on the
    first matrix, then one timed run per matrix. Boolean outcomes at n <= 64
    are cross-checked against the brute-force oracle. Timing excludes
    generation.
    """
    sizes = list(sizes)
    if not sizes or any(n < 1 for n in sizes):
        raise BenchConfigError("sizes must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise BenchConfigError("sizes must be strictly increasing")
    if trials < 3:
        raise BenchConfigError("need at least 3 trials per size")
    if not algos:
        raise BenchConfigError("need at least one algorithm label")
    if not 0.0 <= density <= 1.0:
        raise BenchConfigError("density must lie in [0, 1]")

    runners = [(label, decider(label, P, full_scan=True)) for label in algos]
    inputs = {n: [gen_random(n, density, seed + t) for t in range(trials)] for n in sizes}

    reports = []
    for label, runner in runners:
        measurements = []
        runs = []
        for n in sizes:
            mats = inputs[n]
            runner(mats[0])  # warm-up, discarded
            times = []
            for t, A in enumerate(mats):
                t0 = perf_counter()
                res = bool(runner(A))
                dt = perf_counter() - t0
                if n <= 64 and res != contains_naive(A, P):
                    raise RuntimeError(
                        f"{label} disagreed with the oracle at n={n}, trial {t}"
                    )
                times.append(dt)
                runs.append((n, t, dt, res))
            measurements.append((n, statistics.median(times), trials))
        medians = [med for _, med, _ in measurements]
        if any(b < a for a, b in zip(medians, medians[1:])):
            log.warning("median times for %s are not nondecreasing in n: %s", label, medians)
        reports.append(
            BenchReport(
                algo=label,
                measurements=tuple(measurements),
                exponent=fit_exponent(measurements),
                generator=f"random(density={density})",
                seed=seed,
                runs=tuple(runs),
            )
        )
    return reports


def write_bench_csv(reports, path):
    """Emit per-run rows and per-size summary rows.

    Header is ``algo,n,trial,seconds,contains``; summary rows reuse the
    layout with trial=summary, the median in the seconds column, and the
    fitted exponent (empty when undefined) in the last column.
    """
    lines = ["algo,n,trial,seconds,contains"]
    for rep in reports:
        for n, t, dt, res in rep.runs:
            lines.append(f"{rep.algo},{n},{t},{dt:.9f},{'true' if res else 'false'}")
        exp = "" if rep.exponent is None else f"{rep.exponent:.6f}"
        for n, med, _ in rep.measurements:
            lines.append(f"{rep.algo},{n},summary,{med:.9f},{exp}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
