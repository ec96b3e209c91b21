"""Input generators, wall-clock measurement, and empirical complexity exponents.

``bench_compare`` times containment scans on pseudorandom matrices across a
ladder of sizes and fits the slope of log median-time against log n. A
selector resolves by ``fast.decider`` as in ``check --algo``, but a scan
label times its family's full scan: the worst-case cost claims being checked
are about complete scans, and on random inputs the early-exit kernels would
mostly measure how soon a threshold fires. The verdict is the scan's: a
``max_*`` scan's statistic against the pattern's size, or the tally scan's
own verdict for lines, L-shapes and crosses. For sizes up to 64 it is
cross-checked against the brute-force oracle.

Generation is deterministic: ``gen_random(n, density, seed)`` decides cell
(r, c) by the (r·n + c)-th ``random()`` float of ``random.Random(seed)``,
so identical arguments give identical matrices on every platform and run.
It takes a row's draws from the Mersenne Twister in one call rather than
one per cell, and reads the same words ``random()`` would.
"""

from __future__ import annotations

import math
import random
import statistics
import struct
import sys
from time import perf_counter

from .matrix import BitMatrix, Frozen
from .naive import contains_naive
from . import fast
from .fast import BenchConfigError, General, UnsupportedPatternError, decider, dispatch


def gen_random(n: int, density: float, seed: int) -> BitMatrix:
    """n x n matrix with i.i.d. ones at the given density.

    Cell (r, c) is 1 iff the next float of ``random.Random(seed)`` is below
    ``density``, drawn row-major. The generator algorithm is fixed, so the
    output is reproducible across runs and platforms.

    Each row takes its n draws in one ``getrandbits(64 * n)`` call. CPython
    fills that integer from its least significant 32-bit word up, so its
    little-endian bytes hold the 2n words that n ``random()`` calls would
    consume, in order. ``random()`` returns exactly (a * 2**26 + b) / 2**53
    with a = w0 >> 5 and b = w1 >> 6 for its words w0, w1, so the draw is
    below ``density`` exactly when a * 2**26 + b < thr = ceil(density * 2**53),
    an exact integer. The top byte of w0 is that 53-bit value >> 45: a byte
    below thr >> 45 makes a 1, a byte above it a 0, and the cells whose byte
    equals it (about 1 in 256) are decided by the full comparison.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    thr = math.ceil(density * 2**53)
    edge = thr >> 45  # 256 when density is 1: every top byte is below it
    table = bytes(1 if t < edge else 0 for t in range(256))
    getrandbits = random.Random(seed).getrandbits
    cells = bytearray(n * n)
    for start in range(0, n * n, n):
        words = getrandbits(64 * n).to_bytes(8 * n, "little")
        tops = words[3::8]  # top byte of each draw's first word
        cells[start:start + n] = tops.translate(table)
        j = tops.find(edge) if edge < 256 else -1
        while j >= 0:
            w0, w1 = struct.unpack_from("<II", words, 8 * j)
            if ((w0 >> 5) << 26) + (w1 >> 6) < thr:
                cells[start + j] = 1
            j = tops.find(edge, j + 1)
    return BitMatrix(n, n, cells)


def gen_avoider(n: int, P: BitMatrix) -> BitMatrix:
    """Dense n x n matrix avoiding P, for worst-case full-scan inputs.

    The construction is the avoider of P's family (``fast.classify_pattern``).
    Every output is re-verified by dispatch before it is returned.
    """
    if n < 1:
        raise ValueError("n must be positive")
    shape = fast.classify_pattern(P)  # looked up at call time, as dispatch looks it up
    if type(shape) is General:
        raise UnsupportedPatternError("no avoider construction for a general pattern")
    M = shape.avoider(n)
    if dispatch(M, P):
        raise RuntimeError(f"{shape.label} avoider construction for {shape} failed verification")
    return M


class BenchReport(Frozen):
    """Timing summary for one algorithm label.

    ``measurements`` holds (n, median_seconds, trials) per size in increasing
    order; ``exponent`` is the least-squares slope of log median against
    log n, or None with fewer than two sizes. ``runs`` keeps the raw
    (n, trial, seconds, contains) tuples for CSV emission.
    """

    _fields = ("algo", "measurements", "exponent", "seed", "runs")


def fit_exponent(measurements) -> float | None:
    """Slope of the least-squares line through (log n, log median-seconds)."""
    if len(measurements) < 2:
        return None
    xs = [math.log(n) for n, _, _ in measurements]
    ys = [math.log(max(med, 1e-12)) for _, med, _ in measurements]
    return statistics.linear_regression(xs, ys).slope


def bench_compare(algos, P: BitMatrix, sizes, density: float, seed: int, trials: int):
    """Time each labeled algorithm on shared generated inputs; fit exponents.

    Per size, ``trials`` matrices are generated with seeds seed, seed+1, ...
    and shared across all labels; each label gets one untimed warm-up on the
    first matrix, then one timed run per matrix. Boolean outcomes at n <= 64
    are cross-checked against the brute-force oracle. Timing excludes
    generation.
    """
    sizes = list(sizes)
    if not sizes:
        raise BenchConfigError("need at least one size")
    if any(n < 1 for n in sizes):
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
            print(f"patcon: warning: median times for {label} are not nondecreasing in n: "
                  f"{medians}", file=sys.stderr)
        reports.append(
            BenchReport(
                algo=label,
                measurements=tuple(measurements),
                exponent=fit_exponent(measurements),
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
