"""Workloads of the benchmark: their seeded inputs and the answers they must give.

Every expected answer is known by construction, never by asking the program:
a ``gen_avoider`` matrix avoids its pattern, a matrix with a planted copy of P
contains P, a witness with ex(n, P) ones avoids P, and one more 1 makes it
contain P. Extremal values come from closed forms, except ex(n, G) for the
general pattern G, which is the value recorded at the seed (confirmed for
n <= 4 by enumerating every matrix).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

from patcon import bench, extremal, matrix, naive
from spans import NULL_TRACER

# --- patterns -----------------------------------------------------------------

G = matrix.BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])

# Check families: name -> pattern. The name is the route `patcon check` reports,
# except "row", which is the column scan on the transpose.
FAMILIES = {
    "column": matrix.BitMatrix.from_rows([[1], [1], [1]]),
    "row": matrix.BitMatrix.from_rows([[1, 1, 1]]),
    "identity": matrix.identity(3),
    "tuple-identity": matrix.tuple_identity(2, 2),
    "lshape": matrix.lshape(3, 3),
    "cross": matrix.cross(3, 3, 2, 2),
    "allones": matrix.all_ones(2, 2),
}
PATTERNS = {**FAMILIES, "G": G}

# Extremal patterns, named in per-layer metrics.
EXTREMAL = {"J2": matrix.all_ones(2, 2), "I3": matrix.identity(3), "I2": matrix.identity(2), "G": G}

ZARANKIEWICZ_2 = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21}  # ex(n, J2)
EX_G = {1: 1, 2: 3, 3: 7, 4: 11, 5: 15}  # recorded at the seed


def expected_ex(name: str, n: int) -> int:
    if name == "J2":
        return ZARANKIEWICZ_2[n]
    if name in ("I2", "I3"):
        k = int(name[1])
        return (k - 1) * (2 * n - k + 1) if n >= k else n * n
    return EX_G[n]


# --- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple = ()  # n of the checked matrices
    avoiders: tuple = ()  # families with a dense gen_avoider file per size
    planted_dense: tuple = ()  # patterns planted in density-0.5 dense files
    planted_sparse: tuple = ()  # patterns planted in density-0.01 sparse files at the first size
    pairs: tuple = ()  # (extremal pattern name, n) run by `patcon extremal`
    witness_checks: bool = False  # check each witness, and it plus one 1, with --bounds
    check_repeats: int = 1  # times each check runs per round
    min_rounds: int = 1  # rounds run even when --seconds has passed


SMALL_PAIRS = (("J2", 4), ("I3", 4), ("I2", 4), ("G", 4))

WORKLOADS = {
    "check_fullscan": Workload(
        "check_fullscan", sizes=(1024, 2048), avoiders=tuple(FAMILIES), pairs=SMALL_PAIRS,
        min_rounds=2,
    ),
    "check_random": Workload(
        "check_random",
        sizes=(1024, 2048),
        planted_dense=tuple(PATTERNS),
        planted_sparse=("column", "identity", "allones", "G"),
        pairs=SMALL_PAIRS,
        min_rounds=2,
    ),
    "extremal": Workload(
        "extremal",
        pairs=(("J2", 5), ("I3", 5), ("I2", 6), ("G", 5)),
        witness_checks=True,
        check_repeats=5,
    ),
}

# Every layer at a small size; the traced run times a layer here when the
# workload itself never reaches it.
PROBE = Workload(
    "probe",
    sizes=(16,),
    avoiders=tuple(FAMILIES),
    planted_dense=tuple(PATTERNS),
    planted_sparse=tuple(PATTERNS),
    pairs=(("J2", 3),),
    witness_checks=True,
)


def tiny(wl: Workload) -> Workload:
    """The same workload at sizes small enough for a test."""
    return replace(
        wl,
        sizes=tuple(12 + 8 * i for i in range(len(wl.sizes))),
        pairs=tuple((name, 3) for name, _ in wl.pairs),
        check_repeats=min(wl.check_repeats, 2),
        min_rounds=1,
    )


# --- inputs -----------------------------------------------------------------------


@dataclass
class Check:
    """One `patcon check` operation and the verdict it must give."""

    label: str
    matrix: str
    pattern: str
    expected: bool  # True: CONTAINS
    cells: int
    sparse: bool = False
    bounds: str | None = None


@dataclass
class Inputs:
    patterns: dict  # pattern name -> file
    checks: list


def plant(A: matrix.BitMatrix, P: matrix.BitMatrix, rng: random.Random) -> matrix.BitMatrix:
    """A with the ones of P copied onto seeded rows and columns, so A contains P."""
    rows = sorted(rng.sample(range(A.rows), P.rows))
    cols = sorted(rng.sample(range(A.cols), P.cols))
    cells = bytearray(A.cells)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if P.cells[i * P.cols + j]:
                cells[r * A.cols + c] = 1
    return matrix.BitMatrix(A.rows, A.cols, bytes(cells))


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def setup(wl: Workload, workdir: str, seed: int, tr=NULL_TRACER) -> Inputs:
    """Generate and write the workload's inputs; the same seed gives the same files."""
    span = tr.span
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(seed)
    patterns = {}
    for name in sorted({*wl.avoiders, *wl.planted_dense, *wl.planted_sparse}):
        patterns[name] = os.path.join(workdir, f"P_{name}.txt")
        with span("matrix.serialize"):
            text = matrix.serialize(PATTERNS[name])
        _write(patterns[name], text)
    for name, _ in wl.pairs:
        patterns["x" + name] = os.path.join(workdir, f"P_x{name}.txt")
        with span("matrix.serialize"):
            text = matrix.serialize(EXTREMAL[name])
        _write(patterns["x" + name], text)

    checks = []

    def emit(label, M, pattern, expected, sparse=False):
        path = os.path.join(workdir, f"A_{label}.txt")
        if sparse:
            with span("matrix.serialize_sparse", M.rows * M.cols):
                text = matrix.serialize_sparse(M)
        else:
            with span("matrix.serialize", M.rows * M.cols):
                text = matrix.serialize(M)
        _write(path, text)
        checks.append(Check(label, path, patterns[pattern], expected, M.rows * M.cols, sparse))

    for i, n in enumerate(wl.sizes):
        for name in wl.avoiders:
            with span("bench.gen_avoider", n * n):
                M = bench.gen_avoider(n, FAMILIES[name])
            emit(f"avoid_{name}_{n}", M, name, False)
        sparse_names = wl.planted_sparse if i == 0 else ()
        for density, names, sparse in ((0.5, wl.planted_dense, False), (0.01, sparse_names, True)):
            if not names:
                continue
            with span("bench.gen_random", n * n):
                base = bench.gen_random(n, density, rng.randrange(2**32))
            for name in names:
                with span("bench.plant", n * n):
                    M = plant(base, PATTERNS[name], rng)
                kind = "sparse" if sparse else "dense"
                emit(f"plant_{kind}_{name}_{n}", M, name, True, sparse)
    return Inputs(patterns, checks)


def witness_checks(workdir: str, name: str, n: int, witness, cache: str, pattern: str, rng) -> list:
    """Checks of a witness (AVOIDS) and of it plus one 1 (CONTAINS), both with --bounds cache."""
    zeros = [i for i, v in enumerate(witness.cells) if not v]
    cells = bytearray(witness.cells)
    cells[rng.choice(zeros)] = 1
    plus = matrix.BitMatrix(n, n, bytes(cells))
    checks = []
    for label, M, expected in ((f"witness_{name}_{n}", witness, False), (f"plus1_{name}_{n}", plus, True)):
        path = os.path.join(workdir, f"A_{label}.txt")
        _write(path, matrix.serialize(M))
        checks.append(Check(label, path, pattern, expected, n * n, bounds=cache))
    return checks


def oracle_disagreements(checks) -> list:
    """Labels of inputs of n <= 64 whose expected verdict contains_naive contradicts."""
    bad = []
    for chk in checks:
        if chk.cells > 64 * 64:
            continue
        with open(chk.matrix) as fh:
            A = matrix.parse_matrix(fh.read())
        with open(chk.pattern) as fh:
            P = matrix.parse_matrix(fh.read())
        if naive.contains_naive(A, P) != chk.expected:
            bad.append(chk.label)
    return bad


def verify_records(name: str, n: int, loaded) -> str | None:
    """Why the (n, value, witness) tuples of a cache are wrong for (name, n), or None."""
    want = expected_ex(name, n)
    if [rec_n for rec_n, _, _ in loaded] != [n]:
        return f"cache holds n={[rec_n for rec_n, _, _ in loaded]}, wanted [{n}]"
    _, value, witness = loaded[0]
    if value != want:
        return f"ex({n},{name}) = {value}, expected {want}"
    if not extremal.verify_record(extremal.ExtremalRecord(n, EXTREMAL[name], value, witness)):
        return f"witness for ex({n},{name}) fails verify_record"
    return None
