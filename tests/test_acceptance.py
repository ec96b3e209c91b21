"""Acceptance gate: one test per criterion, each printing its own PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavy criteria (exhaustive 4x4 equivalence,
randomized n=32 equivalence, desk-scale timing) are marked ``slow``;
``pytest -m "not slow"`` leaves them out of a quick run.
"""

import random

import pytest

from patcon import (
    BitMatrix,
    all_ones,
    bench_compare,
    contains_allones,
    contains_column_ones,
    contains_cross,
    contains_identity,
    contains_lshape,
    contains_naive,
    contains_tuple_identity,
    cross,
    dispatch,
    ex_exact,
    gen_random,
    identity,
    lshape,
    ones_prefilter,
    parse_matrix,
    serialize,
    serialize_sparse,
    transpose,
    tuple_identity,
    zeros,
)
from patcon.fast import PrefilterResult
from patcon.cli import main as cli_main

from helpers import ex_by_enumeration, identity_dp, random_matrix


def criterion_pattern_set():
    """Column k<=3; identity k<=3; tuple (2,1),(2,2),(3,1); L-shape and
    all-ones up to 3x3; every cross with a,b<=3 and all valid centers."""
    pats = []
    pats += [all_ones(k, 1) for k in (1, 2, 3)]
    pats += [identity(k) for k in (1, 2, 3)]
    pats += [tuple_identity(j, k) for j, k in ((2, 1), (2, 2), (3, 1))]
    pats += [lshape(h, w) for h in (1, 2, 3) for w in (1, 2, 3)]
    pats += [
        cross(a, b, c, d)
        for a in (1, 2, 3)
        for b in (1, 2, 3)
        for c in range(1, a + 1)
        for d in range(1, b + 1)
    ]
    pats += [all_ones(k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
    return pats


def _finish(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[:3]}"


@pytest.mark.slow
def test_criterion_1_exhaustive_4x4_equivalence():
    patterns = criterion_pattern_set()
    assert len(patterns) == 63
    failures = []
    for bits in range(1 << 16):
        A = BitMatrix(4, 4, bytes((bits >> i) & 1 for i in range(16)))
        for P in patterns:
            if dispatch(A, P) != contains_naive(A, P):
                failures.append((bits, P))
    _finish("criterion 1 (exhaustive 4x4 oracle equivalence)", failures)


@pytest.mark.slow
def test_criterion_2_randomized_32_equivalence():
    patterns = criterion_pattern_set()
    failures = []
    checked = 0
    for density, count in ((0.1, 334), (0.5, 333), (0.9, 333)):
        for i in range(count):
            A = gen_random(32, density, 32000 + checked)
            checked += 1
            for P in patterns:
                if dispatch(A, P) != contains_naive(A, P):
                    failures.append((density, i, P))
    assert checked == 1000
    _finish("criterion 2 (randomized n=32 oracle equivalence)", failures)


def test_criterion_3_tuple_identity_regression():
    A = BitMatrix.from_entries(4, 2, [(1, 1), (2, 1), (2, 2), (3, 2)])
    failures = []
    if contains_tuple_identity(A, 2, 2):
        failures.append("scan reported CONTAINS")
    if contains_naive(A, tuple_identity(2, 2)):
        failures.append("oracle reported CONTAINS")
    if dispatch(A, tuple_identity(2, 2)):
        failures.append("dispatch reported CONTAINS")
    _finish("criterion 3 (tuple-identity block-boundary regression)", failures)


def test_criterion_4_extremal_cross_validation():
    P = all_ones(2, 2)
    failures = []
    got = [ex_exact(n, P).value for n in range(1, 5)]
    independent = [ex_by_enumeration(n, P) for n in (1, 2, 3, 4)]
    if got != independent:
        failures.append(f"search {got} != enumeration {independent}")
    if got != [1, 3, 6, 9]:
        failures.append(f"values {got} != expected [1, 3, 6, 9]")
    _finish("criterion 4 (extremal cross-validation, 2x2 all-ones)", failures)


QUADRATIC_CASES = [
    ("column", all_ones(2, 1)),
    ("identity", identity(3)),
    ("tuple-identity", tuple_identity(2, 2)),
    ("lshape", lshape(2, 2)),
    ("cross", cross(3, 3, 2, 2)),
]
QUADRATIC_SIZES = (256, 512, 1024, 2048)
CUBIC_SIZES = (64, 128, 256, 512)
EXPONENT_ATTEMPTS = 3  # timing-noise reruns permitted; persistent violation fails


def _fitted_exponent(label, P, sizes, seed):
    report = bench_compare([label], P, sizes, 0.5, seed, 3)[0]
    return report.exponent


@pytest.mark.slow
def test_criterion_5_empirical_complexity():
    failures = []
    for label, P in QUADRATIC_CASES:
        exp = None
        for attempt in range(EXPONENT_ATTEMPTS):
            exp = _fitted_exponent(label, P, QUADRATIC_SIZES, 4200 + attempt)
            if 1.6 <= exp <= 2.4:
                break
        print(f"[acceptance]   {label}: exponent {exp:.3f} (window 1.6..2.4)")
        if not 1.6 <= exp <= 2.4:
            failures.append((label, exp))
    exp = None
    for attempt in range(EXPONENT_ATTEMPTS):
        exp = _fitted_exponent("allones", all_ones(2, 2), CUBIC_SIZES, 6400 + attempt)
        if 2.4 <= exp <= 3.4:
            break
    print(f"[acceptance]   allones: exponent {exp:.3f} (window 2.4..3.4)")
    if not 2.4 <= exp <= 3.4:
        failures.append(("allones", exp))
    _finish("criterion 5 (empirical complexity exponents)", failures)


def test_criterion_6_invariant_suite():
    failures = []
    cases = 500

    rng = random.Random(601)
    patterns = criterion_pattern_set()
    for i in range(cases):
        A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
        P = patterns[i % len(patterns)]
        if dispatch(A, P) != dispatch(transpose(A), transpose(P)):
            failures.append(("transpose duality", i))

    rng = random.Random(602)
    for i in range(cases):
        A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        P = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0.6)
        if contains_naive(A, P):
            cells = bytearray(A.cells)
            for _ in range(rng.randint(1, 3)):
                cells[rng.randrange(len(cells))] = 1
            if not contains_naive(BitMatrix(A.rows, A.cols, bytes(cells)), P):
                failures.append(("monotonicity", i))

    rng = random.Random(603)
    for i in range(cases):
        A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.45)
        k = rng.randint(1, 4)
        w = rng.randint(1, 4)
        if contains_tuple_identity(A, 1, k) != contains_identity(A, k):
            failures.append(("tuple j=1 reduction", i))
        if contains_allones(A, k, 1) != contains_column_ones(A, k):
            failures.append(("all-ones l=1 reduction", i))
        if contains_lshape(A, k, 1) != contains_column_ones(A, k):
            failures.append(("lshape w=1 reduction", i))
        if contains_lshape(A, 1, w) != contains_allones(A, 1, w):
            failures.append(("lshape h=1 reduction", i))

    rng = random.Random(604)
    for i in range(cases):
        A = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.45)
        h = rng.randint(1, 4)
        w = rng.randint(1, 4)
        if contains_lshape(A, h, w) != contains_cross(A, h, w, h, 1):
            failures.append(("cross/lshape equivalence", i))

    rng = random.Random(605)
    for i in range(cases):
        n = rng.randint(1, 6)
        A = random_matrix(rng, n, n, 0.5)
        D = identity_dp(A, rng.choice([1, 1, 2]))
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                if D[r][c] < D[r + 1][c] or D[r][c] < D[r][c + 1]:
                    failures.append(("DP monotonicity", i))

    rng = random.Random(606)
    bound_table = {}
    for P in (all_ones(2, 2), identity(2), all_ones(2, 1)):
        for n in (2, 3, 4):
            bound_table[(n, P)] = ex_exact(n, P).value
    prefilter_pats = [all_ones(2, 2), identity(2), all_ones(2, 1)]
    for i in range(cases):
        n = rng.randint(2, 4)
        A = random_matrix(rng, n, n, rng.choice([0.5, 0.8, 1.0]))
        P = prefilter_pats[i % 3]
        bound = bound_table[(n, P)]
        if ones_prefilter(A, bound) is PrefilterResult.CONTAINS:
            if not contains_naive(A, P):
                failures.append(("prefilter soundness", i))

    _finish("criterion 6 (invariant property suite)", failures)


def test_criterion_7_roundtrip_and_cli(tmp_path, capsys):
    failures = []

    rng = random.Random(700)
    for i in range(100):
        M = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), rng.random())
        if parse_matrix(serialize(M)) != M:
            failures.append(("dense round-trip", i))
        if parse_matrix(serialize_sparse(M)) != M:
            failures.append(("sparse round-trip", i))

    a_contains = tmp_path / "a1.txt"
    a_contains.write_text(serialize(identity(3)))
    a_avoids = tmp_path / "a0.txt"
    a_avoids.write_text(serialize(zeros(3, 3)))
    a_bad = tmp_path / "bad.txt"
    a_bad.write_text("10\n011\n")
    p_one = tmp_path / "p.txt"
    p_one.write_text(serialize(all_ones(1, 1)))

    checks = [
        (["check", "--matrix", str(a_contains), "--pattern", str(p_one)], 0, "CONTAINS"),
        (["check", "--matrix", str(a_avoids), "--pattern", str(p_one)], 1, "AVOIDS"),
        (["check", "--matrix", str(a_bad), "--pattern", str(p_one)], 2, None),
    ]
    for argv, want_code, want_prefix in checks:
        code = cli_main(argv)
        out = capsys.readouterr().out
        if code != want_code:
            failures.append((argv, code))
        if want_prefix and not out.startswith(want_prefix):
            failures.append((argv, out))

    _finish("criterion 7 (round-trip and CLI contracts)", failures)
