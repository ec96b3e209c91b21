"""Command-line front end: check, classify, extremal, and bench.

Exit codes follow the grep convention so shell pipelines can branch on the
verdict without parsing output: 0 the matrix contains the pattern (or the
command simply succeeded), 1 it avoids it, 2 any error, 3 an extremal search
stopped at its node budget. Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

from .matrix import (
    BitMatrix,
    ColumnOnes,
    Cross,
    AllOnes,
    Identity,
    LShape,
    MatrixFormatError,
    RowOnes,
    TupleIdentity,
    as_all_ones,
    as_column_ones,
    as_cross,
    as_identity,
    as_lshape,
    as_row_ones,
    as_tuple_identity,
    classify_pattern,
    parse_matrix,
    serialize,
    transpose,
)
from .naive import contains_naive
from .fast import (
    contains_allones,
    contains_column_ones,
    contains_cross,
    contains_identity,
    contains_lshape,
    contains_tuple_identity,
    dispatch,
)
from .extremal import (
    ExtremalRecord,
    SearchBudgetExceeded,
    DEFAULT_NODE_BUDGET,
    bounds_from_cache,
    ex_exact,
    save_cache,
)
from .bench import BenchConfigError, UnsupportedPatternError, bench_compare, write_bench_csv

ALGO_CHOICES = ("auto", "naive", "column", "identity", "tuple-identity", "lshape", "cross", "allones")


def _read_matrix(path: str) -> BitMatrix:
    try:
        with open(path) as fh:
            return parse_matrix(fh.read())
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from None


def _describe(cls) -> str:
    match cls:
        case ColumnOnes(k=k):
            return f"column-ones k={k}"
        case RowOnes(w=w):
            return f"row-ones w={w}"
        case AllOnes(k=k, l=l):
            return f"all-ones k={k} l={l}"
        case Identity(k=k):
            return f"identity k={k}"
        case TupleIdentity(j=j, k=k):
            return f"tuple-identity j={j} k={k}"
        case LShape(h=h, w=w):
            return f"lshape h={h} w={w}"
        case Cross(a=a, b=b, c=c, d=d):
            return f"cross a={a} b={b} c={c} d={d}"
        case _:
            return "general"


def _label_for(cls) -> str:
    """The algorithm label dispatch effectively routes this class to."""
    match cls:
        case ColumnOnes() | RowOnes():
            return "column"
        case AllOnes():
            return "allones"
        case Identity():
            return "identity"
        case TupleIdentity():
            return "tuple-identity"
        case LShape():
            return "lshape"
        case Cross():
            return "cross"
        case _:
            return "naive"


def _forced_runner(name: str, P: BitMatrix):
    """Resolve a forced --algo selector structurally against the pattern.

    Structural (not canonical-priority) matching, so e.g. --algo identity
    works on the 1x1 pattern even though it canonically classifies as a
    column of ones. Returns a callable or raises BenchConfigError.
    """
    if name == "naive":
        return lambda A: contains_naive(A, P)
    if name == "column":
        k = as_column_ones(P)
        if k is not None:
            return lambda A: contains_column_ones(A, k)
        w = as_row_ones(P)
        if w is not None:
            return lambda A: contains_column_ones(transpose(A), w)
    elif name == "identity":
        k = as_identity(P)
        if k is not None:
            return lambda A: contains_identity(A, k)
    elif name == "tuple-identity":
        jk = as_tuple_identity(P)
        if jk is not None:
            j, k = jk
            return lambda A: contains_tuple_identity(A, j, k)
    elif name == "lshape":
        hw = as_lshape(P)
        if hw is not None:
            h, w = hw
            return lambda A: contains_lshape(A, h, w)
    elif name == "cross":
        abcd = as_cross(P)
        if abcd is not None:
            a, b, c, d = abcd
            return lambda A: contains_cross(A, a, b, c, d)
        w = as_row_ones(P)
        if w is not None:  # a full row is a cross with c=1 and any d
            return lambda A: contains_cross(A, 1, w, 1, 1)
        k = as_column_ones(P)
        if k is not None:
            return lambda A: contains_cross(A, k, 1, 1, 1)
    elif name == "allones":
        kl = as_all_ones(P)
        if kl is not None:
            k, l = kl
            return lambda A: contains_allones(A, k, l)
    raise BenchConfigError(f"pattern does not fit the {name!r} algorithm")


def cmd_check(args) -> int:
    A = _read_matrix(args.matrix)
    P = _read_matrix(args.pattern)
    cls = classify_pattern(P)
    if args.algo == "auto":
        bounds = None
        if args.bounds and os.path.exists(args.bounds):
            bounds = bounds_from_cache(args.bounds, P)
        result = dispatch(A, P, bounds)
        label = _label_for(cls)
    else:
        runner = _forced_runner(args.algo, P)
        result = runner(A)
        label = args.algo
    print(f"{'CONTAINS' if result else 'AVOIDS'} {label}")
    return 0 if result else 1


def cmd_classify(args) -> int:
    P = _read_matrix(args.pattern)
    print(_describe(classify_pattern(P)))
    return 0


def cmd_extremal(args) -> int:
    P = _read_matrix(args.pattern)
    ns = [args.n] if args.n is not None else list(range(1, args.n_max + 1))
    records: list[ExtremalRecord] = []
    status = 0
    for n in ns:
        try:
            rec = ex_exact(n, P, node_budget=args.node_budget)
        except SearchBudgetExceeded as exc:
            print(f"ex({n},P) inconclusive: {exc}", file=sys.stderr)
            status = 3
            break
        print(f"ex({n},P) = {rec.value}")
        print(
            f"ex({n},P): {rec.nodes} search nodes, "
            f"{100 * rec.nodes / args.node_budget:.2f}% of the node budget",
            file=sys.stderr,
        )
        records.append(rec)
    if args.witness_out:
        os.makedirs(args.witness_out, exist_ok=True)
        for rec in records:
            with open(os.path.join(args.witness_out, f"witness_n{rec.n}.txt"), "w") as fh:
                fh.write(serialize(rec.witness))
    if args.cache_out and records:
        save_cache(records, args.cache_out)
    return status


def cmd_bench(args) -> int:
    P = _read_matrix(args.pattern)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise BenchConfigError(f"bad sizes list {args.sizes!r}") from None
    if args.algos:
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    else:
        algos = [_label_for(classify_pattern(P))]
    reports = bench_compare(algos, P, sizes, args.density, args.seed, args.trials)
    write_bench_csv(reports, args.csv)
    for rep in reports:
        exp = "n/a" if rep.exponent is None else f"{rep.exponent:.3f}"
        print(f"{rep.algo} exponent {exp}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patcon", description="Pattern containment in 0-1 matrices"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a matrix contains a pattern")
    p.add_argument("--matrix", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--algo", default="auto", choices=ALGO_CHOICES)
    p.add_argument("--bounds", default=None, help="extremal cache file feeding the ones prefilter")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="print the shape class of a pattern")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("extremal", help="exact extremal values with witnesses")
    p.add_argument("--pattern", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None)
    group.add_argument("--n-max", type=int, default=None)
    p.add_argument("--witness-out", default=None, help="directory for witness files")
    p.add_argument("--cache-out", default=None, help="write an extremal cache file")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("bench", help="time algorithms and fit complexity exponents")
    p.add_argument("--pattern", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated matrix sizes")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--csv", required=True)
    p.add_argument("--algos", default=None, help="comma-separated algorithm labels")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (MatrixFormatError, BenchConfigError, UnsupportedPatternError, ValueError) as exc:
        print(f"patcon: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"patcon: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # total exit contract: anything unexpected is an error
        print(f"patcon: internal error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
