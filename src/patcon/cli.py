"""Command-line front end: check, classify, extremal, and bench.

Exit codes follow the grep convention so shell pipelines can branch on the
verdict without parsing output: 0 the matrix contains the pattern (or the
command simply succeeded), 1 it avoids it, 2 any error, 3 an extremal search
stopped at its node budget. Diagnostics go to stderr, results to stdout.

Each command imports what it runs: ``extremal`` only for ``extremal`` and
``check --bounds``, ``bench`` only for ``bench``, so a plain ``check`` starts
up with the matrix, oracle and kernel modules alone. ``check --algo`` runs
``fast.decider``, but ``auto`` loads ``--bounds`` and prints dispatch's route.

Input files are read as bytes: ``parse_matrix`` parses a canonical file in
one pass and decodes any other as text-mode ``open()`` would, so messages
are those of the text. The ``patcon`` script (``entrypoint``) flushes the
output and ends the process with ``os._exit``, skipping the interpreter's
teardown; ``main`` returns the exit code, for tests and library callers.
"""

from __future__ import annotations

import argparse
import os
import sys

from .matrix import BitMatrix, MatrixFormatError, parse_matrix, serialize
from .fast import ALGOS, BenchConfigError, classify_pattern, decider, dispatch


def _read_matrix(path: str) -> BitMatrix:
    try:
        with open(path, "rb") as fh:  # parse_matrix decodes what is not canonical as open() would
            return parse_matrix(fh.read())
    except (OSError, ValueError) as exc:  # MatrixFormatError and UnicodeDecodeError included
        raise MatrixFormatError(f"cannot read {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Raise the OSError ``open(path, "w")`` would, without creating or truncating the file.

    An empty path, a directory, a missing parent directory or an existing file
    that cannot be written fails here, before the command's work, with open()'s message.
    """
    if path and not os.path.exists(path) and os.path.isdir(os.path.dirname(path) or "."):
        return  # open() would create the file
    os.close(os.open(path, os.O_WRONLY))  # without O_CREAT or O_TRUNC


def cmd_check(args) -> int:
    A = _read_matrix(args.matrix)
    P = _read_matrix(args.pattern)
    if args.algo == "auto":
        bounds = None
        if args.bounds is not None and os.path.exists(args.bounds):
            from .extremal import bounds_from_cache

            bounds = bounds_from_cache(args.bounds, P)
        elif args.bounds is not None:
            print(f"patcon: warning: bounds file {args.bounds} not found; prefilter off",
                  file=sys.stderr)
        result = dispatch(A, P, bounds)
        label = classify_pattern(P).label
    else:
        if args.bounds is not None:
            print(f"patcon: warning: --bounds is ignored with --algo {args.algo}", file=sys.stderr)
        result = decider(args.algo, P)(A)
        label = args.algo
    print(f"{'CONTAINS' if result else 'AVOIDS'} {label}")
    return 0 if result else 1


def cmd_classify(args) -> int:
    P = _read_matrix(args.pattern)
    print(classify_pattern(P))
    return 0


def cmd_extremal(args) -> int:
    from .extremal import (
        DEFAULT_NODE_BUDGET,
        SearchBudgetExceeded,
        ex_exact,
        save_cache,
    )

    P = _read_matrix(args.pattern)
    budget = DEFAULT_NODE_BUDGET if args.node_budget is None else args.node_budget
    if args.n_max is not None and args.n_max < 1:
        raise ValueError("n-max must be positive")
    if budget < 1:
        raise ValueError("node-budget must be positive")
    if args.cache_out is not None:
        _check_writable(args.cache_out)
    made = args.witness_out is not None and not os.path.isdir(args.witness_out)
    if made:
        os.mkdir(args.witness_out)  # the leaf alone, so the clean-up below leaves nothing
    ns = [args.n] if args.n is not None else range(1, args.n_max + 1)
    records = []
    status = 0
    try:
        for n in ns:
            try:
                rec = ex_exact(n, P, node_budget=budget)
            except SearchBudgetExceeded as exc:
                print(f"ex({n},P) inconclusive: {exc}", file=sys.stderr)
                status = 3
                break
            print(f"ex({n},P) = {rec.value}")
            print(
                f"ex({n},P): {rec.nodes} search nodes, "
                f"{100 * rec.nodes / budget:.2f}% of the node budget",
                file=sys.stderr,
            )
            print(f"ex({n},P): cut {rec.cut_contained} by containment, {rec.cut_bound} by bound, "
                  f"{rec.cut_symmetry} by symmetry; strip table ex(m x {n},P), m < {n}: "
                  f"{' '.join(map(str, rec.strip)) or 'none'}", file=sys.stderr)
            if rec.closed:
                print(f"ex({n},P): {rec.closed} of {rec.searches} searches closed at a proven "
                      f"upper bound ({rec.cap} for the n x n search)", file=sys.stderr)
            records.append(rec)
    finally:
        if made and not records:  # no witness goes into the directory this command made
            os.rmdir(args.witness_out)
    if args.witness_out is not None:
        for rec in records:
            with open(os.path.join(args.witness_out, f"witness_n{rec.n}.txt"), "w") as fh:
                fh.write(serialize(rec.witness))
    if args.cache_out is not None and records:
        save_cache(records, args.cache_out)
    return status


def cmd_bench(args) -> int:
    from .bench import bench_compare, write_bench_csv

    P = _read_matrix(args.pattern)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise BenchConfigError(f"bad sizes list {args.sizes!r}") from None
    if args.algos is not None:
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    else:
        algos = [classify_pattern(P).label]
    _check_writable(args.csv)
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
    p.add_argument("--algo", default="auto", choices=ALGOS)
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
    p.add_argument("--node-budget", type=int, default=None)  # None: extremal's default
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
    except (ValueError, OSError) as exc:  # MatrixFormatError and BenchConfigError included
        print(f"patcon: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("patcon: error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:  # total exit contract: anything unexpected is an error
        print(f"patcon: internal error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    """Run ``main`` and end the process with its exit code, skipping interpreter teardown.

    The streams are flushed first; if a flush fails (a closed pipe), ``sys.exit``
    ends the process as it always did. patcon starts no thread, registers no
    ``atexit`` handler and closes each file it writes before ``main`` returns,
    so ``os._exit`` loses nothing.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe, or a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
