"""Pattern containment in 0-1 matrices.

Decide whether an n x n 0-1 matrix contains a forbidden 0-1 pattern, using
early-exit kernels on bit-packed lines for the recognized pattern families
and a pruned rows-first search (``contains_general``) for every other
pattern, both checked against a brute-force oracle (``contains_naive``);
compute exact extremal values (the most ones an avoiding matrix can carry)
for small n; and benchmark the paper's full scans of the families to check
their complexity empirically.

The exports resolve lazily (PEP 562): ``import patcon`` loads no submodule,
and ``patcon.X`` imports the submodule defining X on first use, so a
``patcon check`` process never loads the extremal search or the benchmark
code.
"""

from importlib import import_module

_EXPORTS = {
    "matrix": """BitMatrix MatrixFormatError all_ones count_ones cross identity lshape
        parse_matrix serialize serialize_sparse transpose tuple_identity zeros""",
    "naive": "contains_naive",
    "fast": """AllOnes BenchConfigError ColumnOnes Cross General Identity LShape PatternClass
        PrefilterResult RowOnes TupleIdentity UnsupportedPatternError classify_pattern
        contains_allones contains_column_ones contains_cross contains_general contains_identity
        contains_lshape contains_tuple_identity dispatch max_allones_rows
        max_tuple_identity_width ones_prefilter""",
    "extremal": """DEFAULT_NODE_BUDGET ExtremalRecord SearchBudgetExceeded bounds_from_cache
        ex_exact load_cache save_cache verify_record""",
    "bench": "BenchReport bench_compare fit_exponent gen_avoider gen_random write_bench_csv",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # so that `import patcon; patcon.fast.dispatch` also works
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
