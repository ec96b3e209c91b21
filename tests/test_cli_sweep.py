"""A pinned sweep of CLI behaviour: the exit code, stdout and stderr of every command below.

``cli.main`` runs in process on every pattern of at most 3 rows, 3 columns
and 6 cells (170 of them): ``classify``; ``check`` with every ``--algo``
value on four fixed matrices; and, for the patterns with a 1 and at most 4
cells, ``extremal --n-max 3 --cache-out`` followed by ``check --bounds``
with that cache on each matrix. Two more checks read a missing bounds file
and a cache written for another pattern. Argparse's own usage errors are
left out: their wording belongs to Python, not to patcon.

Each record is (argv, exit code, stdout, stderr) with the temporary
directory replaced by ``<tmp>``; the SHA-256 of the records pins them all.
A change that alters any output fails here and writes the records to a
JSON-lines file named in the assertion, to diff against the records of the
commit before it.
"""

import hashlib
import json
import random

from patcon import all_ones, count_ones, identity, serialize, zeros
from patcon.cli import main
from patcon.fast import ALGOS

from helpers import all_patterns_up_to, random_matrix

SWEEP_SHA256 = "cff45c9f4950fd69f79fb47b249b3815e1cfbd1ee4e8ad58ce3f6ef30c198d66"


def sweep(tmp_path, capsys):
    """The records of the sweep, in a fixed order."""
    records = []

    def run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        records.append([list(argv), code, out, err])

    def write(name, M):
        path = tmp_path / name
        path.write_text(serialize(M))
        return str(path)

    matrices = [identity(5), all_ones(4, 4), random_matrix(random.Random(7), 6, 6, 0.5),
                zeros(3, 4)]
    mats = [write(f"a{i}.txt", A) for i, A in enumerate(matrices)]
    patterns = [P for P in all_patterns_up_to(3, 3) if P.rows * P.cols <= 6]
    assert len(patterns) == 170
    caches = []
    for i, P in enumerate(patterns):
        p = write(f"p{i}.txt", P)
        run("classify", "--pattern", p)
        for a in mats:
            for algo in ALGOS:
                run("check", "--matrix", a, "--pattern", p, "--algo", algo)
        if count_ones(P) and P.rows * P.cols <= 4:
            cache = str(tmp_path / f"cache{i}.txt")
            run("extremal", "--pattern", p, "--n-max", "3", "--cache-out", cache)
            for a in mats:
                run("check", "--matrix", a, "--pattern", p, "--bounds", cache)
            caches.append((p, cache))
    (p, _), (_, other) = caches[:2]
    run("check", "--matrix", mats[0], "--pattern", p, "--bounds", str(tmp_path / "missing.txt"))
    run("check", "--matrix", mats[0], "--pattern", p, "--bounds", other)
    return records


def test_cli_sweep_digest(tmp_path, capsys):
    records = sweep(tmp_path, capsys)
    lines = [json.dumps(record).replace(str(tmp_path), "<tmp>") for record in records]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if digest != SWEEP_SHA256:
        dump = tmp_path / "sweep.jsonl"
        dump.write_text("".join(line + "\n" for line in lines))
        raise AssertionError(f"CLI sweep digest {digest} != {SWEEP_SHA256}; "
                             f"{len(records)} records in {dump}")
