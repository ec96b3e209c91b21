"""Count the lines and the code lines of the Python files under some paths.

    python tools/count_lines.py [PATH ...]    (default: src/patcon tools tests)

For each ``.py`` file under each PATH (a file or a directory, searched
recursively) it prints the ``wc -l`` count, the code-line count and the file,
then the totals for the PATH. A code line is a line that holds a token other
than a comment; blank lines and the lines of a module, class or function
docstring are not code. A statement spread over several lines counts each
line it covers, and so does a string that is not a docstring.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(``wc -l`` lines, code lines) of a Python source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in docs)
    return source.count("\n"), len(code)


def main(roots) -> int:
    for root in map(Path, roots):
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        counts = [count(path.read_text()) for path in files]
        for path, (lines, code) in zip(files, counts):
            print(f"{lines:7,} {code:7,}  {path}")
        print(f"{sum(c[0] for c in counts):7,} {sum(c[1] for c in counts):7,}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src/patcon", "tools", "tests"]))
