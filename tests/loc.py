"""Line counts of the package and the tests: ``python tests/loc.py``.

Prints, for ``src/rnnfast`` and ``tests``, the total lines of their Python
files and their code lines: the lines that hold a token other than a
comment, a line break or a docstring.  A docstring is the string
expression that opens a module, class or function body.  pytest does not
collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src/rnnfast", "tests")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def tree_counts(root):
    """(total lines, code lines) summed over the Python files under `root`."""
    totals = [count(path.read_text()) for path in sorted(root.rglob("*.py"))]
    return sum(t for t, _ in totals), sum(c for _, c in totals)


def main(base=ROOT):
    for name in TREES:
        total, code = tree_counts(Path(base) / name)
        print(f"{name}: {total:,} lines, {code:,} code lines")


if __name__ == "__main__":
    main(*sys.argv[1:])
