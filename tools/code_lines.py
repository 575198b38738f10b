"""Count the code lines of Python modules.

Usage: python3 tools/code_lines.py PATH...

Each PATH is a module or a directory, searched for *.py files.  It prints
one line per module, "<code lines> <path>", and then "<total> total".

A code line is a line that holds a `tokenize` token other than COMMENT, NL,
NEWLINE, INDENT, DEDENT and ENDMARKER; a token that spans several lines (a
multi-line string) puts each of them in.  Module, class and function
docstrings are not code: their string tokens are skipped.  So blank lines,
comment lines and docstring lines do not count, and an expression split over
k lines counts k.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the string token of every docstring in the tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> list:
    """The numbers of the code lines of one module's source text, in order."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return sorted(lines)


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    total = 0
    for path in _modules(argv):
        count = len(code_lines(path.read_text()))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
