#!/usr/bin/env python3
"""Line counts of the qact sources: all lines and code lines, per module and in total.

"lines" is what `wc -l` reports.  A code line holds a token of the program:
blank lines, comment-only lines and the lines of module, class and function
docstrings are not code lines.

Usage:
    python scripts/src_lines.py [DIR]    (default: src/qact)
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "qact")
    args = parser.parse_args(argv)
    rows = [(path.name, *count(path.read_text())) for path in sorted(args.dir.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':{width}s} {'lines':>6s} {'code':>6s}")
    for name, lines, code in rows:
        print(f"{name:{width}s} {lines:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
