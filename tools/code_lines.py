"""Code lines of each module under `src/flatrank`, and their total.

    python3 tools/code_lines.py

A code line holds a token other than a comment, a newline or an indent.
Module, class and function docstrings are not counted, so a line counts
whether a statement fills it or only continues one.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flatrank"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    return [((s.lineno, s.col_offset), (s.end_lineno, s.end_col_offset))
            for node in ast.walk(tree) if isinstance(node, DOCUMENTED)
            if node.body and isinstance(s := node.body[0], ast.Expr)
            and isinstance(s.value, ast.Constant) and isinstance(s.value.value, str)]


def code_lines(text: str) -> int:
    """The number of code lines in Python source `text`."""
    spans = docstring_spans(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    counts = {f: code_lines(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    width = max(len(f.name) for f in counts)
    for f, k in counts.items():
        print(f"{f.name:<{width}}  {k:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
