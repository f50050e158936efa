"""Count the code lines under src/sumsetlab/, per module and in total.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring (docstrings are found with ``ast``).

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sumsetlab"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip
        and line.strip()
        and not line.strip().startswith("#")
    )


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12} {count:6,}")
    print(f"{'total':12} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
