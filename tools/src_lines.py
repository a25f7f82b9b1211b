"""Print the two line counts of ``src/obstructkit``: ``wc -l`` and code lines.

Code lines are what is left of a module after removing the module, class and
function docstrings (found with ``ast``), blank lines and comment-only lines.
One row per module, then the total.  Standard library only::

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "obstructkit"


def counts(text: str) -> tuple[int, int]:
    """``(wc -l, code lines)`` of one module's source."""
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in docstrings and line.strip() and not line.strip().startswith("#"))
    return text.count("\n"), code


def main() -> int:
    rows = [(path.name, *counts(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name, wc, code in rows:
        print(f"{name:<16}{wc:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
