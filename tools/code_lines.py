"""Count the code lines of the package, module by module.

A code line is a source line inside a statement (by the ``ast`` parse)
that is neither blank nor a comment and is not part of a docstring: the
string that opens a module, class or function body. Standard library only.

    python tools/code_lines.py [package directory, default src/kgcavity]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tree = ast.parse(source)
    text = source.splitlines()
    spanned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            # a decorated definition starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spanned.update(range(first, node.end_lineno + 1))
    spanned -= _docstring_lines(tree)
    return sum(1 for n in spanned if text[n - 1].strip() and not text[n - 1].lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/kgcavity")
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
