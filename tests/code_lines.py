"""Code lines of a package: lines that hold a token outside docstrings and comments.

    python tests/code_lines.py SRC_DIR

prints, for every ``.py`` file under SRC_DIR, its code lines and its path
relative to SRC_DIR, then the total.  A line counts when a token other than
a comment or a line break starts or runs on it, so a string that spans
lines counts every line it spans; docstrings (the leading string of a
module, class or function body), comments and blank lines do not count.

Not collected by pytest: the name does not match ``test_*.py``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that are not code: comments, line breaks, indentation and markers
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, BODIES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of a module that hold code."""
    docs = docstring_lines(ast.parse(path.read_text(encoding="utf-8")))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/code_lines.py SRC_DIR", file=sys.stderr)
        return 2
    root = Path(argv[1])
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
