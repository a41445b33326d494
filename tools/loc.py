"""Print code-only lines per module under src/fedmesh/.

A line counts when it holds at least one token that is not a comment, and
it is not part of a module, class or function docstring. Blank lines,
comments and docstrings are left out, so the total moves only with code.

    python3 tools/loc.py [DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedmesh"
NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
