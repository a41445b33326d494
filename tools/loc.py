"""Print code-only lines per module under src/fedmesh/.

A line counts when it holds at least one token that is not a comment, and
it is not part of a module, class or function docstring. Blank lines,
comments and docstrings are left out, so the total moves only with code.

    python3 tools/loc.py [DIR] [--base BASE_DIR]

DIR defaults to this checkout's src/fedmesh. With --base, it prints each
module's base -> head count and their difference, a module found on one
side only counting 0 on the other, then the totals and the net change.
"""

from __future__ import annotations

import argparse
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


def module_lines(package: Path) -> dict[str, int]:
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print code-only lines per module.")
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--base", type=Path, help="package to compare against")
    args = parser.parse_args(argv)
    for package in (args.package, args.base):
        if package is not None and not package.is_dir():
            parser.error(f"{package} is not a directory")
    head = module_lines(args.package)
    if args.base is None:
        for name, count in head.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(head.values()):6d}  total")
        return 0
    base = module_lines(args.base)
    rows = [(name, base.get(name, 0), head.get(name, 0)) for name in sorted(base.keys() | head.keys())]
    rows.append(("total", sum(base.values()), sum(head.values())))
    for name, old, new in rows:
        print(f"{old:6d} -> {new:6d}  {new - old:+5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
