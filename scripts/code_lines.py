#!/usr/bin/env python3
"""Count code lines per module of src/eulerchar, with totals for
src/eulerchar and tests.  A code line is one that is not blank and not
only a comment or a docstring (the string that opens a module, class or
function body).

Example: python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(directory: Path) -> dict[str, int]:
    return {str(path.relative_to(ROOT)): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.rglob("*.py"))}


def main() -> None:
    library, tests = count(ROOT / "src" / "eulerchar"), count(ROOT / "tests")
    width = max(map(len, library)) + 2
    for name, n in library.items():
        print(f"{name:<{width}}{n:>6}")
    print(f"{'src/eulerchar':<{width}}{sum(library.values()):>6}")
    print(f"{'tests':<{width}}{sum(tests.values()):>6}")


if __name__ == "__main__":
    main()
