#!/usr/bin/env python3
"""Count raw lines and code lines per module of src/eulerchar, with both
totals for src/eulerchar and tests.  A code line is one that is not blank
and not only a comment or a docstring (the string that opens a module,
class or function body); the raw count is every line of the file, which is
what the interpreter reads and compiles at start-up when no bytecode is
cached (PYTHONDONTWRITEBYTECODE=1).

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


def count(directory: Path) -> dict[str, tuple[int, int]]:
    """(raw lines, code lines) of each .py file under directory."""
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted(directory.rglob("*.py"))}
    return {name: (len(source.splitlines()), code_lines(source))
            for name, source in sources.items()}


def main() -> None:
    library, tests = count(ROOT / "src" / "eulerchar"), count(ROOT / "tests")
    rows = [*library.items(), ("src/eulerchar", tuple(map(sum, zip(*library.values())))),
            ("tests", tuple(map(sum, zip(*tests.values()))))]
    width = max(len(name) for name, _ in rows) + 2
    print(f"{'':<{width}}{'raw':>6}{'code':>6}")
    for name, (raw, code) in rows:
        print(f"{name:<{width}}{raw:>6}{code:>6}")


if __name__ == "__main__":
    main()
