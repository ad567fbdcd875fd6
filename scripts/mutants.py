#!/usr/bin/env python3
"""Sampled mutation testing of src/eulerchar against the tests in tests/.

Each mutant changes one site of one library module by one of four
operators:
  arith    + and - swap, and * or % becomes //;
  compare  a comparison swaps with its neighbour: < and <=, > and >=, ==
           and !=;
  boolop   `and` and `or` swap, every one of an expression's operators;
  const    an int constant grows by 1 (bools and f-strings are left alone).
The swapped operators bind as tightly as the originals, so a mutant is the
original source with only the operator's token, or the constant's text,
replaced.

The checkout is copied once, outside it, and the sites are read from that
snapshot, so that editing the checkout during a run changes nothing.  A
seeded sample of the sites runs, each mutant in a fresh copy of the
snapshot, as `python -m pytest -x -q tests` under a per-mutant cap, at most
two at a time.  A mutant is killed when the tests fail, hung when the cap
or the tests' own hang watchdog ends it, and survives when the tests pass.
The script prints one line per mutant, then the killed, hung and surviving
counts per module, and each survivor's line of source.  A survivor listed
in tests/data/mutants.json, an equivalent mutant with the reason it is
one, counts as known and is not printed again; each entry names its site
by module, operator and the text of the lines it edits, before and after
(`site_text`), not by line number.

Examples:
  python scripts/mutants.py --sample 40 --seed 7
  python scripts/mutants.py --modules cli --sample 20 --seed 1
"""

import argparse
import ast
import contextlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "eulerchar"
KNOWN = ROOT / "tests" / "data" / "mutants.json"
WORKERS = 2
# seconds a mutant may run: tier-1 takes about 30 to 80 s, and the hang
# watchdog of tests/conftest.py ends one test after 120 s
CAP_SECONDS = 400
# what a copy of the checkout leaves out
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_traces", "*.egg-info")

_ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
          ast.Mod: ("%", "//")}
_COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
            ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_BOOLOP = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


class Mutant(NamedTuple):
    module: str
    line: int
    operator: str
    old: str
    new: str
    # each edit is (start, end, text), offsets into the module's source
    edits: tuple


def _offsets(source: str):
    """The offset into source of a node position (line, UTF-8 column)."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())
    return offset


def _token(source: str, start: int, end: int, token: str) -> int:
    """Where token stands between two operands, source[start:end], which
    holds only it, brackets, blanks and comments."""
    gap = re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), source[start:end])
    word = r"\b" if token.isalpha() else ""
    found = re.search(rf"{word}{re.escape(token)}{word}", gap)
    assert found, (source[start:end], token)
    return start + found.start()


def mutants(module: str, source: str) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    tree = ast.parse(source)
    offset = _offsets(source)
    start = lambda node: offset(node.lineno, node.col_offset)  # noqa: E731
    end = lambda node: offset(node.end_lineno, node.end_col_offset)  # noqa: E731
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    found = []

    def swap(node, operator, pairs, operands):
        old, new = pairs
        edits = []
        for left, right in zip(operands, operands[1:]):
            at = _token(source, end(left), start(right), old)
            edits.append((at, at + len(old), new))
        found.append(Mutant(module, node.lineno, operator, old, new, tuple(edits)))

    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            swap(node, "arith", _ARITH[type(node.op)], [node.left, node.right])
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in _COMPARE:
                    swap(node, "compare", _COMPARE[type(op)], operands[i:i + 2])
        elif isinstance(node, ast.BoolOp):
            swap(node, "boolop", _BOOLOP[type(node.op)], node.values)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            text = source[start(node):end(node)]
            found.append(Mutant(module, node.lineno, "const", text, str(node.value + 1),
                                ((start(node), end(node), str(node.value + 1)),)))
    return sorted(found, key=lambda m: m.edits)


def apply(source: str, mutant: Mutant) -> str:
    for at, stop, text in sorted(mutant.edits, reverse=True):
        source = source[:at] + text + source[stop:]
    return source


def site_text(source: str, mutant: Mutant) -> tuple[str, str]:
    """The lines of source that the mutant edits, each stripped and joined by
    a space, before and after the edit."""
    first = source.count("\n", 0, min(at for at, _, _ in mutant.edits))
    last = source.count("\n", 0, max(at for at, _, _ in mutant.edits))

    def text(s: str) -> str:
        return " ".join(line.strip() for line in s.splitlines()[first:last + 1])
    return text(source), text(apply(source, mutant))


def site_key(source: str, mutant: Mutant) -> tuple[str, str, str, str]:
    """(module, operator, source, mutant): how tests/data/mutants.json
    names a site."""
    return (mutant.module, mutant.operator, *site_text(source, mutant))


def known_mutants() -> dict:
    """The equivalent mutants of tests/data/mutants.json, each reason by its
    `site_key`."""
    entries = json.loads(KNOWN.read_text(encoding="utf-8"))
    return {(e["module"], e["operator"], e["source"], e["mutant"]): e["reason"] for e in entries}


def library_mutants(root: Path, modules) -> list[Mutant]:
    found = []
    for module in modules:
        found += mutants(module, _source(root, module))
    return found


def _source(root: Path, module: str) -> str:
    return (root / "src" / "eulerchar" / f"{module}.py").read_text(encoding="utf-8")


def run(snapshot: Path, mutant: Mutant) -> tuple[str, float]:
    """The mutant's outcome, killed, hung or survived, and its seconds."""
    with tempfile.TemporaryDirectory(prefix="eulerchar-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(snapshot, copy)
        path = copy / "src" / "eulerchar" / f"{mutant.module}.py"
        path.write_text(apply(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        began = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=CAP_SECONDS)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):  # pytest and what it started
                os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return "hung", time.monotonic() - began
        seconds = time.monotonic() - began
    if re.search(r"Timeout \(\d+:\d\d:\d\d\)!", out):  # tests/conftest.py's hang watchdog
        return "hung", seconds
    return ("survived" if child.returncode == 0 else "killed"), seconds


def main() -> int:
    modules = sorted(path.stem for path in LIBRARY.glob("*.py")
                     if path.stem not in ("__init__", "__main__"))
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--modules", default=",".join(modules),
                    help="comma-separated modules of src/eulerchar (default: all)")
    ap.add_argument("--sample", type=int, default=20, help="mutants to run")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    chosen = args.modules.split(",")
    unknown = set(chosen) - set(modules)
    if unknown:
        ap.error(f"no such module: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="eulerchar-snapshot-") as scratch:
        snapshot = Path(scratch) / "repo"
        shutil.copytree(ROOT, snapshot, ignore=_IGNORE)
        found = library_mutants(snapshot, chosen)
        sample = random.Random(args.seed).sample(found, min(args.sample, len(found)))
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            outcomes = list(pool.map(lambda m: run(snapshot, m), sample))
        sources = {module: _source(snapshot, module) for module in chosen}
    known = known_mutants()
    outcomes = [("known" if outcome == "survived" and site_key(sources[m.module], m) in known
                 else outcome, seconds) for m, (outcome, seconds) in zip(sample, outcomes)]
    for mutant, (outcome, seconds) in zip(sample, outcomes):
        print(f"{outcome:<8} {mutant.module}.py:{mutant.line} {mutant.operator} "
              f"{mutant.old} -> {mutant.new}  ({seconds:.0f} s)")
    print()
    for module in chosen:
        got = [outcome for m, (outcome, _) in zip(sample, outcomes) if m.module == module]
        sites = sum(m.module == module for m in found)
        print(f"{module}: " + ", ".join(f"{got.count(kind)} {kind}"
                                        for kind in ("killed", "hung", "survived", "known"))
              + f" of {len(got)} sampled from {sites} sites")
    for mutant, (outcome, _) in zip(sample, outcomes):
        if outcome == "survived":
            print(f"survivor {mutant.module}.py:{mutant.line} {mutant.old} -> {mutant.new}: "
                  f"{site_text(sources[mutant.module], mutant)[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
