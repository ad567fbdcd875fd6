"""Golden reports: each row of tests/data/golden.json runs in-process
through `cli.main`, and the sha256 of what it prints on stdout and on
stderr, and its exit code, must match the row.

The corpus is the CLI examples: the bundled requests in JSON and text, the
rows that finish from the ROADMAP baseline, the exit-3 rows, the refusals,
help and usage errors, and a row for each branch and request setting no
other row reaches.  Help exits 0 and a usage error 2 by raising
SystemExit, whose code is the row's exit code.  CI replays every row
through `python -m eulerchar`, each in a fresh process, against the same
digests.  The digests are data with no way to rewrite them here: a change
that moves one names the row and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from eulerchar.cli import main

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "tests" / "data" / "golden.json").read_text(encoding="utf-8"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _replay(rows, monkeypatch, capsys, before_each=lambda: None) -> list:
    """Names of the rows whose output or exit code moved."""
    monkeypatch.chdir(ROOT)  # the bundled requests are named by relative path
    mismatched = []
    for row in rows:
        before_each()
        monkeypatch.setattr(sys, "stdin", io.StringIO(row["stdin"]))
        try:
            code = main(row["argv"])
        except SystemExit as stop:
            code = stop.code
        out = capsys.readouterr()
        expected = (row["stdout_sha256"], row["stderr_sha256"], row["exit_code"])
        if (_sha256(out.out), _sha256(out.err), code) != expected:
            mismatched.append(row["name"])
    return mismatched


def test_golden_reports(monkeypatch, capsys):
    assert _replay(ROWS, monkeypatch, capsys) == []
    assert len(ROWS) >= 121


def test_text_rows_print_no_python_repr(monkeypatch, capsys):
    """Every row that prints text prints the document's leaves as the JSON
    does: no None, True, False or dict repr."""
    monkeypatch.chdir(ROOT)
    printed = {}
    for row in ROWS:
        if not {"json", "--format=json"} & set(row["argv"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(row["stdin"]))
            with contextlib.suppress(SystemExit):
                main(row["argv"])
            printed[row["name"]] = capsys.readouterr().out
    texts = {name: out for name, out in printed.items() if out}
    assert {"local", "splitting", "torsion", "tau", "coranks", "count", "analyze"} == {
        row["argv"][0] for row in ROWS if row["name"] in texts} - {"--help"}
    for name, out in texts.items():
        assert not any(word in out for word in ("None", "True", "False", "{'")), name


def test_memos_never_change_a_report(monkeypatch, capsys, library_caches):
    """One process replays the rows in file order, then in reverse order,
    then with every library memo emptied before each row: a memo filled by
    one request answers for the next, and no order moves a digest."""

    def clear():
        for fn in library_caches.values():
            fn.cache_clear()

    assert _replay(ROWS, monkeypatch, capsys) == []
    assert _replay(ROWS[::-1], monkeypatch, capsys) == []
    assert _replay(ROWS, monkeypatch, capsys, before_each=clear) == []
