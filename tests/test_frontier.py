"""scripts/frontier.py and its rows, tests/data/frontier.json: each row is
well formed and capped at 60 s, and the script reports a row that finishes
and one that its cap kills."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _frontier():
    spec = importlib.util.spec_from_file_location("frontier", ROOT / "scripts" / "frontier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frontier_rows_are_capped_and_named_once():
    rows = json.loads(_frontier().ROWS.read_text(encoding="utf-8"))
    assert len({row["name"] for row in rows}) == len(rows) >= 10
    for row in rows:
        assert set(row) == {"name", "item", "cap", "argv", "stdin"}, row["name"]
        assert 0 < row["cap"] <= 60, row["name"]


def test_measure_reports_a_finished_row_and_a_timeout():
    measure = _frontier().measure
    finished = measure({"argv": ["splitting", "--ell", "7", "--conductor", "1"], "stdin": "",
                        "cap": 30})
    assert (finished["exit"], finished["stdout_bytes"]) == (0, len(
        "ell: 7\nconductor: 1\ne: 1\nf: 1\ng: 1\nresidue_field_size: 7\nlocal_degree: 1\n"
        "degree: 1\n"))
    assert finished["peak_rss_mb"] > 1
    # factoring m - 1 = 2 * 12 * (10^18 + 3) * (10^18 + 9) runs past a minute
    slow = measure({"argv": ["splitting", "--ell", "2", "--conductor",
                             "24000000000000000288000000000000000649"], "stdin": "", "cap": 1})
    assert slow["exit"] == "timeout"
    assert 1 <= slow["seconds"] < 30
