"""One reference for byte identity: the census rows of the recorded seed and
the tower rows, served in-process through `cli.main` from empty memos as
`bench/run.py` serves them, print the reports whose digests
`bench/reference.json` records.  The digests, the request generators and
the report checks are the benchmark's own, imported from `bench/`."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from eulerchar.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from checks import check, expected_digest, load_reference  # noqa: E402
from workloads import build  # noqa: E402


@pytest.mark.parametrize("workload,rows", [("census", 700), ("tower", 16)])
def test_reports_match_the_bench_reference(workload, rows, monkeypatch):
    reference = load_reference()
    seed = reference["census_seed"]
    built = build(workload, seed, 10)
    assert len(built) == rows
    problems = []
    for name, kind, payload in built:
        expected = expected_digest(reference, workload, seed, name)
        assert expected is not None, name
        argv, stdin = ((["analyze", "-", "--format", "json"], payload)
                       if kind == "analyze" else (payload, ""))
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        problems += [f"{name}: {problem}" for problem in check(out.getvalue(), code, expected)]
    assert problems == []
