"""Tests of the benchmark itself: generator hygiene, the output checks and
the scale timeout path.  Run with ``python3 -m pytest bench``."""

import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eulerchar.cli import parse_request  # noqa: E402


def build(workload, seed):
    return workloads.build(workload, seed, seconds=2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_requests(workload):
    assert build(workload, 7) == build(workload, 7)


def test_census_seeds_differ_and_prefixes_agree():
    assert build("census", 1) != build("census", 2)
    assert workloads.census(3, 10) == workloads.census(3, 40)[:10]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_is_in_domain_and_parses(workload):
    for name, kind, payload in build(workload, 11):
        if kind == "analyze":
            request = json.loads(payload)
            assert workloads.in_domain(request), name
            parse_request(request)


def test_census_curves_are_distinct():
    curves = []
    for _, _, payload in build("census", 5):
        request = json.loads(payload)
        curves += [request["curve"], *request["abelian_variety"]["factors"]]
    assert len({tuple(c) for c in curves}) == len(curves)


def test_wild_conductors_are_out_of_domain():
    request = json.loads(build("tower", 1)[0][2])
    for m in (4, 8, 9, 25):
        assert not workloads.in_domain({**request, "base_field": m})


def test_reference_covers_every_fixed_row():
    reference = checks.load_reference()
    for workload in ("tower", "scale"):
        assert {name for name, _, _ in build(workload, 1)} == set(reference[workload])
    assert len(reference["census"]) == len(workloads.build("census", 1, 10))


def _bundled_report():
    (_, kind, payload), = [r for r in build("scale", 1) if r[0].endswith("factor_curve")]
    run.load_library()
    text, code = run.serve(kind, payload, None)
    assert code == 0
    return text


def test_checks_accept_the_reference_report_and_catch_broken_ones():
    text = _bundled_report()
    reference = checks.load_reference()
    expected = reference["scale"]["scale/bundled/analysis_with_factor_curve"]
    assert checks.check(text, 0, expected) == []
    assert checks.check(text, 2, expected) == ["exit code 2, expected 0 for this report"]
    doc = json.loads(text)
    doc["places"][-1]["v_min_delta"] += 1
    doc["rho"]["breakdown"]["sha"] += 1
    doc["tau_p"] = doc["degree"] + 1
    assert len(checks.invariant_problems(doc)) >= 3


def test_traced_bytes_equal_untraced_and_originals_restored():
    import eulerchar.euler

    original = eulerchar.euler.tate_algorithm
    plain = _bundled_report()
    recorder = tracing.Recorder()
    with recorder.installed():
        (_, kind, payload), = [r for r in build("scale", 1) if r[0].endswith("factor_curve")]
        traced, _ = run.serve(kind, payload, recorder)
    assert traced == plain
    assert eulerchar.euler.tate_algorithm is original
    names = {span["name"] for span in recorder.spans}
    assert {"cli.parse_request", "euler.analyze", "cli.report_to_dict", "cli.emit",
            "tate.tate_algorithm", "curves.count_points", "euler.local_data_at"} <= names


@pytest.mark.parametrize("code, status", [(0, 0), (2, 1)])
def test_exit_status_is_1_when_a_report_fails_its_checks(monkeypatch, code, status):
    outcome = {"name": "scale/bundled/analysis_with_factor_curve", "text": _bundled_report(),
               "code": code, "latency": 0.1, "error": None}
    monkeypatch.setattr(run, "time_set_up", lambda *args: 0.1)
    monkeypatch.setattr(run, "run_pass", lambda *args, **kwargs: {
        "outcomes": [outcome], "wall": 0.1, "raw_wall": 0.1, "peak_rss_kb": 1024})
    args = argparse.Namespace(workload="scale", seed=1, seconds=1)
    assert run.timed_run(args, [], checks.load_reference()) == status


def test_row_over_the_cap_is_a_timeout(monkeypatch):
    monkeypatch.setattr(run, "CAP_SECONDS", 0.5)
    row = [r for r in build("scale", 1) if r[0] == "scale/tau/p401"]
    result = run.run_children(row, seed=1, traced=False)
    (outcome,) = result["outcomes"]
    assert outcome["error"] == "timeout" and outcome["latency"] == 0.5


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS
    ]
