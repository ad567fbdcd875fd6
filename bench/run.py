#!/usr/bin/env python3
"""The eulerchar benchmark.

    python3 bench/run.py --workload census|tower|scale|all --seed N \\
        [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.
Every request goes through ``cli.main`` as ``eulerchar analyze - --format
json`` with the request on standard input (``parse_request`` -> ``analyze``
-> ``report_to_dict`` -> ``_emit``), or as ``eulerchar tau`` for the tau
rows of ``scale``.  Load is a closed loop with one client and no think
time.  ``census`` and ``tower`` run in this process, whose library caches
start empty; every ``scale`` row runs in its own interpreter under a
wall-clock cap, one at a time.

Times are reported in reference seconds: a time is scaled by the ratio of
REFERENCE_LOOP_S to the mean time of a fixed pure-Python loop, sampled every
CALIBRATE_EVERY_S inside the process doing the work; a request's latency by
the samples taken while it ran (and the one before), a pass's wall time by
all of them.  The host this was tuned on runs that loop up to 60 % slower
for tens of seconds at a time, and the scaling cancels that drift; the
unscaled wall time is printed too.  Each setup_s probe is scaled by the loop
time its own interpreter measures once set up.  The span times of the
traced run stay unscaled (and include the sampling, about 7 %).

Every report is checked: against the digest recorded in ``reference.json``
where there is one (fixed rows, and census rows of the recorded seed), and
against invariants that hold for any seed (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the pass
untraced and then traced, from empty caches both times, checks that the
report bytes agree, prints the per-layer metrics (see ``tracing.py``) and
writes the spans to ``.bench_traces/``.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics; the exit code is 1
when any report fails its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"

#: per-row wall-clock cap of `scale`; the slowest row (p = 13, m = 13) takes
#: about 12 s on a 2-core x86 VM, 18 s when the host runs slow
CAP_SECONDS = 60
#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 15
#: the command line each analyze row runs, with the request on stdin
ANALYZE_ARGV = ("analyze", "-", "--format", "json")
#: the calibration loop and its time at the reference speed
CALIBRATION_LOOP = 50_000
REFERENCE_LOOP_S = 0.005
#: interval between two samples of host speed
CALIBRATE_EVERY_S = 0.2

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import eulerchar from this checkout's src/, never from elsewhere."""
    if not (SRC / "eulerchar" / "__init__.py").is_file():
        raise SystemExit(f"error: no eulerchar sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import eulerchar.cli
    import eulerchar.euler

    if Path(eulerchar.__file__).resolve().parent != SRC / "eulerchar":
        raise SystemExit(f"error: imported eulerchar from {eulerchar.__file__}, not {SRC}")


def fq_create_misses() -> int:
    from eulerchar.finite_fields import fq_create

    return fq_create.cache_info().misses


def clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("eulerchar"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# -- one request ---------------------------------------------------------------


@contextlib.contextmanager
def stdin_from(text: str):
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def serve(kind: str, payload, recorder) -> tuple[str, int]:
    """One request through ``cli.main``; returns what it prints and its exit
    code.  The checks hold the code against the report's status."""
    from eulerchar import cli

    span = recorder.span if recorder else (lambda name: contextlib.nullcontext())
    argv, stdin = (list(ANALYZE_ARGV), payload) if kind == "analyze" else (payload, "")
    out = io.StringIO()
    with span("cli.main"), stdin_from(stdin), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if not out.getvalue():
        raise RuntimeError(f"eulerchar {argv[0]} exited with code {code} and printed nothing")
    return out.getvalue(), code


def loop_time() -> float:
    """Fastest of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Loop times sampled every CALIBRATE_EVERY_S by a SIGALRM timer in the
    thread doing the work, so each sample sees the core that runs it (the
    two cores of the host this was tuned on drift apart by up to 60 %)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, loop time)
        self.spent = 0.0  # seconds spent sampling, left out of every time

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append((t0, loop_time()))
        self.spent += time.perf_counter() - t0

    def factor(self, start=-math.inf, end=math.inf) -> float:
        """Multiplier from raw to reference seconds for the interval from
        start to end: the samples taken in it and the last one before it."""
        before = [loop for t, loop in self.samples if t < start][-1:]
        inside = [loop for t, loop in self.samples if start <= t <= end]
        return REFERENCE_LOOP_S / statistics.fmean(before + inside)

    @contextlib.contextmanager
    def sampling(self):
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()


def serve_here(row, recorder, speed: HostSpeed) -> dict:
    """One row in this process; latency from parse to serialised report, in
    reference seconds."""
    name, kind, payload = row
    if recorder:
        recorder.request = name
    t0, spent = time.perf_counter(), speed.spent
    try:
        (text, code), error = serve(kind, payload, recorder), None
    except Exception as exc:  # a failing request is counted, never fatal
        text, code, error = None, None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    latency = (t1 - t0 - (speed.spent - spent)) * speed.factor(t0, t1)
    return {"name": name, "text": text, "code": code, "latency": latency, "error": error}


def run_here(rows, traced: bool) -> dict:
    """A closed-loop pass in this process, from empty library caches, with
    the sampling time taken out; ``factor`` scales its raw times."""
    clear_library_caches()
    misses = fq_create_misses()
    recorder = tracing.Recorder() if traced else None
    speed = HostSpeed()
    with recorder.installed() if recorder else contextlib.nullcontext(), speed.sampling():
        t0, spent = time.perf_counter(), speed.spent
        outcomes = [serve_here(row, recorder, speed) for row in rows]
        raw_wall = time.perf_counter() - t0 - (speed.spent - spent)
    return {
        "outcomes": outcomes,
        "raw_wall": raw_wall,
        "wall": raw_wall * speed.factor(),
        "factor": speed.factor(),
        "spent": speed.spent,
        "spans": [recorder.spans] if recorder else [],
        "fq_create_misses": fq_create_misses() - misses,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# -- a pass over a workload ----------------------------------------------------


def run_pass(workload: str, rows, seed: int, traced: bool) -> dict:
    """One pass; latencies and ``wall`` in reference seconds."""
    if workload == "scale":
        return run_children(rows, seed, traced)
    return run_here(rows, traced)


def run_children(rows, seed: int, traced: bool) -> dict:
    """Each row in its own interpreter, one at a time, under CAP_SECONDS.

    A row's latency is measured inside its interpreter and scaled by the
    speed sampled there; the pass wall time adds interpreter start.  A row
    over the cap is killed (and waited for) and recorded as a timeout with
    the cap as its latency; the parent keeps nothing of it."""
    result = {"outcomes": [], "wall": 0.0, "raw_wall": 0.0, "spans": [],
              "fq_create_misses": 0, "peak_rss_kb": 0}
    for name, _, _ in rows:
        cmd = [sys.executable, str(BENCH / "run.py"), "--child", name,
               "--seed", str(seed), "--trace", str(int(traced))]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=CAP_SECONDS)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                out = None
        elapsed = time.perf_counter() - t0
        if out is None or proc.returncode != 0:
            error = "timeout" if out is None else (
                f"child exited with code {proc.returncode}: {err.strip()[-400:]}")
            latency = CAP_SECONDS if out is None else elapsed
            result["outcomes"].append(
                {"name": name, "text": None, "code": None, "latency": latency, "error": error})
            result["wall"] += elapsed
            result["raw_wall"] += elapsed
            continue
        child = json.loads(out.splitlines()[-1])
        result["outcomes"].extend(child["outcomes"])
        result["wall"] += (elapsed - child["spent"]) * child["factor"]
        result["raw_wall"] += elapsed - child["spent"]
        result["spans"].extend(child["spans"])
        result["fq_create_misses"] += child["fq_create_misses"]
        result["peak_rss_kb"] = max(result["peak_rss_kb"], child["peak_rss_kb"])
    return result


def child_main(name: str, seed: int, traced: bool) -> int:
    load_library()
    row = next(r for r in workloads.scale(seed) if r[0] == name)
    print(json.dumps(run_here([row], traced)))
    return 0


# -- set-up ---------------------------------------------------------------------


def set_up(workload: str, seed: int, seconds: int):
    """Generate the workload and parse every request once (as the CLI
    would reject a malformed one before any work)."""
    from eulerchar.cli import parse_request

    rows = workloads.build(workload, seed, seconds)
    for _, kind, payload in rows:
        if kind == "analyze":
            parse_request(json.loads(payload))
    return rows


def time_set_up(workload: str, seed: int, seconds: int) -> float:
    """Median over SETUP_PROBES fresh interpreters of interpreter start to
    the first request, in reference seconds: each imports eulerchar,
    generates and parses the workload, says so, and then times the
    calibration loop, by which its set-up time is scaled."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
        if ready.strip() != "ready" or len(rest) != 1 or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append(elapsed * REFERENCE_LOOP_S / float(rest[0]))
    return statistics.median(times)


# -- checks and reporting ------------------------------------------------------


def check_outcomes(workload: str, seed: int, outcomes, reference: dict) -> dict:
    failed = {}
    for o in outcomes:
        if o["error"]:
            problems = [o["error"]]
        else:
            expected = checks.expected_digest(reference, workload, seed, o["name"])
            problems = checks.check(o["text"], o["code"], expected)
        if problems:
            failed[o["name"]] = problems
    return failed


def provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        git_sha = sha[1] if len(sha) == 2 and Path(sha[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cap_s": CAP_SECONDS,
        "trace": args.trace,
    }


def emit(metrics: dict, units: dict, attempted: int, failed: dict, notes: dict | None = None) -> None:
    for name, problems in list(failed.items())[:20]:
        print(f"FAILED {name}: {'; '.join(problems)}")
    for name, value in metrics.items():
        note = f"  (should move {notes[name]})" if notes else ""
        print(f"{name} = {value} {units[name]}{note}")
    print(f"failed_share = {len(failed) / attempted} ratio ({len(failed)} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def timed_run(args, rows, reference: dict) -> int:
    setup_s = time_set_up(args.workload, args.seed, args.seconds)
    result = run_pass(args.workload, rows, args.seed, traced=False)
    outcomes = result["outcomes"]
    failed = check_outcomes(args.workload, args.seed, outcomes, reference)
    latencies = [o["latency"] for o in outcomes]
    metrics = {
        "requests_per_s": (len(outcomes) - len(failed)) / result["wall"],
        "wall_s": result["wall"],
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    print(f"unscaled wall = {result['raw_wall']} s")
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = 1000 * statistics.quantiles(latencies, n=10)[-1]
        print(f"latency_p90_ms = {p90} ms ({len(latencies)} samples)")
    emit(metrics, END_TO_END_UNITS, len(outcomes), failed)
    return 1 if failed else 0


def traced_run(args, rows, reference: dict) -> int:
    plain = run_pass(args.workload, rows, args.seed, traced=False)
    traced = run_pass(args.workload, rows, args.seed, traced=True)
    failed = check_outcomes(args.workload, args.seed, plain["outcomes"], reference)
    for name, problems in check_outcomes(args.workload, args.seed, traced["outcomes"], reference).items():
        failed.setdefault(name, []).extend(f"traced: {p}" for p in problems)
    for a, b in zip(plain["outcomes"], traced["outcomes"]):
        if a["text"] != b["text"]:
            failed.setdefault(a["name"], []).append("traced report bytes differ from untraced")
    spans = tracing.merge(traced["spans"])
    overhead = (traced["wall"] - plain["wall"]) / plain["wall"]
    metrics = tracing.layer_metrics(spans, traced["fq_create_misses"], overhead)

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
    print("self time by span (s):")
    for name, own in tracing.self_time_by_name(spans).items():
        print(f"  {name:34s} {own:10.4f}")
    if args.workload == "scale":
        for o in traced["outcomes"]:
            top = list(tracing.self_time_by_name(spans, o["name"]).items())[:3]
            print(f"  {o['name']:36s} " + ", ".join(f"{n} {t:.3f}" for n, t in top))
    units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    notes = {name: f"{moves} on {where}" for name, _, _, moves, where in tracing.LAYER_METRICS}
    emit(metrics, units, len(plain["outcomes"]), failed, notes)
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        return child_main(args.child, args.seed, bool(args.trace))
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    load_library()
    rows = set_up(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        print("ready", flush=True)
        print(loop_time(), flush=True)
        return 0
    reference = checks.load_reference()
    print("provenance: " + json.dumps(provenance(args)))
    return (traced_run if args.trace else timed_run)(args, rows, reference)


if __name__ == "__main__":
    sys.exit(main())
