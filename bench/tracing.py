"""Spans for the traced run, recorded from outside the library.

Each traced library function is replaced, at every module that looks it up
by name, with a wrapper that records a span: name, start, end, parent span
and request id, plus a few attributes read from its arguments and result.
Nothing under ``src/`` changes, and the original names are restored when the
traced pass ends.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span).  Names are bound where they are imported, so a
# function called from two modules is wrapped in both.
WRAP_SITES = (
    ("cli", "parse_request", "cli.parse_request"),
    ("cli", "analyze", "euler.analyze"),
    ("cli", "report_to_dict", "cli.report_to_dict"),
    ("cli", "_emit", "cli.emit"),  # json.dump of the report
    ("euler", "local_data_at", "euler.local_data_at"),
    ("euler", "tate_algorithm", "tate.tate_algorithm"),
    ("tate", "tate_algorithm", "tate.tate_algorithm"),  # rerun in _good_data
    ("curves", "count_points", "curves.count_points"),
    ("tate", "count_points", "curves.count_points"),
    ("euler", "torsion_bound_over_F", "curves.torsion_bound_over_F"),
    ("curves", "rational_p_torsion_order", "curves.rational_p_torsion_order"),
    ("curves", "division_polynomial", "curves.division_polynomial"),
    ("polynomials", "rational_roots", "polynomials.rational_roots"),  # imported at call time
    ("euler", "pot_supersingular", "tate.pot_supersingular"),
    ("euler", "factorize", "valuations.factorize"),
)

# (metric, unit, better, end-to-end metric it should move, on workload)
LAYER_METRICS = (
    ("cli.parse_ms", "ms", "lower", "requests_per_s", "census"),
    ("cli.serialize_ms", "ms", "lower", "requests_per_s", "census"),
    ("euler.self_s", "s", "lower", "requests_per_s", "census"),
    ("euler.local_data_calls", "count", "lower", "wall_s", "tower"),
    ("euler.local_data_repeat_share", "ratio", "lower", "wall_s", "tower"),
    ("tate.calls", "count", "lower", "wall_s", "tower"),
    ("tate.self_s", "s", "lower", "wall_s, latency_p50_ms", "tower, census"),
    ("tate.precision_retries", "count", "lower", "wall_s", "tower"),
    ("tate.base_rerun_calls", "count", "lower", "wall_s", "tower"),
    ("curves.count_calls", "count", "lower", "wall_s", "tower, scale"),
    ("curves.count_s", "s", "lower", "wall_s", "tower, scale"),
    ("curves.count_elements", "count", "lower", "wall_s", "tower, scale"),
    ("curves.count_char2_s", "s", "lower", "wall_s", "tower, scale"),
    ("curves.count_prime_s", "s", "lower", "wall_s", "tower, scale"),
    ("curves.count_ext_odd_s", "s", "lower", "wall_s", "tower, scale"),
    ("curves.torsion_bound_s", "s", "lower", "wall_s", "scale, tower"),
    ("curves.rational_torsion_s", "s", "lower", "wall_s", "scale, tower"),
    ("curves.division_polynomial_s", "s", "lower", "wall_s", "scale, tower"),
    ("polynomials.rational_roots_s", "s", "lower", "wall_s", "scale"),
    ("polynomials.rational_roots_degree", "count", "lower", "wall_s", "scale"),
    ("tate.pot_supersingular_s", "s", "lower", "wall_s", "scale"),
    ("tate.pot_supersingular_elements", "count", "lower", "wall_s", "scale"),
    ("valuations.factorize_calls", "count", "lower", "wall_s", "census, scale"),
    ("valuations.factorize_s", "s", "lower", "wall_s", "census, scale"),
    ("valuations.factorize_hit_share", "ratio", "higher", "wall_s", "census, scale"),
    ("finite_fields.fq_create_misses", "count", "lower", "wall_s", "scale"),
    ("trace.overhead_share", "ratio", "lower", "none: the cost of tracing", "every workload"),
)


def _count_route(args, kwargs, result) -> dict:
    field = args[0].a1.field
    if field.characteristic == 2:
        route = "char2"
    else:
        route = "prime" if field.degree == 1 else "ext_odd"
    return {"q": field.order, "route": route}


def _tate_retries(args, kwargs, result) -> dict:
    start = args[1].precision
    return {"retries": (result.precision_used // start).bit_length() - 1}


def _local_key(args, kwargs, result) -> dict:
    model, ell = args[0], args[1]
    precision = args[3] if len(args) > 3 else kwargs.get("precision")
    coeffs = ",".join(str(c) for c in model.coefficients())
    return {"key": f"{coeffs}|{ell}|{result.e}|{result.f}|{precision}"}


_DESCRIBE = {
    "curves.count_points": _count_route,
    "tate.tate_algorithm": _tate_retries,
    "euler.local_data_at": _local_key,
    "polynomials.rational_roots": lambda args, kwargs, result: {"degree": args[0].degree},
    "tate.pot_supersingular": lambda args, kwargs, result: {"elements": args[1] ** 2},
}


class Recorder:
    """Spans of one process, as dicts with integer parent indices."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record["attrs"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        describe = _DESCRIBE.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe:
                    attrs.update(describe(args, kwargs, result))
                if cache_info:
                    attrs["hit"] = cache_info().hits > hits
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in WRAP_SITES for the duration of the block."""
        originals = []
        wrappers = {}
        try:
            for module_name, attr, span in WRAP_SITES:
                module = importlib.import_module(f"eulerchar.{module_name}")
                original = getattr(module, attr)
                originals.append((module, attr, original))
                key = (id(original), span)
                if key not in wrappers:
                    wrappers[key] = self.wrap(span, original)
                setattr(module, attr, wrappers[key])
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate per-process span lists, shifting parent indices."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            parent = span["parent"]
            merged.append({**span, "parent": None if parent is None else parent + offset})
    return merged


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus the time covered by child spans (children of one span
    run one after another, so their durations add)."""
    own = [s["end"] - s["start"] for s in spans]
    out = list(own)
    for span, duration in zip(spans, own):
        if span["parent"] is not None:
            out[span["parent"]] -= duration
    return out


def self_time_by_name(spans: list[dict], request: str | None = None) -> dict[str, float]:
    """Self time per span name, over all spans or those of one request."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if request is None or span["request"] == request:
            totals[span["name"]] += own
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans: list[dict], fq_create_misses: int, overhead_share: float) -> dict:
    """Every metric of LAYER_METRICS, as {name: value}."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name[name])

    def self_total(name):
        return sum(own[i] for i in by_name[name])

    def attr_sum(name, key):
        return sum(spans[i]["attrs"][key] for i in by_name[name])

    def mean_ms(name):
        return 1000 * total(name) / len(by_name[name]) if by_name[name] else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    # report_to_dict plus the emit of the same request (tau rows emit too)
    analyzed = {spans[i]["request"] for i in by_name["cli.report_to_dict"]}
    serialize_s = total("cli.report_to_dict") + sum(
        spans[i]["end"] - spans[i]["start"]
        for i in by_name["cli.emit"]
        if spans[i]["request"] in analyzed
    )
    local_keys = [spans[i]["attrs"]["key"] for i in by_name["euler.local_data_at"]]
    counts = by_name["curves.count_points"]
    tates = by_name["tate.tate_algorithm"]
    factorize = by_name["valuations.factorize"]

    def count_route_s(route):
        return sum(
            spans[i]["end"] - spans[i]["start"]
            for i in counts
            if spans[i]["attrs"]["route"] == route
        )

    return {
        "cli.parse_ms": mean_ms("cli.parse_request"),
        "cli.serialize_ms": 1000 * serialize_s / len(analyzed) if analyzed else 0.0,
        "euler.self_s": self_total("euler.analyze"),
        "euler.local_data_calls": len(local_keys),
        "euler.local_data_repeat_share": share(len(local_keys) - len(set(local_keys)), len(local_keys)),
        "tate.calls": len(tates),
        "tate.self_s": self_total("tate.tate_algorithm"),
        "tate.precision_retries": attr_sum("tate.tate_algorithm", "retries"),
        "tate.base_rerun_calls": sum(
            1
            for i in tates
            if spans[i]["parent"] is not None
            and spans[spans[i]["parent"]]["name"] == "tate.tate_algorithm"
        ),
        "curves.count_calls": len(counts),
        "curves.count_s": total("curves.count_points"),
        "curves.count_elements": attr_sum("curves.count_points", "q"),
        "curves.count_char2_s": count_route_s("char2"),
        "curves.count_prime_s": count_route_s("prime"),
        "curves.count_ext_odd_s": count_route_s("ext_odd"),
        "curves.torsion_bound_s": total("curves.torsion_bound_over_F"),
        "curves.rational_torsion_s": total("curves.rational_p_torsion_order"),
        "curves.division_polynomial_s": total("curves.division_polynomial"),
        "polynomials.rational_roots_s": total("polynomials.rational_roots"),
        "polynomials.rational_roots_degree": attr_sum("polynomials.rational_roots", "degree"),
        "tate.pot_supersingular_s": total("tate.pot_supersingular"),
        "tate.pot_supersingular_elements": attr_sum("tate.pot_supersingular", "elements"),
        "valuations.factorize_calls": len(factorize),
        "valuations.factorize_s": total("valuations.factorize"),
        "valuations.factorize_hit_share": share(
            sum(1 for i in factorize if spans[i]["attrs"]["hit"]), len(factorize)
        ),
        "finite_fields.fq_create_misses": fq_create_misses,
        "trace.overhead_share": overhead_share,
    }
