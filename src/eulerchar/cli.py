"""Command-line interface: request ingestion, dispatch, report emission.

Input for `analyze` is a UTF-8 JSON document (file or stdin) with
schema_version 1; the schema is described in docs/schema.md.  All big
integers in reports are serialized as decimal strings so no consumer can
lose precision; exponents stay small and remain JSON numbers.

Exit codes: 0 hypotheses all PASS/ASSUMED, 1 malformed input (with a
JSON-pointer diagnostic), 2 some hypothesis FAILed (report still emitted),
3 chi suppressed because the torsion input is not exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .curves import (
    SingularModelError,
    TorsionEstimate,
    WeierstrassModel,
    count_points,
    discriminant,
    extension_count,
    reduce_model,
    torsion_bound_over_F,
)
from .cyclotomic import field_degree, splitting
from .euler import (
    AbelianVarietyInput,
    CorankReport,
    EulerCharReport,
    ExternalArithmetic,
    ReductionFact,
    TorsionCertificateError,
    analyze,
    corank_report,
    local_data_at,
    tau_p,
)
from .finite_fields import fq_create
from .tate import LocalReductionData
from .valuations import factorize, int_valuation, is_prime

SCHEMA_VERSION = 1
# torsion_bound_over_F samples good primes below 10^4, of which there are
# 1229: this leaves room for p and up to 228 primes of bad reduction
MAX_SAMPLES = 1000


class RequestError(ValueError):
    """Malformed analysis request; carries a JSON-pointer-style path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- request parsing -----------------------------------------------------------------


def _require(obj: dict, path: str, allowed: set[str], required: set[str]):
    if not isinstance(obj, dict):
        raise RequestError(path, "expected an object")
    for key in obj:
        if key not in allowed:
            raise RequestError(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise RequestError(f"{path}/{key}", "missing required key")


def _parse_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise RequestError(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _parse_prime(value, path: str, minimum: int = 2) -> int:
    """The request's `prime`, or the `--prime` or `--ell` of a subcommand."""
    prime = _parse_int(value, path, minimum=minimum)
    if not is_prime(prime):
        raise RequestError(path, f"expected a prime, got {prime}")
    return prime


def _parse_conductor(value) -> int:
    """The request's `base_field`, or a subcommand's `--conductor`: a
    squarefree m >= 1."""
    conductor = _parse_int(value, "/base_field", minimum=1)
    wild = [ell for ell, k in factorize(conductor) if k > 1]
    if wild:
        # 4 | m or ell^2 | m: Q(mu_m) is wildly ramified above ell
        raise RequestError(
            "/base_field",
            f"{wild[0]}^2 divides {conductor}: wildly ramified conductors are unsupported",
        )
    return conductor


def _parse_samples(value) -> int:
    """The request's `samples`, or the `--samples` of analyze and torsion."""
    samples = _parse_int(value, "/samples", minimum=1)
    if samples > MAX_SAMPLES:
        raise RequestError("/samples", f"expected an integer <= {MAX_SAMPLES}, got {samples}")
    return samples


def _parse_precision(value) -> None:
    """The request's `precision_digits`, or the `--precision-digits` of
    analyze and local: still validated, so that no request breaks, but
    without effect, as local arithmetic is exact."""
    if value is not None:
        _parse_int(value, "/precision_digits", minimum=4)


def _parse_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise RequestError(path, "expected a decimal string or integer")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise RequestError(path, f"not a rational number: {value!r}") from None
    raise RequestError(path, f"expected a decimal string, got {value!r}")


def _parse_curve(value, path: str) -> WeierstrassModel:
    if not isinstance(value, list) or len(value) != 5:
        raise RequestError(path, "expected a list of five a-invariants")
    coeffs = [_parse_rational(v, f"{path}/{i}") for i, v in enumerate(value)]
    return WeierstrassModel.from_rationals(coeffs)


def _parse_external(obj, path: str, prime: int) -> ExternalArithmetic:
    allowed = {
        "sha_p_order",
        "selmer_finite",
        "lambda_torsion_certificate",
        "torsion_p_override",
        "sigma_index_R",
        "no_p_torsion_certificate",
    }
    _require(obj, path, allowed, set())
    def boolean(key, default=False):
        v = obj.get(key, default)
        if not isinstance(v, bool):
            raise RequestError(f"{path}/{key}", "expected a boolean")
        return v

    sha = obj.get("sha_p_order", 1)
    sha = _parse_int(sha, f"{path}/sha_p_order", minimum=1)
    override = obj.get("torsion_p_override")
    if override is not None:
        override = _parse_int(override, f"{path}/torsion_p_override", minimum=1)
        if prime ** int_valuation(override, prime) != override:
            raise RequestError(
                f"{path}/torsion_p_override", f"expected a power of p = {prime}, got {override}"
            )
    sigma = obj.get("sigma_index_R")
    if sigma is not None:
        sigma = _parse_int(sigma, f"{path}/sigma_index_R", minimum=1)
    return ExternalArithmetic(
        sha_p_order=sha,
        selmer_finite=boolean("selmer_finite"),
        lambda_torsion_certificate=boolean("lambda_torsion_certificate"),
        torsion_p_override=override,
        sigma_index_R=sigma,
        no_p_torsion_certificate=boolean("no_p_torsion_certificate"),
    )


def _parse_abelian_variety(obj, path: str) -> AbelianVarietyInput:
    _require(obj, path, {"dimension", "factors", "reduction_table"}, {"dimension"})
    dim = _parse_int(obj["dimension"], f"{path}/dimension", minimum=1)
    factors = ()
    if "factors" in obj:
        raw = obj["factors"]
        if not isinstance(raw, list):
            raise RequestError(f"{path}/factors", "expected a list of curves")
        factors = tuple(
            _parse_curve(c, f"{path}/factors/{i}") for i, c in enumerate(raw)
        )
    table = ()
    if "reduction_table" in obj:
        raw = obj["reduction_table"]
        if not isinstance(raw, list):
            raise RequestError(f"{path}/reduction_table", "expected a list")
        rows = []
        for i, row in enumerate(raw):
            rpath = f"{path}/reduction_table/{i}"
            _require(row, rpath, {"prime", "potentially_good", "good"},
                     {"prime", "potentially_good", "good"})
            prime = _parse_int(row["prime"], f"{rpath}/prime", minimum=2)
            pg, good = row["potentially_good"], row["good"]
            if not isinstance(pg, bool) or not isinstance(good, bool):
                raise RequestError(rpath, "flags must be booleans")
            try:
                rows.append(ReductionFact(prime, pg, good))
            except ValueError as exc:
                raise RequestError(rpath, str(exc)) from None
        table = tuple(rows)
    if not factors and not table:
        raise RequestError(path, "needs factors or a reduction_table")
    try:
        return AbelianVarietyInput(dimension=dim, factors=factors, reduction_table=table)
    except ValueError as exc:
        raise RequestError(path, str(exc)) from None


def parse_request(obj) -> dict:
    """Validate a raw analysis request; returns the parsed pieces."""
    allowed = {
        "schema_version",
        "curve",
        "prime",
        "base_field",
        "abelian_variety",
        "external",
        "target_chi_sigma_exponent",
        "samples",
        "precision_digits",
    }
    _require(obj, "", allowed, {"schema_version", "curve", "prime", "base_field", "abelian_variety"})
    version = _parse_int(obj["schema_version"], "/schema_version")
    if version != SCHEMA_VERSION:
        raise RequestError("/schema_version", f"unsupported version {version}")
    curve = _parse_curve(obj["curve"], "/curve")
    prime = _parse_prime(obj["prime"], "/prime")
    conductor = _parse_conductor(obj["base_field"])
    variety = _parse_abelian_variety(obj["abelian_variety"], "/abelian_variety")
    external = _parse_external(obj.get("external", {}), "/external", prime)
    target = obj.get("target_chi_sigma_exponent")
    if target is not None:
        target = _parse_int(target, "/target_chi_sigma_exponent")
    samples = _parse_samples(obj.get("samples", 20))
    _parse_precision(obj.get("precision_digits"))
    return {
        "curve": curve,
        "prime": prime,
        "conductor": conductor,
        "abelian_variety": variety,
        "external": external,
        "target_chi_sigma_exponent": target,
        "samples": samples,
    }


def analyze_request(parsed: dict) -> EulerCharReport:
    """`analyze` on the pieces `parse_request` returns.  A torsion
    certificate outside the computed bracket is reported at its key, a
    singular curve at its own pointer."""
    try:
        return analyze(
            parsed["curve"],
            parsed["prime"],
            parsed["conductor"],
            parsed["abelian_variety"],
            parsed["external"],
            samples=parsed["samples"],
            target_chi_sigma_exponent=parsed["target_chi_sigma_exponent"],
        )
    except TorsionCertificateError as exc:
        raise RequestError("/external/torsion_p_override", str(exc)) from None
    except SingularModelError as exc:
        # looked for only here: parse_request computes no discriminant
        factors = parsed["abelian_variety"].factors
        curves = [("/curve", parsed["curve"])]
        curves += [(f"/abelian_variety/factors/{i}", c) for i, c in enumerate(factors)]
        path = next((path for path, c in curves if discriminant(c) == 0), "/")
        raise RequestError(path, str(exc)) from None


# -- report serialization --------------------------------------------------------------


def _reduction_fields(data: LocalReductionData) -> dict:
    """The reduction type of E at one place, `q_v` to `N_v`, as a report's
    place and the `local` subcommand print it."""
    return {
        "q_v": str(data.q_v),
        "kodaira": data.kodaira.symbol,
        "c_v": str(data.c_v),
        "v_min_delta": data.v_min_delta,
        "reduction_class": data.reduction_class,
        "potentially_good": data.potentially_good,
        "N_v": None if data.N_v is None else str(data.N_v),
    }


def _torsion_fields(est: TorsionEstimate) -> dict:
    return {"p": est.p, "lower": str(est.lower), "upper": str(est.upper), "exact": est.exact}


def _corank_fields(rep: CorankReport) -> dict:
    return {
        "window": list(rep.window),
        "sigma_index_R": rep.sigma_index_R,
        "global_corank": rep.global_corank,
        "local_corank": rep.local_corank,
        "conjectural_rank": rep.conjectural_rank,
    }


def report_to_dict(report: EulerCharReport) -> dict:
    if report.failed:
        status = "HYPOTHESIS_FAIL"
    elif report.suppressed:
        status = "NOT_EXACT"
    else:
        status = "OK"
    places = [
        {
            "place": place.label,
            "ell": place.ell,
            "e": place.e,
            "f": place.f,
            "g": place.g,
            **_reduction_fields(data),
            "L_at_1": str(data.L_at_1),
        }
        for place, data in report.places
    ]
    audit = [
        {
            "place": row.place.label,
            "q_v": str(row.q_v),
            "reduction_class": row.reduction_class,
            "L_at_1": str(row.L_at_1),
            "vp_L": row.vp_L,
            "contribution": row.contribution,
            "gamma_kernel_exponent": row.gamma_kernel_exponent,
        }
        for row in report.audit
    ]
    target = None
    if report.target_chi_sigma_exponent is not None:
        target = {
            "exponent": report.target_chi_sigma_exponent,
            "matches": report.chi_sigma_exponent == report.target_chi_sigma_exponent,
        }
    torsion = None
    if report.torsion is not None:
        torsion = {**_torsion_fields(report.torsion), "source": report.torsion_source}
    return {
        "schema_version": SCHEMA_VERSION,
        "status": status,
        "p": report.p,
        "conductor": report.conductor,
        "degree": report.degree,
        "hypotheses": [
            {"name": h.name, "status": h.status, "detail": h.detail}
            for h in report.hypotheses
        ],
        "M_rational": report.M_rational,
        "places": places,
        "torsion": torsion,
        "rho": {
            "base": report.p,
            "exponent": report.rho.exponent,
            "window": list(report.rho.window),
            "breakdown": report.rho.breakdown,
        },
        "chi_cyc": {"base": report.p, "exponent": report.chi_cyc_exponent},
        "chi_sigma": {"base": report.p, "exponent": report.chi_sigma_exponent},
        "target_chi_sigma": target,
        "audit": audit,
        "tau_p": report.tau,
        "corank": _corank_fields(report.coranks),
        "suppression_reason": report.suppression_reason,
    }


def _column_widths(rows: list[dict], **defaults: int) -> dict:
    """Each column as wide as the larger of its default and its widest
    entry, so that every row of a table puts its columns at the same
    offsets; a table with a header passes the header among its rows."""
    return {
        key: max([width] + [len(str(row[key])) for row in rows])
        for key, width in defaults.items()
    }


_PLACES_HEADER = dict(
    place="place", q_v="q_v", kodaira="kodaira", c_v="c_v",
    reduction_class="class", N_v="N_v", L_at_1="L(E,1)",
)


def render_text(doc: dict) -> str:
    lines = []
    lines.append(f"status: {doc['status']}")
    lines.append(
        f"p = {doc['p']}   conductor m = {doc['conductor']}   [F:Q] = {doc['degree']}"
    )
    lines.append("hypotheses:")
    for h in doc["hypotheses"]:
        lines.append(f"  {h['status']:<8} {h['name']}: {h['detail']}")
    lines.append(f"bad-tower primes: {doc['M_rational']}")
    lines.append("places:")
    places = [_PLACES_HEADER, *doc["places"]]
    w = _column_widths(places, place=7, q_v=7, kodaira=6, c_v=4, reduction_class=17, N_v=8)
    for pl in places:
        lines.append(
            f"  {pl['place']:<{w['place']}} {pl['q_v']:>{w['q_v']}}  "
            f"{pl['kodaira']:<{w['kodaira']}} {pl['c_v']:>{w['c_v']}}  "
            f"{pl['reduction_class']:<{w['reduction_class']}} {str(pl['N_v']):>{w['N_v']}}  "
            f"{pl['L_at_1']}"
        )
    t = doc["torsion"]
    if t is not None:
        lines.append(
            f"torsion over F: lower {t['lower']}, upper {t['upper']}, exact {t['exact']} ({t['source']})"
        )
    rho = doc["rho"]
    lines.append(
        f"rho: {rho['base']}^{rho['exponent']}  window {rho['window']}  breakdown {rho['breakdown']}"
    )
    lines.append(f"chi_cyc: {doc['chi_cyc']['base']}^{doc['chi_cyc']['exponent']}")
    lines.append(f"chi_sigma: {doc['chi_sigma']['base']}^{doc['chi_sigma']['exponent']}")
    if doc["target_chi_sigma"] is not None:
        tgt = doc["target_chi_sigma"]
        lines.append(f"target chi_sigma exponent: {tgt['exponent']} (matches: {tgt['matches']})")
    lines.append("audit (per-place |L_v|_p exponents):")
    w = _column_widths(
        doc["audit"],
        place=7, q_v=7, reduction_class=18, L_at_1=12, vp_L=3, contribution=2,
    )
    for row in doc["audit"]:
        lines.append(
            f"  {row['place']:<{w['place']}} q={row['q_v']:>{w['q_v']}}  "
            f"{row['reduction_class']:<{w['reduction_class']}} "
            f"L={row['L_at_1']:<{w['L_at_1']}} vp_L={row['vp_L']:>{w['vp_L']}}  "
            f"contribution={row['contribution']:>{w['contribution']}}"
            f"  gamma_exp={row['gamma_kernel_exponent']}"
        )
    lines.append(f"tau_p: {doc['tau_p']}")
    cor = doc["corank"]
    lines.append(
        f"corank window: {cor['window']}  sigma_index_R: {cor['sigma_index_R']}  "
        f"global: {cor['global_corank']}  local: {cor['local_corank']}  "
        f"conjectural rank: {cor['conjectural_rank']}"
    )
    if doc["suppression_reason"] is not None:
        lines.append(f"suppressed: {doc['suppression_reason']}")
    return "\n".join(lines)


def _emit(doc: dict, fmt, out) -> None:
    """Write doc to out: as indented JSON when fmt is "json", else as the
    text fmt(doc) renders."""
    out.write((json.dumps(doc, indent=2) if fmt == "json" else fmt(doc)) + "\n")


# -- subcommands ------------------------------------------------------------------------
# Each returns (document, text renderer, exit code).  A flag is checked as the
# request field it stands for is, at its pointer; --ell and --degree at /ell
# and /degree.

# numeric flags and their pointers: argparse hands each over as text, which
# `_int_flags` turns into the integer the request field would hold
_INT_FLAGS = dict(
    prime="/prime", ell="/ell", conductor="/base_field", degree="/degree", samples="/samples",
    precision_digits="/precision_digits", sigma_index="/external/sigma_index_R",
)


def _int_flags(args) -> None:
    for dest, path in _INT_FLAGS.items():
        text = getattr(args, dest, None)
        if isinstance(text, str):
            try:
                setattr(args, dest, int(text))
            except ValueError:
                raise RequestError(path, f"expected an integer, got {text!r}") from None


def _cmd_analyze(args):
    if args.request == "-":
        raw = sys.stdin.read()
    else:
        with open(args.request, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RequestError("/", f"invalid JSON ({exc})") from None
    parsed = parse_request(obj)
    if args.samples is not None:
        parsed["samples"] = _parse_samples(args.samples)
    _parse_precision(args.precision_digits)
    report = analyze_request(parsed)
    code = 2 if report.failed else 3 if report.suppressed else 0
    return report_to_dict(report), render_text, code


def _cmd_local(args):
    model = _parse_curve(args.curve.split(","), "/curve")
    ell = _parse_prime(args.ell, "/ell")
    conductor = _parse_conductor(args.conductor)
    _parse_precision(args.precision_digits)
    data = local_data_at(model, ell, conductor)
    sp = splitting(ell, conductor)
    doc = {
        "place": {"ell": ell, "e": sp.e, "f": sp.f, "g": sp.g},
        **_reduction_fields(data),
        "euler_factor_at_1": str(data.L_at_1),
    }
    return doc, lambda d: "\n".join(f"{k}: {v}" for k, v in d.items()), 0


def _cmd_splitting(args):
    ell = _parse_prime(args.ell, "/ell")
    # splitting computes no local data, so any m >= 1 will do
    sp = splitting(ell, _parse_int(args.conductor, "/base_field", minimum=1))
    doc = {
        "ell": sp.ell,
        "conductor": sp.m,
        "e": sp.e,
        "f": sp.f,
        "g": sp.g,
        "residue_field_size": str(sp.residue_size),
        "local_degree": sp.local_degree,
        "degree": field_degree(sp.m),
    }
    text = (
        f"{sp.ell} in Q(mu_{sp.m}): e={sp.e} f={sp.f} g={sp.g} "
        f"(residue field F_{sp.residue_size})"
    )
    return doc, lambda _: text, 0


def _cmd_torsion(args):
    model = _parse_curve(args.curve.split(","), "/curve")
    prime = _parse_prime(args.prime, "/prime", minimum=5)
    conductor = _parse_conductor(args.conductor)
    est = torsion_bound_over_F(model, prime, conductor, samples=_parse_samples(args.samples))
    text = (
        f"p-primary torsion over Q(mu_{conductor}): lower {est.lower}, "
        f"upper {est.upper}, exact {est.exact}"
    )
    return _torsion_fields(est), lambda _: text, 0


def _cmd_tau(args):
    model = _parse_curve(args.curve.split(","), "/curve")
    prime = _parse_prime(args.prime, "/prime")
    conductor = _parse_conductor(args.conductor)
    value = tau_p(model, prime, conductor)
    doc = {"p": prime, "conductor": conductor, "tau_p": value}
    return doc, lambda _: f"tau_{prime} over Q(mu_{conductor}) = {value}", 0


def _cmd_coranks(args):
    model = _parse_curve(args.curve.split(","), "/curve")
    prime = _parse_prime(args.prime, "/prime")
    conductor = _parse_conductor(args.conductor)
    sigma = args.sigma_index
    if sigma is not None:
        sigma = _parse_int(sigma, "/external/sigma_index_R", minimum=1)
    rep = corank_report(field_degree(conductor), tau_p(model, prime, conductor), sigma)
    text = (
        f"tau={rep.tau} window={rep.window} global={rep.global_corank} "
        f"local={rep.local_corank} conjectural={rep.conjectural_rank}"
    )
    return {"tau_p": rep.tau, "degree": rep.degree, **_corank_fields(rep)}, lambda _: text, 0


def _cmd_count(args):
    model = _parse_curve(args.curve.split(","), "/curve")
    ell = _parse_prime(args.ell, "/ell")
    degree = _parse_int(args.degree, "/degree", minimum=1)
    try:
        n1 = count_points(reduce_model(model, fq_create(ell, 1)))
    except SingularModelError:
        if discriminant(model) == 0:
            raise
        raise RequestError("/ell", f"the curve has bad reduction at {ell}") from None
    n = extension_count(n1, ell, degree)
    q = ell**degree
    doc = {"ell": ell, "degree": degree, "q": str(q), "count": str(n)}
    return doc, lambda _: f"#E(F_{q}) = {n}", 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: nothing in it depends
    on the call, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eulerchar",
        description="Euler characteristics of Selmer groups over division towers "
        "of cyclotomic fields: local reduction data, splitting, torsion, "
        "tau, coranks, and the full chi pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    p = command("analyze", _cmd_analyze, "run the full pipeline on a JSON request")
    p.add_argument("request", help="request file path, or - for stdin")
    p.add_argument("--samples")
    p.add_argument("--precision-digits")

    p = command("local", _cmd_local, "Tate data and Euler factor at one place")
    p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    p.add_argument("--ell", required=True)
    p.add_argument("--conductor", default=1)
    p.add_argument("--precision-digits")

    p = command("splitting", _cmd_splitting, "(e, f, g) of a prime in Q(mu_m)")
    p.add_argument("--ell", required=True)
    p.add_argument("--conductor", required=True)

    p = command("torsion", _cmd_torsion, "p-primary torsion bracket over Q(mu_m)")
    p.add_argument("--curve", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--conductor", default=1)
    p.add_argument("--samples", default=20)

    p = command("tau", _cmd_tau, "sum of local degrees at supersingular places above p")
    p.add_argument("--curve", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--conductor", default=1)

    p = command("coranks", _cmd_coranks, "corank window and tower predictions")
    p.add_argument("--curve", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--conductor", default=1)
    p.add_argument("--sigma-index")

    p = command("count", _cmd_count, "raw point count over F_{ell^f}")
    p.add_argument("--curve", required=True)
    p.add_argument("--ell", required=True)
    p.add_argument("--degree", default=1)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; malformed input exits 1 with one line
    `error: <pointer>: <message>`."""
    args = build_parser().parse_args(argv)
    try:
        _int_flags(args)
        doc, text, code = args.fn(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, SingularModelError):
            # analyze_request names the singular curve; a subcommand has one
            exc = RequestError("/curve", str(exc))
        elif not isinstance(exc, RequestError):
            exc = RequestError("/", str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, "json" if args.format == "json" else text, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
