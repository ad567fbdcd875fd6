"""Command-line interface: request ingestion, dispatch, report emission.

Input for `analyze` is a UTF-8 JSON document (file or stdin) with
schema_version 1; the schema is described in docs/schema.md.  All big
integers in reports are serialized as decimal strings so no consumer can
lose precision; exponents stay small and remain JSON numbers.

`parse_request` checks a request and returns it as the keyword arguments
of `euler.analyze`, taking the keys and defaults of `external` from
`ExternalArithmetic` and leaving the rules of a variety to
`AbelianVarietyInput`, whose refusals it reports at `/abelian_variety`.

Exit codes follow the report's `status` (`EulerCharReport.status`): 0 OK,
hypotheses all PASS/ASSUMED; 2 HYPOTHESIS_FAIL, some hypothesis FAILed
(report still emitted); 3 NOT_EXACT, chi suppressed because the torsion
input is not exact.  Malformed input exits 1 with a JSON-pointer diagnostic.

The command line is read straight off the `_COMMANDS` table when it has
the plain form `COMMAND [positional] --flag VALUE ...` with exact flag
names; argparse is imported, and one subcommand's parser built, only for
what else argparse accepts (abbreviated flags, values starting with `-`,
`--`) and for help and usage errors.  The fast path stays because without
it a fresh process builds its parser inside the request it serves: the
`scale` benchmark's `latency_p50_ms` then rose from 1.58 to 2.42 ms, past
its 25 % bound (medians of 12 alternating pairs, CPython 3.11.7 on 2
cores), while `wall_s` did not move.  Each argument's row also names the
reader that checks its value as the request field it stands for; `main`
runs the readers in row order, before a request file is read.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .curves import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
    CountCapError,
    SingularModelError,
    TorsionEstimate,
    WeierstrassModel,
    invariants,
    torsion_bound_over_F,
)
from .cyclotomic import UnprintableFieldError, check_printable, field_degree, splitting
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
from .tate import LocalField, LocalReductionData, tate_algorithm
from .valuations import factorize, int_valuation, is_prime

SCHEMA_VERSION = 1
# deepest nesting of arrays and objects in a request: the schema's is 4, and
# the JSON decoder raises RecursionError near 1000 on CPython 3.10-3.12 only
MAX_NESTING = 100


class RequestError(ValueError):
    """Malformed analysis request; carries a JSON-pointer-style path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- request parsing -----------------------------------------------------------------


def _require(obj: dict, path: str, allowed, required: tuple[str, ...]):
    """Refuse anything but an object whose keys lie in allowed and include
    every key of required; path is "" at the request root.  A missing key is
    named in the order required lists it, the order of the schema."""
    if not isinstance(obj, dict):
        raise RequestError(path or "/", "expected an object")
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
    """The request's `prime`, a `reduction_table` row's `prime`, or the
    `--prime` or `--ell` of a subcommand."""
    prime = _parse_int(value, path, minimum=minimum)
    if not is_prime(prime):
        raise RequestError(path, f"expected a prime, got {prime}")
    return prime


def _parse_conductor(value, path: str) -> int:
    """The request's `base_field`, or a subcommand's `--conductor`: a
    squarefree m >= 1."""
    conductor = _parse_int(value, path, minimum=1)
    wild = [ell for ell, k in factorize(conductor) if k > 1]
    if wild:
        # 4 | m or ell^2 | m: Q(mu_m) is wildly ramified above ell
        raise RequestError(
            path,
            f"{wild[0]}^2 divides {conductor}: wildly ramified conductors are unsupported",
        )
    return conductor


def _parse_samples(value, path: str) -> int:
    """The request's `samples`, or the `--samples` of analyze and torsion."""
    samples = _parse_int(value, path, minimum=1)
    if samples > MAX_SAMPLES:
        raise RequestError(path, f"expected an integer <= {MAX_SAMPLES}, got {samples}")
    return samples


def _parse_precision(value, path: str) -> None:
    """The request's `precision_digits`, or the `--precision-digits` of
    analyze and local: still validated, so that no request breaks, but
    without effect, as local arithmetic is exact."""
    if value is not None:
        _parse_int(value, path, minimum=4)


def _ascii_int(text: str, signed: bool = True) -> int | None:
    """The integer that text spells in the grammar `[+-]digits` (`digits`
    when not signed) with ASCII digits; None for any other text, and past
    int's digit limit.  `int(str)` also takes spaces, underscores and
    non-ASCII digits."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    try:
        return int(text) if text.isascii() and digits.isdigit() else None
    except ValueError:  # past int's digit limit
        return None


def _parse_rational(value, path: str) -> int | Fraction:
    """An integer, or a string of the grammar `[+-]digits[/digits]` in
    ASCII digits (`_ascii_int`), where `Fraction(str)` also takes decimal
    points and exponents.  An integer value is an int, and only p/q with
    q > 1 in lowest terms a Fraction."""
    if isinstance(value, bool):
        raise RequestError(path, "expected a decimal string or integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        n, d = _ascii_int(num), _ascii_int(den, signed=False) if slash else 1
        if n is not None and d:  # d is 0 for p/0
            return n // d if n % d == 0 else Fraction(n, d)
        raise RequestError(path, f"not a rational number: {value!r}")
    raise RequestError(path, f"expected a decimal string, got {value!r}")


def _parse_curve(value, path: str) -> WeierstrassModel:
    """Five rational a-invariants of a nonsingular curve, as its integral
    model (`WeierstrassModel.from_rationals`); a singular one is refused at
    path, and the invariants stay memoized on the model."""
    if not isinstance(value, list) or len(value) != 5:
        raise RequestError(path, "expected a list of five a-invariants")
    coeffs = [_parse_rational(v, f"{path}/{i}") for i, v in enumerate(value)]
    model = WeierstrassModel.from_rationals(coeffs)
    try:
        invariants(model)
    except SingularModelError as exc:
        raise RequestError(path, str(exc)) from None
    return model


def _parse_external(obj, path: str, prime: int) -> ExternalArithmetic:
    """The keys and defaults of `ExternalArithmetic`: a certificate is a
    boolean, any other key an integer >= 1, and null only where the default
    is null.  A torsion certificate must be a power of p."""
    defaults = ExternalArithmetic._field_defaults
    _require(obj, path, ExternalArithmetic._fields, ())
    fields = {**defaults, **obj}
    for key, value in fields.items():
        if type(defaults[key]) is bool:
            if not isinstance(value, bool):
                raise RequestError(f"{path}/{key}", "expected a boolean")
        elif value is not None or defaults[key] is not None:
            fields[key] = _parse_int(value, f"{path}/{key}", minimum=1)
    override = fields["torsion_p_override"]
    if override is not None and prime ** int_valuation(override, prime) != override:
        raise RequestError(
            f"{path}/torsion_p_override", f"expected a power of p = {prime}, got {override}"
        )
    return ExternalArithmetic(**fields)


def _parse_abelian_variety(obj, path: str) -> AbelianVarietyInput:
    """The keys of `AbelianVarietyInput`, of which `dimension` is required,
    with each `reduction_table` row holding every key of `ReductionFact`."""
    _require(obj, path, AbelianVarietyInput._fields, ("dimension",))
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
            _require(row, rpath, ReductionFact._fields, ReductionFact._fields)
            prime, pg, good = (row[key] for key in ReductionFact._fields)
            prime = _parse_prime(prime, f"{rpath}/prime")
            if not isinstance(pg, bool) or not isinstance(good, bool):
                raise RequestError(rpath, "flags must be booleans")
            try:
                rows.append(ReductionFact(prime, pg, good))
            except ValueError as exc:
                raise RequestError(rpath, str(exc)) from None
        table = tuple(rows)
    try:
        return AbelianVarietyInput(dimension=dim, factors=factors, reduction_table=table)
    except ValueError as exc:
        raise RequestError(path, str(exc)) from None


def _nests_deeper(doc, limit: int) -> bool:
    """Whether arrays and objects nest in doc more than limit levels deep,
    found level by level, without recursion."""
    level = [doc]
    for _ in range(limit):
        level = [v for c in level if isinstance(c, (list, dict))
                 for v in (c.values() if isinstance(c, dict) else c)]
        if not level:
            return False
    return any(isinstance(c, (list, dict)) for c in level)


# a request's keys, in the order of the schema
_REQUIRED_KEYS = ("schema_version", "curve", "prime", "base_field", "abelian_variety")
_OPTIONAL_KEYS = ("external", "target_chi_sigma_exponent", "samples", "precision_digits")


def parse_request(obj) -> dict:
    """Validate a raw analysis request, refusing it with a RequestError at
    the pointer of its first bad key; returns the keyword arguments of
    `analyze`: E, p, m, A, ext, samples and target_chi_sigma_exponent."""
    _require(obj, "", _REQUIRED_KEYS + _OPTIONAL_KEYS, _REQUIRED_KEYS)
    version = _parse_int(obj["schema_version"], "/schema_version")
    if version != SCHEMA_VERSION:
        raise RequestError("/schema_version", f"unsupported version {version}")
    E = _parse_curve(obj["curve"], "/curve")
    p = _parse_prime(obj["prime"], "/prime", minimum=5)
    m = _parse_conductor(obj["base_field"], "/base_field")
    A = _parse_abelian_variety(obj["abelian_variety"], "/abelian_variety")
    ext = _parse_external(obj.get("external", {}), "/external", p)
    target = obj.get("target_chi_sigma_exponent")
    if target is not None:
        target = _parse_int(target, "/target_chi_sigma_exponent")
    samples = _parse_samples(obj.get("samples", DEFAULT_SAMPLES), "/samples")
    _parse_precision(obj.get("precision_digits"), "/precision_digits")
    return dict(E=E, p=p, m=m, A=A, ext=ext, samples=samples, target_chi_sigma_exponent=target)


# -- report serialization --------------------------------------------------------------


def _reduction_fields(data: LocalReductionData) -> dict:
    """The reduction type of E at one place, `q_v` to `N_v`, as the `local`
    subcommand prints it and a report's place rows hold it
    (`report_to_dict`)."""
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
    # the g places above one prime are conjugate and share one record (E is
    # defined over Q), so its values are converted once for the rows
    # ell#1 ... ell#g, and its audit rows reuse them
    places, audit, fields_at = [], [], {}
    for sp, data in report.places:
        ell, g = sp.ell, sp.g
        fields = fields_at[ell] = {"ell": ell, "e": sp.e, "f": sp.f, "g": g,
                                   **_reduction_fields(data), "L_at_1": str(data.L_at_1)}
        places += [{"place": f"{ell}#{i}", **fields} for i in range(1, g + 1)]
    for r in report.audit:
        fields = fields_at[r.ell]
        row = {"q_v": fields["q_v"], "reduction_class": fields["reduction_class"],
               "L_at_1": fields["L_at_1"], "vp_L": r.vp_L, "contribution": r.contribution,
               "gamma_kernel_exponent": r.gamma_kernel_exponent}
        audit += [{"place": f"{r.ell}#{i}", **row} for i in range(1, fields["g"] + 1)]
    target = None
    if report.target_chi_sigma_exponent is not None:
        target = {
            "exponent": report.target_chi_sigma_exponent,
            "matches": report.chi_sigma_exponent == report.target_chi_sigma_exponent,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "status": report.status,
        "p": report.p,
        "conductor": report.conductor,
        "degree": report.coranks.degree,
        "hypotheses": [
            {"name": h.name, "status": h.status, "detail": h.detail} for h in report.hypotheses
        ],
        "M_rational": report.M_rational,
        "places": places,
        "torsion": {**_torsion_fields(report.torsion), "source": report.torsion_source},
        "rho": {
            "base": report.p,
            "exponent": report.rho.exponent,
            "window": list(report.rho.window),
            "breakdown": report.rho.breakdown,
        },
        "chi_cyc": {"base": report.p, "exponent": report.rho.exponent},
        "chi_sigma": {"base": report.p, "exponent": report.chi_sigma_exponent},
        "target_chi_sigma": target,
        "audit": audit,
        "tau_p": report.coranks.tau,
        "corank": _corank_fields(report.coranks),
        "suppression_reason": report.suppression_reason,
    }


def _table(rows: list[dict], columns) -> list[str]:
    """One line per row: each column is (prefix, key, align, width), and its
    entry is str(row[key]) after prefix, padded by align ("<" or ">") to the
    larger of width and its widest entry, so that every row puts the column
    at the same offset; a width of None leaves the entry unpadded.  A table
    with a header passes the header among its rows."""
    widths = [width and max([width] + [len(str(row[key])) for row in rows])
              for _, key, _, width in columns]
    return ["".join(f"{prefix}{str(row[key]):{align}{w or ''}}"
                    for (prefix, key, align, _), w in zip(columns, widths))
            for row in rows]


_PLACES_HEADER = dict(
    place="place", q_v="q_v", kodaira="kodaira", c_v="c_v",
    reduction_class="class", N_v="N_v", L_at_1="L(E,1)",
)
_PLACES_COLUMNS = (("  ", "place", "<", 7), (" ", "q_v", ">", 7), ("  ", "kodaira", "<", 6),
                   (" ", "c_v", ">", 4), ("  ", "reduction_class", "<", 17),
                   (" ", "N_v", ">", 8), ("  ", "L_at_1", "<", None))
_AUDIT_COLUMNS = (("  ", "place", "<", 7), (" q=", "q_v", ">", 7),
                  ("  ", "reduction_class", "<", 18), (" L=", "L_at_1", "<", 12),
                  (" vp_L=", "vp_L", ">", 3), ("  contribution=", "contribution", ">", 2),
                  ("  gamma_exp=", "gamma_kernel_exponent", "<", None))


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
    lines += _table([_PLACES_HEADER, *doc["places"]], _PLACES_COLUMNS)
    t = doc["torsion"]
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
    lines += _table(doc["audit"], _AUDIT_COLUMNS)
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


def _to_json(value, indent: str = "\n") -> str:
    """value as `json.dumps(value, indent=2)` writes it, for the JSON-native
    values a document holds; that encoder runs in pure Python whenever it
    indents.  indent is the newline and indentation that precede value's
    closing bracket.  Any other type, a float or a tuple say, and a non-str
    key raise TypeError.

    A container writes its leaves inline, by the same exact-type tests as
    the value itself, and recurses only into the containers it holds."""
    kind = type(value)  # the exact type: a bool is no int, a record no list
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        is_dict = kind is dict
        items = []
        # a list item stands in as its own key, which only a dict's items use
        for key, v in value.items() if is_dict else zip(value, value):
            leaf = type(v)
            if leaf is str:
                v = _quote(v)
            elif leaf is int:
                v = int.__repr__(v)
            elif v is None or leaf is bool:
                v = "null" if v is None else "true" if v else "false"
            else:
                v = _to_json(v, inner)
            # _quote raises TypeError on a non-str key
            items.append(f"{_quote(key)}: {v}" if is_dict else v)
        if is_dict:
            return f"{{{inner}" + f",{inner}".join(items) + f"{indent}}}"
        return f"[{inner}" + f",{inner}".join(items) + f"{indent}]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"a {kind.__name__} has no place in a JSON document")


def _emit(doc: dict, fmt, out) -> None:
    """Write doc to out: as indented JSON when fmt is "json", else as the
    text fmt(doc) renders."""
    out.write((_to_json(doc) if fmt == "json" else fmt(doc)) + "\n")


# -- subcommands ------------------------------------------------------------------------
# Each argument's reader takes its value as the command line hands it over
# (its text, `--` for `--flag=--`, or the row's default) and returns
# it checked as the request field the flag stands for, at that field's pointer;
# --ell and --degree at /ell and /degree.  A handler computes on checked values
# and returns (document, text renderer, exit code); a library refusal passes
# through it to `main`, which reports it at the pointer of the command's row.


def _integer(path: str, parse=_parse_int, **bounds):
    """The reader of a numeric flag: its text, in the grammar `[+-]digits`
    of `_ascii_int`, as the integer the request field at path would hold,
    checked by parse(value, path, **bounds); an optional flag not given
    stays None."""
    def read(value):
        if value is None:
            return None
        if isinstance(value, str):
            number = _ascii_int(value)
            if number is None:
                raise RequestError(path, f"expected an integer, got {value!r}")
            value = number
        return parse(value, path, **bounds)
    return read


def _read_curve(value) -> WeierstrassModel:
    """`--curve a1,a2,a3,a4,a6`, read as the request's `curve`."""
    return _parse_curve(value.split(",") if isinstance(value, str) else value, "/curve")


_read_prime = _integer("/prime", _parse_prime, minimum=5)  # the formula's p >= 5
_read_conductor = _integer("/base_field", _parse_conductor)
_read_samples = _integer("/samples", _parse_samples)
_read_precision = _integer("/precision_digits", _parse_precision)


# the exit code of `analyze` for each report status
_EXIT_CODES = {"OK": 0, "HYPOTHESIS_FAIL": 2, "NOT_EXACT": 3}


def _cmd_analyze(args):
    if args.request == "-":
        raw = sys.stdin.read()
    else:
        with open(args.request, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
        deep = _nests_deeper(obj, MAX_NESTING)
    except json.JSONDecodeError as exc:
        raise RequestError("/", f"invalid JSON ({exc})") from None
    except RecursionError:
        deep = True
    if deep:
        raise RequestError("/", f"invalid JSON (nesting deeper than {MAX_NESTING})")
    parsed = parse_request(obj)
    if args.samples is not None:
        parsed["samples"] = args.samples
    report = analyze(**parsed)
    return report_to_dict(report), render_text, _EXIT_CODES[report.status]


def _cmd_local(args):
    sp = splitting(args.ell, args.conductor)
    data = local_data_at(args.curve, args.ell, args.conductor)
    doc = {
        "place": {"ell": args.ell, "e": sp.e, "f": sp.f, "g": sp.g},
        **_reduction_fields(data),
        "euler_factor_at_1": str(data.L_at_1),
    }
    return doc, lambda d: "\n".join(f"{k}: {v}" for k, v in d.items()), 0


def _cmd_splitting(args):
    sp = splitting(args.ell, args.conductor)
    q = sp.ell**sp.f
    doc = {
        "ell": sp.ell,
        "conductor": sp.m,
        "e": sp.e,
        "f": sp.f,
        "g": sp.g,
        "residue_field_size": str(q),
        "local_degree": sp.e * sp.f,
        "degree": field_degree(sp.m),
    }
    text = f"{sp.ell} in Q(mu_{sp.m}): e={sp.e} f={sp.f} g={sp.g} (residue field F_{q})"
    return doc, lambda _: text, 0


def _cmd_torsion(args):
    est = torsion_bound_over_F(args.curve, args.prime, args.conductor, samples=args.samples)
    text = (
        f"p-primary torsion over Q(mu_{args.conductor}): lower {est.lower}, "
        f"upper {est.upper}, exact {est.exact}"
    )
    return _torsion_fields(est), lambda _: text, 0


def _cmd_tau(args):
    value = tau_p(args.curve, args.prime, args.conductor)
    doc = {"p": args.prime, "conductor": args.conductor, "tau_p": value}
    return doc, lambda _: f"tau_{args.prime} over Q(mu_{args.conductor}) = {value}", 0


def _cmd_coranks(args):
    tau = tau_p(args.curve, args.prime, args.conductor)
    rep = corank_report(field_degree(args.conductor), tau, args.sigma_index)
    text = (
        f"tau={rep.tau} window={rep.window} global={rep.global_corank} "
        f"local={rep.local_corank} conjectural={rep.conjectural_rank}"
    )
    return {"tau_p": rep.tau, "degree": rep.degree, **_corank_fields(rep)}, lambda _: text, 0


def _cmd_count(args):
    ell, degree = args.ell, args.degree
    check_printable(ell, degree)
    # the count of the reduction of a minimal model at ell, whatever the model given
    n = tate_algorithm(args.curve, LocalField(ell, 1), f=degree).N_v
    if n is None:
        raise RequestError("/ell", f"the curve has bad reduction at {ell}")
    q = ell**degree
    doc = {"ell": ell, "degree": degree, "q": str(q), "count": str(n)}
    return doc, lambda _: f"#E(F_{q}) = {n}", 0


# each subcommand: its handler, its help line, its arguments as
# (name or flag, add_argument keywords, reader), and the pointer at which it
# reports each library refusal; `main` reports any other refusal at /
_COMMANDS = {
    "analyze": (_cmd_analyze, "run the full pipeline on a JSON request", (
        ("request", dict(help="request file path, or - for stdin"), str),
        ("--samples", {}, _read_samples),
        ("--precision-digits", {}, _read_precision),
    ), {TorsionCertificateError: "/external/torsion_p_override",
        UnprintableFieldError: "/base_field"}),
    "local": (_cmd_local, "Tate data and Euler factor at one place", (
        ("--curve", dict(required=True, help="a1,a2,a3,a4,a6"), _read_curve),
        ("--ell", dict(required=True), _integer("/ell", _parse_prime)),
        ("--conductor", dict(default=1), _read_conductor),
        ("--precision-digits", {}, _read_precision),
    ), {UnprintableFieldError: "/base_field", CountCapError: "/ell"}),
    "splitting": (_cmd_splitting, "(e, f, g) of a prime in Q(mu_m)", (
        ("--ell", dict(required=True), _integer("/ell", _parse_prime)),
        # splitting computes no local data, so any m >= 1 will do
        ("--conductor", dict(required=True), _integer("/base_field", minimum=1)),
    ), {UnprintableFieldError: "/base_field"}),
    "torsion": (_cmd_torsion, "p-primary torsion bracket over Q(mu_m)", (
        ("--curve", dict(required=True), _read_curve),
        ("--prime", dict(required=True), _read_prime),
        ("--conductor", dict(default=1), _read_conductor),
        ("--samples", dict(default=DEFAULT_SAMPLES), _read_samples),
    ), {UnprintableFieldError: "/base_field"}),
    "tau": (_cmd_tau, "sum of local degrees at supersingular places above p", (
        ("--curve", dict(required=True), _read_curve),
        ("--prime", dict(required=True), _read_prime),
        ("--conductor", dict(default=1), _read_conductor),
    ), {CountCapError: "/prime"}),
    "coranks": (_cmd_coranks, "corank window and tower predictions", (
        ("--curve", dict(required=True), _read_curve),
        ("--prime", dict(required=True), _read_prime),
        ("--conductor", dict(default=1), _read_conductor),
        ("--sigma-index", {}, _integer("/external/sigma_index_R", minimum=1)),
    ), {CountCapError: "/prime"}),
    "count": (_cmd_count, "raw point count over F_{ell^f}", (
        ("--curve", dict(required=True), _read_curve),
        ("--ell", dict(required=True), _integer("/ell", _parse_prime)),
        ("--degree", dict(default=1), _integer("/degree", minimum=1)),
    ), {UnprintableFieldError: "/degree", CountCapError: "/ell"}),
}
# every subcommand's output format, ahead of its own arguments
_FORMAT = ("--format", dict(choices=("json", "text"), default="text"), str)


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser(argv[0]).parse_args(argv[1:])` returns,
    read off `_COMMANDS` without argparse, when argv is a command followed
    by its positionals and by flags named in full, each as `--flag VALUE`
    (VALUE not starting with `-`) or `--flag=VALUE`, with every required
    flag given and every value among its choices; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, arguments, _ = _COMMANDS[argv[0]]
    flags = {name: keywords for name, keywords, _ in (_FORMAT, *arguments) if name.startswith("--")}
    positionals = [name for name, _, _ in arguments if not name.startswith("--")]
    given, values = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("--"):
            name, eq, value = token.partition("=")
            if not eq:
                value = next(tokens, "-")  # a flag that ends argv has no value
            # argparse reads `--flag=--` as no value at all, and checks the
            # choices of a repeated flag each time
            if (name not in flags or value == "--" or (value.startswith("-") and not eq)
                    or value not in flags[name].get("choices", (value,))):
                return None
            given[name] = value
        elif token.startswith("-") and token != "-":
            return None
        else:
            values.append(token)
    required = {name for name, keywords in flags.items() if keywords.get("required")}
    if len(values) != len(positionals) or not required <= given.keys():
        return None
    args = SimpleNamespace(fn=fn, command=argv[0], **dict(zip(positionals, values)))
    for name, keywords in flags.items():
        setattr(args, _dest(name), given.get(name, keywords.get("default")))
    return args


def _dest(name: str) -> str:  # an argument's attribute, as argparse names it
    return name.lstrip("-").replace("-", "_")


@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand, or with no command the top-level
    parser that lists them all.  Each is built once per process, and only
    when asked for: nothing in it depends on the call, and parsing leaves
    it unchanged."""
    import argparse

    if command is None:
        parser = argparse.ArgumentParser(
            prog="eulerchar",
            description="Euler characteristics of Selmer groups over division towers "
            "of cyclotomic fields: local reduction data, splitting, torsion, "
            "tau, coranks, and the full chi pipeline.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, summary, _, _) in _COMMANDS.items():
            sub.add_parser(name, help=summary)
        return parser
    fn, _, arguments, _ = _COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"eulerchar {command}")
    parser.set_defaults(fn=fn, command=command)
    for name, keywords, _ in (_FORMAT, *arguments):
        parser.add_argument(name, **keywords)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; malformed input exits 1 with one line
    `error: <pointer>: <message>`."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        if not argv or argv[0] not in _COMMANDS:
            # no subcommand comes first: the top-level parser prints its help
            # and exits 0, or a usage error and exits 2
            build_parser().parse_args(argv)
        parser = build_parser(argv[0])
        args = parser.parse_args(argv[1:])
        # argparse hands `--flag=--` over as [] before 3.13 and as "--" from
        # 3.13 on, where it refuses it as a --format: every reader sees the
        # text, and every interpreter refuses the format
        if args.format == []:
            parser.error("argument --format: invalid choice: '--' (choose from 'json', 'text')")
        vars(args).update({k: "--" for k, v in vars(args).items() if v == []})
    _, _, arguments, refused_at = _COMMANDS[args.command]
    try:
        for name, _, read in (_FORMAT, *arguments):
            setattr(args, _dest(name), read(getattr(args, _dest(name))))
        doc, text, code = args.fn(args)
    except (ValueError, OSError) as exc:
        if not isinstance(exc, RequestError):
            exc = RequestError(refused_at.get(type(exc), "/"), str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, "json" if args.format == "json" else text, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
