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

The command line is read straight off the `_COMMANDS` table by
`_read_argv`, which also prints help and usage errors; no parser is built.
Each argument's row also names the reader that checks its value as the
request field it stands for; `main` runs the readers in row order, before a
request file is read.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
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


def _parse_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise RequestError(path, f"expected an integer >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise RequestError(path, f"expected an integer <= {maximum}, got {value}")
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
    samples = _parse_int(obj.get("samples", DEFAULT_SAMPLES), "/samples",
                         minimum=1, maximum=MAX_SAMPLES)
    if obj.get("precision_digits") is not None:
        # still validated, so that no request breaks, but without effect, as
        # local arithmetic is exact
        _parse_int(obj["precision_digits"], "/precision_digits", minimum=4)
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
            # null while chi is suppressed, as its exponent is
            "matches": None if report.chi_sigma_exponent is None
            else report.chi_sigma_exponent == report.target_chi_sigma_exponent,
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


def _to_json(value, indent: str = "\n") -> str:
    """value, a document or a container in one, as `json.dumps(value,
    indent=2)` writes it, for the JSON-native values a document holds; that
    encoder runs in pure Python whenever it indents.  indent is the newline
    and indentation that precede value's closing bracket.  Any other type,
    a leaf at the top, a float or a tuple say, and a non-str key raise
    TypeError.

    A container writes its leaves inline, by exact-type tests, and recurses
    only into the containers it holds."""
    kind = type(value)  # the exact type: a bool is no int, a record no list
    if kind is not dict and kind is not list:
        raise TypeError(f"a {kind.__name__} has no place here in a JSON document")
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


def _text_value(value) -> str:
    """A leaf, or a list of leaves, on one line: a str as it is, anything
    else as in the JSON."""
    return value if type(value) is str else json.dumps(value)


def _to_text(doc: dict, indent: str = "") -> str:
    """doc as text, a line `key: value` for each leaf and each list of
    leaves; an object is `key:` over its entries, indented two spaces, and
    a list of objects is `key:` over a table whose header row holds the
    objects' keys, one row per object, each column padded to its widest
    entry and no line ending in a space."""
    lines = []
    for key, value in doc.items():
        if value and type(value) is dict:
            lines += [f"{indent}{key}:", _to_text(value, indent + "  ")]
        elif value and type(value) is list and type(value[0]) is dict:
            rows = [list(value[0]), *([_text_value(v) for v in row.values()] for row in value)]
            widths = [max(map(len, column)) for column in zip(*rows)]
            lines.append(f"{indent}{key}:")
            lines += [(indent + "  " + "  ".join(map(str.ljust, row, widths))).rstrip()
                      for row in rows]
        else:
            lines.append(f"{indent}{key}: {_text_value(value)}")
    return "\n".join(lines)


def _emit(doc: dict, fmt: str, out) -> None:
    """Write doc to out, as indented JSON when fmt is "json", else as text."""
    out.write((_to_json(doc) if fmt == "json" else _to_text(doc)) + "\n")


# -- subcommands ------------------------------------------------------------------------
# Each argument's reader takes its value as the command line hands it over
# (its text, or the row's default) and returns it checked as the request
# field the flag stands for, at that field's pointer; --ell and --degree at
# /ell and /degree.  A handler computes on checked values and returns
# (document, exit code), and `_emit` prints the document in the format asked
# for; a library refusal passes through the handler to `main`, which reports
# it at the pointer of the command's row.


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
_read_ell = _integer("/ell", _parse_prime)
_read_conductor = _integer("/base_field", _parse_conductor)
_read_samples = _integer("/samples", minimum=1, maximum=MAX_SAMPLES)
_read_precision = _integer("/precision_digits", minimum=4)


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
    return report_to_dict(report), _EXIT_CODES[report.status]


def _cmd_local(args):
    sp = splitting(args.ell, args.conductor)
    data = local_data_at(args.curve, args.ell, args.conductor)
    doc = {
        "place": {"ell": args.ell, "e": sp.e, "f": sp.f, "g": sp.g},
        **_reduction_fields(data),
        "euler_factor_at_1": str(data.L_at_1),
    }
    return doc, 0


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
    return doc, 0


def _cmd_torsion(args):
    est = torsion_bound_over_F(args.curve, args.prime, args.conductor, samples=args.samples)
    return _torsion_fields(est), 0


def _cmd_tau(args):
    value = tau_p(args.curve, args.prime, args.conductor)
    return {"p": args.prime, "conductor": args.conductor, "tau_p": value}, 0


def _cmd_coranks(args):
    tau = tau_p(args.curve, args.prime, args.conductor)
    rep = corank_report(field_degree(args.conductor), tau, args.sigma_index)
    return {"tau_p": rep.tau, "degree": rep.degree, **_corank_fields(rep)}, 0


def _cmd_count(args):
    ell, degree = args.ell, args.degree
    check_printable(ell, degree)
    # the count of the reduction of a minimal model at ell, whatever the model given
    n = tate_algorithm(args.curve, LocalField(ell, 1), f=degree).N_v
    if n is None:
        raise RequestError("/ell", f"the curve has bad reduction at {ell}")
    return {"ell": ell, "degree": degree, "q": str(ell**degree), "count": str(n)}, 0


# the argument rows that several subcommands share
_CURVE = ("--curve", dict(required=True), _read_curve)
_ELL = ("--ell", dict(required=True), _read_ell)
_PRIME = ("--prime", dict(required=True), _read_prime)
_CONDUCTOR = ("--conductor", dict(default=1), _read_conductor)
_PRECISION = ("--precision-digits", {}, _read_precision)

# each subcommand: its handler, its help line, its arguments as (name or
# flag, its `required`, `default` and `choices`, reader), and the pointer at
# which it reports each library refusal; `main` reports any other refusal at /
_COMMANDS = {
    "analyze": (_cmd_analyze, "run the full pipeline on a JSON request", (
        ("request", {}, str),
        ("--samples", {}, _read_samples),
        _PRECISION,
    ), {TorsionCertificateError: "/external/torsion_p_override",
        UnprintableFieldError: "/base_field"}),
    "local": (_cmd_local, "Tate data and Euler factor at one place", (
        _CURVE, _ELL, _CONDUCTOR, _PRECISION,
    ), {UnprintableFieldError: "/base_field", CountCapError: "/ell"}),
    "splitting": (_cmd_splitting, "(e, f, g) of a prime in Q(mu_m)", (
        _ELL,
        # splitting computes no local data, so any m >= 1 will do
        ("--conductor", dict(required=True), _integer("/base_field", minimum=1)),
    ), {UnprintableFieldError: "/base_field"}),
    "torsion": (_cmd_torsion, "p-primary torsion bracket over Q(mu_m)", (
        _CURVE, _PRIME, _CONDUCTOR,
        ("--samples", dict(default=DEFAULT_SAMPLES), _read_samples),
    ), {UnprintableFieldError: "/base_field"}),
    "tau": (_cmd_tau, "sum of local degrees at supersingular places above p", (
        _CURVE, _PRIME, _CONDUCTOR,
    ), {CountCapError: "/prime"}),
    "coranks": (_cmd_coranks, "corank window and tower predictions", (
        _CURVE, _PRIME, _CONDUCTOR,
        ("--sigma-index", {}, _integer("/external/sigma_index_R", minimum=1)),
    ), {CountCapError: "/prime"}),
    "count": (_cmd_count, "raw point count over F_{ell^f}", (
        _CURVE, _ELL,
        ("--degree", dict(default=1), _integer("/degree", minimum=1)),
    ), {UnprintableFieldError: "/degree", CountCapError: "/ell"}),
}
# every subcommand's output format, ahead of its own arguments
_FORMAT = ("--format", dict(choices=("json", "text"), default="text"), str)


def _stop(command: str | None, error: str | None = None):
    """Print the usage line of command, built from its row, and its help
    line on stdout and exit 0; with no command, the usage line and help
    line of every command.  Given an error, print the usage line and
    `eulerchar[ COMMAND]: error: <error>` on stderr and exit 2."""
    prog = "eulerchar" if command is None else f"eulerchar {command}"
    if command is None:
        words = ["{" + ",".join(_COMMANDS) + "} ..."]
        lines = [f"  {name:11}{summary}" for name, (_, summary, _, _) in _COMMANDS.items()]
    else:
        words, lines = [], [_COMMANDS[command][1]]
        for name, keywords, _ in (_FORMAT, *_COMMANDS[command][2]):
            if name.startswith("--"):
                choices = keywords.get("choices")
                name += " {" + ",".join(choices) + "}" if choices else " " + _dest(name).upper()
                name = name if keywords.get("required") else f"[{name}]"
            words.append(name)
    if error is not None:
        lines = [f"{prog}: error: {error}"]
    usage = " ".join([f"usage: {prog} [-h]", *words])
    (sys.stdout if error is None else sys.stderr).write("\n".join([usage, *lines]) + "\n")
    raise SystemExit(0 if error is None else 2)


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """The namespace of argv, read off `_COMMANDS`: a command, then its
    positionals and its flags in any order.  A flag is named in full or by
    a prefix of exactly one of the command's flags, and takes its value as
    `--flag=VALUE`, any text, or as `--flag VALUE`, the next token unless
    that starts with `--`; a repeated flag's last value wins, and `--` ends
    the flags.  `-h` or `--help` first, or anywhere after the command,
    prints help; anything else that is not such a command line is a usage
    error (`_stop`)."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        _stop(None, None if command in ("-h", "--help") else
              "the following arguments are required: command" if command is None else
              f"argument command: invalid choice: {command!r}")
    if "-h" in argv or "--help" in argv:
        _stop(command)
    fn, _, arguments, _ = _COMMANDS[command]
    flags = {name: keywords for name, keywords, _ in (_FORMAT, *arguments) if name.startswith("--")}
    positionals = [name for name, _, _ in arguments if not name.startswith("--")]
    given, values = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            values += tokens
        elif not token.startswith("-") or token == "-":
            values.append(token)
        else:
            # a name of one dash is a prefix of no flag, and `-` of every one
            name, eq, value = token.partition("=")
            matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
            if len(matches) != 1:
                _stop(command, f"unrecognized arguments: {token}")
            name = matches[0]
            if not eq:
                value = next(tokens, "--")  # a flag that ends argv has no value
                if value.startswith("--"):
                    _stop(command, f"argument {name}: expected one argument")
            if value not in flags[name].get("choices", (value,)):
                _stop(command, f"argument {name}: invalid choice: {value!r}")
            given[name] = value
    missing = positionals[len(values):] + [
        name for name, keywords in flags.items() if keywords.get("required") and name not in given]
    if missing:
        _stop(command, f"the following arguments are required: {', '.join(missing)}")
    if values[len(positionals):]:
        _stop(command, f"unrecognized arguments: {' '.join(values[len(positionals):])}")
    return SimpleNamespace(fn=fn, command=command, **dict(zip(positionals, values)), **{
        _dest(name): given.get(name, keywords.get("default")) for name, keywords in flags.items()})


def _dest(name: str) -> str:  # an argument's attribute: its name, `-` as `_`
    return name.lstrip("-").replace("-", "_")


def main(argv=None) -> int:
    """Run one subcommand; malformed input exits 1 with one line
    `error: <pointer>: <message>`.  Help and usage errors raise SystemExit
    (`_read_argv`)."""
    args = _read_argv(sys.argv[1:] if argv is None else list(argv))
    _, _, arguments, refused_at = _COMMANDS[args.command]
    try:
        for name, _, read in (_FORMAT, *arguments):
            setattr(args, _dest(name), read(getattr(args, _dest(name))))
        doc, code = args.fn(args)
    except (ValueError, OSError) as exc:
        if not isinstance(exc, RequestError):
            exc = RequestError(refused_at.get(type(exc), "/"), str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
