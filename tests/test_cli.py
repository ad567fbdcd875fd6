import io
import json
import re

import pytest

from eulerchar.cli import (
    RequestError,
    analyze_request,
    build_parser,
    main,
    parse_request,
    render_text,
    report_to_dict,
)

REQ_TABLE = {
    "schema_version": 1,
    "curve": ["1", "0", "0", "-1", "-1"],
    "prime": 7,
    "base_field": 7,
    "abelian_variety": {
        "dimension": 2,
        "reduction_table": [
            {"prime": 2, "potentially_good": False, "good": False},
            {"prime": 3, "potentially_good": False, "good": False},
        ],
    },
    "external": {
        "sha_p_order": 1,
        "selmer_finite": True,
        "lambda_torsion_certificate": True,
        "torsion_p_override": 7,
    },
    "target_chi_sigma_exponent": 3,
}


def _run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rejects_unknown_keys():
    bad = dict(REQ_TABLE)
    bad["mystery"] = 1
    with pytest.raises(RequestError) as err:
        parse_request(bad)
    assert "/mystery" in str(err.value)


def test_parse_rejects_missing_and_malformed():
    with pytest.raises(RequestError):
        parse_request({"schema_version": 1})
    bad = json.loads(json.dumps(REQ_TABLE))
    bad["curve"] = ["1", "0", "0", "-1"]
    with pytest.raises(RequestError) as err:
        parse_request(bad)
    assert "/curve" in str(err.value)
    bad2 = json.loads(json.dumps(REQ_TABLE))
    bad2["external"]["sha_p_order"] = "seven"
    with pytest.raises(RequestError) as err2:
        parse_request(bad2)
    assert "/external/sha_p_order" in str(err2.value)
    bad3 = json.loads(json.dumps(REQ_TABLE))
    bad3["schema_version"] = 2
    with pytest.raises(RequestError):
        parse_request(bad3)


def test_analyze_exit_zero(monkeypatch, capsys):
    code, out, _ = _run(
        ["analyze", "-", "--format", "json"],
        stdin_text=json.dumps(REQ_TABLE),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "OK"
    assert doc["chi_sigma"] == {"base": 7, "exponent": 3}
    assert doc["target_chi_sigma"] == {"exponent": 3, "matches": True}
    assert doc["rho"]["breakdown"] == {
        "sha": 0,
        "torsion": -2,
        "tamagawa": 0,
        "reduction_counts": 2,
    }
    # big integers ride as decimal strings
    for place in doc["places"]:
        assert isinstance(place["q_v"], str)
        assert place["N_v"] is None or isinstance(place["N_v"], str)


def test_analyze_exit_two_on_p3(monkeypatch, capsys):
    req = json.loads(json.dumps(REQ_TABLE))
    req["prime"] = 3
    del req["external"]["torsion_p_override"]
    del req["target_chi_sigma_exponent"]
    code, out, _ = _run(
        ["analyze", "-", "--format", "json"],
        stdin_text=json.dumps(req),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "HYPOTHESIS_FAIL"
    statuses = {h["name"]: h["status"] for h in doc["hypotheses"]}
    assert statuses["p_prime_at_least_5"] == "FAIL"
    assert doc["rho"] == {
        "base": 3,
        "exponent": None,
        "window": [0, 0],
        "breakdown": {"sha": 0, "torsion": None, "tamagawa": 0, "reduction_counts": 0},
    }


def test_analyze_exit_three_not_exact(monkeypatch, capsys):
    req = json.loads(json.dumps(REQ_TABLE))
    del req["external"]["torsion_p_override"]
    del req["target_chi_sigma_exponent"]
    code, out, _ = _run(
        ["analyze", "-", "--format", "json"],
        stdin_text=json.dumps(req),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "NOT_EXACT"
    assert doc["chi_sigma"]["exponent"] is None
    assert doc["suppression_reason"]["code"] == "TORSION_NOT_EXACT"


def test_analyze_exit_one_on_malformed(monkeypatch, capsys):
    code, _, err = _run(
        ["analyze", "-"],
        stdin_text="{not json",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "invalid JSON" in err
    code2, _, err2 = _run(
        ["analyze", "-"],
        stdin_text=json.dumps({**REQ_TABLE, "surprise": 1}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code2 == 1
    assert "/surprise" in err2


def test_text_and_json_carry_same_numbers(monkeypatch, capsys):
    code, json_out, _ = _run(
        ["analyze", "-", "--format", "json"],
        stdin_text=json.dumps(REQ_TABLE),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    doc = json.loads(json_out)
    text = render_text(doc)
    assert f"chi_sigma: 7^{doc['chi_sigma']['exponent']}" in text
    assert f"rho: 7^{doc['rho']['exponent']}" in text
    assert f"tau_p: {doc['tau_p']}" in text
    for place in doc["places"]:
        assert place["L_at_1"] in text
        assert place["kodaira"] in text
    for row in doc["audit"]:
        assert row["L_at_1"] in text


def test_subcommands_smoke(capsys):
    assert main(["splitting", "--ell", "2", "--conductor", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["e"], doc["f"], doc["g"]) == (1, 3, 2)

    assert main(["local", "--curve", "1,0,0,-1,-1", "--ell", "7", "--conductor", "7",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduction_class"] == "GoodOrdinary" and doc["N_v"] == "7"

    assert main(["count", "--curve", "0,0,0,0,1", "--ell", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == "6"

    assert main(["tau", "--curve", "0,0,0,0,1", "--prime", "5", "--conductor", "5",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_p"] == 4

    assert main(["torsion", "--curve=-1,2,2,0,0", "--prime", "7", "--conductor", "7",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True and doc["lower"] == "7"

    assert main(["coranks", "--curve", "1,0,0,-1,-1", "--prime", "7", "--conductor", "7",
                 "--sigma-index", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"] == [0, 6] and doc["global_corank"] == 12


def test_singular_curve_rejected(monkeypatch, capsys):
    """A singular curve is refused at its own pointer: E at /curve, a
    factor of A at /abelian_variety/factors/<i>."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["curve"] = ["0", "0", "0", "0", "0"]
    code, out, err = _run(
        ["analyze", "-"],
        stdin_text=json.dumps(req),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: /curve: discriminant is zero\n"
    req = json.loads(json.dumps(REQ_TABLE))
    req["abelian_variety"] = {
        "dimension": 2,
        "factors": [["-1", "2", "2", "0", "0"], ["0", "0", "0", "0", "0"]],
    }
    code, out, err = _run(["analyze", "-"], stdin_text=json.dumps(req),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and out == ""
    assert err == "error: /abelian_variety/factors/1: discriminant is zero\n"


@pytest.mark.parametrize(
    "argv,pointer",
    [
        ("tau --curve 1,0,0,-1,-1 --prime 7 --conductor 25", "/base_field"),
        ("coranks --curve 1,0,0,-1,-1 --prime 7 --conductor 25", "/base_field"),
        ("torsion --curve=-1,2,2,0,0 --prime 7 --conductor 49", "/base_field"),
        ("local --curve 1,0,0,-1,-1 --ell 5 --conductor 25", "/base_field"),
        ("coranks --curve 1,0,0,-1,-1 --prime 7 --conductor 7 --sigma-index -3",
         "/external/sigma_index_R"),
        ("local --curve 1,0,0,-1,x --ell 7", "/curve/4"),
        ("local --curve 1,0,0,-1,-1 --ell 4", "/ell"),
        ("tau --curve 1,0,0,-1,-1 --prime 9", "/prime"),
        ("count --curve 0,0,0,0,1 --ell 5 --degree 0", "/degree"),
        ("torsion --curve 0,0,0,0,0 --prime 7", "/curve"),
        ("count --curve 0,0,0,0,0 --ell 5", "/curve"),
        ("count --curve 1,0,0,-1,-1 --ell 2", "/ell"),  # bad reduction at 2
        # numeric flags that are no integers, refused at their pointer, not by argparse
        ("tau --curve 1,0,0,-1,-1 --prime x", "/prime"),
        ("local --curve 1,0,0,-1,-1 --ell 7 --conductor 1.5", "/base_field"),
        ("local --curve 1,0,0,-1,-1 --ell x", "/ell"),
        ("count --curve 0,0,0,0,1 --ell 5 --degree x", "/degree"),
        ("torsion --curve 1,0,0,-1,-1 --prime 7 --samples x", "/samples"),
        ("local --curve 1,0,0,-1,-1 --ell 7 --precision-digits x", "/precision_digits"),
        ("coranks --curve 1,0,0,-1,-1 --prime 7 --conductor 7 --sigma-index x",
         "/external/sigma_index_R"),
        # the torsion bracket needs p >= 5
        ("torsion --curve 1,0,0,-1,-1 --prime 3", "/prime"),
        ("torsion --curve 1,0,0,-1,-1 --prime 2", "/prime"),
    ],
)
def test_subcommand_flags_rejected_at_their_pointer(capsys, argv, pointer):
    """Every subcommand flag is checked as the request field it stands for,
    and a rejection is one line naming that field's pointer."""
    code = main(argv.split())
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(f"error: {pointer}: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def test_splitting_accepts_wild_conductors(capsys):
    """splitting computes no local data, so it keeps every m >= 1."""
    assert main(["splitting", "--ell", "7", "--conductor", "49"]) == 0
    assert capsys.readouterr().out == "7 in Q(mu_49): e=42 f=1 g=1 (residue field F_7)\n"


def test_numeric_forms():
    req = json.loads(json.dumps(REQ_TABLE))
    req["curve"] = [1, 0, 0, -1, -1]  # plain integers accepted
    parsed = parse_request(req)
    assert parsed["curve"].a4 == -1
    req["curve"] = [1.0, 0, 0, -1, -1]  # floats rejected
    with pytest.raises(RequestError):
        parse_request(req)


def test_wildly_ramified_conductor_rejected(monkeypatch, capsys):
    """p^2 | m needs the second cyclotomic layer, which is out of scope;
    the request is rejected cleanly instead of producing wrong numbers."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["prime"] = 5
    req["base_field"] = 25
    req["external"]["torsion_p_override"] = 5
    del req["target_chi_sigma_exponent"]
    code, _, err = _run(
        ["analyze", "-"],
        stdin_text=json.dumps(req),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "ramified" in err
    assert "error: /base_field:" in err


@pytest.mark.parametrize("m", [4, 8, 9, 12, 25, 49 * 3, 2 * 121])
def test_wild_conductors_rejected_at_parse(m):
    """4 | m, or ell^2 | m for odd ell, makes the place above ell wildly
    ramified; parse_request rejects it at /base_field whatever the prime."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["base_field"] = m
    with pytest.raises(RequestError) as err:
        parse_request(req)
    assert err.value.path == "/base_field"
    assert "ramified" in str(err.value)


@pytest.mark.parametrize("m", [1, 2, 6, 7, 14, 30, 105])
def test_tame_conductors_accepted_at_parse(m):
    req = json.loads(json.dumps(REQ_TABLE))
    req["base_field"] = m
    assert parse_request(req)["conductor"] == m


def test_oversized_samples_rejected(monkeypatch, capsys):
    """More samples than the good primes below 10^4 can supply are
    rejected at /samples, in a request and in --samples of analyze and
    torsion, before any analysis starts."""
    path = "data/requests/analysis_with_factor_curve.json"
    with open(path, encoding="utf-8") as fh:
        req = json.load(fh)
    runs = [
        (["analyze", "-"], json.dumps({**req, "samples": 2000})),
        (["analyze", path, "--samples", "2000"], None),
        (["torsion", "--curve", "1,0,0,-1,-1", "--prime", "7", "--samples", "2000"], None),
    ]
    for argv, stdin_text in runs:
        code, out, err = _run(argv, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and out == ""
        assert "/samples" in err and "<= 1000" in err
        assert "Traceback" not in err
    assert parse_request({**req, "samples": 1000})["samples"] == 1000


def test_low_precision_rejected(monkeypatch, capsys):
    """--precision-digits below 4 is rejected at /precision_digits, as the
    request's precision_digits is, before any analysis starts."""
    path = "data/requests/analysis_with_factor_curve.json"
    for argv in (
        ["analyze", path, "--precision-digits", "1"],
        ["local", "--curve", "1,0,0,-1,-1", "--ell", "7", "--conductor", "7",
         "--precision-digits", "1"],
    ):
        code, out, err = _run(argv, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 1 and out == ""
        assert "/precision_digits" in err and ">= 4" in err
        assert "Traceback" not in err


def test_good_but_not_potentially_good_row_rejected(monkeypatch, capsys):
    """A table row marking a prime good but not potentially good is
    rejected at its own pointer by parse_request."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["abelian_variety"]["reduction_table"][1]["good"] = True
    with pytest.raises(RequestError) as err:
        parse_request(req)
    assert err.value.path == "/abelian_variety/reduction_table/1"
    code, out, err = _run(["analyze", "-"], stdin_text=json.dumps(req),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and out == ""
    assert "error: /abelian_variety/reduction_table/1: table marks 3 good" in err
    assert "Traceback" not in err


def test_text_columns_widen_for_large_places(monkeypatch, capsys):
    """A 20-digit place widens the place and q_v columns of every row and
    keeps a space between its label and q_v; the discriminant
    -2^4 * 953 * 284447 * 14855503647295757729 also needs Pollard rho to
    find that place at all."""
    big = 14855503647295757729
    req = {
        "schema_version": 1,
        "curve": ["0", "0", "0", "1000000007", "1000000000039"],
        "prime": 5,
        "base_field": 1,
        "abelian_variety": {"dimension": 1, "factors": [["-1", "2", "2", "0", "0"]]},
    }
    code, out, _ = _run(["analyze", "-", "--format", "text"], stdin_text=json.dumps(req),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    rows = out.split("places:\n")[1].split("\ntorsion")[0].splitlines()
    assert rows[-1].startswith(f"  {big}#1 {big}  I1 ")
    assert rows[1] == "  2#1" + " " * 39 + "2  II         1  Additive              None  1"
    assert all(row.split()[0].endswith("#1") for row in rows[1:])  # label, then q_v


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["splitting", "--ell", "3", "--conductor", "9"])
    assert args.command == "splitting"


def test_bundled_requests_parse():
    for name in ("analysis_with_reduction_table.json", "analysis_with_factor_curve.json"):
        with open(f"data/requests/{name}", encoding="utf-8") as fh:
            parsed = parse_request(json.load(fh))
        assert parsed["prime"] == 7


def _column_offsets(row: str, aligns: str, token: str) -> list[int]:
    """Where each column of a text-table row sits: the start of a
    left-aligned entry, the end of a right-aligned one."""
    spans = [m.span() for m in re.finditer(token, row)]
    assert len(spans) == len(aligns), row
    return [start if a == "l" else end for (start, end), a in zip(spans, aligns)]


@pytest.mark.parametrize(
    "curve,prime,conductor,factor,wide",
    [
        (["1", "0", "0", "-1", "-1"], 5, 1, ["1", "0", "0", "0", "10000019"], "149839#1"),
        (["0", "0", "1", "-1", "0"], 5, 19, ["-1", "2", "2", "0", "0"], "112455406951957393129"),
    ],
)
def test_text_columns_line_up(monkeypatch, capsys, curve, prime, conductor, factor, wide):
    """Every row of the places and audit tables, and the header of the
    places table, puts its columns at the same offsets, also when an entry
    is wider than its column's default."""
    req = {
        "schema_version": 1,
        "curve": curve,
        "prime": prime,
        "base_field": conductor,
        "abelian_variety": {"dimension": 1, "factors": [factor]},
        "external": {"selmer_finite": True, "lambda_torsion_certificate": True},
    }
    code, out, _ = _run(["analyze", "-", "--format", "text"], stdin_text=json.dumps(req),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code in (0, 2)
    places = out.split("places:\n")[1].split("\ntorsion")[0].splitlines()
    assert places[0].split() == ["place", "q_v", "kodaira", "c_v", "class", "N_v", "L(E,1)"]
    audit = out.split("exponents):\n")[1].split("\ntau_p")[0].splitlines()
    assert any(wide in row for row in places) and any(wide in row for row in audit)
    for rows, aligns, token in (
        (places, "lrlrlrl", r"\S+"),
        # place, q=, q_v, class, L=, L_at_1, vp_L=, vp_L, contribution=, ..., gamma_exp=, ...
        (audit, "llrllllrlrll", r"[^\s=]+"),
    ):
        assert len({tuple(_column_offsets(row, aligns, token)) for row in rows}) == 1


def test_text_columns_keep_their_defaults():
    """Tables whose entries fit the default widths, and the header labels,
    print at the default widths; the kodaira label is one wider than its
    default, so that column is as wide as the label."""
    text = render_text(report_to_dict(analyze_request(parse_request(REQ_TABLE))))
    assert (
        "places:\n"
        "  place       q_v  kodaira  c_v  class                  N_v  L(E,1)\n"
        "  2#1           8  I1         1  MultSplit             None  8/7\n"
        "  2#2           8  I1         1  MultSplit             None  8/7\n"
        "  3#1         729  I1         1  MultSplit             None  729/728\n"
        "  7#1           7  I0         1  GoodOrdinary             7  1\n"
    ) in text
    assert (
        "audit (per-place |L_v|_p exponents):\n"
        "  2#1     q=      8  MultSplit          L=8/7          vp_L= -1  contribution= 1"
        "  gamma_exp=1\n"
        "  2#2     q=      8  MultSplit          L=8/7          vp_L= -1  contribution= 1"
        "  gamma_exp=1\n"
        "  3#1     q=    729  MultSplit          L=729/728      vp_L= -1  contribution= 1"
        "  gamma_exp=1\n"
    ) in text


E11A = ["0", "-1", "1", "-10", "-20"]  # E(Q) has a point of order 5


def _request_11a(**external):
    return {
        "schema_version": 1,
        "curve": E11A,
        "prime": 5,
        "base_field": 11,
        "abelian_variety": {"dimension": 1, "factors": [["-1", "2", "2", "0", "0"]]},
        "external": {"selmer_finite": True, "lambda_torsion_certificate": True, **external},
    }


@pytest.mark.parametrize("certificate", [1, 125])
def test_torsion_certificate_outside_bracket_rejected(monkeypatch, capsys, certificate):
    """11a at p = 5 over Q(mu_11) has the computed bracket [5, 25]: a
    certificate below or above it is refused at its own pointer."""
    code, out, err = _run(["analyze", "-"], stdin_text=json.dumps(_request_11a(
        torsion_p_override=certificate)), monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and out == ""
    assert err == (
        f"error: /external/torsion_p_override: certificate {certificate} lies outside "
        "the computed bracket [5, 25]\n"
    )


@pytest.mark.parametrize("certificate,exponent", [(5, 8), (25, 6)])
def test_torsion_certificate_inside_bracket_fixes_rho(monkeypatch, capsys, certificate, exponent):
    code, out, _ = _run(["analyze", "-", "--format", "json"], stdin_text=json.dumps(
        _request_11a(torsion_p_override=certificate)), monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rho"]["exponent"] == exponent
    assert (doc["torsion"]["lower"], doc["torsion"]["upper"]) == (str(certificate), "25")
    assert doc["torsion"]["source"] == "certificate"


def test_torsion_certificate_not_a_power_of_p_rejected_at_parse():
    for certificate in (10, 7, 6):
        with pytest.raises(RequestError) as err:
            parse_request(_request_11a(torsion_p_override=certificate))
        assert err.value.path == "/external/torsion_p_override"
        assert f"expected a power of p = 5, got {certificate}" in str(err.value)


def test_composite_prime_rejected_at_parse(monkeypatch, capsys):
    """A composite prime is refused at /prime; 2 and 3 are primes outside
    the formula's range and keep their HYPOTHESIS_FAIL report."""
    req = json.loads(json.dumps(REQ_TABLE))
    del req["external"]["torsion_p_override"]
    for composite in (9, 4, 25):
        with pytest.raises(RequestError) as err:
            parse_request({**req, "prime": composite})
        assert err.value.path == "/prime"
    code, out, err = _run(["analyze", "-"], stdin_text=json.dumps({**req, "prime": 9}),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and out == ""
    assert err == "error: /prime: expected a prime, got 9\n"
    for small in (2, 3):
        code, out, _ = _run(["analyze", "-", "--format", "json"],
                            stdin_text=json.dumps({**req, "prime": small}),
                            monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert json.loads(out)["status"] == "HYPOTHESIS_FAIL"
