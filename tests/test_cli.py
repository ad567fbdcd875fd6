import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from eulerchar import cli
from eulerchar.cli import (
    RequestError,
    analyze,
    main,
    parse_request,
    report_to_dict,
)
from eulerchar.curves import WeierstrassModel
from eulerchar.cyclotomic import splitting
from eulerchar.euler import ExternalArithmetic
from eulerchar.valuations import vp
from oracles import tate_normal_form

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
    """The exit code of `main(argv)`, returned or, for help and usage
    errors, raised as SystemExit, and what it printed on stdout and on
    stderr."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
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


def test_analyze_refuses_p_below_5_at_prime(monkeypatch, capsys):
    """The formula needs p >= 5: `analyze` refuses 2 and 3 at /prime, in
    either format, as `tau`, `coranks` and `torsion` refuse `--prime 3`."""
    req = json.loads(json.dumps(REQ_TABLE))
    del req["external"]["torsion_p_override"]
    del req["target_chi_sigma_exponent"]
    curve = "--curve=1,0,0,-1,-1"
    for small in (2, 3):
        message = f"error: /prime: expected an integer >= 5, got {small}\n"
        for fmt in ("json", "text"):
            got = _run(["analyze", "-", "--format", fmt],
                       stdin_text=json.dumps({**req, "prime": small}),
                       monkeypatch=monkeypatch, capsys=capsys)
            assert got == (1, "", message)
        for command in ("tau", "coranks", "torsion"):
            got = _run([command, curve, "--prime", str(small)], capsys=capsys)
            assert got == (1, "", message)


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
    # nesting deeper than the decoder's recursion limit is refused, not raised
    for nested in ("[" * 200_000 + "]" * 200_000, '{"a":' * 5_000 + "1" + "}" * 5_000):
        code3, _, err3 = _run(
            ["analyze", "-"], stdin_text=nested, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code3 == 1
        assert err3.startswith("error: /: invalid JSON (")


def test_request_shape_refused_at_its_pointer(monkeypatch, capsys):
    """A request that is not an object is refused at the root, /; missing
    keys are named in schema order."""
    row_missing = json.loads(json.dumps(REQ_TABLE))
    row_missing["abelian_variety"]["reduction_table"][0] = {}
    for text, message in (
        ("[]", "error: /: expected an object\n"),
        ("{}", "error: /schema_version: missing required key\n"),
        ('{"schema_version": 1}', "error: /curve: missing required key\n"),
        (json.dumps(row_missing),
         "error: /abelian_variety/reduction_table/0/prime: missing required key\n"),
    ):
        code, out, err = _run(["analyze", "-"], stdin_text=text,
                              monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out, err) == (1, "", message)


ROOT = Path(__file__).resolve().parent.parent


def test_missing_key_diagnostic_ignores_hash_seed():
    src = str(ROOT / "src")
    errors = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "eulerchar", "analyze", "-"],
            input="{}", capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        errors.add(done.stderr)
    assert errors == {"error: /schema_version: missing required key\n"}


# E over Q(mu_91) at p = 5, with A bad at 2 and 3: 6 places above 2 and
# above 5, 12 above 3 and 1 above 7
REQ_M91 = {
    "schema_version": 1,
    "curve": ["1", "0", "0", "-1", "-1"],
    "prime": 5,
    "base_field": 91,
    "abelian_variety": {
        "dimension": 1,
        "reduction_table": [
            {"prime": 2, "potentially_good": False, "good": False},
            {"prime": 3, "potentially_good": False, "good": False},
        ],
    },
    "external": {"selmer_finite": True, "lambda_torsion_certificate": True},
}


def test_conjugate_places_share_one_record(monkeypatch, capsys):
    """The report lists each of the g conjugate places above a prime as
    ell#1 ... ell#g with identical fields, and rho and chi_sigma are the sums
    over those rows.  The JSON is byte-identical to the one made when the
    library still kept a record per place."""
    code, out, _ = _run(["analyze", "-", "--format", "json"], json.dumps(REQ_M91),
                        monkeypatch, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f0610688dc22726673d8777a9e14335cd8f968559cdce4505258d02a0802e1dc"
    )
    doc = json.loads(out)
    g = {2: 6, 3: 12, 5: 6, 7: 1}
    assert g == {ell: splitting(ell, 91).g for ell in g}
    assert (len(doc["places"]), len(doc["audit"])) == (25, 18)
    for table, primes in ((doc["places"], [2, 3, 5, 7]), (doc["audit"], [2, 3])):
        by_ell = {}
        for row in table:
            by_ell.setdefault(int(row["place"].split("#")[0]), []).append(row)
        assert list(by_ell) == primes
        for ell, rows in by_ell.items():
            assert [row["place"] for row in rows] == [f"{ell}#{i}" for i in range(1, g[ell] + 1)]
            shared = [{k: v for k, v in row.items() if k != "place"} for row in rows]
            assert all(fields == shared[0] for fields in shared)
    assert all(row["g"] == g[row["ell"]] for row in doc["places"])

    breakdown = doc["rho"]["breakdown"]
    assert breakdown["tamagawa"] == sum(vp(int(row["c_v"]), 5) for row in doc["places"])
    assert breakdown["reduction_counts"] == 12 == 2 * sum(
        vp(int(row["N_v"]), 5) for row in doc["places"] if row["ell"] == 5
    )
    assert doc["rho"]["exponent"] == sum(breakdown.values())
    assert doc["chi_sigma"]["exponent"] == 18 == doc["chi_cyc"]["exponent"] + sum(
        row["contribution"] for row in doc["audit"]
    )


def test_text_and_json_carry_same_numbers(monkeypatch, capsys):
    """The text report is the JSON document, in the text layout."""
    code, json_out, _ = _run(
        ["analyze", "-", "--format", "json"],
        stdin_text=json.dumps(REQ_TABLE),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    got, text, _ = _run(["analyze", "-", "--format", "text"], stdin_text=json.dumps(REQ_TABLE),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert got == code == 0
    assert text == cli._to_text(json.loads(json_out)) + "\n"
    assert "\nchi_sigma:\n  base: 7\n  exponent: 3\ntarget_chi_sigma:\n  exponent: 3\n" in text
    assert "\nM_rational: [2, 3]\n" in text and "\ntau_p: 0\n" in text


def test_text_layout():
    """A leaf is `key: value`, a str as it is and any other leaf as in the
    JSON; a list of leaves goes inline; an object indents its entries two
    spaces; a list of objects is a table padded to each column's widest
    entry, with no line ending in a space."""
    doc = {
        "name": "x y", "none": None, "yes": True, "no": False, "zero": 0, "big": "10" * 20,
        "leaves": [2, 13], "strings": ["a"], "empty": [], "nothing": {},
        "outer": {"inner": {"k": -1}, "after": "v"},
        "rows": [{"place": "2#1", "q_v": "8", "n": None}, {"place": "13#10", "q_v": "1", "n": "7"}],
        "last": 1,
    }
    assert cli._to_text(doc) == (
        "name: x y\nnone: null\nyes: true\nno: false\nzero: 0\n"
        f"big: {'10' * 20}\n"
        'leaves: [2, 13]\nstrings: ["a"]\nempty: []\nnothing: {}\n'
        "outer:\n  inner:\n    k: -1\n  after: v\n"
        "rows:\n"
        "  place  q_v  n\n"
        "  2#1    8    null\n"
        "  13#10  1    7\n"
        "last: 1"
    )
    assert cli._to_text({"rows": [{"wide": "a", "b": "c"}]}) == "rows:\n  wide  b\n  a     c"


def _twist_curve(d):
    """E_d = [0, 0, 0, -1323 d^2, -42714 d^3]: additive at d, good over Q_d(mu_d)."""
    return f"0,0,0,{-1323 * d**2},{-42714 * d**3}"


@pytest.mark.parametrize(
    "d, conductor, expected",
    [
        # e = d - 1: over Q_211(mu_211) the minimal model takes 105 rescales
        (101, 101, {"kodaira": "I0", "v_min_delta": 0, "N_v": "112"}),
        (211, 211, {"kodaira": "I0", "v_min_delta": 0, "N_v": "214"}),
        (101, 1, {"kodaira": "I0*", "c_v": "4", "v_min_delta": 6}),
    ],
)
def test_local_at_large_ramification(capsys, d, conductor, expected):
    assert main(["local", f"--curve={_twist_curve(d)}", "--ell", str(d),
                 "--conductor", str(conductor), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {key: doc[key] for key in expected} == expected


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


@pytest.mark.parametrize(
    "curve,ell,degree,count",
    [
        ("1,0,0,-1,-1", 5, 1, 7),
        # E by x = 25 x', y = 125 y' and by x = x'/25, y = y'/125: one model is
        # not integral at 5, the other not minimal, and both count E mod 5
        ("1/5,0,0,-1/625,-1/15625", 5, 1, 7),
        ("5,0,0,-625,-15625", 5, 1, 7),
        ("0,0,0,0,1", 5, 3, 126),
        ("1,0,0,-1,-1", 10000019, 1, 9997855),
    ],
)
def test_count_takes_the_reduction_of_a_minimal_model(capsys, curve, ell, degree, count):
    argv = ["count", "--curve", curve, "--ell", str(ell), "--degree", str(degree)]
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ell": ell, "degree": degree, "q": str(ell**degree), "count": str(count)}


def test_nesting_refused_past_its_limit(monkeypatch, capsys):
    """Arrays and objects nested past MAX_NESTING are refused at / with one
    text, whether or not the decoder reaches the recursion limit first; at
    the limit the request is read on."""
    n = cli.MAX_NESTING
    refusal = f"error: /: invalid JSON (nesting deeper than {n})\n"
    for text, err in (
        ('{"a":' * n + "1" + "}" * n, "error: /a: unknown key\n"),
        ('{"a":' * (n + 1) + "1" + "}" * (n + 1), refusal),
        ('{"a":' * 5_000 + "1" + "}" * 5_000, refusal),
        ("[" * 200_000 + "]" * 200_000, refusal),
    ):
        assert _run(["analyze", "-"], text, monkeypatch, capsys) == (1, "", err)


def test_singular_curve_rejected(monkeypatch, capsys):
    """A singular curve is refused at its own pointer, at parse time: E at
    /curve, ahead of the keys after it, a factor of A at
    /abelian_variety/factors/<i>."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["curve"] = ["0", "0", "0", "0", "0"]
    for prime in (7, 4):
        code, out, err = _run(
            ["analyze", "-"],
            stdin_text=json.dumps({**req, "prime": prime}),
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
        ("count --curve 0,-1,1,-10,-20 --ell 11", "/ell"),  # 11a, split at 11
        # past the counting cap, refused at the flag that names the characteristic
        ("count --curve 1,0,0,-1,-1 --ell 1000000000000000003", "/ell"),
        ("local --curve 1,0,0,-1,-1 --ell 1000000000000000003", "/ell"),
        # numeric flags that are no integers, refused at their pointer, not as usage errors
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
        # `--flag=--` reaches the reader as the text `--`, refused at the flag's pointer
        *((f"{command} --curve=-- --{flag} 7", "/curve") for command, flag in
          (("local", "ell"), ("torsion", "prime"), ("tau", "prime"), ("coranks", "prime"),
           ("count", "ell"))),
        ("splitting --ell=-- --conductor 7", "/ell"),
        ("splitting --ell 7 --conductor=--", "/base_field"),
        ("local --curve 1,0,0,-1,-1 --ell 7 --conductor=--", "/base_field"),
        ("torsion --curve 1,0,0,-1,-1 --prime 7 --samples=--", "/samples"),
        ("count --curve 0,0,0,0,1 --ell 5 --degree=--", "/degree"),
        ("coranks --curve 1,0,0,-1,-1 --prime 7 --sigma-index=--", "/external/sigma_index_R"),
        # flags are checked in the order their subcommand lists them, before
        # a request file is read
        ("local --curve 1,0,0,-1,x --ell x", "/curve/4"),
        ("analyze missing.json --samples 0", "/samples"),
        # a numeric flag is `[+-]digits` in ASCII digits, as a coefficient is,
        # where int() also reads underscores, surrounding spaces and the
        # digits of other scripts
        ("splitting --ell 1_1 --conductor 7", "/ell"),
        ("local --curve 1,0,0,-1,-1 --ell \u0667", "/ell"),  # Arabic-Indic 7
        (["splitting", "--ell", "11", "--conductor", " 7"], "/base_field"),
        (["count", "--curve", "0,0,0,0,1", "--ell", "5", "--degree", "3\n"], "/degree"),
        ("torsion --curve 1,0,0,-1,-1 --prime 7 --samples 2_0", "/samples"),
    ],
)
def test_subcommand_flags_rejected_at_their_pointer(capsys, argv, pointer):
    """Every subcommand flag is checked as the request field it stands for,
    and a rejection is one line naming that field's pointer."""
    code = main(argv.split() if isinstance(argv, str) else argv)
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(f"error: {pointer}: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def test_numeric_flags_take_a_sign_and_leading_zeros(capsys):
    """`[+-]digits` admits a plus sign and leading zeros."""
    assert main(["splitting", "--ell", "+7", "--conductor", "07"]) == 0
    assert capsys.readouterr().out == (
        "ell: 7\nconductor: 7\ne: 6\nf: 1\ng: 1\nresidue_field_size: 7\nlocal_degree: 6\n"
        "degree: 6\n")


def test_survey_reads_flags_with_the_subcommand_grammar():
    """scripts/reduction_survey.py reads --prime with the reader of the
    subcommands, so `1_1` is refused at /prime rather than read as 11."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reduction_survey.py"),
         "--curve", "1,0,0,-1,-1", "--prime", "1_1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: /prime: expected an integer, got '1_1'\n"


def _survey():
    """scripts/reduction_survey.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "reduction_survey", ROOT / "scripts" / "reduction_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    return survey


@pytest.mark.parametrize("curve,p,m", [
    ("1,0,0,-1,-1", 7, 7), ("1,0,0,-1,-1", 5, 91), ("0,-1,1,-10,-20", 5, 33),
    ("0,0,1,-1,0", 5, 19), ("1/2,0,0,-1/16,-1/64", 5, 7),
])
def test_survey_rows_match_the_report_places(curve, p, m, monkeypatch, capsys):
    """scripts/reduction_survey.py covers the primes of `euler.plan`, as
    `analyze` does: with a reduction table that puts no prime in M, its
    `places` row for each prime shows the fields of that prime's place rows
    in the report, in the same text, and the exponent of |L_v|_p."""
    monkeypatch.setattr(sys, "argv", ["reduction_survey.py", "--curve", curve,
                                      "--prime", str(p), "--conductor", str(m)])
    assert _survey().main() == 0
    out = capsys.readouterr().out
    assert out.startswith(f"curve: {curve}\ndisc: ")
    header, *rows = (line.split() for line in out.split("\nplaces:\n")[1].splitlines())
    shown = {int(row[0]): dict(zip(header, row)) for row in rows}
    table = [{"prime": 2, "potentially_good": True, "good": False}]
    request = {"schema_version": 1, "curve": curve.split(","), "prime": p, "base_field": m,
               "abelian_variety": {"dimension": 1, "reduction_table": table}}
    doc = report_to_dict(analyze(**parse_request(request)))
    assert doc["M_rational"] == []
    places = {row["ell"]: {key: cli._text_value(value) for key, value in row.items()
                           if key != "place"} for row in doc["places"]}
    for fields in places.values():
        fields["abs_L_p_exponent"] = str(-vp(Fraction(fields["L_at_1"]), p))
    assert shown == places


SCHEMA = (ROOT / "docs" / "schema.md").read_text("utf-8")


def _schema_flag_pointers() -> dict:
    """Each flag of the "Subcommand arguments" table of docs/schema.md, and
    the pointers its row lists."""
    rows = re.findall(r"^\| `(--[a-z-]+)[^`]*` \| ([^|]*) \|", SCHEMA, re.M)
    return {flag: re.findall(r"`([^`]+)`", pointers) for flag, pointers in rows}


def _schema_refusal_pointers() -> dict:
    """Each row of the "Library refusals" table of docs/schema.md, as
    refusal -> {subcommand: pointer}."""
    table = re.search(r"(^\|.*\|\n)+", SCHEMA.partition("## Library refusals")[2], re.M)
    head, _, *rows = table[0].splitlines()
    commands = re.findall(r"`([a-z]+)`", head)
    cells = ([re.sub(r"`(.*)`", r"\1", cell.strip()) for cell in row.split("|")[1:-1]]
             for row in rows)
    return {name: dict(zip(commands, pointers)) for name, *pointers in cells}


def test_refusal_table_names_each_commands_pointer():
    """docs/schema.md gives, for each library refusal some command row
    maps, the pointer at which every subcommand reports it: its row's
    pointer, or / where the row maps none."""
    errors = {error.__name__: error for *_, refused_at in cli._COMMANDS.values()
              for error in refused_at}
    assert _schema_refusal_pointers() == {
        name: {command: refused_at.get(error, "/")
               for command, (*_, refused_at) in cli._COMMANDS.items()}
        for name, error in errors.items()
    }


@pytest.mark.parametrize(
    "command,flag,read",
    [(command, name, read) for command, (_, _, arguments, _) in cli._COMMANDS.items()
     for name, _, read in arguments if name.startswith("--")],
)
def test_flag_table_names_each_readers_pointer(command, flag, read):
    """docs/schema.md lists every subcommand flag, at the pointer where its
    reader refuses a value."""
    table = _schema_flag_pointers()
    assert flag in table
    with pytest.raises(RequestError) as exc:
        read("x")
    assert exc.value.path in table[flag]


def test_splitting_accepts_wild_conductors(capsys):
    """splitting computes no local data, so it keeps every m >= 1."""
    assert main(["splitting", "--ell", "7", "--conductor", "49"]) == 0
    assert capsys.readouterr().out == (
        "ell: 7\nconductor: 49\ne: 42\nf: 1\ng: 1\nresidue_field_size: 7\nlocal_degree: 42\n"
        "degree: 42\n")


def test_numeric_forms():
    req = json.loads(json.dumps(REQ_TABLE))
    req["curve"] = [1, 0, 0, -1, -1]  # plain integers accepted
    parsed = parse_request(req)
    assert parsed["E"].a4 == -1
    req["curve"] = [1.0, 0, 0, -1, -1]  # floats rejected
    with pytest.raises(RequestError):
        parse_request(req)


def test_parse_request_carries_integer_models_with_their_invariants(monkeypatch):
    """parse_request leaves every curve as its integral model, with int
    a-invariants, int c4, c6 and Delta and j a Fraction, and the invariants
    memoized on the model: analyze computes no invariant again.  Checked on
    the bundled requests and on every census-box curve."""
    from itertools import product

    from eulerchar import curves

    requests = [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted((ROOT / "data" / "requests").glob("*.json"))]
    box = product((0, 1), (-1, 0, 1), (0, 1), range(-5, 6), range(-5, 6))
    census = []
    for i, a in enumerate(box):
        curve = [str(c) for c in a]
        census.append({"schema_version": 1, "curve": curve, "prime": (5, 7)[i % 2],
                       "base_field": 1, "abelian_variety": {"dimension": 1, "factors": [curve]},
                       "external": {"selmer_finite": True, "lambda_torsion_certificate": True}})
    parsed_census = []
    for req in requests + census:
        try:
            parsed = parse_request(req)
        except RequestError as exc:
            assert exc.path == "/curve" and str(exc).endswith("discriminant is zero")
            continue
        for model in (parsed["E"], *parsed["A"].factors):
            assert all(type(c) is int for c in model)
            inv = model.__dict__["_invariants"]  # memoized by parse_request
            assert inv._fields == ("c4", "c6", "disc", "j")
            assert all(type(x) is int for x in inv[:3]) and type(inv.j) is Fraction
            assert 1728 * inv.disc == inv.c4**3 - inv.c6**2 and inv.j == Fraction(inv.c4**3, inv.disc)
        parsed_census.append(parsed)
    assert len(parsed_census) == len(requests) + 1435  # 17 box curves are singular

    def computed_again(model):
        raise AssertionError(f"invariants of {model} computed after parsing")

    monkeypatch.setattr(curves.WeierstrassModel._invariants, "func", computed_again)
    for parsed in parsed_census[:len(requests) + 40]:
        analyze(**parsed)


RATIONAL_SPELLINGS = [
    ("0", "0"), ("-1", "-1"), ("+3", "3"), ("007", "7"), ("7/2", "7/2"),
    ("-7/2", "-7/2"), ("+14/4", "7/2"), ("0/5", "0"), ("-10/-2", None), ("1/+2", None),
    ("1_0", None), ("-1_0", None), (" 5", None), ("5 ", None), ("1.5", None), ("5.", None),
    (".5", None), ("1e3", None), ("\u0663", None), ("\uff11", None), ("1/0", None), ("", None),
    ("+", None), ("-", None), ("--1", None), ("/2", None), ("1/", None), ("1/2/3", None),
    ("0x10", None), ("nan", None), ("inf", None),
]


@pytest.mark.parametrize("text,value", RATIONAL_SPELLINGS)
def test_rational_spellings(capsys, text, value):
    """A coefficient string is [+-]digits[/digits] in ASCII digits, with a
    nonzero denominator, on every Python: anything else is refused at its
    pointer, in a request and in a --curve piece alike.  An integer value
    is read as an int, anything else as a Fraction, and the model is the
    integral one."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["curve"] = ["1", "0", "0", text, "-1"]
    argv = ["local", f"--curve=1,0,0,{text},-1", "--ell", "7"]
    if value is None:
        with pytest.raises(RequestError) as caught:
            parse_request(req)
        assert str(caught.value) == f"/curve/3: not a rational number: {text!r}"
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: /curve/3: not a rational number: {text!r}\n"
    else:
        parsed = cli._parse_rational(text, "/curve/3")
        assert parsed == Fraction(value)
        assert type(parsed) is (int if Fraction(value).denominator == 1 else Fraction)
        model = WeierstrassModel.from_rationals([1, 0, 0, Fraction(value), -1])
        assert parse_request(req)["E"] == model
        code = main(argv)
        printed = capsys.readouterr()
        assert main(["local", f"--curve=1,0,0,{value},-1", "--ell", "7"]) == code
        assert capsys.readouterr() == printed


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
    assert parse_request(req)["m"] == m


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
    request's precision_digits is, before any analysis starts; 4 is taken
    by both."""
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
    with pytest.raises(RequestError, match="^/precision_digits: expected an integer >= 4, got 3$"):
        parse_request({**REQ_TABLE, "precision_digits": 3})
    assert parse_request({**REQ_TABLE, "precision_digits": 4})["p"] == 7
    assert cli._read_precision("4") == 4


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


@pytest.mark.parametrize("potentially_good", [False, True])
def test_composite_table_prime_rejected(potentially_good):
    """A table row's prime must be prime, whatever its flags say."""
    req = json.loads(json.dumps(REQ_TABLE))
    req["abelian_variety"]["reduction_table"][0] = {
        "prime": 4, "potentially_good": potentially_good, "good": False}
    with pytest.raises(RequestError) as err:
        parse_request(req)
    assert (err.value.path, str(err.value)) == (
        "/abelian_variety/reduction_table/0/prime",
        "/abelian_variety/reduction_table/0/prime: expected a prime, got 4")


def test_dimension_disagreeing_with_factors_rejected(monkeypatch, capsys):
    req = json.loads(json.dumps(REQ_TABLE))
    req["abelian_variety"] = {"dimension": 2, "factors": [["-1", "2", "2", "0", "0"]]}
    code, out, err = _run(["analyze", "-"], stdin_text=json.dumps(req),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "error: /abelian_variety: dimension must equal the number of factors\n"


def test_text_columns_widen_for_large_places(monkeypatch, capsys):
    """A 20-digit place widens the place, ell and q_v columns of every row,
    two spaces past the widest entry; the discriminant
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
    rows = out.split("places:\n")[1].split("\ntorsion:")[0].splitlines()
    assert rows[-1].startswith(f"  {big}#1  {big}  1  1  1  {big}  I1 ")
    assert rows[1] == ("  2#1" + " " * 21 + "2" + " " * 21 + "1  1  1  2" + " " * 21
                       + "II       1    4            Additive         true              null  1")
    assert all(row.split()[0].endswith("#1") for row in rows[1:])  # label, then ell


COMMANDS = ("analyze", "local", "splitting", "torsion", "tau", "coranks", "count")


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help(capsys, command):
    code, out, err = _run([command, "-h"], capsys=capsys)
    usage, summary = out.splitlines()
    assert (code, err, summary) == (0, "", cli._COMMANDS[command][1])
    assert usage.startswith(f"usage: eulerchar {command} [-h] [--format {{json,text}}] ")


@pytest.mark.parametrize("argv,code", [([], 2), (["-h"], 0), (["frobnicate"], 2)])
def test_top_level_usage_lists_every_command(capsys, argv, code):
    got, out, err = _run(argv, capsys=capsys)
    assert got == code
    usage = (out if code == 0 else err).splitlines()[0]
    assert usage == "usage: eulerchar [-h] {" + ",".join(COMMANDS) + "} ..."
    assert tuple(cli._COMMANDS) == COMMANDS


def test_format_dash_dash_is_a_usage_error(capsys):
    """`--format=--` hands `--` over as text, and `--` is no choice of
    `--format`."""
    code, out, err = _run(
        ["splitting", "--ell", "7", "--conductor", "7", "--format=--"], capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(
        "eulerchar splitting: error: argument --format: invalid choice"
    )


def test_usage_error_names_its_subcommand(capsys):
    code, out, err = _run(["analyze", "-", "--bogus"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "eulerchar analyze: error: unrecognized arguments: --bogus"


def test_reports_leave_no_cyclic_garbage():
    """With the cyclic collector off, the bundled requests and a p = 7
    torsion row (psi_7) leave nothing that only it could free."""
    import gc

    gc.collect()
    gc.disable()
    try:
        for path in sorted((ROOT / "data" / "requests").glob("*.json")):
            assert main(["analyze", str(path), "--format", "json"]) == 0
        assert main(["torsion", "--curve=-1,2,2,0,0", "--prime", "7", "--conductor", "7"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_package_root_loads_no_submodule():
    """A fresh `import eulerchar` loads none of its modules: the root
    re-exports nothing, and callers import from the submodules."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, eulerchar; "
         "print(*sorted(name for name in sys.modules if name.startswith('eulerchar.')))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    assert done.stdout == "\n"


def test_import_and_plain_calls_load_no_dataclasses_or_argparse():
    """A fresh `eulerchar` process builds its records without importing
    `dataclasses`, or `inspect`, which it pulls in; and reads command lines,
    prints help and reports a usage error without importing `argparse`, or
    `gettext`, which it pulls in.  Every module it loads is its own or the
    standard library's: the package has no runtime dependencies."""
    request = ROOT / "data" / "requests" / "analysis_with_reduction_table.json"
    probe = (
        "import contextlib, sys; before = set(sys.modules); import eulerchar.cli; "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr); "
        "eulerchar.cli.main(['splitting', '--ell', '7', '--conductor', '7']); "
        "eulerchar.cli.main(['local', '--curve=-1,2,2,0,0', '--ell', '7', '--format', 'json']); "
        f"eulerchar.cli.main(['analyze', {str(request)!r}, '--format=json'])\n"
        "for argv in ['--help'], ['analyze', '-', '--bogus']:\n"
        "    with contextlib.suppress(SystemExit): eulerchar.cli.main(argv)\n"
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    first, *usage_error, last = done.stderr.splitlines()
    imported, called = set(first.split()), set(last.split())
    assert "eulerchar.cli" in imported
    assert done.stdout.startswith("ell: 7\nconductor: 7\ne: 6\nf: 1\ng: 1\n")
    assert "\nusage: eulerchar [-h] {" in done.stdout
    assert usage_error[1:] == ["eulerchar analyze: error: unrecognized arguments: --bogus"]
    for added in (imported, called):
        assert not added & {"dataclasses", "inspect", "argparse", "gettext"}
        outside = {name for name in added if name.partition(".")[0] != "eulerchar"
                   and name.partition(".")[0] not in sys.stdlib_module_names}
        assert not outside


def _assert_json_native(value, path=""):
    assert type(value) in (dict, list, str, int, bool, type(None)), (path, type(value))
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, (path, key)
            _assert_json_native(item, f"{path}/{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            _assert_json_native(item, f"{path}/{i}")


@pytest.mark.parametrize(
    "argv",
    [
        f"analyze {ROOT}/data/requests/analysis_with_reduction_table.json",
        f"analyze {ROOT}/data/requests/analysis_with_factor_curve.json",
        "local --curve 1,0,0,-1,-1 --ell 7 --conductor 7",
        "splitting --ell 2 --conductor 7",
        "torsion --curve=-1,2,2,0,0 --prime 7 --conductor 7",
        "tau --curve 0,0,0,0,1 --prime 5 --conductor 5",
        "coranks --curve 1,0,0,-1,-1 --prime 7 --conductor 7 --sigma-index 2",
        "count --curve 0,0,0,0,1 --ell 5 --degree 3",
    ],
)
def test_documents_are_json_native(monkeypatch, capsys, argv):
    """Every value of the document a subcommand emits has a JSON type
    exactly, and the document prints as `json.dumps(doc, indent=2)` does:
    there, a record, being a tuple, would print as a list and no error."""
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt, out: (docs.append(doc), emit(doc, fmt, out)))
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(docs) == 1
    _assert_json_native(docs[0])
    assert cli._to_json(docs[0]) == json.dumps(docs[0], indent=2)


# JSON-native trees: text with the characters the encoder must escape, and
# ints past 64 bits beside bools
_json_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", "[1, 2]", '{"a": 1}', ",", "\x00\x1f\x7f", "\ud800",
                     "\u00e9\u4e2d\U0001f600", ""]),
)
_json_leaf = st.one_of(
    st.none(), st.booleans(), _json_text,
    st.integers(), st.integers(min_value=-10**40, max_value=10**40),
)


def _json_containers(depth: int):
    """JSON-native arrays and objects nesting at most depth containers deep."""
    children = _json_leaf if depth == 1 else st.one_of(_json_leaf, _json_containers(depth - 1))
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(_json_text, children, max_size=4))


@settings(max_examples=500, deadline=None)
@given(_json_containers(5))
def test_report_encoder_matches_the_stdlib(tree):
    """A JSON report is what `json.dumps(tree, indent=2)` writes, and a
    newline."""
    out = io.StringIO()
    cli._emit(tree, "json", out)
    assert out.getvalue() == json.dumps(tree, indent=2) + "\n"


class _Record(NamedTuple):
    a: int


class _Int(int):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize(
    "value",
    [1.5, {"x": 0.0}, (1, 2), [_Record(1)], {1: "a"}, {"a": {None: 1}}, {True: 1},
     {"a": _Int(1)}, [_Str("x")], {"a": [1.5]}, _Int(1), _Str("x"), [True, _Int(0)],
     "x", 1, True, None],
)
def test_report_encoder_refuses_what_no_document_holds(value):
    """A float, a tuple, a record, a subclass of int or str, or a non-str
    key in a document is a bug, at the top or as a leaf inside a container,
    which encodes its leaves inline; so is a bare leaf, which is no
    document: the encoder raises TypeError, where json.dumps would print
    something."""
    with pytest.raises(TypeError):
        cli._to_json(value)


def test_count_degree_refused_past_printable_digits(monkeypatch, capsys):
    """A degree whose Hasse bound q + 1 + 2 sqrt(q), q = ell^degree, would
    print past the interpreter's digit limit is refused at /degree before
    anything is counted; a limit of 0 lifts the refusal."""

    def refuse(*args):
        raise AssertionError("counted")

    argv = ["count", "--curve", "0,0,0,0,1", "--ell", "5", "--degree"]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        monkeypatch.setattr(cli, "tate_algorithm", refuse)
        assert main([*argv, "100000"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: /degree: 5^100000 has about 69898 digits: the count over that "
            "field can pass the 4300-digit limit on printing an integer\n"
        )
        # refused from the bits of ell alone: 5^(10^20) is never computed
        assert main([*argv, str(10**20)]) == 1
        assert capsys.readouterr().err.startswith(f"error: /degree: 5^{10**20} has about ")
        monkeypatch.undo()
        # 5^915 has 640 digits and 5^916 has 641
        sys.set_int_max_str_digits(640)
        assert main([*argv, "915"]) == 0
        assert main([*argv, "916"]) == 1
        assert capsys.readouterr().err.startswith("error: /degree: 5^916 has about 641 digits")
        sys.set_int_max_str_digits(0)
        assert main([*argv, "916", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["q"]) == 641
    finally:
        sys.set_int_max_str_digits(saved)


def test_unprintable_residue_field_refused_before_local_data(monkeypatch, capsys):
    """A conductor at which a relevant prime has a residue field whose
    counts could not print is refused at /base_field, from the plan, before
    any local data is computed: above 5 in Q(mu_10007), f = 10006.  `local`
    and `splitting` check their one place the same way, and
    scripts/reduction_survey.py refuses its plan with the same bytes."""

    def refuse(*args):
        raise AssertionError("local data computed")

    from eulerchar import euler

    monkeypatch.setattr(euler, "local_data_at", refuse)
    monkeypatch.setattr(cli, "local_data_at", refuse)
    request = {"schema_version": 1, "curve": ["1", "0", "0", "-1", "-1"], "prime": 5,
               "base_field": 10007,
               "abelian_variety": {"dimension": 1, "factors": [["-1", "2", "2", "0", "0"]]}}
    message = ("error: /base_field: 5^10006 has about 6994 digits: the count over that "
               "field can pass the 4300-digit limit on printing an integer\n")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for argv in (["analyze", "-"],
                     ["local", "--curve", "1,0,0,-1,-1", "--ell", "5", "--conductor", "10007"],
                     ["splitting", "--ell", "5", "--conductor", "10007"]):
            assert _run(argv, json.dumps(request), monkeypatch, capsys) == (1, "", message)
        monkeypatch.setattr(sys, "argv", ["reduction_survey.py", "--curve", "1,0,0,-1,-1",
                                          "--prime", "5", "--conductor", "10007"])
        assert _survey().main() == 1
        assert capsys.readouterr() == ("", message)
    finally:
        sys.set_int_max_str_digits(saved)


_FLAGS = sorted({name for _, _, arguments, _ in cli._COMMANDS.values()
                 for name, _, _ in (cli._FORMAT, *arguments) if name.startswith("--")})
_WORDS = [*COMMANDS, *_FLAGS, "--form", "--cond", "-h", "--help", "--", "-", "-3",
          "json", "text", "xml", "x", "", "--curve=-1,2,2,0,0", "1,0,0,-1,-1"]
_word = st.sampled_from(_WORDS)
# a value is mostly one that may follow its flag as a separate word, and
# one of --format mostly json or text
_value = st.one_of(st.sampled_from([w for w in _WORDS if not w.startswith("-")]), _word)
_format = st.one_of(st.sampled_from(("json", "text")), _value)


@st.composite
def _command_lines(draw):
    """A command, each of its arguments absent, once (most often) or twice,
    in the `--flag VALUE` or the `--flag=VALUE` form, and up to two stray
    words, all in any order: words and values from `_WORDS`."""
    command = draw(st.sampled_from([*COMMANDS, "-h", "x"]))
    arguments = cli._COMMANDS[command][2] if command in cli._COMMANDS else ()
    items = []
    for name, _, _ in (*arguments, cli._FORMAT):
        for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2)))):
            value = draw(_format if name == "--format" else _value)
            if not name.startswith("--"):
                items.append([value])
            elif draw(st.booleans()):
                items.append([f"{name}={value}"])
            else:
                items.append([name, value])
    strays = draw(st.sampled_from((0, 0, 1, 2)))
    items += draw(st.lists(_word.map(lambda word: [word]), min_size=strays, max_size=strays))
    return [command, *(word for item in draw(st.permutations(items)) for word in item)]


_USAGE, _ANALYZE = "eulerchar splitting: error: ", "eulerchar analyze: error: "
_TOP_HELP = "usage: eulerchar [-h] {" + ",".join(COMMANDS) + "} ..."
_SPLITTING_HELP = ("usage: eulerchar splitting [-h] [--format {json,text}] --ell ELL "
                   "--conductor CONDUCTOR")


@pytest.mark.parametrize(
    "argv,code,first_out,last_err",
    [
        # no command first: help, or a usage error
        (["-h"], 0, _TOP_HELP, ""),
        (["--help", "x"], 0, _TOP_HELP, ""),
        ([], 2, "", "eulerchar: error: the following arguments are required: command"),
        (["frobnicate"], 2, "", "eulerchar: error: argument command: invalid choice: 'frobnicate'"),
        # help for a command, anywhere after it
        (["splitting", "--help"], 0, _SPLITTING_HELP, ""),
        (["splitting", "--ell", "7", "--conductor", "7", "-h"], 0, _SPLITTING_HELP, ""),
        (["splitting", "--bogus", "-h"], 0, _SPLITTING_HELP, ""),
        # flag values: `--flag=VALUE` hands over any text, and `--flag VALUE`
        # the next token unless it starts with `--`
        (["splitting", "--ell=--", "--conductor", "7"], 1, "",
         "error: /ell: expected an integer, got '--'"),
        (["splitting", "--ell", "7", "--conductor="], 1, "",
         "error: /base_field: expected an integer, got ''"),
        (["coranks", "--curve", "1,0,0,-1,-1", "--prime", "7", "--sigma-index", "-3"], 1, "",
         "error: /external/sigma_index_R: expected an integer >= 1, got -3"),
        (["local", "--curve", "-1,2,2,0,0", "--ell", "7"], 0, "place:", ""),
        (["splitting", "--ell", "7", "--conductor"], 2, "",
         _USAGE + "argument --conductor: expected one argument"),
        (["splitting", "--ell", "--conductor", "7"], 2, "",
         _USAGE + "argument --ell: expected one argument"),
        # flag names: in full or by a prefix of exactly one flag; each
        # --format checked, the last value of a repeated flag taken
        (["splitting", "--ell", "7", "--cond", "7"], 0, "ell: 7", ""),
        (["splitting", "--e=7", "--conductor=7", "--form", "json"], 0, "{", ""),
        (["local", "--curve", "1,0,0,-1,-1", "--ell", "7", "--c", "7"], 2, "",
         "eulerchar local: error: unrecognized arguments: --c"),
        (["splitting", "--ell", "7", "--conductor", "7", "--format", "xml"], 2, "",
         _USAGE + "argument --format: invalid choice: 'xml'"),
        (["splitting", "--ell", "7", "--conductor", "7", "--format=xml", "--format", "json"], 2,
         "", _USAGE + "argument --format: invalid choice: 'xml'"),
        (["splitting", "--ell", "7", "--conductor", "7", "--format=--"], 2, "",
         _USAGE + "argument --format: invalid choice: '--'"),
        (["splitting", "--ell", "2", "--ell", "7", "--conductor", "7"], 0, "ell: 7", ""),
        # `--` ends the flags
        (["analyze", "--", "-x"], 1, "", "error: /: [Errno 2] No such file or directory: '-x'"),
        (["splitting", "--ell", "7", "--", "--conductor", "7"], 2, "",
         _USAGE + "the following arguments are required: --conductor"),
        # usage errors
        (["splitting", "--ell", "7"], 2, "",
         _USAGE + "the following arguments are required: --conductor"),
        (["analyze"], 2, "", _ANALYZE + "the following arguments are required: request"),
        (["analyze", "-", "--bogus"], 2, "", _ANALYZE + "unrecognized arguments: --bogus"),
        (["analyze", "a.json", "b.json"], 2, "", _ANALYZE + "unrecognized arguments: b.json"),
        (["analyze", "-", "-x"], 2, "", _ANALYZE + "unrecognized arguments: -x"),
        (["splitting", "7", "--ell", "7", "--conductor", "7"], 2, "",
         _USAGE + "unrecognized arguments: 7"),
    ],
)
def test_command_line_contract(capsys, argv, code, first_out, last_err):
    """What each rule of `cli._read_argv` makes of a command line: its exit
    code, the first line on stdout and the last on stderr.  A usage error
    prints nothing on stdout, and on stderr the usage line that its
    command's help begins with, then the error."""
    got, out, err = _run(argv, capsys=capsys)
    assert (got, out.partition("\n")[0], err.rstrip("\n").rpartition("\n")[2]) == (
        code, first_out, last_err)
    if code == 2:
        command = argv[:1] if argv and argv[0] in COMMANDS else []
        usage = _run([*command, "-h"], capsys=capsys)[1].partition("\n")[0]
        assert err == f"{usage}\n{last_err}\n"


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_every_command_line_reads_or_exits(argv):
    """Every command line is read into the namespace of its command, whose
    attributes are the handler, the command and each argument's, or exits 0
    after printing help on stdout, or 2 after printing a usage error on
    stderr alone."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = cli._read_argv(argv)
    except SystemExit as stop:
        assert (stop.code, bool(out.getvalue()), bool(err.getvalue())) in ((0, True, False),
                                                                           (2, False, True))
        return
    arguments = (cli._FORMAT, *cli._COMMANDS[argv[0]][2])
    assert vars(args).keys() == {"fn", "command", *(cli._dest(name) for name, _, _ in arguments)}
    assert args.fn is cli._COMMANDS[argv[0]][0] and args.command == argv[0]


@st.composite
def _fuzz_requests(draw) -> str:
    """An `analyze` request over a census-box curve with |a4|, |a6| <= 30 or
    a Tate normal form of a point of order 5 or 7 at a small rational t,
    with p in {5, 7, 11, 13} and m in {1, p, 2p, 3p}."""
    box = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                    st.integers(-30, 30), st.integers(-30, 30))
    normal_forms = st.builds(lambda q, num, den: tuple(tate_normal_form(q, Fraction(num, den))),
                             st.sampled_from((5, 7)), st.integers(-12, 12), st.integers(1, 6))
    curve = draw(st.one_of(box, normal_forms))
    p = draw(st.sampled_from((5, 7, 11, 13)))
    return json.dumps({
        "schema_version": 1,
        "curve": [str(c) for c in curve],
        "prime": p,
        "base_field": draw(st.sampled_from((1, p, 2 * p, 3 * p))),
        "abelian_variety": {"dimension": 1, "factors": [["-1", "2", "2", "0", "0"]]},
        "external": {"selmer_finite": True, "lambda_torsion_certificate": True},
    })


@settings(max_examples=300, deadline=None)
@given(_fuzz_requests())
def test_in_domain_requests_report_or_refuse_the_curve(request_text):
    """Every such request gives a report with exit code 0, 2 or 3, or is
    refused at /curve (a singular curve) with exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(request_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "-", "--format", "json"])
    finally:
        sys.stdin = saved
    if code == 1:
        assert not out.getvalue() and err.getvalue().startswith("error: /curve"), err.getvalue()
    else:
        assert code in (0, 2, 3) and not err.getvalue(), (code, err.getvalue())
        doc, request = json.loads(out.getvalue()), json.loads(request_text)
        assert (doc["p"], doc["conductor"]) == (request["prime"], request["base_field"])


def test_bundled_requests_parse():
    for name in ("analysis_with_reduction_table.json", "analysis_with_factor_curve.json"):
        with open(f"data/requests/{name}", encoding="utf-8") as fh:
            parsed = parse_request(json.load(fh))
        assert parsed["p"] == 7


# the JSON example of docs/schema.md
SCHEMA_EXAMPLE = re.search(
    r"```json\n(.*?)```", (ROOT / "docs" / "schema.md").read_text(encoding="utf-8"), re.S
).group(1)


def _bundled_request(name: str) -> str:
    return (ROOT / "data" / "requests" / f"{name}.json").read_text(encoding="utf-8")


def _golden_stdin(name: str) -> str:
    rows = json.loads((ROOT / "tests" / "data" / "golden.json").read_text(encoding="utf-8"))
    return next(row["stdin"] for row in rows if row["name"] == name)


def test_schema_example_is_a_valid_request(monkeypatch, capsys):
    code, out, err = _run(["analyze", "-"], stdin_text=SCHEMA_EXAMPLE,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code in (0, 2, 3), err
    assert out.startswith("schema_version: 1\nstatus: ")


@pytest.mark.parametrize("text", [
    _bundled_request("analysis_with_factor_curve"),
    _bundled_request("analysis_with_reduction_table"),
    SCHEMA_EXAMPLE,
])
def test_parsed_request_is_the_arguments_of_analyze(text):
    """parse_request returns every parameter of analyze, and nothing else."""
    import inspect

    parsed = parse_request(json.loads(text))
    signature = inspect.signature(analyze)
    signature.bind(**parsed)
    assert parsed.keys() == signature.parameters.keys()


def test_external_keys_and_defaults_are_those_of_the_record():
    """`external` takes the keys and defaults of ExternalArithmetic; null
    stands for a default only where the default is null."""
    req = {k: v for k, v in REQ_TABLE.items() if k != "external"}
    assert parse_request(req)["ext"] == ExternalArithmetic()
    nulls = {"torsion_p_override": None, "sigma_index_R": None}
    assert parse_request({**req, "external": nulls})["ext"] == ExternalArithmetic()
    for key, value, message in (
        ("sha_p_order", None, "expected an integer, got None"),
        ("selmer_finite", None, "expected a boolean"),
        ("no_p_torsion_certificate", 1, "expected a boolean"),
        ("sigma_index_R", 0, "expected an integer >= 1, got 0"),
        ("torsion_p_override", True, "expected an integer, got True"),
    ):
        with pytest.raises(RequestError) as err:
            parse_request({**req, "external": {key: value}})
        assert str(err.value) == f"/external/{key}: {message}"


@pytest.mark.parametrize("text,status,code", [
    (_bundled_request("analysis_with_factor_curve"), "OK", 0),
    (_golden_stdin("analyze/E/p7/m7/table-marks-p-bad"), "HYPOTHESIS_FAIL", 2),
    (_golden_stdin("exit3/E/p7/m7"), "NOT_EXACT", 3),
])
def test_report_status_sets_the_exit_code(monkeypatch, capsys, text, status, code):
    report = analyze(**parse_request(json.loads(text)))
    assert report.status == status
    assert report_to_dict(report)["status"] == report.status
    got, out, _ = _run(["analyze", "-", "--format", "json"], stdin_text=text,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert (got, json.loads(out)["status"]) == (code, status)


def _column_starts(row: str) -> list[int]:
    """Where each entry of a text-table row starts."""
    return [m.start() for m in re.finditer(r"\S+", row)]


@pytest.mark.parametrize(
    "curve,prime,conductor,factor,wide",
    [
        (["1", "0", "0", "-1", "-1"], 5, 1, ["1", "0", "0", "0", "10000019"], "149839#1"),
        (["0", "0", "1", "-1", "0"], 5, 19, ["-1", "2", "2", "0", "0"], "112455406951957393129"),
    ],
)
def test_text_columns_line_up(monkeypatch, capsys, curve, prime, conductor, factor, wide):
    """Every row of the places and audit tables puts each entry where its
    header puts the column's key, also when an entry is wider than the
    key, and no line ends in a space."""
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
    doc = report_to_dict(analyze(**parse_request(req)))
    places = out.split("\nplaces:\n")[1].split("\ntorsion:")[0].splitlines()
    audit = out.split("\naudit:\n")[1].split("\ntau_p")[0].splitlines()
    assert places[0].split() == list(doc["places"][0])
    assert audit[0].split() == list(doc["audit"][0])
    assert any(wide in row for row in places) and any(wide in row for row in audit)
    for rows in (places, audit):
        assert len({tuple(_column_starts(row)) for row in rows}) == 1
    assert not any(line.endswith(" ") for line in out.splitlines())


def test_text_tables_pad_each_column_to_its_widest_entry():
    """Each column is as wide as its widest entry, header included, and two
    spaces part it from the next."""
    text = cli._to_text(report_to_dict(analyze(**parse_request(REQ_TABLE))))
    assert (
        "\nplaces:\n"
        "  place  ell  e  f  g  q_v  kodaira  c_v  v_min_delta  reduction_class"
        "  potentially_good  N_v   L_at_1\n"
        "  2#1    2    1  3  2  8    I1       1    1            MultSplit        false"
        "             null  8/7\n"
        "  2#2    2    1  3  2  8    I1       1    1            MultSplit        false"
        "             null  8/7\n"
        "  3#1    3    1  6  1  729  I1       1    1            MultSplit        false"
        "             null  729/728\n"
        "  7#1    7    6  1  1  7    I0       1    0            GoodOrdinary     true"
        "              7     1\n"
        "torsion:\n"
    ) in text
    assert (
        "\naudit:\n"
        "  place  q_v  reduction_class  L_at_1   vp_L  contribution  gamma_kernel_exponent\n"
        "  2#1    8    MultSplit        8/7      -1    1             1\n"
        "  2#2    8    MultSplit        8/7      -1    1             1\n"
        "  3#1    729  MultSplit        729/728  -1    1             1\n"
        "tau_p: 0\n"
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
    """A composite prime is refused at /prime, and so are the primes 2 and
    3, which lie outside the formula's range."""
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
        with pytest.raises(RequestError) as err:
            parse_request({**req, "prime": small})
        assert str(err.value) == f"/prime: expected an integer >= 5, got {small}"
