import json
import sys
from math import isqrt, log10

import pytest
from hypothesis import given, strategies as st

from eulerchar.cli import main
from eulerchar.cyclotomic import UnprintableFieldError, field_degree, printable, splitting
from eulerchar.valuations import euler_phi, is_prime


def efg(ell, m):
    sp = splitting(ell, m)
    return sp.e, sp.f, sp.g


def test_splitting_anchors():
    assert efg(2, 7) == (1, 3, 2)
    assert efg(7, 7) == (6, 1, 1)
    assert efg(3, 7) == (1, 6, 1)
    assert efg(13, 7) == (1, 2, 3)
    for ell in (2, 3, 5, 97):
        assert efg(ell, 1) == (1, 1, 1)


def test_residue_and_local_degree(capsys):
    """`splitting` reports the residue field size ell^f and the local
    degree e f."""
    for ell, m, expected in ((2, 7, ("8", 3)), (7, 49, ("7", 42))):
        assert main(["splitting", "--ell", str(ell), "--conductor", str(m), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["residue_field_size"], doc["local_degree"]) == expected


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        splitting(4, 7)
    with pytest.raises(ValueError):
        splitting(5, 0)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=500))
def test_efg_product_is_phi(ell, m):
    if not is_prime(ell):
        return
    e, f, g = efg(ell, m)
    assert e * f * g == euler_phi(m)
    # ramification criterion, with the classical degenerate case: for
    # m = 2 mod 4 the field equals Q(mu_{m/2}) and 2 stays unramified
    expected_ramified = m % ell == 0 and not (ell == 2 and m % 4 == 2)
    assert (e > 1) == expected_ramified


def test_field_degree():
    assert field_degree(7) == 6
    assert field_degree(1) == 1
    assert field_degree(12) == 4


@pytest.mark.parametrize("limit", [4300, 640])
def test_printable_agrees_with_the_exact_rule(limit):
    """`printable` decides by bit lengths away from the digit limit, yet
    agrees with the exact rule q + 1 + isqrt(4 q) < 10^limit, q = ell^f: at f
    on both sides of the edge, and on both sides of each bit-length
    threshold; a limit of 0 prints any count."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit)
        for ell in (2, 3, 5, 7, 1000003):
            bits = ell.bit_length()
            edge = int(limit / log10(ell))
            near = [edge, 3 * limit // bits, -(-4 * limit // (bits - 1))]
            degrees = {1, 2, *(f + d for f in near for d in range(-2, 3) if f + d >= 1)}
            verdicts = set()
            for f in sorted(degrees):
                q, verdict = ell**f, printable(ell, f)
                assert verdict == (q + 1 + isqrt(4 * q) < 10**limit), (ell, f)
                verdicts.add(verdict)
            assert verdicts == {True, False}  # the edge lies among the degrees
            assert not printable(ell, 10**20)
        sys.set_int_max_str_digits(0)
        assert printable(3, 10**20) and printable(2, 1)
    finally:
        sys.set_int_max_str_digits(saved)


def test_splitting_applies_the_digit_limit_of_each_call():
    """Only (e, f, g) is memoized: with F_{5^10006} (about 6,994 digits)
    split once under no limit, a second call under the default limit still
    refuses it, and a third under no limit answers again."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert splitting(5, 10007).f == 10006
        sys.set_int_max_str_digits(4300)
        with pytest.raises(UnprintableFieldError, match=r"^5\^10006 has about 6994 digits"):
            splitting(5, 10007)
        sys.set_int_max_str_digits(0)
        assert splitting(5, 10007).f == 10006
    finally:
        sys.set_int_max_str_digits(saved)
