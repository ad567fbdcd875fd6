import pytest
from hypothesis import given, strategies as st

from eulerchar.cyclotomic import field_degree, splitting
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


def test_residue_and_local_degree():
    sp = splitting(2, 7)
    assert sp.residue_size == 8
    assert sp.local_degree == 3


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
