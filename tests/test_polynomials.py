from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eulerchar.finite_fields import fq_create
from eulerchar.polynomials import Polynomial, poly_from_ints, rational_roots
from oracles import roots_in_field


def test_rational_roots_anchors():
    assert sorted(rational_roots(poly_from_ints([-1, 0, 1]))) == [-1, 1]
    assert rational_roots(poly_from_ints([-2, 3])) == [Fraction(2, 3)]
    assert rational_roots(poly_from_ints([1, 0, 1])) == []


def test_rational_roots_rejects_zero():
    with pytest.raises(ValueError):
        rational_roots(Polynomial([Fraction(0)]))


def test_rational_roots_with_zero_root():
    # x^2 (3x - 2)
    p = poly_from_ints([0, 0, -2, 3])
    assert sorted(rational_roots(p)) == [0, Fraction(2, 3)]


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_rational_roots_found_by_construction(roots, extra):
    """Build prod (x - r) * (x^2 + extra) and recover exactly the r's."""
    poly = poly_from_ints([extra, 0, 1])
    for r in roots:
        poly = poly * Polynomial([-r, Fraction(1)])
    found = rational_roots(poly)
    assert sorted(set(found)) == sorted(set(roots))
    for r in found:
        assert poly.evaluate(r) == 0


def test_divmod_roundtrip():
    num = poly_from_ints([3, -2, 0, 5, 1])
    den = poly_from_ints([1, 2, 1])
    q, r = num.divmod(den)
    assert q * den + r == num
    assert r.degree < den.degree


def test_derivative_and_eval():
    p = poly_from_ints([1, 2, 3])  # 3x^2 + 2x + 1
    assert p.derivative().coeffs == [Fraction(2), Fraction(6)]
    assert p.evaluate(Fraction(2)) == 17


def test_roots_in_finite_field():
    F7 = fq_create(7, 1)
    # x^2 + 1 over F_7 splits only when -1 is a QR; squares mod 7 are {0,1,2,4}
    poly = Polynomial([F7.one(), F7.zero(), F7.one()])
    roots = roots_in_field(poly, F7)
    assert roots == []
    poly2 = Polynomial([F7.from_int(-1), F7.zero(), F7.one()])  # x^2 - 1
    assert {r.coords[0] for r in roots_in_field(poly2, F7)} == {1, 6}


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_root_count_matches_scan(p, f):
    """deg gcd(P, x^q - x) against the field scan, on every monic polynomial
    of degree <= 3 over F_4, F_5, F_7, F_8 and F_9, and on every monic
    polynomial of degree <= 3 over F_p counted in F_{p^f} from F_p[x]."""
    from itertools import product

    from eulerchar.polynomials import count_roots_in_field

    F = fq_create(p, f)
    elements = list(F.elements())
    for degree in range(4):
        for low in product(elements, repeat=degree):
            poly = Polynomial(list(low) + [F.one()])
            assert count_roots_in_field(poly, F.order) == len(roots_in_field(poly, F))
    Fp = fq_create(p, 1)
    for degree in range(4):
        for low in product(range(p), repeat=degree):
            ints = list(low) + [1]
            lifted = poly_from_ints(ints, F)
            assert count_roots_in_field(poly_from_ints(ints, Fp), F.order) == len(
                roots_in_field(lifted, F)
            )


def test_root_count_rejects_foreign_field_order():
    from eulerchar.polynomials import count_roots_in_field

    poly = poly_from_ints([1, 0, 1], fq_create(3, 1))
    assert count_roots_in_field(poly, 9) == 2  # x^2 + 1 splits over F_9
    with pytest.raises(ValueError):
        count_roots_in_field(poly, 6)
