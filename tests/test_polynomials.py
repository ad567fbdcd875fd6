from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eulerchar.polynomials import Polynomial, rational_roots
from oracles import finite_field, roots_in_field


def test_rational_roots_anchors():
    assert rational_roots(Polynomial([-1, 0, 1]), 3) == [-1, 1]
    assert rational_roots(Polynomial([Fraction(c) for c in [-2, 3]]), 5) == [Fraction(2, 3)]
    assert rational_roots(Polynomial([1, 0, 1]), 3) == []
    # a root of size far past the modulus comes back from its symmetric lift
    assert rational_roots(Polynomial([10**30 + 7, -1]), 3) == [10**30 + 7]
    assert rational_roots(Polynomial([Fraction(1, 2), Fraction(-7, 3)]), 5) == [Fraction(3, 14)]


def test_rational_roots_rejects_zero():
    with pytest.raises(ValueError):
        rational_roots(Polynomial([Fraction(0)]), 3)


def test_rational_roots_with_zero_root():
    # x^2 (3x - 2): the zero root is split off before the checks mod ell
    p = Polynomial([Fraction(c) for c in [0, 0, -2, 3]])
    assert rational_roots(p, 5) == [0, Fraction(2, 3)]


def test_rational_roots_refuses_a_bad_ell():
    with pytest.raises(ValueError, match="leading coefficient"):
        rational_roots(Polynomial([1, 0, 3]), 3)
    # (x - 1)(x - 6) has a double root mod 5 and two simple roots mod 7
    square_mod_5 = Polynomial([6, -7, 1])
    with pytest.raises(ValueError, match="squarefree"):
        rational_roots(square_mod_5, 5)
    assert rational_roots(square_mod_5, 7) == [1, 6]


def _smallest_prime_not_dividing(n: int) -> int:
    ell = 2
    while n % ell == 0 or any(ell % d == 0 for d in range(2, ell)):
        ell += 1
    return ell


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_rational_roots_found_by_construction(roots, extra):
    """Build prod (x - r) * (x^2 + extra) over distinct r and recover exactly
    the r's, lifting from the smallest prime ell that divides no denominator
    of an r, no difference of two r's, not 2 * extra and no r^2 + extra:
    the product then has a unit leading coefficient and distinct roots
    mod ell."""
    poly = Polynomial([extra, 0, 1])
    for r in roots:
        poly = poly * Polynomial([-r, 1])
    bad = 2 * extra
    for i, r in enumerate(roots):
        bad *= r.denominator * (r * r + extra).numerator
        for other in roots[i + 1 :]:
            bad *= (r - other).numerator
    found = rational_roots(poly, _smallest_prime_not_dividing(bad))
    assert found == sorted(roots)
    for r in found:
        assert poly.evaluate(r) == 0


def test_derivative_and_eval():
    p = Polynomial([Fraction(c) for c in [1, 2, 3]])  # 3x^2 + 2x + 1
    assert p.evaluate(Fraction(2)) == 17


def test_roots_in_finite_field():
    F7 = finite_field(7, 1)
    # x^2 + 1 over F_7 splits only when -1 is a QR; squares mod 7 are {0,1,2,4}
    assert roots_in_field([1, 0, 1], F7) == []
    assert {r.coords[0] for r in roots_in_field([-1, 0, 1], F7)} == {1, 6}  # x^2 - 1


@pytest.mark.parametrize(
    "p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (3, 3), (5, 2), (2, 6)]
)
def test_root_count_matches_scan(p, f):
    """The root count in F_{p^f} against the scan of that field, on every
    monic polynomial of degree <= 3 over F_p, and on its multiple by -1."""
    from itertools import product

    from eulerchar.polynomials import count_roots_in_field

    F = finite_field(p, f)
    for degree in range(4):
        for low in product(range(p), repeat=degree):
            ints = list(low) + [1]
            expected = len(roots_in_field(ints, F))
            assert count_roots_in_field(ints, p, f) == expected
            assert count_roots_in_field([-c for c in ints], p, f) == expected


def test_root_count_at_large_degree_and_refusals():
    from eulerchar.polynomials import count_roots_in_field

    assert count_roots_in_field([1, 0, 1], 3, 2) == 2  # x^2 + 1 splits over F_9
    assert count_roots_in_field([1, 0, 4], 3, 2) == 2  # the same polynomial mod 3
    # an irreducible factor of degree k adds its k roots exactly when k | f
    assert count_roots_in_field([1, 0, 1], 3, 1_000_002) == 2
    assert count_roots_in_field([1, 0, 1], 3, 1_000_001) == 0
    assert count_roots_in_field([1, 1, 0, 1], 2, 999_999) == 3  # x^3 + x + 1
    assert count_roots_in_field([1, 1, 0, 1], 2, 1_000_001) == 0
    for f in (0, -1):
        with pytest.raises(ValueError):
            count_roots_in_field([1, 0, 1], 3, f)
    with pytest.raises(ValueError):
        count_roots_in_field([1, 1, 3], 3, 2)  # leading coefficient 0 mod 3
    with pytest.raises(ValueError):
        count_roots_in_field([1, 0, 0, 0, 1], 3, 1)  # degree 4
