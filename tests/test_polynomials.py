from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eulerchar.polynomials import poly_mul, poly_sub, rational_roots
from oracles import evaluate, finite_field, roots_in_field, smallest_prime_not_dividing


def test_rational_roots_anchors():
    assert rational_roots([-1, 0, 1], 3) == [-1, 1]
    assert rational_roots([-2, 3], 5) == [Fraction(2, 3)]
    assert rational_roots([1, 0, 1], 3) == []
    # a root of size far past the modulus comes back from its symmetric lift
    assert rational_roots([10**30 + 7, -1], 3) == [10**30 + 7]
    # 1/2 - 7/3 x, its denominators cleared by hand: 3 - 14 x
    assert rational_roots([3, -14], 5) == [Fraction(3, 14)]


def test_rational_roots_rejects_zero():
    for zero in ([], [0], [0, 0]):
        with pytest.raises(ValueError):
            rational_roots(zero, 3)


def test_rational_roots_with_zero_root():
    # x^2 (3x - 2): the zero root is split off before the checks mod ell
    assert rational_roots([0, 0, -2, 3], 5) == [0, Fraction(2, 3)]


def test_rational_roots_refuses_a_bad_ell():
    with pytest.raises(ValueError, match="leading coefficient"):
        rational_roots([1, 0, 3], 3)
    # (x - 1)(x - 6) has a double root mod 5 and two simple roots mod 7
    square_mod_5 = [6, -7, 1]
    with pytest.raises(ValueError, match="squarefree"):
        rational_roots(square_mod_5, 5)
    assert rational_roots(square_mod_5, 7) == [1, 6]


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
    """Build prod (t x - s) * (x^2 + extra) over distinct r = s/t in lowest
    terms, an integer polynomial, and recover exactly the r's, lifting from
    the smallest prime ell that divides no denominator of an r, no
    difference of two r's, not 2 * extra and no r^2 + extra: the product
    then has a unit leading coefficient and distinct roots mod ell."""
    poly = poly_mul([extra, 0, 1], *[[-r.numerator, r.denominator] for r in roots])
    bad = 2 * extra
    for i, r in enumerate(roots):
        bad *= r.denominator * (r * r + extra).numerator
        for other in roots[i + 1 :]:
            bad *= (r - other).numerator
    found = rational_roots(poly, smallest_prime_not_dividing(bad))
    assert found == sorted(roots)
    for r in found:
        assert evaluate(poly, r) == 0


def test_derivative_and_eval():
    assert evaluate([1, 2, 3], Fraction(2)) == 17  # 3x^2 + 2x + 1


def test_roots_in_finite_field():
    F7 = finite_field(7, 1)
    # x^2 + 1 over F_7 splits only when -1 is a QR; squares mod 7 are {0,1,2,4}
    assert roots_in_field([1, 0, 1], F7) == []
    assert {r.coords[0] for r in roots_in_field([-1, 0, 1], F7)} == {1, 6}  # x^2 - 1


@pytest.mark.parametrize(
    "p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (3, 3), (5, 2), (2, 6)]
)
def test_root_count_matches_scan(p, f):
    """residue_roots against the scan of F_{p^f}, on every monic polynomial
    of degree <= 3 over F_p times every leading coefficient in F_p^* (and
    -1 and p + 1 as integers): the distinct roots in F_{p^f}, and the
    multiple root, the common root of P and P' in F_p, or None."""
    from itertools import product

    from eulerchar.polynomials import residue_roots

    F = finite_field(p, f)
    for degree in range(4):
        for low in product(range(p), repeat=degree):
            ints = list(low) + [1]
            expected = len(roots_in_field(ints, F))
            derivative = [i * c for i, c in enumerate(ints)][1:]
            common = [x for x in range(p)
                      if _eval(ints, x) % p == _eval(derivative, x) % p == 0]
            assert len(common) <= 1
            multiple = common[0] if common else None
            for lead in (*range(1, p), -1, p + 1):
                scaled = [lead * c for c in ints]
                assert residue_roots(scaled, p, f) == (expected, multiple), (scaled, p, f)


def _eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


coefficient_lists = st.one_of(
    st.just([0]), st.lists(st.integers(-50, 50), min_size=1, max_size=6)
)


@given(coefficient_lists, coefficient_lists, st.integers(-6, 6))
def test_list_product_and_difference_agree_with_values(a, b, x):
    """At an integer point, the product and the difference of two dense
    lists evaluate to the product and the difference of their values; the
    draws include [0], single coefficients and unequal lengths."""
    assert _eval(poly_mul(a, b), x) == _eval(a, x) * _eval(b, x)
    assert _eval(poly_sub(a, b), x) == _eval(a, x) - _eval(b, x)


@pytest.mark.parametrize("ell", [10**9 + 7, 2**61 - 1])
def test_residue_roots_of_constructed_factorizations(ell):
    """Products of known factors at a large ell, with leading coefficients
    1, 7 and -1, give the roots and multiple root the factors predict."""
    from eulerchar.polynomials import residue_roots

    nonresidue = next(n for n in range(2, 100) if pow(n, (ell - 1) // 2, ell) == ell - 1)
    r, s, t = 3, ell - 5, 10**6 + 3
    for lead in (1, 7, -1):
        for f in (1, 2, 3, 6):
            cases = [
                (poly_mul([-r, 1], [-s, 1], [-t, 1]), 3, None),
                (poly_mul([-r, 1], [-r, 1], [-s, 1]), 2, r),
                (poly_mul([-s, 1], [-s, 1], [-s, 1]), 1, s),
                (poly_mul([-r, 1], [-s, 1]), 2, None),
                (poly_mul([-t, 1], [-t, 1]), 1, t),
                # an irreducible quadratic adds its 2 roots exactly when 2 | f
                (poly_mul([-nonresidue, 0, 1]), 0 if f % 2 else 2, None),
                (poly_mul([-r, 1], [-nonresidue, 0, 1]), 1 if f % 2 else 3, None),
                ([lead], 0, None),
                ([-r, 1], 1, None),
            ]
            if ell % 3 == 1:  # x^3 - c is irreducible when c is not a cube
                noncube = next(c for c in range(2, 100) if pow(c, (ell - 1) // 3, ell) != 1)
                cases.append(([-noncube, 0, 0, 1], 0 if f % 3 else 3, None))
            for coeffs, roots, multiple in cases:
                scaled = [lead * c for c in coeffs]
                assert residue_roots(scaled, ell, f) == (roots, multiple), (coeffs, f)


def test_root_count_at_large_degree_and_refusals():
    from eulerchar.polynomials import residue_roots

    assert residue_roots([1, 0, 1], 3, 2) == (2, None)  # x^2 + 1 splits over F_9
    assert residue_roots([1, 0, 4], 3, 2) == (2, None)  # the same polynomial mod 3
    # an irreducible factor of degree k adds its k roots exactly when k | f
    assert residue_roots([1, 0, 1], 3, 1_000_002) == (2, None)
    assert residue_roots([1, 0, 1], 3, 1_000_001) == (0, None)
    assert residue_roots([1, 1, 0, 1], 2, 999_999) == (3, None)  # x^3 + x + 1
    assert residue_roots([1, 1, 0, 1], 2, 1_000_001) == (0, None)
    for f in (0, -1):
        with pytest.raises(ValueError):
            residue_roots([1, 0, 1], 3, f)
    with pytest.raises(ValueError):
        residue_roots([1, 1, 3], 3, 2)  # leading coefficient 0 mod 3
    with pytest.raises(ValueError):
        residue_roots([1, 0, 0, 0, 1], 3, 1)  # degree 4
