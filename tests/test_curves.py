import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from eulerchar import curves
from eulerchar.curves import (
    SingularModelError,
    WeierstrassModel,
    b_invariants,
    c_invariants,
    count_points,
    division_polynomial,
    extension_count,
    invariants,
    model_with_j_invariant,
    rational_p_torsion_order,
    reduce_model,
    torsion_bound_over_F,
)
from eulerchar.finite_fields import fq_create
from eulerchar.polynomials import rational_roots
from oracles import (
    CurvePoint,
    add_points,
    brute_count,
    discriminant,
    evaluate,
    extension_count_linear,
    finite_field,
    is_on_curve,
    lift_model,
    lift_x_to_points,
    point_order,
    rational_roots_by_divisors,
    roots_in_field,
    scalar_mul,
    smallest_prime_not_dividing,
    tate_normal_form,
    transform,
)

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])
EPRIME = WeierstrassModel.from_rationals([-1, 2, 2, 0, 0])
EJ0 = WeierstrassModel.from_rationals([0, 0, 0, 0, 1])
E11A = WeierstrassModel.from_rationals([0, -1, 1, -10, -20])  # rational 5-torsion


def test_invariant_anchors():
    assert invariants(E294).disc == -294
    assert invariants(E294).disc == -2 * 3 * 7**2
    assert invariants(EPRIME).disc == -(2**7) * 13
    assert invariants(EJ0).disc == -432  # -16(4*0^3 + 27*1^2)


def test_invariants_reject_singular():
    with pytest.raises(SingularModelError):
        invariants(WeierstrassModel.from_rationals([0, 0, 0, 0, 0]))


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@given(st.tuples(small_fracs, small_fracs, small_fracs, small_fracs, small_fracs))
def test_invariant_identities(coeffs):
    model = WeierstrassModel.from_rationals(coeffs)
    b2, b4, b6, b8 = b_invariants(model.coefficients())
    assert 4 * b8 == b2 * b6 - b4 * b4
    try:
        inv = invariants(model)
    except SingularModelError:
        return
    assert 1728 * inv.disc == inv.c4**3 - inv.c6**2
    assert inv.j == Fraction(inv.c4) ** 3 / inv.disc


mixed_fracs = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 49))
)


@given(st.tuples(mixed_fracs, mixed_fracs, mixed_fracs, mixed_fracs, mixed_fracs))
def test_invariants_on_integers_match_rational_formulas(coeffs):
    """from_rationals carries a_i as the integral model a_i * d^i, d the lcm
    of the denominators, so each invariant of weight k is the formula's
    value over Fractions times d^k, an int, and j is the same Fraction."""
    d = lcm(*[c.denominator for c in coeffs])
    assume(d > 1)
    model = WeierstrassModel.from_rationals(coeffs)
    assert model == tuple(c * d**k for c, k in zip(coeffs, (1, 2, 3, 4, 6)))
    assert all(type(c) is int for c in model)
    b = b_invariants(coeffs)
    c4, c6, disc = c_invariants(*b)
    if disc == 0:
        with pytest.raises(SingularModelError):
            invariants(model)
        return
    inv = invariants(model)
    weighted = zip((*b, c4, c6, disc), (2, 4, 6, 8, 4, 6, 12))
    on_integers = (*b_invariants(model), inv.c4, inv.c6, inv.disc)
    assert on_integers == tuple(x * d**k for x, k in weighted)
    assert all(type(x) is int for x in on_integers)
    assert type(inv.j) is Fraction and inv.j == c4**3 / disc


def test_from_rationals_clears_the_reduced_denominators():
    """a_i / d^i for integers a_i read as the tuple a_i * d'^i of ints, d'
    the lcm of the denominators of a_i / d^i in lowest terms: d' = d only
    when no cancellation shortens them."""
    rng = random.Random(29)
    for _ in range(2000):
        a = [rng.randint(-40, 40) for _ in range(5)]
        d = rng.choice((1, 2, 3, 4, 5, 6, 7, 10, 12))
        given = [Fraction(x, d**k) for x, k in zip(a, (1, 2, 3, 4, 6))]
        reduced = lcm(*[x.denominator for x in given])
        expected = tuple(x * reduced**k for x, k in zip(given, (1, 2, 3, 4, 6)))
        for spelling in (given, [str(x) for x in given]):
            model = WeierstrassModel.from_rationals(spelling)
            assert model == expected
            assert all(type(c) is int for c in model)
    # E as a_i / 2^i: d' = 64, the lcm of 2, 16 and 64
    e_over_2 = WeierstrassModel.from_rationals(["1/2", 0, 0, "-1/16", "-1/64"])
    assert e_over_2 == (32, 0, 0, -(2**20), -(2**30))
    assert WeierstrassModel.from_rationals([1, 0, 0, -1, -1]) == E294 == (1, 0, 0, -1, -1)


def test_transform_invariance():
    """A change of variables with scaling u divides Delta by u^12 and keeps
    j.  transform returns the integral model: at u = 1/2 no denominator
    arises, and at u = 2 d = 64, the lcm of the denominators, clears them
    and multiplies Delta by d^12."""
    inv = invariants(E294)
    halved = transform(E294, Fraction(1, 2), Fraction(1), Fraction(3), Fraction(-2))
    assert invariants(halved).disc == inv.disc * 2**12
    doubled = transform(E294, Fraction(2), Fraction(1), Fraction(3), Fraction(-2))
    assert doubled.a1 == Fraction(1 + 2 * 3, 2) * 64
    assert invariants(doubled).disc == inv.disc * Fraction(64, 2) ** 12
    assert invariants(halved).j == invariants(doubled).j == inv.j


def test_point_order_anchors():
    assert point_order(EPRIME, CurvePoint(Fraction(0), Fraction(0)), 12) == 7
    assert point_order(E294, CurvePoint.infinity(), 12) == 1
    assert point_order(EJ0, CurvePoint(Fraction(2), Fraction(3)), 12) == 6


def test_point_order_rejects_off_curve():
    with pytest.raises(ValueError):
        point_order(EJ0, CurvePoint(Fraction(1), Fraction(1)), 5)


def test_point_arithmetic_group_law():
    P = CurvePoint(Fraction(2), Fraction(3))
    acc = CurvePoint.infinity()
    for n in range(1, 8):
        acc = add_points(EJ0, acc, P)
        assert acc == scalar_mul(EJ0, n, P)
        assert is_on_curve(EJ0, acc)


def test_count_anchors():
    # enumeration oracle: fibers of y^2 = x^3 + 1 at x = 0..4 give 2+0+2+0+1
    fiber = []
    for x in range(5):
        rhs = (x**3 + 1) % 5
        fiber.append(len([y for y in range(5) if (y * y - rhs) % 5 == 0]))
    assert fiber == [2, 0, 2, 0, 1]
    assert count_points(reduce_model(EJ0, 5)) == sum(fiber) + 1 == 6

    curve = reduce_model(WeierstrassModel.from_rationals([0, 0, 1, 0, 0]), 2)
    brute = 1
    for x in range(2):
        for y in range(2):
            if (y * y + y) % 2 == (x**3) % 2:
                brute += 1
    assert count_points(curve) == brute == 3


def test_count_rejects_singular():
    sing = reduce_model(WeierstrassModel.from_rationals([0, 0, 0, 0, 0]), 5)
    with pytest.raises(SingularModelError):
        count_points(sing)


def test_count_char2_extension_field():
    F8 = finite_field(2, 3)
    curve = reduce_model(WeierstrassModel.from_rationals([0, 0, 1, 0, 0]), 2)
    n = count_points(curve, 3)
    # brute force over all of F_8 x F_8, and the fiber oracle
    brute = 1
    for x in F8.elements():
        for y in F8.elements():
            if y * y + y == x * x * x:
                brute += 1
    assert n == brute == brute_count(lift_model(curve, F8))
    assert abs(8 + 1 - n) <= 2 * isqrt(8)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_count_points_over_extension_matches_brute_count(ell, f):
    """count_points(model, f) of a model over F_ell is the count over
    F_{ell^f}, against enumerating that field, for 11a, 37a and y^2 = x^3 + 1
    at every ell in {2, 3, 5, 7} where they have good reduction."""
    e37a = WeierstrassModel.from_rationals([0, 0, 1, -1, 0])
    counted = 0
    for E in (E11A, e37a, EJ0):
        if invariants(E).disc % ell == 0:
            continue
        reduced = reduce_model(E, ell)
        assert count_points(reduced, f) == brute_count(lift_model(reduced, finite_field(ell, f)))
        counted += 1
    assert counted >= 2


def test_extension_count_anchors():
    assert extension_count(14, 13, 2) == 196  # a = 0, a_2 = -26
    q = 13
    assert extension_count(q + 1, q, 2) == q * q + 1 + 2 * q  # supersingular doubling
    assert extension_count(14, 13, 1) == 14
    with pytest.raises(ValueError):
        extension_count(30, 13, 2)  # Hasse violation


def test_extension_count_matches_linear_recurrence():
    """The doubling formulas against the step-by-step trace recurrence, on
    every degree up to 200 across the Hasse window, and at k = 10^5."""
    for q in (2, 3, 5, 7, 13, 101):
        bound = isqrt(4 * q)
        for n1 in {q + 1 - bound, q, q + 1, q + 2, q + 1 + bound}:
            for k in range(1, 201):
                assert extension_count(n1, q, k) == extension_count_linear(n1, q, k), (n1, q, k)
    assert extension_count(4, 5, 10**5) == extension_count_linear(4, 5, 10**5)
    with pytest.raises(ValueError):
        extension_count(4, 5, 0)


def test_extension_count_matches_direct():
    """Direct-count cross-check of the trace recurrence, including fields
    well beyond the residue sizes the pipeline ever visits."""
    cardinalities = [(2, 10), (3, 6), (5, 4), (7, 4), (11, 3), (13, 3), (5, 6)]
    rng = random.Random(11)
    for ell, kmax in cardinalities:
        k = rng.randint(2, kmax)
        for _ in range(4):
            coeffs = [rng.randrange(ell) for _ in range(5)]
            model1 = reduce_model(WeierstrassModel.from_rationals(coeffs), ell)
            try:
                n1 = count_points(model1)
            except SingularModelError:
                continue
            modelk = lift_model(model1, finite_field(ell, k))
            assert n1 == brute_count(lift_model(model1, finite_field(ell, 1)))
            assert extension_count(n1, ell, k) == brute_count(modelk)
            assert count_points(model1, k) == brute_count(modelk)


def _primes_between(lo, hi):
    return [p for p in range(lo, hi) if _is_prime(p)]


def test_shanks_mestre_matches_square_table():
    """Above the Mestre-Schoof bound the count is Shanks-Mestre; the
    square-table pass is exact at every p and serves as the reference:
    twelve random curves at every prime 229 < ell < 2000, and every
    y^2 = x^3 + b (j = 0) and y^2 = x^3 + bx (j = 1728) with their twists
    at ell in {233, 239, 241}."""
    rng = random.Random(229)
    cases = []
    for ell in _primes_between(curves.MESTRE_BOUND + 1, 2000):
        cases += [(ell, [rng.randrange(ell) for _ in range(5)]) for _ in range(12)]
    for ell in (233, 239, 241):
        cases += [(ell, [0, 0, 0, 0, b]) for b in range(1, ell)]
        cases += [(ell, [0, 0, 0, b, 0]) for b in range(1, ell)]
    checked = 0
    for ell, coeffs in cases:
        if discriminant(coeffs) % ell == 0:
            continue
        by_squares = curves._count_by_squares(ell, coeffs, b_invariants(coeffs))
        assert curves._count_prime_field(ell, tuple(coeffs)) == by_squares
        checked += 1
    assert checked > 4000


def test_square_root_kernel_matches_brute_count():
    """The O(p) kernel against enumeration over FiniteField at every prime
    up to MESTRE_BOUND, on random nonsingular models with a1 and a3 nonzero,
    so that the y-line enters every fiber."""
    rng = random.Random(2)
    for ell in _primes_between(2, curves.MESTRE_BOUND + 1):
        F = finite_field(ell, 1)
        checked = 0
        while checked < 3:
            a1, a3 = rng.randrange(1, ell), rng.randrange(1, ell)
            coeffs = (a1, rng.randrange(ell), a3, rng.randrange(ell), rng.randrange(ell))
            if discriminant(coeffs) % ell == 0:
                continue
            model = WeierstrassModel(*(F.from_int(c) for c in coeffs))
            by_squares = curves._count_by_squares(ell, coeffs, b_invariants(coeffs))
            assert by_squares == brute_count(model), (ell, coeffs)
            checked += 1


def test_hasse_multiples_match_the_group_law():
    """Every m in the Hasse interval with m P = O, for every point P on
    three curves over F_233, against repeated addition over FiniteField.  These
    curves have points of order 12 = 2w, whose giant windows c - w .. c + w
    hold two multiples unless the baby steps detect the small order, and
    points of orders 15 and 17, just past the skipped orders up to 13."""
    p = 233
    F = finite_field(p, 1)
    r = isqrt(4 * p)
    lo, hi = p + 1 - r, p + 1 + r
    for a, b in [(1, 5), (1, 30), (1, 35)]:
        model = WeierstrassModel(F.zero(), F.zero(), F.zero(), F.from_int(a), F.from_int(b))
        for x in range(p):
            for y in range(1, (p + 1) // 2):
                if (y * y - x**3 - a * x - b) % p == 0:
                    break
            else:
                continue
            P = CurvePoint(F.from_int(x), F.from_int(y))
            expected = []
            acc = scalar_mul(model, lo, P)
            for m in range(lo, hi + 1):
                if acc.is_infinity:
                    expected.append(m)
                acc = add_points(model, acc, P)
            multiples = curves._hasse_multiples((x, y), a, p, lo, hi)
            # w = isqrt(30) + 1 = 6: orders up to 2w + 1 = 13 are skipped
            small = point_order(model, P, 13) is not None
            assert (multiples is None) == small
            assert small or multiples == expected


def test_count_above_mestre_bound_matches_brute_count():
    """Shanks-Mestre against enumeration over FiniteField, which shares no
    code with either library count."""
    rng = random.Random(233)
    for ell in (233, 251):
        for _ in range(4):
            model = WeierstrassModel.from_rationals([rng.randrange(ell) for _ in range(5)])
            if discriminant(model) % ell == 0:
                continue
            reduced = reduce_model(model, ell)
            assert count_points(reduced) == brute_count(lift_model(reduced, finite_field(ell, 1)))


def _points(model, F, p, count):
    """`count` affine points of a model over F_p, p = 3 mod 4, where the
    square root of a square d is d^((p+1)/4)."""
    out = []
    x = 0
    while len(out) < count:
        X = F.from_int(x)
        h = model.y_line(X)
        d = model.rhs(X) * 4 + h * h  # (2y + h)^2 = d
        s = d ** ((p + 1) // 4)
        if not d.is_zero() and s * s == d:
            out.append(CurvePoint(X, (s - h) / F.from_int(2)))
        x += 1
    return out


@pytest.mark.parametrize("p", [1000003, 10**12 + 39])
def test_large_count_annihilates_points(p):
    """N P = O on E and (2p + 2 - N) P' = O on its twist by -1, checked
    with the generic group law over FiniteField, and N within the Hasse bound,
    at primes where no enumeration is possible."""
    assert p % 4 == 3 and _is_prime(p)
    F = finite_field(p, 1)
    for model in (E294, EJ0, WeierstrassModel.from_rationals([0, 0, 0, 1, 0])):
        reduced = reduce_model(model, p)
        N = count_points(reduced)
        E = lift_model(reduced, F)
        assert (p + 1 - N) ** 2 <= 4 * p
        for P in _points(E, F, p, 10):
            assert is_on_curve(E, P)
            assert scalar_mul(E, N, P).is_infinity
        # y^2 = x^3 - 27 c4 x - 54 c6 is isomorphic to E; -1 is not a square
        # mod p, so y^2 = x^3 - 27 c4 x + 54 c6 is the quadratic twist
        inv = invariants(model)
        twist = WeierstrassModel(
            F.zero(), F.zero(), F.zero(),
            F.from_int(int(-27 * inv.c4)), F.from_int(int(54 * inv.c6)),
        )
        for P in _points(twist, F, p, 10):
            assert scalar_mul(twist, 2 * p + 2 - N, P).is_infinity


def test_count_rejects_model_outside_prime_field():
    """A model over an extension field is refused, even one whose
    coefficients all lie in the prime field: the degree goes in f."""
    F25 = finite_field(5, 2)
    u = F25.generator()
    model = WeierstrassModel(F25.zero(), F25.zero(), F25.zero(), u, F25.one())
    assert not c_invariants(*b_invariants(model.coefficients()))[2].is_zero()
    with pytest.raises(ValueError, match="prime field"):
        count_points(model)
    with pytest.raises(ValueError, match="prime field"):
        count_points(lift_model(reduce_model(EJ0, 5), F25))


def test_division_polynomial_anchors():
    assert division_polynomial(E294, 1) == [Fraction(1)]
    # independent symbolic expansion for y^2 = x^3 + ax + b:
    # psi_3 = 3x^4 + 6a x^2 + 12b x - a^2
    for a, b in [(2, 3), (-1, 1), (0, 1), (5, -7)]:
        model = WeierstrassModel.from_rationals([0, 0, 0, a, b])
        expected = [Fraction(-a * a), Fraction(12 * b), Fraction(6 * a), Fraction(0), Fraction(3)]
        assert division_polynomial(model, 3) == expected
    # psi_5 and psi_7 of E294 and 11a in full, so that a wrong term that
    # vanishes mod 31 cannot hide behind the roots test below
    for model, n, expected in [
        (E294, 5, [-184, -400, 200, 1700, 1800, 750, 210, 60, -390, -400, -61, 5, 5]),
        (E294, 7, [29120, 154112, 576128, 1686720, 2842784, 1523312, -3176768, -6850872,
                   -5051256, -57344, 2169664, 87808, -2229696, -1432760, 719194, 1283198,
                   559314, 62832, -21952, -10780, -9898, -4179, -301, 14, 7]),
        (E11A, 5, [-36319600, -45811705, -20139775, 7328555, 6603415, 1460614, 59145,
                   54960, 12015, -6705, -604, -20, 5]),
        (E11A, 7, [1231304971422901, 2207441511783053, 1924425933574200, 1971107655528095,
                   2102478673401246, 1454186532446830, 485186846433310, -7461931423076,
                   -72473101287118, -27761952047459, -3175274068554, 1159329892504,
                   411564567554, -51609873084, -41918431596, -1763681332, 1440959653,
                   241893694, -3375841, 125216, 243138, -68518, -2968, -56, 7]),
    ]:
        assert division_polynomial(model, n) == expected, (model, n)
    assert division_polynomial(E294, 7).degree == 24  # (49 - 1) / 2
    psi13 = division_polynomial(E294, 13)
    assert (psi13.degree, psi13[-1]) == (84, 13)


def test_division_polynomial_rejects_even():
    with pytest.raises(ValueError):
        division_polynomial(E294, 4)


def test_division_polynomial_degree_window():
    for n in (1, 3, 5, 7, 9, 11, 13):
        expected = (n * n - 1) // 2
        assert division_polynomial(EPRIME, n).degree == expected


@pytest.mark.parametrize(
    "coeffs", [[0, 0, 0, 0, 1], [1, 0, 0, -1, -1], [0, -1, 1, -10, -20], [1, -1, 1, -1, 0]]
)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_division_polynomial_roots_are_torsion_x(coeffs, n):
    """Cross-check the recurrence: the roots in F_31 of psi_n reduced mod 31
    are exactly the x in F_31 of the nonzero n-torsion points, whose y lies
    in F_{31^2}.  psi_n has integer coefficients, leading one n."""
    model = WeierstrassModel.from_rationals(coeffs)
    psi = division_polynomial(model, n)
    assert all(type(c) is int for c in psi)
    assert (psi.degree, psi[-1]) == ((n * n - 1) // 2, n)
    F = finite_field(31, 2)
    reduced = lift_model(reduce_model(model, 31), F)
    a1, a2, a3, a4, a6 = (int(c) for c in coeffs)
    torsion_x = set()
    for x in range(31):
        h, g = a1 * x + a3, ((x + a2) * x + a4) * x + a6
        for y in roots_in_field([-g, h, 1], F):
            if scalar_mul(reduced, n, CurvePoint(F.from_int(x), y)).is_infinity:
                torsion_x.add(x)
    assert {x for x in range(31) if evaluate(psi, x) % 31 == 0} == torsion_x


def test_division_polynomial_refuses_a_model_over_F_ell():
    with pytest.raises(ValueError, match="over Q"):
        division_polynomial(reduce_model(EJ0, 5), 3)


census_case = st.tuples(
    st.tuples(
        st.sampled_from([0, 1]),
        st.sampled_from([-1, 0, 1]),
        st.sampled_from([0, 1]),
        st.integers(-5, 5),
        st.integers(-5, 5),
    ).map(WeierstrassModel.from_rationals),
    st.sampled_from([5, 7]),
)
# the divisor oracle is fast on these normal forms and slow on the other
# 7-torsion ones with |t| <= 6
tate_case = st.one_of(
    st.tuples(st.just(5), st.sampled_from([t for t in range(-6, 7) if t])),
    st.tuples(st.just(7), st.sampled_from([-1, 2])),
).map(lambda pt: (tate_normal_form(*pt), pt[0]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(census_case, tate_case))
def test_rational_roots_of_psi_match_divisor_oracle(case):
    """ell-adic lifting of psi_p at the smallest prime ell not dividing
    p * Delta finds the roots that the divisor trial finds."""
    model, p = case
    try:
        invariants(model)
    except SingularModelError:
        assume(False)
    psi = division_polynomial(model, p)
    good = smallest_prime_not_dividing(p * invariants(model).disc)
    assert rational_roots(psi, good) == sorted(
        rational_roots_by_divisors(psi)
    )


def test_tate_normal_forms_have_rational_p_torsion():
    """(0, 0) of every nonsingular E(b, c) with integer |t| <= 40 has order
    p, which the psi_p search finds however large its coefficients."""
    checked = 0
    for t in range(-40, 41):
        for p in (5, 7):
            model = tate_normal_form(p, t)
            try:
                invariants(model)
            except SingularModelError:
                continue
            assert rational_p_torsion_order(model, p) == p, (p, t)
            checked += 1
    assert checked == 159  # t = 0 for both families and t = 1 at 7 are singular


def test_square_test_matches_point_order_oracle():
    """A rational root x0 of psi_p is accepted when the points above it are
    rational; the chord-tangent law confirms that one of them has order p
    exactly then.  Every nonsingular census-box curve, every nonsingular
    Tate normal form with |t| <= 40, and E, 11a, 37a and the factor curve,
    each at p = 5 and 7."""
    box = product([0, 1], [-1, 0, 1], [0, 1], range(-5, 6), range(-5, 6))
    tate = [tate_normal_form(p, t).coefficients() for p in (5, 7) for t in range(-40, 41)]
    named = [E294.coefficients(), EPRIME.coefficients(), (0, -1, 1, -10, -20), (0, 0, 1, -1, 0)]
    coeffs = {tuple(map(int, c)) for c in [*box, *tate, *named]}
    curves_checked = orders_p = 0
    for c in sorted(coeffs):
        model = WeierstrassModel(*c)
        try:
            disc = invariants(model).disc
        except SingularModelError:
            continue
        curves_checked += 1
        for p in (5, 7):
            psi = division_polynomial(model, p)
            oracle = any(
                point_order(model, P, p) == p
                for x0 in rational_roots(psi, smallest_prime_not_dividing(p * disc))
                for P in lift_x_to_points(model, x0)
            )
            assert (rational_p_torsion_order(model, p) == p) == oracle, (c, p)
            orders_p += oracle
    # E, 37a and the factor curve (t = -1 at p = 7) lie in the box or the
    # Tate forms, so 1,595 curves are distinct
    assert (curves_checked, orders_p) == (1595, 165)


@pytest.mark.parametrize(
    "coeffs,p",
    [([-41, -294, -294, 0, 0], 7), ([-89, -900, -900, 0, 0], 7), ([-999, -1000, -1000, 0, 0], 5)],
)
def test_torsion_bracket_of_large_tate_normal_forms(coeffs, p):
    """psi_7 at t = 7 and t = 10 and psi_5 at t = 1000 have constant terms
    of 28 to 53 digits; the bracket over Q is still exactly [p, p]."""
    est = torsion_bound_over_F(WeierstrassModel.from_rationals(coeffs), p, 1)
    assert (est.lower, est.upper) == (p, p)


def test_rational_p_torsion_anchors():
    assert rational_p_torsion_order(EPRIME, 7) == 7
    assert rational_p_torsion_order(EJ0, 7) == 1
    # psi_7 of y^2 = x^3 + 1 has rational roots but none lifts rationally
    psi7 = division_polynomial(EJ0, 7)
    for x0 in rational_roots(psi7, 5):
        h = EJ0.y_line(x0)
        assert (h * h + 4 * EJ0.rhs(x0)) < 0 or not _is_square_frac(h * h + 4 * EJ0.rhs(x0))


def _is_square_frac(x):
    if x < 0:
        return False
    return isqrt(x.numerator) ** 2 == x.numerator and isqrt(x.denominator) ** 2 == x.denominator


def test_rational_p_torsion_skips_psi_search_from_eleven(monkeypatch):
    """By Mazur's theorem E(Q) has no point of prime order p >= 11, so those
    p return 1 without building psi_p; p = 7 still searches psi_7."""

    def refuse(model, n):
        raise AssertionError(f"psi_{n} was built")

    monkeypatch.setattr(curves, "division_polynomial", refuse)
    for model in (EJ0, EPRIME):
        for p in (11, 13, 101):
            assert rational_p_torsion_order(model, p) == 1
    with pytest.raises(AssertionError, match="psi_7"):
        rational_p_torsion_order(EPRIME, 7)


def test_rational_p_torsion_requires_p_at_least_5():
    with pytest.raises(ValueError):
        rational_p_torsion_order(EJ0, 3)


def test_torsion_bound_anchors():
    # exact collapse to 1 for y^2 = x^3 + 1 at p = 7 over Q
    est = torsion_bound_over_F(EJ0, 7, 1, samples=20)
    assert est.exact and est.lower == est.upper == 1

    # reduction upper bound is a multiple of the exact rational order (m = 1)
    est2 = torsion_bound_over_F(EPRIME, 7, 1, samples=10)
    assert est2.upper % rational_p_torsion_order(EPRIME, 7) == 0

    # over Q(mu_7) the reductions leave room for the order-7 point
    est3 = torsion_bound_over_F(E294, 7, 7, samples=20)
    assert (est3.lower, est3.upper, est3.exact) == (1, 7, False)


def test_torsion_bound_rejects_bad_certificate():
    """A certificate outside the computed bracket is refused, whether it
    lies above the upper bound or below the rational lower bound."""
    from eulerchar.euler import (
        AbelianVarietyInput,
        ExternalArithmetic,
        TorsionCertificateError,
        analyze,
    )

    A = AbelianVarietyInput(dimension=1, factors=(EPRIME,))
    for model, p, m, certificate in ((E294, 7, 7, 49), (E11A, 5, 11, 1), (E11A, 5, 11, 125)):
        with pytest.raises(TorsionCertificateError, match="outside the computed bracket"):
            analyze(model, p, m, A, ExternalArithmetic(torsion_p_override=certificate))


def test_torsion_bound_skips_rational_search_when_upper_is_one(monkeypatch):
    """An upper bound of 1 pins the lower bound without psi_p; otherwise the
    bracket is the one the rational search gives."""
    rng = random.Random(17)
    calls = []

    def recording(model, p):
        calls.append((model, p))
        return rational_p_torsion_order(model, p)

    monkeypatch.setattr(curves, "rational_p_torsion_order", recording)
    seen_upper_one = seen_upper_above_one = 0
    while seen_upper_one < 8 or seen_upper_above_one < 2:
        model = WeierstrassModel.from_rationals([rng.randint(-3, 3) for _ in range(5)])
        try:
            invariants(model)
        except SingularModelError:
            continue
        p, m = rng.choice([5, 7]), rng.choice([1, 5, 7])
        calls.clear()
        est = torsion_bound_over_F(model, p, m, samples=8)
        lower = rational_p_torsion_order(model, p)
        assert (est.lower, est.exact) == (lower, lower == est.upper)
        if est.upper == 1:
            assert calls == []
            seen_upper_one += 1
        else:
            assert calls == [(model, p)]
            seen_upper_above_one += 1
    assert torsion_bound_over_F(EJ0, 7, 1, samples=20).upper == 1


def test_torsion_divides_reduction_sample():
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [rng.randint(-3, 3) for _ in range(5)]
        model = WeierstrassModel.from_rationals(coeffs)
        try:
            disc = invariants(model).disc
        except SingularModelError:
            continue
        p = rng.choice([5, 7])
        order = rational_p_torsion_order(model, p)
        ell = 2
        used = 0
        while used < 3:
            if disc % ell and ell != p:
                n = count_points(reduce_model(model, ell))
                assert n % order == 0
                used += 1
            ell += 1
            while not _is_prime(ell):
                ell += 1


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_model_with_j_invariant():
    F13 = finite_field(13, 1)
    for j in range(-13, 26):
        reduced = model_with_j_invariant(j, 13)
        assert reduced.a1.field is fq_create(13)
        model = lift_model(reduced, F13)
        c4, _, disc = c_invariants(*b_invariants(model.coefficients()))
        assert not disc.is_zero()
        assert c4 * c4 * c4 * disc.inverse() == F13.from_int(j)
    with pytest.raises(ValueError):
        model_with_j_invariant(0, 3)
