import json
import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eulerchar.curves import (
    SingularModelError,
    WeierstrassModel,
    extension_count,
    invariants,
)
from eulerchar.tate import (
    ADDITIVE,
    GOOD_ORDINARY,
    GOOD_SUPERSINGULAR,
    MULT_NONSPLIT,
    MULT_SPLIT,
    LocalField,
    pot_supersingular,
    tate_algorithm,
)
from eulerchar.valuations import vp
from oracles import discriminant, tate_normal_form, transform

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])
EPRIME = WeierstrassModel.from_rationals([-1, 2, 2, 0, 0])
EJ0 = WeierstrassModel.from_rationals([0, 0, 0, 0, 1])


def run(model, ell, f=1, e=1):
    return tate_algorithm(model, LocalField(ell, e), f=f)


def test_tate_anchor_q2():
    d = run(E294, 2)
    assert d.kodaira.symbol == "I1" and d.c_v == 1
    assert d.reduction_class == MULT_SPLIT
    assert d.v_min_delta == 1


def test_tate_anchor_q7_additive():
    d = run(E294, 7)
    assert d.kodaira.symbol == "II" and d.c_v == 1
    assert d.v_min_delta == 2
    assert d.reduction_class == ADDITIVE
    assert d.potentially_good


def test_tate_anchor_ramified_good_ordinary():
    d = run(E294, 7, e=6)
    assert d.is_good
    assert d.reduction_class == GOOD_ORDINARY
    assert d.N_v == 7
    assert d.q_v == 7
    # Hasse window [3, 13] intersected with 7 | N forces N = 7
    assert abs(7 + 1 - d.N_v) <= 2 * isqrt(7)


def test_tate_places_of_f_above_2_and_3():
    d2 = run(E294, 2, f=3)
    assert d2.kodaira.symbol == "I1" and d2.c_v == 1
    assert d2.reduction_class == MULT_SPLIT and d2.q_v == 8
    assert d2.L_at_1 == Fraction(8, 7)
    d3 = run(E294, 3, f=6)
    assert d3.reduction_class == MULT_SPLIT and d3.q_v == 729
    assert d3.L_at_1 == Fraction(729, 728)


def test_split_classification_anchors():
    assert run(E294, 2, f=3).reduction_class == MULT_SPLIT
    assert run(E294, 3, f=6).reduction_class == MULT_SPLIT
    assert run(E294, 7).reduction_class == ADDITIVE


def test_nonsplit_becomes_split_in_even_degree():
    d = run(EPRIME, 13)
    assert d.reduction_class == MULT_NONSPLIT
    d2 = run(EPRIME, 13, f=2)
    assert d2.reduction_class == MULT_SPLIT


def test_euler_factor_table():
    d = run(EJ0, 5)
    assert d.is_good and d.N_v == 6
    assert d.L_at_1 == Fraction(5, 6)
    dA = run(E294, 7)
    assert dA.L_at_1 == 1


# -- additive type ladder against the tame v(Delta) table ----------------------


@pytest.mark.parametrize(
    "k,expected_type,expected_vd",
    [(1, "II", 2), (2, "IV", 4), (3, "I0*", 6), (4, "IV*", 8), (5, "II*", 10)],
)
def test_j0_family_types(k, expected_type, expected_vd):
    """y^2 = x^3 + p^k at a tame prime: types follow v(Delta) = 2k."""
    for p in (5, 7, 13):
        model = WeierstrassModel.from_rationals([0, 0, 0, 0, p**k])
        d = run(model, p)
        assert d.kodaira.symbol == expected_type
        assert d.v_min_delta == expected_vd
        assert d.potentially_good


@pytest.mark.parametrize(
    "k,expected_type,expected_vd", [(1, "III", 3), (2, "I0*", 6), (3, "III*", 9)]
)
def test_j1728_family_types(k, expected_type, expected_vd):
    for p in (5, 11):
        model = WeierstrassModel.from_rationals([0, 0, 0, p**k, 0])
        d = run(model, p)
        assert d.kodaira.symbol == expected_type
        assert d.v_min_delta == expected_vd


def test_non_minimal_model_rescales_to_good():
    p = 7
    model = WeierstrassModel.from_rationals([0, 0, 0, p**4 * 2, p**6 * 3])
    d = run(model, p)
    assert d.is_good
    base = WeierstrassModel.from_rationals([0, 0, 0, 2, 3])
    assert d.N_v == run(base, p).N_v


def test_istar_ladder():
    """Legendre-style curves with increasingly deep double roots give I_n*."""
    p = 7
    # roots 0, p, 2p: distinct after dividing by p -> I0* with all components
    m0 = _from_roots(p, [0, p, 2 * p])
    d0 = run(m0, p)
    assert d0.kodaira.symbol == "I0*" and d0.c_v == 4
    # roots 0, p, p + p^2: double root at depth 1 -> I_2*
    m2 = _from_roots(p, [0, p, p + p**2])
    d2 = run(m2, p)
    assert d2.kodaira.symbol == "I2*"
    assert d2.v_min_delta == 6 + 2
    # roots 0, p, p + p^3 -> I_4*
    m4 = _from_roots(p, [0, p, p + p**3])
    d4 = run(m4, p)
    assert d4.kodaira.symbol == "I4*"
    assert d4.v_min_delta == 6 + 4


def _from_roots(p, roots):
    r1, r2, r3 = (Fraction(r) for r in roots)
    a2 = -(r1 + r2 + r3)
    a4 = r1 * r2 + r1 * r3 + r2 * r3
    a6 = -(r1 * r2 * r3)
    return WeierstrassModel.from_rationals([0, a2, 0, a4, a6])


def test_multiplicative_n_matches_j_valuation():
    rng = random.Random(3)
    found = 0
    while found < 12:
        coeffs = [rng.randint(-4, 4) for _ in range(5)]
        model = WeierstrassModel.from_rationals(coeffs)
        try:
            j = invariants(model).j
        except SingularModelError:
            continue
        for p in (5, 7, 11, 13):
            vj = vp(j, p) if j else 0
            if vj < 0:
                d = run(model, p)
                assert d.kodaira.kind == "In"
                assert d.kodaira.n == -vj == d.v_min_delta
                found += 1


def test_char23_additive_smoke():
    """Additive reduction over Q_2 and Q_3 and their unramified extensions."""
    m = WeierstrassModel.from_rationals([0, 0, 0, 0, 4])  # v2(Delta) = 4+...
    d = run(m, 2)
    assert d.reduction_class == ADDITIVE
    d2 = run(m, 2, f=3)
    assert d2.potentially_good == d.potentially_good
    m3 = WeierstrassModel.from_rationals([0, 0, 0, 3, 0])
    d3 = run(m3, 3)
    assert d3.reduction_class == ADDITIVE
    d36 = run(m3, 3, f=2)
    assert d36.potentially_good == d3.potentially_good


def test_tame_ramified_char3():
    """Places above 3 in Q(mu_3) are tame of degree 2; Tate must run there."""
    d = run(E294, 3, e=2)
    assert d.kodaira.symbol == "I2"  # I_1 over Q_3 ramifies to I_2
    assert d.v_min_delta == 2


def test_potentially_good_c_bound():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        p = rng.choice([5, 7, 11])
        k = rng.randint(1, 5)
        model = WeierstrassModel.from_rationals([0, 0, 0, 0, rng.choice([1, 2, 3]) * p**k])
        try:
            d = run(model, p)
        except SingularModelError:
            continue
        if d.potentially_good:
            assert d.c_v <= 4
            checked += 1


def test_good_L_exponent_carried_by_count():
    d = run(EJ0, 5)
    for p in (7, 11, 13):
        assert vp(d.L_at_1, p) == -vp(Fraction(d.N_v), p)


def test_base_change_rules_match_rerun():
    from oracles import base_change_rules

    rng = random.Random(23)
    cases = 0
    while cases < 25:
        coeffs = [rng.randint(-5, 5) for _ in range(5)]
        model = WeierstrassModel.from_rationals(coeffs)
        ell = rng.choice([5, 7, 11, 13])
        f = rng.choice([2, 3])
        try:
            base = run(model, ell)
        except SingularModelError:
            continue
        rules = base_change_rules(base, f)
        rerun = run(model, ell, f=f)
        assert rerun.potentially_good == rules["potentially_good"]
        assert rerun.q_v == rules["q_v"]
        for key in ("kodaira", "c_v", "N_v", "reduction_class", "L_at_1"):
            if key in rules:
                assert getattr(rerun, key) == rules[key]
        cases += 1


def test_base_change_examples():
    # nonsplit I1 over Q_3 with residue extension of even degree becomes split
    dq = run(EPRIME, 13)
    assert dq.reduction_class == MULT_NONSPLIT
    d6 = run(EPRIME, 13, f=2)
    assert d6.reduction_class == MULT_SPLIT and d6.c_v == 1
    # good with N = 14 over Q_13 -> N = 196 in the quadratic extension
    d13 = run(E294, 13)
    assert d13.is_good and d13.N_v == 14
    up = run(E294, 13, f=2)
    assert up.N_v == 196
    # I0 stays I0
    assert up.is_good


def test_coordinate_change_invariance():
    """Every reported field is an invariant of the curve: an integral change
    of coordinates (u = 1, random integral r, s, t) keeps it, also over the
    cyclotomic layer Q_7(mu_7)."""
    rng = random.Random(260)
    fields = [
        (E294, 2, 1, 1),
        (E294, 7, 1, 6),
        (E294, 3, 6, 1),
        (EPRIME, 2, 1, 1),
        (EPRIME, 7, 1, 6),
        (EJ0, 5, 2, 1),
    ]
    for model, ell, f, e in fields:
        base = run(model, ell, f=f, e=e)
        for _ in range(4):
            r, s, t = (rng.randint(-10**6, 10**6) for _ in range(3))
            moved = transform(model, 1, r, s, t)
            assert run(moved, ell, f=f, e=e) == base


def test_pot_supersingular_anchors():
    assert pot_supersingular(EJ0, 5)  # j = 0 at 5 = 2 mod 3
    assert not pot_supersingular(E294, 7)  # good ordinary above 7
    assert not pot_supersingular(EJ0, 7)  # 7 = 1 mod 3: ordinary
    assert not pot_supersingular(EPRIME, 13)  # v_13(j) < 0: potentially multiplicative


def test_singular_point_formulas_match_scan():
    """The closed-form singular point equals the brute-force scan result
    (the singular point of a Weierstrass cubic is unique and rational), on
    every singular model over F_p for p in {2, 3, 5, 7}."""
    from eulerchar.tate import _singular_point

    tested = 0
    for p in (2, 3, 5, 7):
        for abar in product(range(p), repeat=5):
            if discriminant(WeierstrassModel(*abar)) % p:
                continue
            a1, a2, a3, a4, a6 = abar

            def F(x, y):
                return y * y + (a1 * x + a3) * y - (((x + a2) * x + a4) * x + a6)

            def Fx(x, y):
                return a1 * y - (3 * x * x + 2 * a2 * x + a4)

            def Fy(x, y):
                return 2 * y + a1 * x + a3

            scan = [
                (x, y)
                for x in range(p)
                for y in range(p)
                if F(x, y) % p == Fx(x, y) % p == Fy(x, y) % p == 0
            ]
            assert len(scan) == 1
            assert _singular_point(abar, p) == scan[0]
            tested += 1
    assert tested == 3123


def test_cubic_multiple_root_formulas_match_scan():
    """For every monic cubic over F_p, p in {2, 3, 5, 7}, with vanishing
    discriminant, the closed-form multiple root is the only common root of
    P and P' in F_p, and it is reported triple (1 distinct root) exactly
    when P = (T - r)^3, else double (2 distinct roots).  Every quadratic
    with vanishing discriminant, at every leading coefficient, has one
    distinct root, its double root."""
    from eulerchar.polynomials import residue_roots

    for p in (2, 3, 5, 7):
        for a, b, c in product(range(p), repeat=3):
            disc = 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
            if disc % p:
                continue
            roots, r = residue_roots([c, b, a, 1], p, 1)
            multiple = [
                x
                for x in range(p)
                if (x**3 + a * x * x + b * x + c) % p == (3 * x * x + 2 * a * x + b) % p == 0
            ]
            assert multiple == [r]
            cube = (a + 3 * r) % p == (b - 3 * r * r) % p == (c + r**3) % p == 0
            assert roots == (1 if cube else 2)
        for lead, b, c in product(range(1, p), range(p), range(p)):
            if (b * b - 4 * lead * c) % p:
                continue
            double = [
                x for x in range(p) if (lead * x * x + b * x + c) % p == (2 * lead * x + b) % p == 0
            ]
            assert len(double) == 1
            assert residue_roots([c, b, lead], p, 1) == (1, double[0])


def test_pot_supersingular_refuses_p_below_5():
    """Below 5, and at a composite p, the F_p test is refused, as the
    torsion routines refuse such a p."""
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError, match="p must be a prime >= 5"):
            pot_supersingular(EJ0, p)


def test_pot_supersingular_matches_quadratic_field_oracle():
    """The F_p test against the definition it replaces: a curve over F_{p^2}
    with the reduced j is supersingular iff its count is 1 mod p."""
    from eulerchar.curves import model_with_j_invariant
    from eulerchar.valuations import is_prime
    from oracles import brute_count, finite_field, lift_model

    rng = random.Random(140)
    outcomes = set()
    for p in (p for p in range(5, 140) if is_prime(p)):
        js = [rng.randrange(p)] + ([0, 1728] if p < 60 else [])
        for j in js:
            if j % p == 0:
                model = WeierstrassModel.from_rationals([0, 0, 0, 0, 1])
            elif (j - 1728) % p == 0:
                model = WeierstrassModel.from_rationals([0, 0, 0, 1, 0])
            else:
                c = Fraction(1, j - 1728)
                model = WeierstrassModel.from_rationals([1, 0, 0, -36 * c, -c])
            assert invariants(model).j % p == j % p  # the model's j is an integer
            over_p2 = lift_model(model_with_j_invariant(j, p), finite_field(p, 2))
            oracle = brute_count(over_p2) % p == 1
            assert pot_supersingular(model, p) == oracle
            outcomes.add(oracle)
    assert outcomes == {True, False}


def test_pot_supersingular_matches_direct_count():
    """Twist- and model-independence: compare against counting the curve
    itself over F_p^2 when it has good reduction at p."""
    from eulerchar.curves import count_points, reduce_model

    for p in (5, 7, 11, 13):
        if discriminant(EJ0) % p == 0:
            continue
        n2 = count_points(reduce_model(EJ0, p), 2)
        assert pot_supersingular(EJ0, p) == (n2 % p == 1)


# m_v, the geometric component count (Silverman, Advanced Topics, ch. IV)
OGG_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


def _ogg_value(kodaira) -> int:
    """f_v + m_v - 1 at residue characteristic >= 5, from the symbol alone."""
    if kodaira.kind == "I0":
        return 0
    if kodaira.kind == "In":
        return 1 + kodaira.n - 1
    m_v = kodaira.n + 5 if kodaira.kind == "In*" else OGG_COMPONENTS[kodaira.kind]
    return 2 + m_v - 1


def _census_box_curves():
    """(coefficients, model, disc) of every nonsingular census-box curve
    (a1, a3 in {0, 1}, a2 in {-1, 0, 1}, |a4|, |a6| <= 5), plus curves of
    the types the box misses."""
    extra = [
        [0, 0, 0, 0, 3125],  # II* at 5
        [0, 0, 0, 125, 0],  # III* at 5
        [0, 0, 0, -200, -1000],  # I1* at 5
        [0, 0, 0, -200, -875],  # I2* at 5
    ]
    box = range(-5, 6)
    curves = [list(c) for c in product((0, 1), (-1, 0, 1), (0, 1), box, box)] + extra
    for coeffs in curves:
        model = WeierstrassModel.from_rationals(coeffs)
        try:
            disc = invariants(model).disc
        except SingularModelError:
            continue
        yield coeffs, model, disc


def test_integer_ladder_matches_the_ring_at_e_1(monkeypatch):
    """At e = 1 the ladder computes on plain ints, and builds no
    `LocalElement` on the library's field; on the ring Z[pi] of
    `LocalElement`s (`oracles.RingField`) it gives every field of the
    local data alike: every census-box curve, and its scaling by ell, which
    the ladder rescales once, at ell in {2, 3} and f in {1, 2}; the box has
    no II* at 2 or 3, so one II* at 2 joins it."""
    from oracles import RingField

    from eulerchar.tate import LocalElement, _ladder

    init = LocalElement.__init__

    def ring_only(self, field, coeffs):
        if type(field) is not RingField:
            raise AssertionError("the e = 1 ladder built a LocalElement")
        init(self, field, coeffs)

    monkeypatch.setattr(LocalElement, "__init__", ring_only)

    curves = [model for _, model, _ in _census_box_curves()]
    curves.append(WeierstrassModel.from_rationals([0, -1, 0, 11, -3]))  # II* at 2
    kinds, compared = set(), 0
    for model in curves:
        for ell in (2, 3):
            scaled = transform(model, Fraction(1, ell), 0, 0, 0)
            for curve in (model, scaled):
                for f in (1, 2):
                    d = _ladder(curve, LocalField(ell, 1), f)
                    assert d == _ladder(curve, RingField(ell, 1), f), (curve, ell, f)
                    kinds.add(d.kodaira.kind)
                    compared += 1
    assert kinds == {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}
    assert compared == 4 * 2 * 1440


def test_ogg_formula_over_census_box():
    """Every census-box curve at every ell in {5, 7, 11, 13} dividing its
    discriminant, over Q_ell, the unramified quadratic extension, tame
    x^2 - ell and Q_ell(mu_ell), plus curves of the types the box misses:
    v(Delta_min) = f_v + m_v - 1, and v(Delta_min) differs from
    e * v_ell(disc) by a multiple of 12."""
    seen = set()
    for coeffs, model, disc in _census_box_curves():
        for ell in (5, 7, 11, 13):
            if disc % ell:
                continue
            for f, e in ((1, 1), (2, 1), (1, 2), (1, ell - 1)):
                d = run(model, ell, f=f, e=e)
                assert d.v_min_delta == _ogg_value(d.kodaira), (coeffs, ell, f, e)
                excess = e * vp(disc, ell) - d.v_min_delta
                assert excess >= 0 and excess % 12 == 0
                seen.add(d.kodaira.kind)
    assert seen == {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}


def test_j_pole_order_over_census_box():
    """j_pole_order(ell) = max(0, -v_ell(j)) for every census-box curve at
    every ell in {2, 3, 5, 7, 11, 13}, and 0 at j = 0, where v_ell(j) is
    undefined; Tate's algorithm calls the place potentially good exactly
    when it is 0."""
    j_zero = 0
    for _, model, _ in _census_box_curves():
        inv = invariants(model)
        j_zero += inv.j == 0
        for ell in (2, 3, 5, 7, 11, 13):
            expected = 0 if inv.j == 0 else max(0, -vp(inv.j, ell))
            assert inv.j_pole_order(ell) == expected
            assert run(model, ell).potentially_good == (expected == 0)
    assert j_zero > 0


GRID = Path(__file__).parent / "data" / "tate_residue_degree_grid.json"


def _grid_places():
    """(coeffs, model, ell, e, f) of every row of the residue-degree grid,
    in the order of its recording."""
    for coeffs, model, disc in _census_box_curves():
        for ell in (2, 3, 5, 7, 11, 13):
            if disc % ell:
                continue
            for e in sorted({1, 2 if ell > 2 else 3, ell - 1}):
                for f in (1, 2, 3, 4):
                    yield coeffs, model, ell, e, f


def _grid_row(coeffs, model, ell, e, f) -> list:
    """The row of the grid recording for one place: every field of the
    local data, with the Kodaira symbol and L_at_1 as strings."""
    d = run(model, ell, f=f, e=e)
    L = f"{d.L_at_1.numerator}/{d.L_at_1.denominator}"
    return [coeffs, *d[:3], d.kodaira.symbol, *d[4:10], L]


def test_residue_degree_grid_matches_recording():
    """Every field of the local data over the residue-degree grid equals
    the recording in tests/data, made while Tate's algorithm still ran over
    the unramified extension with residue field F_{ell^f}: every census-box
    curve at every ell in {2, 3, 5, 7, 11, 13} dividing its discriminant,
    with e in {1, tame, ell - 1} (tame is x^3 - 2 above 2 and x^2 - ell
    above ell >= 5; e = ell - 1 is the cyclotomic layer, Q_3(mu_3) for
    e = 2 above 3) and f in {1, 2, 3, 4}."""
    rows = iter(json.loads(GRID.read_text(encoding="utf-8"))["rows"])
    recorded = 0
    for place in _grid_places():
        assert _grid_row(*place) == next(rows)
        recorded += 1
    assert next(rows, None) is None and recorded == 17592


def test_finish_rejects_type_contradicting_ogg():
    from eulerchar.tate import KodairaType, _additive

    place = (5, 1, 1, 5, True)  # ell, e, f, q_v, potentially_good
    assert _additive(place, KodairaType("III"), 2, 3).v_min_delta == 3
    with pytest.raises(AssertionError, match="Ogg"):
        _additive(place, KodairaType("III"), 2, 4)
    # residue characteristic 2 and 3 allow wild conductor exponents
    wild = (3, 1, 1, 3, True)
    assert _additive(wild, KodairaType("III"), 2, 6).v_min_delta == 6


def test_finish_rejects_count_outside_hasse_bound(monkeypatch):
    """Every N_v is checked against (q + 1 - N_v)^2 <= 4 q, both when the
    model is good at once and when good reduction follows a step-11
    rescale."""
    from eulerchar import tate

    non_minimal = transform(E294, Fraction(1, 5), 0, 0, 0)  # Delta * 5^12
    assert run(non_minimal, 5) == run(E294, 5)
    monkeypatch.setattr(tate, "count_residues", lambda coeffs, ell, f=1: 0)
    for model, f in ((E294, 1), (E294, 2), (non_minimal, 1)):
        with pytest.raises(AssertionError, match="Hasse"):
            run(model, 5, f=f)


def test_exact_delta_valuation_matches_local_field():
    """e * v_ell(disc) of an integral model equals the pi-adic valuation of
    Delta evaluated in Z[pi], and one rescale by pi lowers it by 12; at
    v(Delta) = 0 the model reduced mod ell has the residues of the embedded
    coefficients, and its brute-force count is N_v."""
    from oracles import RingField, brute_count, delta_local, finite_field, lift_model

    from eulerchar.curves import reduce_model
    from eulerchar.tate import _rescale_by_pi

    fields = [(ell, 1) for ell in (2, 3, 5, 7)]
    fields += [(2, 3), (3, 2), (5, 2), (7, 3), (5, 4), (7, 6)]
    rng = random.Random(53)
    checked = 0
    while checked < 200:
        ell, e = fields[checked % len(fields)]
        coeffs = [rng.randint(-30, 30) * ell ** rng.randint(0, 2) for _ in range(5)]
        model = WeierstrassModel.from_rationals(coeffs)
        try:
            disc = invariants(model).disc
        except SingularModelError:
            continue
        # the library's values (ints at e = 1) and the ring's
        for K in (LocalField(ell, e), RingField(ell, e)):
            n = K.e * vp(disc, ell)
            a = K.embed_model(model.coefficients())
            assert K.valuation(delta_local(a)) == n

            scaled = transform(model, Fraction(1, ell), 0, 0, 0)
            b = _rescale_by_pi(K, K.embed_model(scaled.coefficients()))
            assert K.valuation(delta_local(b)) == K.e * vp(invariants(scaled).disc, ell) - 12

            d = tate_algorithm(model, K)
            if n == 0:
                reduced = reduce_model(model, ell)
                assert [c.coords[0] for c in reduced.coefficients()] == [K.residue(x) for x in a]
                assert d.N_v == brute_count(lift_model(reduced, finite_field(ell, 1)))
        checked += 1


def test_equal_model_objects_give_identical_local_data():
    """The invariants memo lives on each model object: equal models built
    separately, with a different model in between, give the same data."""
    from eulerchar.euler import local_data_at

    coeffs = [0, 0, 0, Fraction(-25, 2), Fraction(-125, 8)]  # I1* at 5 once integral
    first = WeierstrassModel.from_rationals(coeffs)
    other = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])
    again = WeierstrassModel.from_rationals(coeffs)
    assert first == again and first is not again
    for ell, m in ((5, 1), (5, 5), (2, 1), (7, 7)):
        d1 = local_data_at(first, ell, m)
        d_other = local_data_at(other, ell, m)
        d2 = local_data_at(again, ell, m)
        assert d1 == d2
        assert d_other != d1
    assert invariants(first) is invariants(first)
    assert invariants(first) is not invariants(again)
    assert invariants(first) == invariants(again) != invariants(other)
    assert tuple(first) == (0, 0, 0, -25 * 8**4 // 2, -125 * 8**6 // 8)
    assert all(type(c) is int for c in first)
    assert local_data_at(first, 5, 1).kodaira.symbol == "I1*"


census_box = st.tuples(
    st.sampled_from((0, 1)),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from((0, 1)),
    st.integers(-5, 5),
    st.integers(-5, 5),
)


@settings(max_examples=200, deadline=None)
@given(census_box, st.sampled_from((2, 3, 5, 7)), st.sampled_from((1, 2)), st.booleans(),
       st.sampled_from((1, 2)))
@example((1, 0, 0, -1, -1), 2, 1, False, 1)  # I1, found after one rescale
@example((1, 0, 0, -1, -1), 3, 2, True, 2)  # I2 over Q_3(mu_3), after four rescales
@example((1, 0, 0, -1, -1), 7, 2, True, 1)  # additive, then potentially good
def test_scaling_by_ell_keeps_local_data(coeffs, ell, k, cyclotomic, f):
    """A census-box model u-scaled by ell^k has the reduction data of the
    model itself at every place: Tate's algorithm rescales by pi k*e times
    and then decides I_n from the residues of the pi-adic model, where the
    unscaled model decides it from the integral model in the first round."""
    model = WeierstrassModel.from_rationals(coeffs)
    try:
        invariants(model)
    except SingularModelError:
        assume(False)
    e = ell - 1 if cyclotomic else 1
    scaled = transform(model, Fraction(1, ell**k), 0, 0, 0)
    assert run(scaled, ell, f=f, e=e) == run(model, ell, f=f, e=e)


def test_good_and_multiplicative_places_never_embed(monkeypatch, capsys):
    """Good places and minimal multiplicative places are decided on
    integers: they never embed the model in the pi-adic field.  An additive
    place above 2 or 3 does embed.  At ell >= 5 no place embeds: with
    embedding refused there, every golden row and every grid row at
    ell >= 5 still gives its recorded result."""
    from test_golden import ROWS, _replay

    embed_model = LocalField.embed_model

    def refuse_from_5(self, coeffs):
        if self.ell >= 5:
            raise AssertionError("embed_model called")
        return embed_model(self, coeffs)

    def refuse(self, coeffs):
        raise AssertionError("embed_model called")

    monkeypatch.setattr(LocalField, "embed_model", refuse)
    E11A = WeierstrassModel.from_rationals([0, -1, 1, -10, -20])
    cases = [
        (E294, 2, 1, "I1"),
        (E294, 3, 2, "I2"),
        (EPRIME, 2, 1, "I7"),
        (EPRIME, 13, 12, "I12"),
        (E11A, 11, 10, "I50"),
        (E11A, 11, 1, "I5"),
        (E294, 5, 4, "I0"),
        (E11A, 2, 1, "I0"),
        (E294, 7, 1, "II"),
    ]
    for model, ell, e, symbol in cases:
        for f in (1, 2):
            K = LocalField(ell, e)
            d = tate_algorithm(model, K, f=f)
            assert d.kodaira.symbol == symbol, (model, ell, e)
    for model, ell in ((WeierstrassModel.from_rationals([0, 0, 0, 0, 4]), 2),
                       (WeierstrassModel.from_rationals([0, 0, 0, 3, 0]), 3)):
        with pytest.raises(AssertionError, match="embed_model called"):
            run(model, ell)  # additive

    monkeypatch.setattr(LocalField, "embed_model", refuse_from_5)
    assert _replay(ROWS, monkeypatch, capsys) == []
    rows = json.loads(GRID.read_text(encoding="utf-8"))["rows"]
    above_5 = [(place, row) for place, row in zip(_grid_places(), rows) if place[2] >= 5]
    assert len(above_5) > 5000
    for place, row in above_5:
        assert _grid_row(*place) == row


ORACLE_PRIMES = (5, 7, 11, 13, 17, 19, 23)


def _twist(model: WeierstrassModel, d: int) -> WeierstrassModel:
    """The quadratic twist by d, in short form y^2 = x^3 - 27 c4 d^2 x - 54 c6 d^3."""
    inv = invariants(model)
    return WeierstrassModel.from_rationals([0, 0, 0, -27 * inv.c4 * d**2, -54 * inv.c6 * d**3])


def _oracle_curves(ell: int, rng: random.Random):
    """Models with additive or multiplicative reduction at ell: census-box
    curves and Tate normal forms with ell | Delta, quadratic twists by ell of
    census-box curves, y^2 = x^3 + u ell^k and y^2 = x^3 + u ell^k x, and
    scalings by ell^k of these, some of them good after rescaling."""
    box = [model for _, model, _ in _census_box_curves()]
    bad = [m for m in box if invariants(m).disc % ell == 0]
    normal_forms = []
    while len(normal_forms) < 4:
        t = Fraction(ell * rng.randint(-3, 3) or 1, rng.randint(1, 3)) + rng.choice((0, 1))
        try:
            model = tate_normal_form(rng.choice((5, 7)), t)
            disc = invariants(model).disc
        except SingularModelError:
            continue
        if disc % ell == 0:
            normal_forms.append(model)
    twists = [_twist(m, ell) for m in rng.sample(box, 6)]
    j0_1728 = [WeierstrassModel.from_rationals([0, 0, 0, 0, rng.randint(1, ell - 1) * ell**k])
               for k in (1, 2, 4, 5)]
    j0_1728 += [WeierstrassModel.from_rationals([0, 0, 0, rng.randint(1, ell - 1) * ell**k, 0])
                for k in (1, 3)]
    base = rng.sample(bad, min(4, len(bad))) + normal_forms + twists + j0_1728
    scaled = [transform(m, Fraction(1, ell ** rng.randint(1, 2)), 0, 0, 0)
              for m in rng.sample(box, 2) + rng.sample(base, 3)]
    return base + scaled


def _isogeny_invariants(d) -> tuple:
    """What isogenous curves over Q share at a place: e, f, q_v, N_v (None
    at a bad place), the reduction class, which at ell >= 5 fixes the
    conductor exponent, and potentially_good."""
    return d.e, d.f, d.q_v, d.N_v, d.reduction_class, d.potentially_good


def _isogenous_pairs():
    """(E, E') related by a rational isogeny from Velu's formulas: Tate
    normal forms with |t| <= 25, whose (0, 0) has order 5 or 7, over their
    cyclic kernels; y^2 = x^3 + a x^2 + b x over its 2-torsion point
    (0, 0); and the quadratic twists of both by -1 and 3, which twist the
    isogeny with them."""
    from oracles import CurvePoint, scalar_mul, velu_isogenous

    origin = CurvePoint(Fraction(0), Fraction(0))
    pairs = []
    for p, t in product((5, 7), range(-25, 26)):
        model = tate_normal_form(p, Fraction(t))
        try:
            invariants(model)
        except SingularModelError:
            continue
        assert scalar_mul(model, p, origin).is_infinity
        kernel = [scalar_mul(model, k, origin).x for k in range(1, (p + 1) // 2)]
        pairs.append((model, velu_isogenous(model, kernel)))
    for a, b in product(range(-4, 5), range(-6, 7)):
        if b == 0 or a * a == 4 * b:  # singular
            continue
        model = WeierstrassModel.from_rationals([0, a, 0, b, 0])
        pairs.append((model, velu_isogenous(model, [0])))
    twists = [(_twist(E, d), _twist(E2, d)) for E, E2 in pairs for d in (-1, 3)]
    return pairs + twists


def _shared_place_disagreements(E, E2, fields) -> int:
    """The places among fields = (ell, e, f) at which E and E2 differ in
    what isogenous curves share."""
    return sum(
        _isogeny_invariants(run(E, ell, f=f, e=e)) != _isogeny_invariants(run(E2, ell, f=f, e=e))
        for ell, e, f in fields
    )


def test_isogenous_curves_share_local_invariants():
    """An isogeny over Q preserves #E(F_q) at good places, the reduction
    class (split and nonsplit included), potential good reduction and the
    conductor, but not c_v, the I_n index or the model: an oracle of the
    local data that does not come from Tate's algorithm.  Each pair is
    compared at every prime of bad reduction of either model and at every
    ell <= 13, over Q_ell, Q_ell(mu_ell) and the tame x^2 - ell, with f in
    {1, 2}.  Control:
    11a and 37a, not isogenous, differ at most of the same places."""
    from eulerchar.valuations import factorize

    pairs = _isogenous_pairs()
    compared = other_j = 0
    for E, E2 in pairs:
        other_j += invariants(E).j != invariants(E2).j  # equal only by CM
        primes = {q for model in (E, E2) for q, _ in factorize(abs(invariants(model).disc))}
        fields = [(ell, e, f) for ell in sorted(primes | {2, 3, 5, 7, 11, 13})
                  for e in sorted({1, ell - 1, 2 if ell > 2 else 1}) for f in (1, 2)]
        assert _shared_place_disagreements(E, E2, fields) == 0, (E, E2)
        compared += len(fields)
    assert len(pairs) > 600 and other_j > 0.9 * len(pairs) and compared > 20000

    E11A = WeierstrassModel.from_rationals([0, -1, 1, -10, -20])
    E37A = WeierstrassModel.from_rationals([0, 0, 1, -1, 0])
    fields = [(ell, 1, f) for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) for f in (1, 2)]
    assert _shared_place_disagreements(E11A, E37A, fields) >= 20


def test_closed_form_matches_the_ladder():
    """At ell >= 5 Tate's algorithm reads the local data off v(c4), v(c6)
    and v(Delta); the step ladder over Z[pi] is its oracle, field by field,
    over e in {1, 2, ell - 1} and a tame e up to 30, and f in {1, 2, 3, 4}."""
    from eulerchar.tate import _ladder

    rng = random.Random(28)
    kinds, classes, compared = set(), set(), 0
    for ell in ORACLE_PRIMES:
        tame = [e for e in range(3, 31) if gcd(e, ell) == 1 and e != ell - 1]
        for model in _oracle_curves(ell, rng):
            for e in sorted({1, 2, ell - 1, rng.choice(tame)}):
                K = LocalField(ell, e)
                for f in (1, 2, 3, 4) if e <= 2 else rng.sample((1, 2, 3, 4), 2):
                    d = tate_algorithm(model, K, f)
                    assert d == _ladder(model, K, f), (model, ell, e, f)
                    kinds.add(d.kodaira.kind)
                    classes.add(d.reduction_class)
                    compared += 1
    assert kinds == {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}
    assert classes == {GOOD_ORDINARY, GOOD_SUPERSINGULAR, MULT_SPLIT, MULT_NONSPLIT, ADDITIVE}
    assert compared > 1000


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, isqrt(n) + 1))


def _assert_tower_laws(lower, upper, where) -> None:
    """The laws of local data at one prime over Q(mu_m) and Q(mu_m'), m | m'."""
    k_e, k_f = upper.e // lower.e, upper.f // lower.f
    assert upper.e == k_e * lower.e and upper.f == k_f * lower.f, where
    assert upper.q_v == lower.q_v**k_f and upper.potentially_good == lower.potentially_good
    if k_e == 1:
        assert (upper.kodaira, upper.v_min_delta) == (lower.kodaira, lower.v_min_delta), where
    if lower.is_good:
        assert upper.is_good, where
        assert upper.N_v == extension_count(lower.N_v, lower.q_v, k_f), where
    elif lower.kodaira.kind == "In":
        assert upper.kodaira.symbol == f"I{k_e * lower.kodaira.n}", where
        split = lower.reduction_class == MULT_SPLIT or k_f % 2 == 0
        assert upper.reduction_class == (MULT_SPLIT if split else MULT_NONSPLIT), where
    elif lower.potentially_good and lower.ell >= 5:
        assert (upper.v_min_delta - k_e * lower.v_min_delta) % 12 == 0, where


def test_local_data_obeys_the_tower_laws():
    """For m | m', the local data at a prime over Q(mu_m') follows from the
    data over Q(mu_m) by the base-change laws, with no oracle: census-box
    curves at their bad primes and at 5 and 7 over squarefree m | m' <= 105,
    and the twists E_d at ell = d over Q(mu_d), e = d - 1, against Q."""
    from eulerchar.euler import local_data_at, plan

    conductors = [m for m in range(1, 106) if _squarefree(m)]
    rng = random.Random(10)
    box = list(_census_box_curves())
    pairs = 0
    for coeffs, model, _ in rng.sample(box, 40):
        for ell in (sp.ell for sp in plan(model, 5, 1, M=(7,))):
            data = {m: local_data_at(model, ell, m) for m in conductors}
            for m in conductors:
                for m2 in conductors[conductors.index(m) + 1:]:
                    if m2 % m == 0:
                        _assert_tower_laws(data[m], data[m2], (coeffs, ell, m, m2))
                        pairs += 1
    for d in (53, 211, 1009, 2003):
        twist = WeierstrassModel.from_rationals([0, 0, 0, -1323 * d**2, -42714 * d**3])
        lower, upper = local_data_at(twist, d, 1), local_data_at(twist, d, d)
        assert (lower.e, upper.e) == (1, d - 1) and lower.potentially_good
        _assert_tower_laws(lower, upper, d)
    assert pairs > 20000
