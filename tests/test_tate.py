import json
import random
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eulerchar.curves import (
    SingularModelError,
    WeierstrassModel,
    discriminant,
    integral_model,
    invariants,
    transform,
)
from eulerchar.local_fields import make_local_field
from eulerchar.tate import (
    ADDITIVE,
    GOOD_ORDINARY,
    MULT_NONSPLIT,
    MULT_SPLIT,
    pot_supersingular,
    tate_algorithm,
)
from eulerchar.valuations import vp

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])
EPRIME = WeierstrassModel.from_rationals([-1, 2, 2, 0, 0])
EJ0 = WeierstrassModel.from_rationals([0, 0, 0, 0, 1])


def run(model, ell, f=1, e=1):
    return tate_algorithm(model, make_local_field(ell, e), f=f)


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
                assert d.kodaira.is_multiplicative
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
        base = run(model, ell, f=f, e=e).comparable_fields()
        for _ in range(4):
            r, s, t = (rng.randint(-10**6, 10**6) for _ in range(3))
            moved = transform(model, 1, r, s, t)
            assert run(moved, ell, f=f, e=e).comparable_fields() == base


def test_pot_supersingular_anchors():
    assert pot_supersingular(EJ0, 5)  # j = 0 at 5 = 2 mod 3
    assert not pot_supersingular(E294, 7)  # good ordinary above 7
    assert not pot_supersingular(EJ0, 7)  # 7 = 1 mod 3: ordinary
    with pytest.raises(ValueError):
        pot_supersingular(E294, 2)  # v_2(j) < 0: potentially multiplicative


def test_singular_point_formulas_match_scan():
    """The closed-form singular point equals the brute-force scan result
    (the singular point of a Weierstrass cubic is unique and rational),
    over F_p for p in {2, 3, 5, 7, 13}, each with 30 singular cubics."""
    from eulerchar.curves import discriminant
    from eulerchar.tate import _singular_point

    rng = random.Random(31)
    for p in (2, 3, 5, 7, 13):
        tested = 0
        while tested < 30:
            abar = [rng.randrange(p) for _ in range(5)]
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


def test_cubic_multiple_root_formulas_match_scan():
    """For every monic cubic over F_p, p in {2, 3, 5, 7}, with vanishing
    discriminant, the closed-form multiple root is the only common root of
    P and P' in F_p, and it is reported triple exactly when P = (T - r)^3."""
    from eulerchar.tate import _cubic_analysis

    for p in (2, 3, 5, 7):
        for a, b, c in product(range(p), repeat=3):
            disc = 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
            if disc % p:
                continue
            kind, r = _cubic_analysis(a, b, c, p, p)
            multiple = [
                x
                for x in range(p)
                if (x**3 + a * x * x + b * x + c) % p == (3 * x * x + 2 * a * x + b) % p == 0
            ]
            assert multiple == [r]
            cube = (a + 3 * r) % p == (b - 3 * r * r) % p == (c + r**3) % p == 0
            assert (kind == "triple") == cube


def test_pot_supersingular_small_characteristic():
    """In characteristic 2 and 3 the supersingular locus is exactly j = 0."""
    assert pot_supersingular(EJ0, 2)
    assert pot_supersingular(EJ0, 3)
    e1728 = WeierstrassModel.from_rationals([0, 0, 0, 1, 0])
    assert pot_supersingular(e1728, 2)  # 1728 reduces to 0
    assert pot_supersingular(e1728, 3)
    # j = 128 = 2^7: v_2(j) > 0 so jbar = 0; but a unit j stays ordinary
    # when it reduces to a nonzero value mod 3
    e_unit_j = WeierstrassModel.from_rationals([1, 0, 0, 1, 1])
    from eulerchar.curves import invariants
    from eulerchar.valuations import vp

    j = invariants(e_unit_j).j
    if vp(j, 3) >= 0 and j.numerator % 3 != 0:
        assert not pot_supersingular(e_unit_j, 3)


def test_pot_supersingular_matches_quadratic_field_oracle():
    """The F_p test against the definition it replaces: a curve over F_{p^2}
    with the reduced j is supersingular iff its count is 1 mod p."""
    from eulerchar.curves import model_with_j_invariant
    from eulerchar.finite_fields import fq_create
    from eulerchar.valuations import is_prime
    from oracles import brute_count

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
            field = fq_create(p, 2)
            oracle = brute_count(model_with_j_invariant(field.from_int(j))) % p == 1
            assert pot_supersingular(model, p) == oracle
            outcomes.add(oracle)
    assert outcomes == {True, False}


def test_pot_supersingular_matches_direct_count():
    """Twist- and model-independence: compare against counting the curve
    itself over F_p^2 when it has good reduction at p."""
    from eulerchar.curves import count_points, extension_count, reduce_model
    from eulerchar.finite_fields import fq_create

    for p in (5, 7, 11, 13):
        disc = discriminant(integral_model(EJ0))
        if disc.numerator % p == 0:
            continue
        n1 = count_points(reduce_model(integral_model(EJ0), fq_create(p, 1)))
        n2 = extension_count(n1, p, 2)
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


def test_ogg_formula_over_census_box():
    """Every census-box curve at every ell in {5, 7, 11, 13} dividing its
    discriminant, over Q_ell, the unramified quadratic extension, tame
    x^2 - ell and Q_ell(mu_ell), plus curves of the types the box misses:
    v(Delta_min) = f_v + m_v - 1, and v(Delta_min) differs from
    e * v_ell(disc) by a multiple of 12."""
    seen = set()
    for coeffs, model, disc in _census_box_curves():
        for ell in (5, 7, 11, 13):
            if disc.numerator % ell:
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
    undefined."""
    j_zero = 0
    for _, model, _ in _census_box_curves():
        inv = invariants(model)
        j_zero += inv.j == 0
        for ell in (2, 3, 5, 7, 11, 13):
            expected = 0 if inv.j == 0 else max(0, -vp(inv.j, ell))
            assert inv.j_pole_order(ell) == expected
    assert j_zero > 0


GRID = Path(__file__).parent / "data" / "tate_residue_degree_grid.json"


def test_residue_degree_grid_matches_recording():
    """comparable_fields() over the residue-degree grid equals the recording
    in tests/data, made while Tate's algorithm still ran over the unramified
    extension with residue field F_{ell^f}: every census-box curve at every
    ell in {2, 3, 5, 7, 11, 13} dividing its discriminant, with e in
    {1, tame, ell - 1} (tame is x^3 - 2 above 2 and x^2 - ell above
    ell >= 5; e = ell - 1 is the cyclotomic layer, Q_3(mu_3) for e = 2 above
    3) and f in {1, 2, 3, 4}."""
    grid = json.loads(GRID.read_text(encoding="utf-8"))
    rows = iter(grid["rows"])
    recorded = 0
    for coeffs, model, disc in _census_box_curves():
        for ell in (2, 3, 5, 7, 11, 13):
            if disc.numerator % ell:
                continue
            for e in sorted({1, 2 if ell > 2 else 3, ell - 1}):
                for f in (1, 2, 3, 4):
                    d = run(model, ell, f=f, e=e)
                    kod = d.kodaira.symbol
                    L = f"{d.L_at_1.numerator}/{d.L_at_1.denominator}"
                    fields = d.comparable_fields()
                    got = [coeffs, *fields[:3], kod, *fields[4:10], L]
                    assert got == next(rows)
                    recorded += 1
    assert next(rows, None) is None and recorded == 17592


def test_finish_rejects_type_contradicting_ogg():
    from eulerchar.tate import KodairaType, _additive

    place = dict(ell=5, e=1, f=1, q_v=5, potentially_good=True)
    assert _additive(place, KodairaType("III"), 2, 3).v_min_delta == 3
    with pytest.raises(AssertionError, match="Ogg"):
        _additive(place, KodairaType("III"), 2, 4)
    # residue characteristic 2 and 3 allow wild conductor exponents
    wild = dict(place, ell=3, q_v=3)
    assert _additive(wild, KodairaType("III"), 2, 6).v_min_delta == 6


def test_finish_rejects_count_outside_hasse_bound(monkeypatch):
    """Every N_v is checked against (q + 1 - N_v)^2 <= 4 q, both when the
    model is good at once and when good reduction follows a step-11
    rescale."""
    from eulerchar import tate
    from eulerchar.curves import transform

    non_minimal = transform(E294, Fraction(1, 5), 0, 0, 0)  # Delta * 5^12
    assert run(non_minimal, 5).comparable_fields() == run(E294, 5).comparable_fields()
    monkeypatch.setattr(tate, "extension_count", lambda n1, q, k: 0)
    for model, f in ((E294, 1), (E294, 2), (non_minimal, 1)):
        with pytest.raises(AssertionError, match="Hasse"):
            run(model, 5, f=f)


def test_exact_delta_valuation_matches_local_field():
    """e * v_ell(disc) of an integral model equals the pi-adic valuation of
    Delta evaluated in Z[pi], and one rescale by pi lowers it by 12; at
    v(Delta) = 0 the reduced model equals the residues of the embedded
    coefficients."""
    from oracles import delta_local

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
        K = make_local_field(ell, e)
        n = K.e * vp(disc, ell)
        a = K.embed_model(model.coefficients())
        assert delta_local(a).valuation() == n

        scaled = integral_model(transform(model, Fraction(1, ell), 0, 0, 0))
        b = _rescale_by_pi(K.embed_model(scaled.coefficients()))
        assert delta_local(b).valuation() == K.e * vp(invariants(scaled).disc, ell) - 12

        d = tate_algorithm(model, K)
        if n == 0:
            residues = [c.coords[0] for c in d.reduced_model.coefficients()]
            assert residues == [x.residue() for x in a]
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
        assert d1.comparable_fields() == d2.comparable_fields()
        assert d_other.comparable_fields() != d1.comparable_fields()
    assert invariants(first) is invariants(first)
    assert invariants(first) is not invariants(again)
    assert invariants(first) == invariants(again) != invariants(other)
    assert integral_model(first) is integral_model(first) is not first
    assert integral_model(first) is not integral_model(again)
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
    got = run(scaled, ell, f=f, e=e).comparable_fields()
    assert got == run(model, ell, f=f, e=e).comparable_fields()


def test_good_and_multiplicative_places_never_embed(monkeypatch):
    """Good places and minimal multiplicative places are decided on
    integers: they never embed the model in the pi-adic field, and a field
    that serves only them never builds U^(-1), which costs O(e^2).  An
    additive place does embed."""
    from eulerchar.local_fields import LocalField

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
    ]
    for model, ell, e, symbol in cases:
        for f in (1, 2):
            K = LocalField(ell, e)
            d = tate_algorithm(model, K, f=f)
            assert d.kodaira.symbol == symbol, (model, ell, e)
            assert "_unit_inv" not in vars(K)
    with pytest.raises(AssertionError, match="embed_model called"):
        run(E294, 7)  # type II
