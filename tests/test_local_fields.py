from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from eulerchar.local_fields import make_local_field
from eulerchar.valuations import vp

ELLS = (2, 3, 5, 7, 11, 13)
# a tame e that is neither 1 nor ell - 1 (x^e - ell)
TAME_E = {2: 3, 3: 4, 5: 2, 7: 3, 11: 2, 13: 5}
KINDS = {
    "qp": lambda ell: 1,
    "ram": lambda ell: ell - 1,  # the cyclotomic layer Q_ell(mu_ell)
    "tame": lambda ell: TAME_E[ell],
}
ALL_FIELDS = [make_local_field(ell, KINDS[kind](ell)) for ell in ELLS for kind in KINDS]

Q7MU7 = make_local_field(7, 6)
Q7TAME = make_local_field(7, 2)  # x^2 - 7
Q5 = make_local_field(5, 1)


def fields(kind):
    return st.sampled_from(ELLS).map(lambda ell: make_local_field(ell, KINDS[kind](ell)))


def element(K, coeffs):
    """sum of c_i pi^i, built with the ring operations."""
    x = K.zero()
    for i, c in enumerate(coeffs):
        x = x + K.embed(c) * K.pi() ** i
    return x


def draw_element(data, K):
    """An element with a spread of valuations: coefficients u * ell^j, then
    a shift by a few powers of pi."""
    coeffs = [
        data.draw(st.integers(-60, 60)) * K.ell ** data.draw(st.integers(0, 3))
        for _ in range(K.e)
    ]
    return element(K, coeffs).shift_pi(data.draw(st.integers(0, 2 * K.e)))


def test_field_anchors():
    assert Q7MU7.embed(7).valuation() == 6
    assert Q7TAME.embed(8).residue() == 1 and Q7TAME.embed(-1).residue() == 6
    assert Q7TAME.embed(7).valuation() == 2
    assert Q7TAME.pi() ** 2 == Q7TAME.embed(7)
    assert Q5.embed(5).valuation() == 1 and Q5.pi() == 5


def test_val_residue_anchors():
    pi = Q7MU7.pi()
    assert pi.valuation() == 1 and pi.shift_pi(-1) == Q7MU7.one()
    x = Q7MU7.one() + Q7MU7.pi()
    assert x.valuation() == 0 and x.residue() == 1
    assert Q7MU7.embed(7).valuation() == 6
    assert Q7MU7.zero().valuation() == inf and Q7MU7.zero().val_at_least(10**6)


def test_eisenstein_relation():
    """g(pi) = 0 and pi^e = ell U for every Eisenstein polynomial in use,
    the cyclotomic ((1+x)^ell - 1)/x among them."""
    for K in ALL_FIELDS:
        pi = K.pi()
        val = K.zero()
        power = K.one()
        for c in K.eisenstein:
            val = val + power * c
            power = power * pi
        assert val == K.zero(), K
        assert pi**K.e == K.unit() * K.ell


def test_wild_ramification_rejected():
    with pytest.raises(ValueError):
        make_local_field(2, 2)  # e = 2, ell = 2, not cyclotomic
    with pytest.raises(ValueError):
        make_local_field(5, 20)  # second layer


def test_tame_non_cyclotomic():
    K = make_local_field(5, 3)
    assert K.embed(5).valuation() == 3
    assert K.pi() ** 3 == K.embed(5)
    assert K.unit() == K.one() == K.unit_inverse()


@pytest.mark.parametrize("kind", ["ram", "tame", "qp"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_valuation_laws_randomized(kind, data):
    """v(xy) = v(x) + v(y); v(x + y) >= min(v(x), v(y)), with equality when
    the two valuations differ."""
    K = data.draw(fields(kind))
    x, y = draw_element(data, K), draw_element(data, K)
    vx, vy = x.valuation(), y.valuation()
    assert (x * y).valuation() == vx + vy
    vs = (x + y).valuation()
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FIELDS), st.integers(-(10**30), 10**30).filter(bool))
def test_embedding_commutes_with_vp(K, n):
    assert K.embed(n).valuation() == K.e * vp(n, K.ell)
    assert K.embed(n).residue() == n % K.ell


def test_division_and_inverse():
    """Division stays in the ring: U U^(-1) = 1, and dividing by a power of
    pi that divides an element is exact."""
    for K in ALL_FIELDS:
        assert K.unit() * K.unit_inverse() == K.one(), K
        assert K.unit_inverse() * K.pi() ** K.e == K.embed(K.ell)
        x = K.embed(3) + K.pi() * 5
        for k in (1, K.e, 2 * K.e + 1):
            assert (x * K.pi() ** k).shift_pi(-k) == x
            assert (x * K.ell).shift_pi(-K.e) == x * K.unit_inverse()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FIELDS), st.data())
def test_shift_pi_exactness(K, data):
    """x pi^k pi^(-k) = x; a shift moves the valuation by k; dividing by
    more than the valuation allows raises."""
    x = draw_element(data, K)
    k = data.draw(st.integers(0, 3 * K.e + 2))
    up = x.shift_pi(k)
    assert up == x * K.pi() ** k
    assert up.shift_pi(-k) == x
    assert up.valuation() == x.valuation() + k
    if x != K.zero():
        v = x.valuation()
        assert x.shift_pi(-v).residue() != 0
        with pytest.raises(ValueError):
            x.shift_pi(-(v + data.draw(st.integers(1, 2 * K.e))))


def test_expansion_digits():
    x = Q5.embed(26)  # 1 + 0*5 + 5^2
    assert x.valuation() == 0 and x.residue() == 1
    assert (x - 1).valuation() == 2 and (x - 1).shift_pi(-2).residue() == 1
    assert x - 26 == Q5.zero() and (x - 26).valuation() == inf
    pi = Q7MU7.pi()  # 0 + 1*pi
    assert pi.residue() == 0
    assert pi.valuation() == 1 and pi.coeffs == (0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("kind", ["ram", "tame", "qp"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ring_axioms(kind, data):
    K = data.draw(fields(kind))
    x, y, z = (draw_element(data, K) for _ in range(3))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x - x == K.zero() and x * K.one() == x and x + K.zero() == x
    assert -(x - y) == y - x and 3 * x == x + x + x


def test_make_local_field_is_memoized():
    K = make_local_field(5, 1)
    assert make_local_field(5, 1) is K
    assert make_local_field(5, 4) is not K
    with pytest.raises(TypeError):  # one cache key per (ell, e)
        make_local_field(5, e=1)
    # the Eisenstein polynomial is a function of (ell, e)
    assert make_local_field(5, 4).eisenstein == (5, 10, 10, 5, 1)
    assert make_local_field(5, 2).eisenstein == (-5, 0, 1)
