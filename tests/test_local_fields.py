from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from eulerchar.local_fields import make_local_field
from eulerchar.valuations import vp
from oracles import RingField

ELLS = (2, 3, 5, 7, 11, 13)
# a tame e that is neither 1 nor ell - 1 (x^e - ell)
TAME_E = {2: 3, 3: 4, 5: 2, 7: 3, 11: 2, 13: 5}
KINDS = {
    "qp": lambda ell: 1,
    "ram": lambda ell: ell - 1,  # the cyclotomic layer Q_ell(mu_ell)
    "tame": lambda ell: TAME_E[ell],
}
# the ring Z[pi] at every e: the library's values are plain ints at e = 1
ALL_FIELDS = [RingField(ell, KINDS[kind](ell)) for ell in ELLS for kind in KINDS]

Q7MU7 = make_local_field(7, 6)
Q7TAME = make_local_field(7, 2)  # x^2 - 7
Q5 = RingField(5, 1)


def fields(kind):
    return st.sampled_from(ELLS).map(lambda ell: RingField(ell, KINDS[kind](ell)))


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
    """pi^e = c for every Eisenstein polynomial in use: c = -ell at the
    cyclotomic layer x^(ell-1) + ell, e = ell - 1 > 1, and c = ell for
    x^e - ell otherwise."""
    for K in ALL_FIELDS:
        assert K.pi() ** K.e == K.embed(K.c), K
    assert [make_local_field(5, e).c for e in (1, 2, 4)] == [5, 5, -5]
    assert [make_local_field(ell, ell - 1).c for ell in (2, 3, 7)] == [2, -3, -7]
    assert make_local_field(7, 3).c == 7


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_cyclotomic_layer_contains_mu_ell(ell):
    """Q_ell((-ell)^(1/(ell-1))) = Q_ell(mu_ell), by Krasner's lemma.  The
    ell - 1 roots zeta^i - 1 of Phi_ell(1 + x) are pairwise at valuation 1,
    so v(Phi_ell(1 + z)) = sum of v(z - root) > ell - 1 puts z closer to
    one root than that root is to the others, and the root lies in K."""
    K = make_local_field(ell, ell - 1)
    pi = K.pi()
    z = pi + pi**2 * ((ell + 1) // 2)
    phi = sum(((z + 1) ** k for k in range(ell)), K.zero())
    assert phi.valuation() > ell - 1


def test_wild_ramification_rejected():
    with pytest.raises(ValueError):
        make_local_field(2, 2)  # e = 2, ell = 2, not cyclotomic
    with pytest.raises(ValueError):
        make_local_field(5, 20)  # second layer


def test_tame_non_cyclotomic():
    K = make_local_field(5, 3)
    assert K.embed(5).valuation() == 3
    assert K.pi() ** 3 == K.embed(5)


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ELLS), st.integers(-(10**30), 10**30), st.integers(-8, 8),
       st.integers(-3, 12))
def test_integer_values_match_the_ring_at_e_1(ell, n, k, least):
    """At e = 1 the library's values are ints; each value operation gives
    what the ring Z[pi] = Z of LocalElements gives: embed, shift by pi^k
    (refusing an inexact division alike), v >= least, valuation, residue."""
    K, ring = make_local_field(ell, 1), RingField(ell, 1)
    x, y = K.embed(n), ring.embed(n)
    assert type(x) is int and x == y
    assert K.val_at_least(x, least) == ring.val_at_least(y, least)
    assert K.valuation(x) == ring.valuation(y) == y.valuation()
    assert K.residue(x) == ring.residue(y) == y.residue()
    try:
        expected = y.shift_pi(k)
    except ValueError:
        with pytest.raises(ValueError, match="not divisible"):
            K.shift(x, k)
    else:
        shifted = K.shift(x, k)
        assert type(shifted) is int and shifted == expected


def test_division_and_inverse():
    """Division stays in the ring: dividing by a power of pi that divides
    an element is exact, and ell / pi^e = ell / c = +-1."""
    for K in ALL_FIELDS:
        x = K.embed(3) + K.pi() * 5
        for k in (1, K.e, 2 * K.e + 1):
            assert (x * K.pi() ** k).shift_pi(-k) == x
        assert (x * K.ell).shift_pi(-K.e) == x * (K.ell // K.c), K


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


def test_make_local_field():
    """A field is a function of (ell, e), however the call names them; a
    composite ell and e < 1 are refused."""
    K = make_local_field(5, e=4)
    assert (K.ell, K.e, K.c) == (5, 4, -5)
    assert K.pi() ** 4 == -5 and K.embed(5).valuation() == 4
    with pytest.raises(ValueError):
        make_local_field(6, 1)
    with pytest.raises(ValueError):
        make_local_field(5, 0)
