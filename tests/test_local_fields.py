from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from eulerchar.tate import LocalField
from eulerchar.valuations import vp
from oracles import RingField, pi, power

ELLS = (2, 3, 5, 7, 11, 13)
# a tame e that is neither 1 nor ell - 1 (x^e - ell)
TAME_E = {2: 3, 3: 4, 5: 2, 7: 3, 11: 2, 13: 5}
KINDS = {
    "qp": lambda ell: 1,
    "ram": lambda ell: ell - 1,  # the cyclotomic layer Q_ell(mu_ell)
    "tame": lambda ell: TAME_E[ell],
}
# the library's fields, whose values are plain ints at e = 1, and the ring
# Z[pi] at every e
FIELD_CLASSES = (LocalField, RingField)
ALL_FIELDS = [cls(ell, KINDS[kind](ell)) for cls in FIELD_CLASSES for ell in ELLS
              for kind in KINDS]

Q7MU7 = RingField(7, 6)
Q7TAME = RingField(7, 2)  # x^2 - 7
Q5 = RingField(5, 1)


def fields(kind):
    return st.tuples(st.sampled_from(FIELD_CLASSES), st.sampled_from(ELLS)).map(
        lambda drawn: drawn[0](drawn[1], KINDS[kind](drawn[1])))


def element(K, coeffs):
    """sum of c_i pi^i, built with the ring operations."""
    x = K.embed(0)
    for i, c in enumerate(coeffs):
        x = x + K.embed(c) * power(K, pi(K), i)
    return x


def draw_element(data, K):
    """An element with a spread of valuations: coefficients u * ell^j, then
    a shift by a few powers of pi."""
    coeffs = [
        data.draw(st.integers(-60, 60)) * K.ell ** data.draw(st.integers(0, 3))
        for _ in range(K.e)
    ]
    return K.shift(element(K, coeffs), data.draw(st.integers(0, 2 * K.e)))


def test_field_anchors():
    assert Q7MU7.valuation(Q7MU7.embed(7)) == 6
    assert Q7TAME.residue(Q7TAME.embed(8)) == 1 and Q7TAME.residue(Q7TAME.embed(-1)) == 6
    assert Q7TAME.valuation(Q7TAME.embed(7)) == 2
    assert power(Q7TAME, pi(Q7TAME), 2) == Q7TAME.embed(7)
    assert Q5.valuation(Q5.embed(5)) == 1 and pi(Q5) == 5
    assert pi(LocalField(5, 1)) == 5 and LocalField(7, 6).valuation(LocalField(7, 6).embed(7)) == 6


def test_val_residue_anchors():
    K = Q7MU7
    assert K.valuation(pi(K)) == 1 and K.shift(pi(K), -1) == K.embed(1)
    x = K.embed(1) + pi(K)
    assert K.valuation(x) == 0 and K.residue(x) == 1
    assert K.valuation(K.embed(7)) == 6
    assert K.valuation(K.embed(0)) == inf and K.val_at_least(K.embed(0), 10**6)


def test_eisenstein_relation():
    """pi^e = c for every Eisenstein polynomial in use: c = -ell at the
    cyclotomic layer x^(ell-1) + ell, e = ell - 1 > 1, and c = ell for
    x^e - ell otherwise."""
    for K in ALL_FIELDS:
        assert power(K, pi(K), K.e) == K.embed(K.c), (K.ell, K.e)
    assert [LocalField(5, e).c for e in (1, 2, 4)] == [5, 5, -5]
    assert [LocalField(ell, ell - 1).c for ell in (2, 3, 7)] == [2, -3, -7]
    assert LocalField(7, 3).c == 7


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_cyclotomic_layer_contains_mu_ell(ell):
    """Q_ell((-ell)^(1/(ell-1))) = Q_ell(mu_ell), by Krasner's lemma.  The
    ell - 1 roots zeta^i - 1 of Phi_ell(1 + x) are pairwise at valuation 1,
    so v(Phi_ell(1 + z)) = sum of v(z - root) > ell - 1 puts z closer to
    one root than that root is to the others, and the root lies in K."""
    K = LocalField(ell, ell - 1)
    z = pi(K) + power(K, pi(K), 2) * ((ell + 1) // 2)
    phi = sum((power(K, z + 1, k) for k in range(ell)), K.embed(0))
    assert K.valuation(phi) > ell - 1


def test_wild_ramification_rejected():
    for ell, e in ((2, 2), (3, 3), (5, 20)):  # ell | e, and not the first layer
        with pytest.raises(ValueError, match="wildly ramified"):
            LocalField(ell, e)


def test_tame_non_cyclotomic():
    K = LocalField(5, 3)
    assert K.valuation(K.embed(5)) == 3
    assert power(K, pi(K), 3) == K.embed(5)


@pytest.mark.parametrize("kind", ["ram", "tame", "qp"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_valuation_laws_randomized(kind, data):
    """v(xy) = v(x) + v(y); v(x + y) >= min(v(x), v(y)), with equality when
    the two valuations differ."""
    K = data.draw(fields(kind))
    x, y = draw_element(data, K), draw_element(data, K)
    vx, vy = K.valuation(x), K.valuation(y)
    assert K.valuation(x * y) == vx + vy
    vs = K.valuation(x + y)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FIELDS), st.integers(-(10**30), 10**30).filter(bool))
def test_embedding_commutes_with_vp(K, n):
    assert K.valuation(K.embed(n)) == K.e * vp(n, K.ell)
    assert K.residue(K.embed(n)) == n % K.ell


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ELLS), st.integers(-(10**30), 10**30), st.integers(-8, 8),
       st.integers(-3, 12))
def test_integer_values_match_the_ring_at_e_1(ell, n, k, least):
    """At e = 1 the library's values are ints; each value operation gives
    what the ring Z[pi] = Z of LocalElements gives: embed, shift by pi^k
    (refusing an inexact division alike), v >= least, valuation, residue."""
    K, ring = LocalField(ell, 1), RingField(ell, 1)
    x, y = K.embed(n), ring.embed(n)
    assert type(x) is int and x == y
    assert K.val_at_least(x, least) == ring.val_at_least(y, least)
    assert K.valuation(x) == ring.valuation(y)
    assert K.residue(x) == ring.residue(y)
    try:
        expected = ring.shift(y, k)
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
        x = K.embed(3) + pi(K) * 5
        for k in (1, K.e, 2 * K.e + 1):
            assert K.shift(x * power(K, pi(K), k), -k) == x
        assert K.shift(x * K.ell, -K.e) == x * (K.ell // K.c), (K.ell, K.e)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FIELDS), st.data())
def test_shift_pi_exactness(K, data):
    """x pi^k pi^(-k) = x; a shift moves the valuation by k; dividing by
    more than the valuation allows raises."""
    x = draw_element(data, K)
    k = data.draw(st.integers(0, 3 * K.e + 2))
    up = K.shift(x, k)
    assert up == x * power(K, pi(K), k)
    assert K.shift(up, -k) == x
    assert K.valuation(up) == K.valuation(x) + k
    if x != K.embed(0):
        v = K.valuation(x)
        assert K.residue(K.shift(x, -v)) != 0
        with pytest.raises(ValueError, match="not divisible"):
            K.shift(x, -(v + data.draw(st.integers(1, 2 * K.e))))


def test_expansion_digits():
    x = Q5.embed(26)  # 1 + 0*5 + 5^2
    assert Q5.valuation(x) == 0 and Q5.residue(x) == 1
    assert Q5.valuation(x - 1) == 2 and Q5.residue(Q5.shift(x - 1, -2)) == 1
    assert x - 26 == Q5.embed(0) and Q5.valuation(x - 26) == inf
    p = pi(Q7MU7)  # 0 + 1*pi
    assert Q7MU7.residue(p) == 0
    assert Q7MU7.valuation(p) == 1 and p.coeffs == (0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("kind", ["ram", "tame", "qp"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ring_axioms(kind, data):
    K = data.draw(fields(kind))
    x, y, z = (draw_element(data, K) for _ in range(3))
    zero, one = K.embed(0), K.embed(1)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x - x == zero and x * one == x and x + zero == x
    assert (x - y) * -1 == y - x and 3 * x == x + x + x


def test_local_field_checks():
    """A field is a function of (ell, e), however the call names them; a
    composite ell and e < 1 are refused."""
    K = LocalField(5, e=4)
    assert (K.ell, K.e, K.c) == (5, 4, -5)
    assert power(K, pi(K), 4) == -5 and K.valuation(K.embed(5)) == 4
    with pytest.raises(ValueError, match="must be prime"):
        LocalField(6, 1)
    with pytest.raises(ValueError, match="ramification index"):
        LocalField(5, 0)
