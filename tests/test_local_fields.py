import random
from fractions import Fraction

import pytest

from eulerchar.local_fields import PrecisionError, make_local_field
from eulerchar.valuations import vp

Q7MU7 = make_local_field(7, 6, precision=120)  # e = ell - 1: Q_7(mu_7)
Q7TAME = make_local_field(7, 2, precision=60)  # x^2 - 7
Q5 = make_local_field(5, 1, precision=60)


def test_field_anchors():
    assert Q7MU7.embed(7).valuation() == 6
    assert Q7TAME.embed(8).residue() == 1 and Q7TAME.embed(-1).residue() == 6
    assert Q7TAME.embed(7).valuation() == 2
    assert (Q7TAME.pi() ** 2 - Q7TAME.embed(7)).is_zero_to_precision()
    assert Q5.embed(5).valuation() == 1


def test_val_residue_anchors():
    pi = Q7MU7.pi()
    assert pi.valuation() == 1 and pi.unit_residue() == 1
    x = Q7MU7.one() + Q7MU7.pi()
    assert x.valuation() == 0 and x.unit_residue() == 1
    assert Q7MU7.embed(7).valuation() == 6


def test_eisenstein_relation():
    # g(pi) = 0 for the cyclotomic polynomial ((1+x)^7 - 1)/x
    pi = Q7MU7.pi()
    val = Q7MU7.zero()
    power = Q7MU7.one()
    for c in Q7MU7.eisenstein:
        val = val + power * c
        power = power * pi
    assert val.is_zero_to_precision()


def test_indistinguishable_from_zero_signal():
    zero = Q5.embed(0)
    with pytest.raises(PrecisionError):
        zero.valuation()
    with pytest.raises(PrecisionError):
        zero.unit_residue()
    assert zero.val_at_least(1)  # certified up to working precision


def test_wild_ramification_rejected():
    with pytest.raises(ValueError):
        make_local_field(2, 2, precision=40)  # e = 2, ell = 2, not cyclotomic
    with pytest.raises(ValueError):
        make_local_field(5, 20, precision=200)  # second layer


def test_tame_non_cyclotomic():
    K = make_local_field(5, 3, precision=45)
    assert K.embed(5).valuation() == 3
    assert (K.pi() ** 3 - K.embed(5)).is_zero_to_precision()


def _random_rational(rng):
    num = rng.randint(-400, 400)
    den = rng.randint(1, 400)
    if num == 0:
        num = 1
    return Fraction(num, den)


@pytest.mark.parametrize("field", [Q7MU7, Q7TAME, Q5], ids=["ram", "tame", "qp"])
def test_valuation_laws_randomized(field):
    """val(xy) = val(x) + val(y) and the ultrametric law, 10^4 pairs per field."""
    rng = random.Random(field.ell)
    pool = [field.embed(_random_rational(rng)) for _ in range(200)]
    pool.append(field.pi() + field.one())
    extra = field.pi() * field.pi() - field.embed(field.ell)
    if extra.is_zero_to_precision():  # pi^2 = ell in the x^2 - ell field
        extra = field.pi() ** 3 - field.embed(field.ell)
    pool.append(extra)
    for _ in range(10_000):
        x, y = rng.choice(pool), rng.choice(pool)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero_to_precision():
            assert s.valuation() >= min(x.valuation(), y.valuation())


def test_embedding_commutes_with_vp():
    rng = random.Random(99)
    for _ in range(1000):
        r = _random_rational(rng)
        field = rng.choice([Q7MU7, Q7TAME, Q5])
        assert field.embed(r).valuation() == field.e * vp(r, field.ell)


def test_division_and_inverse():
    x = Q7MU7.embed(Fraction(-294, 49))
    assert x.valuation() == 0
    assert (x / x).residue() == 1
    y = Q7MU7.embed(Fraction(3, 14))
    z = x * y / y
    assert (z - x).is_zero_to_precision()


def test_shift_pi_exactness():
    x = Q7MU7.embed(49)  # val 12
    assert x.shift_pi(-12).valuation() == 0
    assert x.shift_pi(5).valuation() == 17


def test_expansion_digits():
    x = Q5.embed(Fraction(26))  # 1 + 0*5 + 5^2
    assert x.valuation() == 0 and x.unit_residue() == 1
    assert (x - 1).valuation() == 2 and (x - 1).unit_residue() == 1
    assert (x - 26).is_zero_to_precision()
    pi = Q7MU7.pi()  # 0 + 1*pi
    assert pi.residue() == 0
    assert pi.valuation() == 1 and pi.unit_residue() == 1


@pytest.mark.parametrize("field", [Q7MU7, Q7TAME, Q5], ids=["ram", "tame", "qp"])
def test_ring_axioms(field):
    rng = random.Random(field.ell + 100)
    pool = [field.embed(_random_rational(rng)) for _ in range(40)]
    pool += [field.pi(), field.one(), field.pi() * field.pi()]
    for _ in range(300):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert ((x + y) * z - (x * z + y * z)).is_zero_to_precision()
        assert ((x * y) * z - x * (y * z)).is_zero_to_precision()
        assert (x + y - (y + x)).is_zero_to_precision()
        assert (x * y - y * x).is_zero_to_precision()


def test_precision_cap_respected():
    # a certified valuation answers any threshold query...
    x = Q5.embed(Fraction(1, 3))
    assert x.abs_prec <= Q5.tprec_max
    assert not x.val_at_least(x.abs_prec + 1)
    # ...but an element whose known digits all vanish cannot certify
    # anything beyond its precision marker
    zero = Q5.embed(0)
    with pytest.raises(PrecisionError):
        zero.val_at_least(zero.abs_prec + 1)


def test_make_local_field_is_memoized():
    K = make_local_field(5, 1, precision=48)
    assert make_local_field(5, 1, precision=48) is K
    doubled = make_local_field(5, 1, precision=96)
    assert doubled is not K and doubled.precision == 96
    # the Eisenstein polynomial is a function of (ell, e)
    assert make_local_field(5, 4, precision=48).eisenstein == (5, 10, 10, 5, 1)
    assert make_local_field(5, 2, precision=48).eisenstein == (-5, 0, 1)
