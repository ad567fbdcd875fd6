import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from eulerchar.valuations import (
    euler_phi,
    factorize,
    int_valuation,
    is_prime,
    multiplicative_order,
    rational_sqrt,
    vp,
)
from oracles import trial_factorize


def test_vp_anchors():
    assert vp(Fraction(8, 7), 7) == -1
    with pytest.raises(ValueError):
        vp(0, 7)
    # 728 = 2^3 * 7 * 13 by trial division, so v_7(729/728) = -1
    n = 728
    e = 0
    while n % 7 == 0:
        n //= 7
        e += 1
    assert e == 1
    assert vp(Fraction(729, 728), 7) == -1


def test_vp_rejects_composite():
    with pytest.raises(ValueError):
        vp(Fraction(1, 2), 6)


def _brute_valuation(n: int, d: int, p: int) -> int:
    """v_p(n/d) by counting the multiples of p^k that divide n and d."""
    return (sum(1 for k in range(1, 64) if n % p**k == 0)
            - sum(1 for k in range(1, 64) if d % p**k == 0))


def test_vp_matches_brute_force_on_ints_and_fractions():
    """vp takes an int as it is and a Fraction by its numerator and
    denominator; it refuses 0, as an int or a Fraction, and composite p."""
    for n in range(-300, 301):
        for p in (2, 3, 5, 7):
            if n == 0:
                for zero in (0, Fraction(0)):
                    with pytest.raises(ValueError):
                        vp(zero, p)
                continue
            assert vp(n, p) == _brute_valuation(n, 1, p)
            for d in (1, 4, 9, 25, 98, 375):
                assert vp(Fraction(n, d), p) == _brute_valuation(n * d, d * d, p)
    for composite in (1, 4, 6, 9, 15, 49):
        with pytest.raises(ValueError):
            vp(7, composite)
        with pytest.raises(ValueError):
            vp(Fraction(1, 7), composite)


nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
).filter(lambda x: x != 0)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 13]))
def test_vp_multiplicative_and_ultrametric(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)
    if x + y != 0:
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_vp_properties_bulk():
    rng = random.Random(7)
    for _ in range(10_000):
        x = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        p = rng.choice([2, 3, 5, 7, 11])
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        if x + y != 0:
            assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_is_prime_small():
    primes = [p for p in range(2, 100) if is_prime(p)]
    sieve = [
        n
        for n in range(2, 100)
        if all(n % d for d in range(2, n))
    ]
    assert primes == sieve
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; base 41 exposes it
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(318665857834031151167461)


def test_factorize_divisors_phi():
    assert factorize(294) == ((2, 1), (3, 1), (7, 2))
    assert euler_phi(7) == 6
    assert euler_phi(700) == 240


def test_factorize_matches_trial_division():
    """Trial division below the limit plus Pollard rho against trial
    division up to sqrt(n): every n < 20000, random n < 10^9, products of
    three 9-10 digit primes, and prime powers, where rho's gcd can return n."""
    for n in range(1, 20000):
        assert factorize(n) == trial_factorize(n)
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        assert factorize(n) == trial_factorize(n)
    for _ in range(3):
        primes = []
        for _ in range(3):
            q = rng.randrange(10**8, 10**10) | 1
            while trial_factorize(q) != ((q, 1),):
                q += 2
            primes.append(q)
        expected = tuple(sorted(Counter(primes).items()))
        assert factorize(primes[0] * primes[1] * primes[2]) == expected
    for q, e in [(257, 2), (257, 3), (65537, 2), (1000003, 3), (999983, 2)]:
        assert factorize(q**e) == ((q, e),)
    assert factorize(2**4 * 953 * 284447 * 14855503647295757729) == (
        (2, 4), (953, 1), (284447, 1), (14855503647295757729, 1)
    )


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(13, 7) == 2
    assert multiplicative_order(5, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)
    # prime descent against the least k >= 1 with a^k = 1, by brute force
    for n in range(2, 301):
        for a in range(1, n + 1):
            if gcd(a, n) != 1:
                continue
            k, power = 1, a % n
            while power != 1:
                k, power = k + 1, power * a % n
            assert multiplicative_order(a, n) == k, (a, n)


def test_int_valuation():
    assert int_valuation(729, 3) == 6
    assert int_valuation(-56, 2) == 3
    with pytest.raises(ValueError):
        int_valuation(0, 5)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
