"""Exact integer and rational arithmetic helpers: p-adic valuations,
primality, factorization, multiplicative orders.

Valuations are integers: there is no +infinity, and the valuation of 0
raises ValueError.

Rational numbers are represented by the standard library ``fractions.Fraction``
throughout the package; it already guarantees the lowest-terms, positive
denominator normal form required here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer n; p is not checked.  Raises
    ValueError for n = 0."""
    if n == 0:
        raise ValueError("valuation of zero requested")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational number, normalized so
    vp(p) = 1.

    The associated absolute value is |x|_p = p**(-vp(x)).  Raises
    ValueError when x is 0 or p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"vp requires a prime, got {p}")
    x = Fraction(x)
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n:
        for step in (d, d + 2):
            e = 0
            while n % step == 0:
                n //= step
                e += 1
            if e:
                out.append((step, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return tuple(sorted(out))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1 in increasing order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1.  Order modulo 1 is 1."""
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    for d in divisors(euler_phi(n)):
        if pow(a, d, n) == 1:
            return d
    raise AssertionError("unreachable: order divides euler_phi(n)")


def primes_from(start: int):
    """Yield primes >= start in increasing order."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when x is not a square."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
