"""Exact integer and rational arithmetic helpers: p-adic valuations,
primality, factorization, multiplicative orders (by prime descent from
phi(n), so no divisor list is built).

Valuations are integers: there is no +infinity, and the valuation of 0
raises ValueError.

Integers are ints, and other rational numbers are the standard library's
``fractions.Fraction``, which already guarantees the lowest-terms, positive
denominator normal form required here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, exact for n below
    psi_13 = 3317044064679887385961981, the least strong pseudoprime to all
    of them (Sorenson-Webster 2015); above it a True is a probable prime.
    Memoized: `vp` checks the same few primes on every call."""
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


def check_formula_prime(p: int) -> None:
    """Refuse every p but a prime >= 5, the primes the Euler-characteristic
    formula takes."""
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")


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
    if isinstance(x, int):
        return int_valuation(x, p)
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


# prime factors below this are found by trial division, larger ones by rho
_TRIAL_LIMIT = 256
# factorizations kept: a census pass factorizes about 1100 distinct
# discriminants, j-denominators and conductors
FACTORIZE_MEMO_SIZE = 2048


@lru_cache(maxsize=FACTORIZE_MEMO_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.

    Trial division finds the prime factors below _TRIAL_LIMIT.  Every
    cofactor left is tested with `is_prime`, and a composite one is split
    by Brent's variant of Pollard rho, whose cost grows with the square
    root of the smallest prime factor rather than of n.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for d in (2, *range(3, _TRIAL_LIMIT, 2)):
        if d * d > n:
            break
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        # a cofactor has no prime factor below the limit
        if n < _TRIAL_LIMIT**2 or is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        c = 1
        while (d := _brent_factor(n, c)) == n:
            c += 1
        stack += [d, n // d]
    return tuple(sorted(out.items()))


def _brent_factor(n: int, c: int) -> int:
    """A divisor d > 1 of a composite n with no prime factor below
    _TRIAL_LIMIT, from Brent's cycle search (Brent 1980) on x -> x^2 + c
    mod n; d = n when this c fails and another must be tried."""
    batch = 64  # differences multiplied together between two gcds
    y, r, q, d = 2, 1, 1, 1
    while d == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and d == 1:
            ys = y
            for _ in range(min(batch, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            d = gcd(q, n)
            k += batch
        r *= 2
    if d == n:  # the batch overshot: redo it one gcd at a time
        d = 1
        while d == 1:
            ys = (ys * ys + c) % n
            d = gcd(x - ys, n)
    return d


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1.  Order modulo 1 is 1.

    Prime descent (Cohen, GTM 138, Alg. 1.4.3): start from phi(n), a
    multiple of the order, and for each prime q dividing it divide by q
    while a^(order/q) is still 1."""
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    order = euler_phi(n)
    for q, _ in factorize(order):
        while order % q == 0 and pow(a, order // q, n) == 1:
            order //= q
    return order


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
