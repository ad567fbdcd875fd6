"""Splitting of rational primes in cyclotomic fields Q(mu_m).

`splitting` is where every residue field F_{ell^f} of the library is first
named, and it refuses one past `printable` (`UnprintableFieldError`): a
`CyclotomicSplitting` that exists has a residue field whose counts print.
`euler.plan` and the subcommands pass the refusal on; the torsion sampler
skips the prime and samples the next one."""

from __future__ import annotations

import sys
from functools import lru_cache
from math import isqrt, log10
from typing import NamedTuple

from .valuations import euler_phi, int_valuation, is_prime, multiplicative_order


class CyclotomicSplitting(NamedTuple):
    """Decomposition data (e, f, g) of a rational prime in Q(mu_m).

    e = phi(ell^a) for ell^a exactly dividing m, f = multiplicative order
    of ell modulo m/ell^a, and e*f*g = phi(m).
    """

    m: int
    ell: int
    e: int
    f: int
    g: int


# splittings kept: a census pass asks for about 370 distinct (ell, m), a
# tower pass about 140
SPLITTING_MEMO_SIZE = 1024


@lru_cache(maxsize=SPLITTING_MEMO_SIZE)
def _split(ell: int, m: int) -> CyclotomicSplitting:
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    a = int_valuation(m, ell)
    m_prime = m // ell**a
    e = euler_phi(ell**a)
    f = multiplicative_order(ell, m_prime)
    g = euler_phi(m) // (e * f)
    return CyclotomicSplitting(m=m, ell=ell, e=e, f=f, g=g)


def splitting(ell: int, m: int) -> CyclotomicSplitting:
    """Splitting data of the prime ell in Q(mu_m); m >= 1.  Raises
    `UnprintableFieldError` when F_{ell^f} fails `printable` under the digit
    limit in force at this call: only (e, f, g) is memoized."""
    sp = _split(ell, m)
    check_printable(ell, sp.f)
    return sp


def field_degree(m: int) -> int:
    """[Q(mu_m) : Q] = phi(m)."""
    return euler_phi(m)


def printable(ell: int, f: int) -> bool:
    """Whether every count over F_q, q = ell^f, prints in decimal: its Hasse
    bound q + 1 + 2 sqrt(q) has fewer digits than the interpreter's limit on
    printing an integer (`sys.get_int_max_str_digits()`; 0, or no such
    limit, prints any).  Bit lengths decide away from that limit: q below
    2^(3 limit) keeps the bound under 10^limit, for every limit CPython
    allows (0 or at least 640), and q from 2^(4 limit) on puts it above;
    q and 10^limit are built only in between."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = f * ell.bit_length()  # 2^(bits - f) <= q < 2^bits
    if not limit or bits <= 3 * limit:
        return True
    if bits - f >= 4 * limit:
        return False
    q = ell**f
    return q + 1 + isqrt(4 * q) < 10**limit


class UnprintableFieldError(ValueError):
    """A residue field F_{ell^f} past `printable`; `context` opens the
    message with what the field was wanted for."""

    def __init__(self, ell: int, f: int, context: str = ""):
        self.ell, self.f = ell, f
        digits = int(f * log10(ell)) + 1
        super().__init__(f"{context}{ell}^{f} has about {digits} digits: the count over that field "
                         f"can pass the {sys.get_int_max_str_digits()}-digit limit on printing an integer")


def check_printable(ell: int, f: int) -> None:
    """Refuse a residue field F_{ell^f} past `printable`."""
    if not printable(ell, f):
        raise UnprintableFieldError(ell, f)
