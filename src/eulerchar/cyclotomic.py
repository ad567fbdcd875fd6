"""Splitting of rational primes in cyclotomic fields Q(mu_m)."""

from __future__ import annotations

from functools import lru_cache
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

    @property
    def residue_size(self) -> int:
        return self.ell**self.f

    @property
    def local_degree(self) -> int:
        return self.e * self.f


# splittings kept: a census pass asks for about 370 distinct (ell, m), a
# tower pass about 140
SPLITTING_MEMO_SIZE = 1024


@lru_cache(maxsize=SPLITTING_MEMO_SIZE)
def splitting(ell: int, m: int) -> CyclotomicSplitting:
    """Splitting data of the prime ell in Q(mu_m); m >= 1."""
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


def field_degree(m: int) -> int:
    """[Q(mu_m) : Q] = phi(m)."""
    return euler_phi(m)
