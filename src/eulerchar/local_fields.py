"""Exact arithmetic in the integers of totally ramified extensions of Q_ell.

A field is Q_ell(pi) for a root pi of an Eisenstein polynomial g of degree
e, with residue field F_ell, whose elements are the integers 0, ..., ell - 1:

  * e = 1: g(x) = x - ell,
  * the cyclotomic layer e = ell - 1: g(x) = ((1+x)^ell - 1)/x, so that
    pi corresponds to zeta_ell - 1 and the field is Q_ell(mu_ell),
  * any other tame e, gcd(e, ell) = 1: g(x) = x^e - ell.

There is no unramified layer.  Tate's algorithm runs on a curve over Q and
every choice it makes is canonical, so each residue it takes lies in F_ell
whatever the residue degree f of the place; f enters only through
q = ell^f (see `tate`).

Elements live in the global ring Z[pi] = Z[x]/(g): a tuple of e Python
integers, the coefficients of 1, pi, ..., pi^(e-1).  Nothing is truncated.
The powers pi^i, 0 <= i < e, have distinct valuations mod e, so

    v(c_0 + c_1 pi + ... + c_(e-1) pi^(e-1)) = min(e v_ell(c_i) + i)

holds exactly, and zero alone has infinite valuation.  pi^e = ell U for
the unit U = -(g_0 + g_1 pi + ... + g_(e-1) pi^(e-1)) / ell of Z[pi],
whose inverse ell / pi^e is integral too (1 for x - ell and x^e - ell, a
cyclotomic unit for the cyclotomic layer), so an exact division by pi^k
keeps integer coefficients: the q e part of k is a product with U^(-q)
and a division of every coefficient by ell^q, and each further step
divides the constant term by g_0 = +-ell.  Fields are memoized per
(ell, e) by `make_local_field`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, inf

from .valuations import int_valuation, is_prime


class LocalField:
    """Z[pi]/(g(pi)) for the Eisenstein polynomial g of degree e over Q_ell
    chosen above."""

    # `bench/tracing.py` reads `K.precision` and `precision_used` to count
    # retries at doubled precision, of which there are none; ROADMAP item 1
    # (the next change to the benchmark) removes both attributes.
    precision = 1

    def __init__(self, ell: int, e: int):
        self.ell = ell
        self.e = e
        if e == 1:
            g = [-ell, 1]
        elif e == ell - 1:
            # C(ell, k) for k = 1..ell, each from the last by one product and one
            # exact division, not by ell separate binomial evaluations
            g = [ell]
            for k in range(1, ell):
                g.append(g[-1] * (ell - k) // (k + 1))
        elif gcd(e, ell) == 1:
            g = [-ell] + [0] * (e - 1) + [1]
        else:
            raise ValueError(
                f"wildly ramified non-cyclotomic extension rejected (e={e}, ell={ell})"
            )
        self.eisenstein = tuple(g)
        # pi^e = -(g_0 + ... + g_(e-1) pi^(e-1)) = ell * U
        self._low = self.eisenstein[:e]
        self._one = (1,) + (0,) * (e - 1)
        self._unit_is_one = g[0] == -ell and not any(g[1:e])

    @cached_property
    def _unit(self) -> tuple:
        """U = pi^e / ell."""
        return tuple(-c // self.ell for c in self._low)

    @cached_property
    def _unit_inv(self) -> tuple:
        """ell / pi^e, by e exact divisions of ell by pi.  Built on first use,
        in O(e^2): a field that serves only good or multiplicative places,
        such as Q_ell(mu_ell) for a large ell, never divides by pi^e."""
        unit_inv = (self.ell,) + (0,) * (self.e - 1)
        for _ in range(self.e):
            unit_inv = self._div_pi(unit_inv)
        return unit_inv

    # -- coefficient tuples: c_0 + c_1 pi + ... + c_(e-1) pi^(e-1) ----------------

    def _mul(self, A, B) -> tuple:
        e = self.e
        if e == 1:
            return (A[0] * B[0],)
        prod = [0] * (2 * e - 1)
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B):
                    prod[i + j] += a * b
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if c:
                for j, x in enumerate(self._low):
                    prod[k - e + j] -= c * x
        return tuple(prod[:e])

    def _power(self, A, n: int) -> tuple:
        result = self._one
        while n:
            if n & 1:
                result = self._mul(result, A)
            A = self._mul(A, A)
            n >>= 1
        return result

    def _val(self, A) -> int | float:
        e, ell = self.e, self.ell
        return min((e * int_valuation(c, ell) + i for i, c in enumerate(A) if c), default=inf)

    def _val_at_least(self, A, k: int) -> bool:
        """v(A) >= k, as ell^ceil((k - i) / e) | c_i for every i."""
        e, ell = self.e, self.ell
        for i, c in enumerate(A):
            need = -((i - k) // e)
            if need > 0 and c % ell**need:
                return False
        return True

    def _times_pi(self, A) -> tuple:
        """A * pi, with the top coefficient folded back through pi^e."""
        top = A[-1]
        return tuple(
            (A[i - 1] if i else 0) - top * x for i, x in enumerate(self._low)
        )

    def _div_pi(self, A) -> tuple:
        """A / pi for ell | c_0, from c_0 / pi = -(c_0 / g_0)(g_1 + ... + pi^(e-1))."""
        g = self.eisenstein
        h, rem = divmod(A[0], g[0])
        if rem:
            raise AssertionError("division by pi of an element of valuation 0")
        return tuple(
            (A[i + 1] if i + 1 < self.e else 0) - h * g[i + 1] for i in range(self.e)
        )

    # -- element constructors ----------------------------------------------------

    def zero(self) -> "LocalElement":
        return LocalElement(self, (0,) * self.e)

    def one(self) -> "LocalElement":
        return LocalElement(self, self._one)

    def pi(self) -> "LocalElement":
        return LocalElement(self, self._times_pi(self._one))

    def unit(self) -> "LocalElement":
        """U = pi^e / ell."""
        return LocalElement(self, self._unit)

    def unit_inverse(self) -> "LocalElement":
        """U^(-1) = ell / pi^e, an integral element."""
        return LocalElement(self, self._unit_inv)

    def embed(self, n: int) -> "LocalElement":
        """The image of a rational integer; v = e * v_ell(n)."""
        return LocalElement(self, (n,) + (0,) * (self.e - 1))

    def embed_model(self, coeffs) -> list["LocalElement"]:
        """The a-invariants of an integral model over Q."""
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("embed_model expects an integral model")
        return [self.embed(c.numerator) for c in coeffs]

    def __repr__(self):
        return f"LocalField(ell={self.ell}, e={self.e})"


class LocalElement:
    """c_0 + c_1 pi + ... + c_(e-1) pi^(e-1) with integer coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: LocalField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> tuple:
        if isinstance(other, int):
            return (other,) + (0,) * (self.field.e - 1)
        if other.field is not self.field:
            raise ValueError("elements of different local fields")
        return other.coeffs

    # -- ring operations -------------------------------------------------------

    def __add__(self, other) -> "LocalElement":
        B = self._coerce(other)
        return LocalElement(self.field, tuple(a + b for a, b in zip(self.coeffs, B)))

    __radd__ = __add__

    def __neg__(self) -> "LocalElement":
        return LocalElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "LocalElement":
        B = self._coerce(other)
        return LocalElement(self.field, tuple(a - b for a, b in zip(self.coeffs, B)))

    def __mul__(self, other) -> "LocalElement":
        if isinstance(other, int):
            return LocalElement(self.field, tuple(a * other for a in self.coeffs))
        return LocalElement(self.field, self.field._mul(self.coeffs, self._coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LocalElement":
        if n < 0:
            raise ValueError("negative powers leave the ring of integers")
        return LocalElement(self.field, self.field._power(self.coeffs, n))

    def __eq__(self, other) -> bool:
        return isinstance(other, (int, LocalElement)) and self.coeffs == self._coerce(other)

    def shift_pi(self, k: int) -> "LocalElement":
        """Exact multiplication by pi^k.  For k < 0 the element must be
        divisible by pi^(-k)."""
        F = self.field
        A = self.coeffs
        if k < 0 and not F._val_at_least(A, -k):
            raise ValueError(f"not divisible by pi^{-k}")
        q, r = divmod(abs(k), F.e)
        if q:
            # pi^(q e) = ell^q U^q
            if not F._unit_is_one:
                A = F._mul(A, F._power(F._unit if k > 0 else F._unit_inv, q))
            scale = F.ell**q
            A = tuple(c * scale if k > 0 else c // scale for c in A)
        step = F._times_pi if k > 0 else F._div_pi
        for _ in range(r):
            A = step(A)
        return LocalElement(F, A)

    # -- valuation and residue ---------------------------------------------------

    def valuation(self) -> int | float:
        """pi-adic valuation; math.inf for zero."""
        return self.field._val(self.coeffs)

    def val_at_least(self, k: int) -> bool:
        return self.field._val_at_least(self.coeffs, k)

    def residue(self) -> int:
        """Residue in F_ell, as an integer in [0, ell)."""
        return self.coeffs[0] % self.field.ell

    def __repr__(self):
        return f"LocalElement({self.coeffs}, val={self.valuation()})"


@lru_cache(maxsize=128)
def make_local_field(ell: int, e: int, /) -> LocalField:
    """Deterministic local field object, memoized per (ell, e): both are
    positional, so every call for a pair hits the same cache entry.

    For e > 1, e = ell - 1 is the first cyclotomic layer Q_ell(mu_ell);
    any other e needs gcd(e, ell) = 1 (tame, defined by x^e - ell), and
    wildly ramified requests are rejected.  A field holds no mutable state.
    """
    if not is_prime(ell):
        raise ValueError(f"residue characteristic must be prime, got {ell}")
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    return LocalField(ell, e)
