"""Exact arithmetic in the integers of totally ramified extensions of Q_ell.

Every field is Q_ell(pi) for a root pi of one Eisenstein shape,

    g(x) = x^e - c,    pi^e = c,

with residue field F_ell, whose elements are the integers 0, ..., ell - 1.
c = -ell at the cyclotomic layer e = ell - 1 > 1, and c = ell for e = 1
and every other tame e, gcd(e, ell) = 1.  Wildly ramified fields are
rejected.  There is no unramified layer.  Tate's algorithm runs on a curve
over Q and every choice it makes is canonical, so each residue it takes
lies in F_ell whatever the residue degree f of the place; f enters only
through q = ell^f (see `tate`).  Tate's algorithm walks its step ladder
in these rings at residue characteristic 2 and 3 only; above that it reads
valuations of rational integers, and the ladder over general e serves the
tests as its oracle.

The ladder computes on values of the ring through the field: `embed`,
`embed_model`, `shift`, `val_at_least`, `valuation` and `residue`.  At
e = 1, where pi = ell and Z[pi] = Z, a value is a plain int and each of
these is one integer operation; only at e > 1 is it a `LocalElement`.
A value is never both: the field's `embed` picks the representation, and
ring operations between values and ints keep it.

x^(ell-1) + ell defines Q_ell(mu_ell): for zeta a primitive ell-th root
of unity, (zeta - 1)^(ell-1) / (-ell) is a unit congruent to 1 mod
zeta - 1, so it has an (ell-1)-th root by Hensel's lemma, and
Q_ell(mu_ell) = Q_ell((-ell)^(1/(ell-1))) (Washington, *Cyclotomic
Fields*; ell x + x^ell is the [ell]-series of a Lubin-Tate group).  Local
data depends only on the field, so this pi serves as well as zeta - 1.

Elements live in the global ring Z[pi] = Z[x]/(g): a tuple of e Python
integers, the coefficients of 1, pi, ..., pi^(e-1).  Nothing is truncated.
The powers pi^i, 0 <= i < e, have distinct valuations mod e, so

    v(c_0 + c_1 pi + ... + c_(e-1) pi^(e-1)) = min(e v_ell(c_i) + i)

holds exactly, and zero alone has infinite valuation.  A product folds its
high half back through pi^e = c.  A shift by pi^k, k = q e + r with
0 <= r < e, is a rotation of the coefficients by r, the wrapped ones
multiplied by c, then a scaling by c^q = (+-ell)^q, which for q < 0 is an
exact division once pi^(-k) is known to divide.  A field holds only ell,
e, c and the tuple of 1, so `make_local_field` builds one afresh on every
call.  The `LocalElement`s of Z[pi] at e = 1 stay reachable through
`zero`, `one` and `pi`, and the tests run the ladder on them as the oracle
of its integer values.
"""

from __future__ import annotations

from math import gcd, inf

from .valuations import int_valuation, is_prime


class LocalField:
    """Z[pi]/(pi^e - c) for the Eisenstein polynomial chosen above."""

    # `bench/tracing.py` reads `K.precision` and `precision_used` to count
    # retries at doubled precision, of which there are none; ROADMAP item 1
    # (the next change to the benchmark) removes both attributes.
    precision = 1

    def __init__(self, ell: int, e: int):
        if gcd(e, ell) != 1:
            raise ValueError(
                f"wildly ramified non-cyclotomic extension rejected (e={e}, ell={ell})"
            )
        self.ell = ell
        self.e = e
        # pi^e = c
        self.c = -ell if e == ell - 1 > 1 else ell
        self._one = (1,) + (0,) * (e - 1)

    # -- coefficient tuples: c_0 + c_1 pi + ... + c_(e-1) pi^(e-1) ----------------

    def _mul(self, A, B) -> tuple:
        e = self.e
        if e == 1:
            return (A[0] * B[0],)
        prod = [0] * (2 * e)
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B):
                    prod[i + j] += a * b
        c = self.c
        return tuple(prod[k] + c * prod[k + e] for k in range(e))

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

    # -- element constructors ----------------------------------------------------

    def zero(self) -> "LocalElement":
        return LocalElement(self, (0,) * self.e)

    def one(self) -> "LocalElement":
        return LocalElement(self, self._one)

    def pi(self) -> "LocalElement":
        return self.one().shift_pi(1)

    # -- values: ints at e = 1, LocalElements at e > 1 ----------------------------

    def embed(self, n: int):
        """The value of a rational integer; v = e * v_ell(n)."""
        return n if self.e == 1 else LocalElement(self, (n,) + (0,) * (self.e - 1))

    def embed_model(self, coeffs) -> list:
        """The values of the a-invariants of a model over Q, which are
        integers."""
        return [self.embed(c) for c in coeffs]

    def shift(self, x, k: int):
        """x pi^k, exact; for k < 0, pi^(-k) must divide x."""
        if type(x) is not int:
            return x.shift_pi(k)
        if k >= 0:
            return x * self.ell**k
        if x % self.ell**-k:
            raise ValueError(f"not divisible by pi^{-k}")
        return x // self.ell**-k

    def val_at_least(self, x, k: int) -> bool:
        """v(x) >= k."""
        if type(x) is not int:
            return x.val_at_least(k)
        return k <= 0 or x % self.ell**k == 0

    def valuation(self, x) -> int | float:
        """pi-adic valuation; math.inf for zero."""
        if type(x) is not int:
            return x.valuation()
        return int_valuation(x, self.ell) if x else inf

    def residue(self, x) -> int:
        """Residue in F_ell, as an integer in [0, ell)."""
        return x % self.ell if type(x) is int else x.residue()

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
        """Exact multiplication by pi^k = c^q pi^r, k = q e + r, 0 <= r < e.
        For k < 0 the element must be divisible by pi^(-k); then the rotation
        leaves every coefficient divisible by ell^(-q)."""
        F = self.field
        A = self.coeffs
        if k < 0 and not F._val_at_least(A, -k):
            raise ValueError(f"not divisible by pi^{-k}")
        q, r = divmod(k, F.e)
        c = F.c
        A = tuple(c * a for a in A[F.e - r :]) + A[: F.e - r]
        if q > 0:
            scale = c**q
            A = tuple(a * scale for a in A)
        elif q < 0:
            scale = c**-q
            A = tuple(a // scale for a in A)
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


def make_local_field(ell: int, e: int) -> LocalField:
    """The local field of residue characteristic ell and ramification e.

    For e > 1, e = ell - 1 is the first cyclotomic layer Q_ell(mu_ell),
    defined by x^(ell-1) + ell; any other e needs gcd(e, ell) = 1 (tame,
    defined by x^e - ell), and wildly ramified requests are rejected.  A
    field holds no mutable state.
    """
    if not is_prime(ell):
        raise ValueError(f"residue characteristic must be prime, got {ell}")
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    return LocalField(ell, e)
