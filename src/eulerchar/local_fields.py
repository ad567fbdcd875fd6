"""Truncated exact arithmetic in totally ramified extensions of Q_ell.

A field is Z_ell[pi]/(g(pi)) for an Eisenstein g of degree e, with residue
field F_ell, whose elements are the integers 0, ..., ell - 1:

  * e = 1: g(x) = x - ell,
  * the cyclotomic layer e = ell - 1: g(x) = ((1+x)^ell - 1)/x, so that
    pi corresponds to zeta_ell - 1 and the field is Q_ell(mu_ell),
  * any other tame e, gcd(e, ell) = 1: g(x) = x^e - ell.

There is no unramified layer.  Tate's algorithm runs on a curve over Q and
every choice it makes is canonical, so each residue it takes lies in F_ell
whatever the residue degree f of the place; f enters only through
q = ell^f (see `tate`).

Elements are stored as e integers modulo ell^M, the coefficients of
1, pi, ..., pi^(e-1), together with a power-of-pi shift and a precision
marker.  No operation ever reports digits beyond the marker; valuation
queries that cannot be certified raise PrecisionError (the
INDISTINGUISHABLE-FROM-ZERO signal), and callers retry at higher precision.
Fields are memoized per (ell, e, precision) by `make_local_field`.

Key identity used throughout: pi^e = ell * U for the precomputed unit
U = -(g_0/ell + g_1/ell x + ... + g_{e-1}/ell x^(e-1)), which lets both
embeddings of Q and exact divisions by powers of pi avoid any inexact step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd

from .valuations import int_valuation, is_prime, vp

_BIG = 1 << 62  # stands in for +infinity in tensor-valuation bookkeeping


class PrecisionError(ArithmeticError):
    """All known digits vanish (or a query exceeds known precision)."""


class LocalField:
    """A totally ramified extension of Q_ell of degree e, with residue field
    F_ell, at working precision N pi-adic digits."""

    def __init__(self, ell: int, e: int, precision: int):
        self.ell = ell
        self.e = e
        self.precision = precision
        # store M ell-adic digits per coefficient; slack absorbs carries
        self.M = max(-(-precision // e), 2) + 4
        self.modulus = ell**self.M
        self.tprec_max = e * self.M

        if e == 1:
            g = [-ell, 1]
        elif e == ell - 1:
            g = [comb(ell, k) for k in range(1, ell + 1)]
        elif gcd(e, ell) == 1:
            g = [-ell] + [0] * (e - 1) + [1]
        else:
            raise ValueError(
                f"wildly ramified non-cyclotomic extension rejected (e={e}, ell={ell})"
            )
        self.eisenstein = tuple(g)

        # x^e = -(g_0 + ... + g_{e-1} x^{e-1})
        self._x_e = tuple(-g[i] % self.modulus for i in range(e))
        # pi^e = ell * U with U a unit
        self._unit_u = tuple(-(g[i] // ell) % self.modulus for i in range(e))
        self._pi_tensor = self._monomial_tensor(1) if e > 1 else self._int_tensor(ell)
        self._pi_pow_cache: dict[int, tuple] = {}

    @cached_property
    def _unit_u_inv(self):
        """U^(-1), by Newton iteration on first use: a field that serves only
        good or multiplicative places never divides by pi."""
        return self._tensor_inv_unit(self._unit_u)

    # -- tensor arithmetic: e integers mod ell^M, coefficients of pi^0..pi^(e-1)

    def _monomial_tensor(self, r: int):
        return tuple(1 if i == r else 0 for i in range(self.e))

    def _int_tensor(self, n: int):
        return (n % self.modulus,) + (0,) * (self.e - 1)

    def _tensor_add(self, A, B):
        mod = self.modulus
        return tuple((a + b) % mod for a, b in zip(A, B))

    def _tensor_neg(self, A):
        mod = self.modulus
        return tuple(-a % mod for a in A)

    def _tensor_mul(self, A, B):
        e, mod = self.e, self.modulus
        prod = [0] * (2 * e - 1)
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B):
                    prod[i + j] += a * b
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % mod
            if c:
                for j, x in enumerate(self._x_e):
                    prod[k - e + j] += c * x
        return tuple(c % mod for c in prod[:e])

    def _tensor_pow(self, A, n: int):
        result = self._monomial_tensor(0)
        base = A
        while n:
            if n & 1:
                result = self._tensor_mul(result, base)
            base = self._tensor_mul(base, base)
            n >>= 1
        return result

    def _tensor_val(self, A) -> int:
        """pi-adic valuation of a tensor; _BIG when zero mod ell^M."""
        best = _BIG
        for i, c in enumerate(A):
            if c:
                v = self.e * int_valuation(c, self.ell) + i
                if v < best:
                    best = v
        return best

    def _tensor_x_power(self, A, d: int):
        """Multiply a tensor by pi^d (d >= 0) inside the tensor."""
        if d == 0:
            return A
        cached = self._pi_pow_cache.get(d)
        if cached is None:
            cached = self._tensor_pow(self._pi_tensor, d)
            if len(self._pi_pow_cache) < 256:
                self._pi_pow_cache[d] = cached
        return self._tensor_mul(A, cached)

    def _tensor_scale_int(self, A, n: int):
        mod = self.modulus
        return tuple(c * n % mod for c in A)

    def _tensor_sub_from_two(self, A):
        return self._tensor_add(self._int_tensor(2), self._tensor_neg(A))

    def _tensor_inv_unit(self, A):
        """Inverse of a unit tensor (valuation 0) by Newton iteration."""
        res = A[0] % self.ell
        if res == 0:
            raise PrecisionError("cannot invert an element with zero residue")
        y = self._int_tensor(pow(res, -1, self.ell))
        steps, digits = 1, 1
        while digits < self.tprec_max:
            digits *= 2
            steps += 1
        for _ in range(steps):
            y = self._tensor_mul(y, self._tensor_sub_from_two(self._tensor_mul(A, y)))
        return y

    def _tensor_scale_down(self, A, q: int):
        """Divide every integer entry by ell^q (entries must be divisible)."""
        d = self.ell**q
        if any(c % d for c in A):
            raise PrecisionError("inexact division by a power of ell")
        return tuple(c // d for c in A)

    def _tensor_extract_unit(self, A, tv: int):
        """Tensor of A / pi^tv, given the certified tensor valuation tv."""
        q, r = divmod(tv, self.e)
        out = A
        if q:
            out = self._tensor_mul(out, self._tensor_pow(self._unit_u_inv, q))
            out = self._tensor_scale_down(out, q)
        if r:
            # divide by pi^r: multiply by pi^(e-r) / (ell * U)
            out = self._tensor_mul(out, self._tensor_pow(self._pi_tensor, self.e - r))
            out = self._tensor_mul(out, self._unit_u_inv)
            out = self._tensor_scale_down(out, 1)
        return out

    # -- element constructors ----------------------------------------------------

    def zero(self) -> "LocalElement":
        return LocalElement(self, (0,) * self.e, 0, self.tprec_max)

    def one(self) -> "LocalElement":
        return LocalElement(self, self._monomial_tensor(0), 0, self.tprec_max)

    def pi(self) -> "LocalElement":
        return LocalElement(self, self._pi_tensor, 0, self.tprec_max)

    def from_residue(self, a: int) -> "LocalElement":
        """The lift of a residue in F_ell to an integer in [0, ell)."""
        return LocalElement(self, self._int_tensor(a % self.ell), 0, self.tprec_max)

    def embed(self, x: Fraction | int) -> "LocalElement":
        """Embedding of Q, exact to working precision; val = e * v_ell(x)."""
        x = Fraction(x)
        if x == 0:
            return self.zero()
        k = vp(x, self.ell)
        unit = x / Fraction(self.ell) ** k
        tensor = self._int_tensor(unit.numerator)
        if unit.denominator != 1:
            den = self._int_tensor(unit.denominator)
            tensor = self._tensor_mul(tensor, self._tensor_inv_unit(den))
        if k > 0:
            # ell^k = pi^(e k) U^(-k)
            tensor = self._tensor_mul(tensor, self._tensor_pow(self._unit_u_inv, k))
        elif k < 0:
            tensor = self._tensor_mul(tensor, self._tensor_pow(self._unit_u, -k))
        return LocalElement(self, tensor, self.e * k, self.tprec_max)

    def embed_model(self, coeffs):
        return [self.embed(c) for c in coeffs]

    def __repr__(self):
        kind = "tame"
        if self.e == 1:
            kind = "unramified"
        elif self.e == self.ell - 1:
            kind = "cyclotomic"
        return f"LocalField(ell={self.ell}, e={self.e}, N={self.precision}, {kind})"


class LocalElement:
    """value = pi^shift * tensor, certified modulo pi^(shift + tprec)."""

    __slots__ = ("field", "tensor", "shift", "tprec")

    def __init__(self, field: LocalField, tensor, shift: int, tprec: int):
        self.field = field
        self.tensor = tensor
        self.shift = shift
        self.tprec = min(tprec, field.tprec_max)

    @property
    def abs_prec(self) -> int:
        return self.shift + self.tprec

    def _vbar(self) -> int:
        """A certified lower bound for the tensor valuation."""
        return min(self.field._tensor_val(self.tensor), self.tprec)

    # -- ring operations -------------------------------------------------------

    def _align(self, other: "LocalElement"):
        F = self.field
        s = min(self.shift, other.shift)

        def lowered(x: "LocalElement"):
            d = x.shift - s
            if d == 0:
                return x.tensor, x.tprec
            return F._tensor_x_power(x.tensor, d), min(x.tprec + d, F.tprec_max)

        t1, p1 = lowered(self)
        t2, p2 = lowered(other)
        return s, t1, p1, t2, p2

    def __add__(self, other: "LocalElement") -> "LocalElement":
        F = self.field
        if isinstance(other, int):
            other = F.embed(other)
        if F is not other.field:
            raise ValueError("elements of different local fields")
        s, t1, p1, t2, p2 = self._align(other)
        return LocalElement(F, F._tensor_add(t1, t2), s, min(p1, p2))

    __radd__ = __add__

    def __neg__(self) -> "LocalElement":
        return LocalElement(self.field, self.field._tensor_neg(self.tensor), self.shift, self.tprec)

    def __sub__(self, other) -> "LocalElement":
        if isinstance(other, int):
            other = self.field.embed(other)
        return self + (-other)

    def __rsub__(self, other) -> "LocalElement":
        return (-self) + self.field.embed(other)

    def __mul__(self, other) -> "LocalElement":
        F = self.field
        if isinstance(other, int):
            if other == 0:
                return F.zero()
            extra = F.e * int_valuation(other, F.ell)
            return LocalElement(
                F,
                F._tensor_scale_int(self.tensor, other),
                self.shift,
                min(self.tprec + extra, F.tprec_max),
            )
        if F is not other.field:
            raise ValueError("elements of different local fields")
        v1, v2 = self._vbar(), other._vbar()
        tprec = min(self.tprec + v2, other.tprec + v1, F.tprec_max)
        return LocalElement(
            F, F._tensor_mul(self.tensor, other.tensor), self.shift + other.shift, tprec
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LocalElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_pi(self, k: int) -> "LocalElement":
        """Exact multiplication by pi^k (k of either sign)."""
        if k == 0:
            return self
        e = self.field.e
        q, r = divmod(k, e)  # floor division keeps r in [0, e)
        tensor = self.field._tensor_x_power(self.tensor, r) if r else self.tensor
        return LocalElement(
            self.field,
            tensor,
            self.shift + e * q,
            min(self.tprec + r, self.field.tprec_max),
        )

    def inverse(self) -> "LocalElement":
        F = self.field
        tv = F._tensor_val(self.tensor)
        if tv >= self.tprec:
            raise PrecisionError("cannot invert: indistinguishable from zero")
        unit = F._tensor_extract_unit(self.tensor, tv)
        q, r = divmod(tv, F.e)
        digits_used = q + (1 if r else 0)
        unit_tprec = min(self.tprec - tv, F.e * (F.M - digits_used))
        inv = F._tensor_inv_unit(unit)
        return LocalElement(F, inv, -(self.shift + tv), unit_tprec)

    def __truediv__(self, other) -> "LocalElement":
        if isinstance(other, int):
            other = self.field.embed(other)
        return self * other.inverse()

    # -- valuation and residue ---------------------------------------------------

    def valuation(self) -> int:
        """Certified pi-adic valuation; raises PrecisionError when all known
        digits vanish."""
        tv = self.field._tensor_val(self.tensor)
        if tv >= self.tprec:
            raise PrecisionError(
                f"valuation exceeds known precision ({self.abs_prec} pi-digits)"
            )
        return self.shift + tv

    def val_at_least(self, k: int) -> bool:
        """Certified test v(x) >= k.  Requires k <= known precision."""
        tv = self.field._tensor_val(self.tensor)
        if tv < self.tprec:
            return self.shift + tv >= k
        if k <= self.abs_prec:
            return True
        raise PrecisionError(f"cannot certify v(x) >= {k} at precision {self.abs_prec}")

    def is_zero_to_precision(self) -> bool:
        return self.field._tensor_val(self.tensor) >= self.tprec

    def unit_residue(self) -> int:
        """Residue of x * pi^(-v(x)), as an integer in [0, ell)."""
        F = self.field
        tv = F._tensor_val(self.tensor)
        if tv >= self.tprec:
            raise PrecisionError("indistinguishable from zero")
        return F._tensor_extract_unit(self.tensor, tv)[0] % F.ell

    def residue(self) -> int:
        """Residue in F_ell of an integral element, as an integer in
        [0, ell)."""
        if self.is_zero_to_precision():
            if self.abs_prec >= 1:
                return 0
            raise PrecisionError("residue unknown at this precision")
        v = self.valuation()
        if v < 0:
            raise ValueError("residue of a non-integral element")
        if v > 0:
            return 0
        return self.unit_residue()

    def __repr__(self):
        try:
            v = self.valuation()
            return f"LocalElement(val={v}, prec={self.abs_prec})"
        except PrecisionError:
            return f"LocalElement(O(pi^{self.abs_prec}))"


@lru_cache(maxsize=128)
def make_local_field(ell: int, e: int, precision: int) -> LocalField:
    """Deterministic local field object, memoized per argument tuple.

    For e > 1, e = ell - 1 is the first cyclotomic layer Q_ell(mu_ell);
    any other e needs gcd(e, ell) = 1 (tame, defined by x^e - ell), and
    wildly ramified requests are rejected.  Every call with the same
    arguments returns the same field, whose only mutable state is a cache
    of powers of pi; a precision retry asks for a new precision and so
    builds a new field.
    """
    if not is_prime(ell):
        raise ValueError(f"residue characteristic must be prime, got {ell}")
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    if precision < 2 * e:
        raise ValueError("precision too small to be useful")
    return LocalField(ell, e, precision)
