"""Dense univariate polynomials over the rationals or over a finite field.

Degrees in this package stay small (at most (p**2 - 1)/2 for division
polynomials), so a dense coefficient list is the right representation.
"""

from __future__ import annotations

from fractions import Fraction

from .finite_fields import FqElement, FqField


class Polynomial:
    """Coefficients low-to-high degree with trailing zeros trimmed.

    Coefficients are either all Fraction or all FqElement of one field;
    the zero polynomial keeps a single zero coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        while len(coeffs) > 1 and _is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = coeffs

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and _is_zero(self.coeffs[0])

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial([self.coeffs[0] * other.coeffs[0]])
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod = a * b
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base
            n >>= 1
        if result is None:
            one = self.coeffs[0] - self.coeffs[0]
            return Polynomial([_one_like(self.coeffs[0], one)])
        return result

    def divmod(self, other: "Polynomial"):
        """Division with remainder; coefficient domain must be a field."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        if self.degree < d:
            return Polynomial([self.coeffs[0] - self.coeffs[0]]), Polynomial(rem)
        inv_lead = _invert(other.leading())
        q = [self.coeffs[0] - self.coeffs[0]] * (len(rem) - d)
        for k in range(len(rem) - 1 - d, -1, -1):
            c = rem[k + d] * inv_lead
            if not _is_zero(c):
                q[k] = c
                for j in range(d + 1):
                    rem[k + j] = rem[k + j] - c * other.coeffs[j]
        return Polynomial(q), Polynomial(rem)

    def evaluate(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial([self.coeffs[0] - self.coeffs[0]])
        return Polynomial([c * i for i, c in enumerate(self.coeffs)][1:])

    def map_coefficients(self, fn) -> "Polynomial":
        return Polynomial([fn(c) for c in self.coeffs])

    def __repr__(self):
        return f"Polynomial({self.coeffs})"


def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, FqElement) else c == 0


def _one_like(sample, zero):
    if isinstance(sample, FqElement):
        return sample.field.one()
    return Fraction(1)


def _invert(c):
    if isinstance(c, FqElement):
        return c.inverse()
    return Fraction(1) / c


def poly_from_ints(ints, field: FqField | None = None) -> Polynomial:
    """Integer coefficients into a polynomial over Q or over a finite field."""
    if field is None:
        return Polynomial([Fraction(n) for n in ints])
    return Polynomial([field.from_int(n) for n in ints])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over a coefficient field."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * _invert(a.leading())


def _x_power_q_mod(modulus: Polynomial, q: int) -> Polynomial:
    """x^q modulo the given polynomial, by square and multiply."""
    field = modulus.leading().field
    acc = Polynomial([field.one()])
    base = Polynomial([field.zero(), field.one()])
    while q:
        if q & 1:
            _, acc = (acc * base).divmod(modulus)
        _, base = (base * base).divmod(modulus)
        q >>= 1
    return acc


def count_roots_in_field(poly: Polynomial, q: int) -> int:
    """Number of distinct roots in F_q of a nonzero poly over a finite field
    F_r, for any power q of r: deg gcd(poly, x^q - x), computed in F_r[x],
    which counts exactly the distinct roots rational over F_q, at
    O(log q) polynomial products for any field size.
    """
    field = poly.leading().field
    power = field.order
    while power < q:
        power *= field.order
    if power != q:
        raise ValueError(f"{q} is not a power of the coefficient field order {field.order}")
    xq_minus_x = _x_power_q_mod(poly, q) - Polynomial([field.zero(), field.one()])
    g = poly_gcd(poly, xq_minus_x)
    return max(g.degree, 0)


def _divisors_abs(n: int) -> list[int]:
    """Positive divisors of |n| by trial division up to sqrt."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(poly: Polynomial) -> list[Fraction]:
    """All rational roots of a nonzero polynomial over Q, each listed once.

    Clears denominators and trials s/t with s dividing the constant term
    and t dividing the leading coefficient.  Roots at zero are split off
    first so the divisor trial only sees a nonzero constant term.
    Candidates are evaluated with pure integer arithmetic,
    P(s/t) * t^deg = sum c_i s^i t^(deg-i).
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    coeffs = list(poly.coeffs)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) <= 1:
        return roots
    from math import lcm

    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    a0, an = ints[0], ints[-1]
    seen = set()
    for s in _divisors_abs(a0):
        for t in _divisors_abs(an):
            for sign in (1, -1):
                num = sign * s
                if (num, t) in seen:
                    continue
                # evaluate sum c_i num^i t^(n-i) by Horner in num
                acc = 0
                tp = 1
                for c in reversed(ints):
                    acc = acc * num + c * tp
                    tp *= t
                if acc == 0:
                    cand = Fraction(num, t)
                    if cand not in roots:
                        roots.append(cand)
                        seen.add((num, t))
    return roots
