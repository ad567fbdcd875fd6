"""Finite fields F_q with q = ell**f, built as F_ell[u]/(modulus).

The modulus is pinned deterministically: the first monic irreducible
polynomial of degree f in increasing integer encoding sum(c_i * ell**i),
so every run produces bit-identical field models.  For f = 1 the modulus
is u itself.

The library builds only F_ell = fq_create(ell, 1), in its one call,
`curves.reduce_model`: every curve it counts lies there, and counts over
F_{ell^f} follow by the Frobenius recurrence.  The extension fields stay as the
model the test oracles count and scan over.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .polynomials import _frobenius_minus_x_mod_p, _poly_gcd_mod_p, _poly_mulmod_mod_p
from .valuations import is_prime


class FqElement:
    """Element of an FqField, stored as f coefficients in {0, ..., ell-1}."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "FqField", coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def _check(self, other: "FqElement"):
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.characteristic
        return FqElement(self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.characteristic
        return FqElement(self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.field.characteristic
        return FqElement(self.field, tuple(-a % p for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.characteristic
            return FqElement(self.field, tuple(a * other % p for a in self.coords))
        self._check(other)
        return FqElement(self.field, self.field._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, n: int):
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

    def inverse(self) -> "FqElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.order - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FqElement)
            and self.field is other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Fq({self.field.characteristic}^{self.field.degree}){list(self.coords)}"


class FqField:
    """Finite field with ell**f elements.

    Arithmetic is polynomial arithmetic modulo (modulus, ell); `fq_create`
    picks the modulus by the Rabin irreducibility test.
    """

    def __init__(self, ell: int, f: int, modulus: tuple[int, ...]):
        self.characteristic = ell
        self.degree = f
        self.order = ell**f
        self.modulus = modulus  # length f+1, monic, low-to-high degree

    # -- construction helpers -------------------------------------------------

    def zero(self) -> FqElement:
        return FqElement(self, (0,) * self.degree)

    def one(self) -> FqElement:
        return self.from_int(1)

    def from_int(self, n: int) -> FqElement:
        coords = [0] * self.degree
        coords[0] = n % self.characteristic
        return FqElement(self, tuple(coords))

    def generator(self) -> FqElement:
        """The class of u (only meaningful for f > 1)."""
        coords = [0] * self.degree
        if self.degree > 1:
            coords[1] = 1
        else:
            coords[0] = 1
        return FqElement(self, tuple(coords))

    def elements(self):
        """Iterate over all q elements, in deterministic coordinate order."""
        p = self.characteristic
        for coords in itertools.product(range(p), repeat=self.degree):
            yield FqElement(self, coords)

    # -- core arithmetic -------------------------------------------------------

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, f = self.characteristic, self.degree
        if f == 1:
            return (a[0] * b[0] % p,)
        rem = _poly_mulmod_mod_p(a, b, self.modulus, p)
        return tuple(rem) + (0,) * (f - len(rem))

    def absolute_trace(self, a: FqElement) -> int:
        """Trace down to the prime field, returned as an integer in [0, ell)."""
        acc = self.zero()
        x = a
        for _ in range(self.degree):
            acc = acc + x
            x = x**self.characteristic
        if any(c != 0 for c in acc.coords[1:]):
            raise AssertionError("trace left the prime field")
        return acc.coords[0]

    def __repr__(self):
        return f"FqField({self.characteristic}^{self.degree})"


def _is_irreducible_mod_p(poly: tuple[int, ...], p: int) -> bool:
    """Irreducibility over F_p of a monic polynomial of degree f >= 2, by
    the Rabin criterion: x^(p^f) = x modulo the polynomial, and
    x^(p^(f/t)) - x is coprime to it for every prime t | f."""
    from .valuations import factorize

    f = len(poly) - 1
    modulus = list(poly)
    for t, _ in factorize(f):
        h = _frobenius_minus_x_mod_p(p ** (f // t), modulus, p)
        if _poly_gcd_mod_p(modulus, h, p) != [1]:
            return False
    return _frobenius_minus_x_mod_p(p**f, modulus, p) == [0]


@lru_cache(maxsize=None)
def fq_create(ell: int, f: int) -> FqField:
    """The finite field with ell**f elements, with deterministic modulus.

    The modulus is the first monic irreducible of degree f when monic
    polynomials are enumerated by increasing integer encoding
    sum(c_i * ell**i) of their non-leading coefficients.
    Raises ValueError for composite ell or f < 1.
    """
    if not is_prime(ell):
        raise ValueError(f"characteristic must be prime, got {ell}")
    if f < 1:
        raise ValueError(f"degree must be >= 1, got {f}")
    if f == 1:
        return FqField(ell, 1, (0, 1))  # modulus u
    for code in range(ell**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % ell)
            c //= ell
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible_mod_p(candidate, ell):
            return FqField(ell, f, candidate)
    raise AssertionError("unreachable: irreducibles of every degree exist")
