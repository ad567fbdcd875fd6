"""Dense univariate polynomials: over the integers or the rationals as
`Polynomial`, and over F_ell as integer coefficient lists.

Degrees in this package stay small (at most (p**2 - 1)/2 for division
polynomials), so a dense coefficient list is the right representation.
Over F_ell a polynomial is a list of ints low-to-high; the helpers below
reduce, multiply and take gcds of such lists, and `residue_roots` counts
the roots in F_{ell^f} of one of degree at most 3 and finds its multiple
root.  `rational_roots` finds the rational roots of a `Polynomial` by
lifting its roots in F_ell to ell-adic precision past Cauchy's bound and
testing one candidate per root exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

class Polynomial:
    """Integer or rational coefficients, low-to-high degree, with trailing
    zeros trimmed; the zero polynomial keeps a single zero coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
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
            return Polynomial([1])
        return result

    def __repr__(self):
        return f"Polynomial({self.coeffs})"


# -- polynomials over F_p as integer lists, low-to-high ---------------------------


def _poly_rem_mod_p(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of dense integer polys over F_p, trimmed; den is monic."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd]
        if c:
            for j in range(dd + 1):
                num[k + j] = (num[k + j] - c * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _poly_gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of dense integer polynomials over F_p."""

    def strip(x):
        x = [c % p for c in x]
        while len(x) > 1 and x[-1] == 0:
            x.pop()
        return x

    a, b = strip(a), strip(b)
    while b != [0]:
        lead_inv = pow(b[-1], p - 2, p)
        monic = [c * lead_inv % p for c in b]
        a, b = monic, strip(_poly_rem_mod_p(a, monic, p))
    return a


def _poly_mulmod_mod_p(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem_mod_p(prod, modulus, p)


def _x_powmod_mod_p(exponent: int, modulus: list[int], p: int) -> list[int]:
    acc = [1]
    base = [0, 1]
    while exponent:
        if exponent & 1:
            acc = _poly_mulmod_mod_p(acc, base, modulus, p)
        base = _poly_mulmod_mod_p(base, base, modulus, p)
        exponent >>= 1
    return acc


def _frobenius_minus_x_mod_p(q: int, modulus: list[int], p: int) -> list[int]:
    """x^q - x modulo a monic modulus over F_p, trimmed."""
    h = _x_powmod_mod_p(q, modulus, p)
    h += [0] * (2 - len(h))
    h[1] = (h[1] - 1) % p
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return h


def is_square(r: int, ell: int, f: int = 1) -> bool:
    """Is the residue r, nonzero mod the prime ell, a square in F_{ell^f}?
    Every element of F_ell is one when f is even; for odd f, Euler's
    criterion, whose exponent is 0 at ell = 2, where every element is one."""
    return f % 2 == 0 or pow(r, (ell - 1) // 2, ell) == 1


def residue_roots(coeffs: list[int], ell: int, f: int) -> tuple[int, int | None]:
    """(roots, multiple) of a polynomial P over F_ell of degree at most 3,
    given as integer coefficients low-to-high whose leading one is nonzero
    mod ell, with f >= 1; otherwise ValueError.  roots counts the distinct
    roots of P in F_{ell^f}; multiple is P's multiple root in [0, ell), or
    None when P is squarefree, i.e. its discriminant is nonzero mod ell.

    A squarefree quadratic in odd characteristic has 2 roots in F_{ell^f}
    when its discriminant is a square there (`is_square`) and 0 otherwise.
    Any other squarefree P has r1 roots in F_ell (P(0) = P(1) = c for a
    monic T^2 + b T + c in characteristic 2, else deg gcd(P, x^ell - x),
    at O(log ell) polynomial products) and at most one irreducible factor,
    of degree k = deg P - r1, whose k roots lie in F_{ell^f} exactly when k
    divides f.
    A multiple root lies in the perfect field F_ell, as the sole root of
    gcd(P, P'), and has a closed form in every characteristic: Frobenius
    fixes F_ell, so the square roots of characteristic 2 and the cube roots
    of characteristic 3 below are the identity.  The cost is independent of f.
    """
    if f < 1:
        raise ValueError(f"residue degree {f} is not positive")
    lead = coeffs[-1] % ell
    if lead == 0:
        raise ValueError(f"leading coefficient {coeffs[-1]} vanishes mod {ell}")
    degree = len(coeffs) - 1
    if degree > 3:
        raise ValueError(f"degree {degree} exceeds 3")
    if degree < 2:
        return degree, None
    lead_inv = pow(lead, -1, ell)
    monic = [c * lead_inv % ell for c in coeffs]
    if degree == 2:
        c, b = monic[0], monic[1]
        disc = b * b - 4 * c
        if disc % ell == 0:
            # the double root squares to c in characteristic 2, else it is -b/2
            return 1, c if ell == 2 else -b * pow(2, -1, ell) % ell
    else:
        c, b, a = monic[:3]
        disc = 18 * a * b * c - 4 * a * a * a * c + a * a * b * b - 4 * b * b * b - 27 * c * c
        if disc % ell == 0:
            # a double root leaves 2 distinct roots, a triple one 1
            if ell == 2:
                # P' = T^2 + b, so the multiple root squares to b; triple iff b = a^2
                roots, r = (1, a) if (b - a * a) % 2 == 0 else (2, b)
            else:
                hessian = a * a - 3 * b  # (double root - simple root)^2 when disc = 0
                if hessian % ell:
                    roots, r = 2, (9 * c - a * b) * pow(2 * hessian, -1, ell)
                elif ell == 3:
                    roots, r = 1, -c
                else:
                    roots, r = 1, -a * pow(3, -1, ell)
            r %= ell
            if (((r + a) * r + b) * r + c) % ell:
                raise AssertionError("cubic multiple-root formulas failed")
            return roots, r
    if degree == 2 and ell > 2:
        return (2 if is_square(disc, ell, f) else 0), None
    if degree == 2:
        # b is odd, as P is squarefree, so P(0) = P(1) = c
        r1 = 0 if c % 2 else 2
    else:
        r1 = len(_poly_gcd_mod_p(monic, _frobenius_minus_x_mod_p(ell, monic, ell), ell)) - 1
    k = degree - r1
    return (degree if k and f % k == 0 else r1), None


def _eval_mod(coeffs: list[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def rational_roots(poly: Polynomial, ell: int) -> list[Fraction]:
    """All rational roots of a nonzero polynomial over Q, each listed once,
    in increasing order, by ell-adic lifting (Cohen, GTM 138, 3.5).

    Roots at zero are split off first.  What is left, with denominators
    cleared, is P = a_0 + ... + a_n x^n over the integers.  ell must not
    divide a_n, and P must be squarefree mod ell (gcd(P, P') = 1 in
    F_ell[x]); otherwise ValueError.  Every rational root then reduces to a
    simple root of P in F_ell (found by a scan, O(ell n)), and Newton
    lifting carries that root to r mod ell^k with ell^k > 2B, where
    B = |a_n| + max_{i<n} |a_i|.  For a rational root x, a_n x is an integer
    of absolute value at most B (Cauchy's bound), so it is the symmetric
    residue y of a_n r mod ell^k.  y / a_n is kept when
    sum a_i y^i a_n^(n-i) = 0, in exact integer arithmetic.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    coeffs = list(poly.coeffs)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) == 1:
        return roots
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    an = ints[-1]
    if an % ell == 0:
        raise ValueError(f"leading coefficient {an} vanishes mod {ell}")
    derivative = [i * c for i, c in enumerate(ints)][1:]
    if len(_poly_gcd_mod_p(ints, derivative, ell)) > 1:
        raise ValueError(f"polynomial is not squarefree mod {ell}")
    bound = 2 * (abs(an) + max(abs(c) for c in ints[:-1]))
    for r in range(ell):
        if _eval_mod(ints, r, ell):
            continue
        modulus = ell
        while modulus <= bound:
            modulus *= modulus
            step = _eval_mod(ints, r, modulus) * pow(_eval_mod(derivative, r, modulus), -1, modulus)
            r = (r - step) % modulus
        y = an * r % modulus
        if 2 * y > modulus:
            y -= modulus
        acc, scale = 0, 1
        for c in reversed(ints):
            acc = acc * y + c * scale
            scale *= an
        if acc == 0:
            roots.append(Fraction(y, an))
    return sorted(roots)
