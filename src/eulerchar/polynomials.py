"""Dense univariate polynomials in one format: lists of coefficients, low
to high.

Degrees in this package stay small (at most (p**2 - 1)/2 for division
polynomials), so a dense coefficient list is the right representation.
A list of ints is a polynomial over the integers, such as psi_n of an
integral model, and, read mod ell, one over F_ell: `poly_mul` and
`poly_sub` compute in Z, and the helpers below reduce them and take gcds
over F_ell.  `residue_roots` counts the roots in F_{ell^f} of a polynomial
of degree at most 3 and finds its multiple root.  `rational_roots` finds
the rational roots of an integer list by lifting its roots in F_ell to
ell-adic precision past Cauchy's bound and testing one candidate per root
exactly.
"""

from __future__ import annotations

from fractions import Fraction


# `bench/tracing.py` reads `.degree` off the first argument of
# `rational_roots`, so psi_n keeps this list subclass until ROADMAP item 1
# (the next change to the benchmark).
class Polynomial(list):
    """A trimmed integer coefficient list, low to high, with its degree."""

    @property
    def degree(self) -> int:
        return len(self) - 1


def _trim(coeffs: list) -> list:
    """coeffs without its trailing zeros, in place; one coefficient stays."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(*factors) -> list:
    """The product of dense polynomials given low-to-high, trimmed; [1] for
    no factors."""
    out = [1]
    for b in factors:
        prod = [0] * (len(out) + len(b) - 1)
        for i, a in enumerate(out):
            if a:
                for j, c in enumerate(b):
                    prod[i + j] += a * c
        out = prod
    return _trim(out)


def poly_sub(a, b) -> list:
    """a - b of dense polynomials given low-to-high, trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


# -- polynomials over F_p as integer lists, low-to-high ---------------------------


def _poly_rem_mod_p(num, den: list[int], p: int) -> list[int]:
    """Remainder of dense integer polys over F_p, trimmed; den is monic."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd]
        if c:
            for j in range(dd + 1):
                num[k + j] = (num[k + j] - c * den[j]) % p
    return _trim(num)


def _poly_gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of dense integer polynomials over F_p."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b != [0]:
        lead_inv = pow(b[-1], -1, p)
        monic = [c * lead_inv % p for c in b]
        a, b = monic, _poly_rem_mod_p(a, monic, p)
    return a


def _frobenius_minus_x_mod_p(q: int, modulus: list[int], p: int) -> list[int]:
    """x^q - x modulo a monic modulus over F_p, trimmed, by square and
    multiply."""
    h, base = [1], [0, 1]
    while q:
        if q & 1:
            h = _poly_rem_mod_p(poly_mul(h, base), modulus, p)
        base = _poly_rem_mod_p(poly_mul(base, base), modulus, p)
        q >>= 1
    return _poly_rem_mod_p(poly_sub(h, [0, 1]), modulus, p)


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

    A squarefree P has r1 roots in F_ell.  A quadratic has 2 or 0: in odd
    characteristic by a square test on its discriminant (`is_square`), and
    in characteristic 2 by the parity of c, as a monic T^2 + b T + c has b
    odd there, so P(0) = P(1) = c.  A cubic has deg gcd(P, x^ell - x), at
    O(log ell) polynomial products.  Whatever the degree, the rest of P is
    at most one irreducible factor, of degree k = deg P - r1, whose k roots
    lie in F_{ell^f} exactly when k divides f.
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
        # both roots or none lie in F_ell: in characteristic 2 when c is even
        r1 = 2 * (c % 2 == 0 if ell == 2 else is_square(disc, ell))
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
        r1 = len(_poly_gcd_mod_p(monic, _frobenius_minus_x_mod_p(ell, monic, ell), ell)) - 1
    k = degree - r1
    return (degree if k and f % k == 0 else r1), None


def _eval_mod(coeffs: list[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def rational_roots(coeffs: list[int], ell: int) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with integer coefficients
    coeffs, low to high, each listed once, in increasing order, by ell-adic
    lifting (Cohen, GTM 138, 3.5); an empty or zero list raises ValueError.

    Roots at zero are split off first.  What is left is
    P = a_0 + ... + a_n x^n.  ell must not divide a_n, and P must be
    squarefree mod ell (gcd(P, P') = 1 in F_ell[x]); otherwise ValueError.
    Every rational root then reduces to a simple root of P in F_ell (found
    by a scan, O(ell n)), and Newton lifting carries that root to r mod
    ell^k with ell^k > 2B, where B = |a_n| + max_{i<n} |a_i|.  For a
    rational root x, a_n x is an integer of absolute value at most B
    (Cauchy's bound), so it is the symmetric residue y of a_n r mod ell^k.
    y / a_n is kept when sum a_i y^i a_n^(n-i) = 0, in exact integer
    arithmetic.
    """
    if not any(coeffs):
        raise ValueError("zero polynomial has every rational as a root")
    ints = _trim(list(coeffs))
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints.pop(0)
    if len(ints) == 1:
        return roots
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
