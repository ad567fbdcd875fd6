"""Brute-force oracles for the tests.

`brute_count` enumerates the x-fibers of a Weierstrass model over its whole
field F_q, with no reference to Frobenius, so it checks the library's
F_ell count plus trace recurrence on any model, including those over
extension fields.  Its cost is O(q) field operations: keep q small.

`lift_model` carries a model over F_ell into an extension field, so that
`brute_count` can count a reduced curve over F_{ell^f} itself.
`roots_in_field` scans F_q for roots of an integer polynomial, against the
library's gcd root count.
`delta_local` evaluates Delta in the exact ring Z[pi], against the
library's v(Delta) = e * v_ell(disc).
`trial_factorize` divides by every d up to sqrt(n), against the library's
trial division plus Pollard rho.  Its cost is O(sqrt(n)): keep n small.
`base_change_rules` gives the textbook reduction data over the unramified
extension of degree f, against Tate's algorithm run with residue degree f.
"""

from __future__ import annotations

from fractions import Fraction

from eulerchar.curves import WeierstrassModel, extension_count
from eulerchar.finite_fields import FqElement, FqField
from eulerchar.local_fields import LocalElement
from eulerchar.tate import (
    GOOD_ORDINARY,
    GOOD_SUPERSINGULAR,
    MULT_NONSPLIT,
    MULT_SPLIT,
    LocalReductionData,
)


def lift_model(model: WeierstrassModel, field: FqField) -> WeierstrassModel:
    """A model over the prime field F_ell, with its coefficients read as
    elements of a field of characteristic ell."""
    return WeierstrassModel(*(field.from_int(c.coords[0]) for c in model.coefficients()))


def roots_in_field(coeffs: list[int], field: FqField) -> list[FqElement]:
    """All roots in the given finite field of the polynomial with integer
    coefficients coeffs (low to high), found by scanning the field.  Roots
    are listed once each, in the field's deterministic element order."""
    lifted = [field.from_int(c) for c in reversed(coeffs)]
    roots = []
    for x in field.elements():
        acc = field.zero()
        for c in lifted:
            acc = acc * x + c
        if acc.is_zero():
            roots.append(x)
    return roots


def delta_local(a: list[LocalElement]) -> LocalElement:
    """Delta of embedded coefficients [a1, a2, a3, a4, a6], computed in the
    local field from the b-invariants."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -(b2 * b2 * b8) - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * (b2 * b4 * b6)


def brute_count(model: WeierstrassModel) -> int:
    """#E(F_q) including infinity, by enumerating every x in F_q."""
    field = model.a1.field
    if field.characteristic == 2:
        return _count_char2(model, field)
    return _count_odd(model, field)


def _count_char2(model: WeierstrassModel, field) -> int:
    """Each fiber y^2 + b y = c has one point when b = 0; otherwise the
    substitution y = b z gives z^2 + z = c / b^2, which has two roots iff
    the absolute trace of c / b^2 vanishes."""
    count = 1
    for x in field.elements():
        b = model.y_line(x)
        c = model.rhs(x)
        if b.is_zero():
            count += 1  # unique square root in characteristic 2
        else:
            w = c / (b * b)
            if field.absolute_trace(w) == 0:
                count += 2
    return count


def _count_odd(model: WeierstrassModel, field) -> int:
    """Completing the square turns each fiber into (y + h/2)^2 = d."""
    squares = {b * b for b in field.elements()}
    inv4 = field.from_int(4).inverse()
    count = 1
    for x in field.elements():
        h = model.y_line(x)
        d = model.rhs(x) + h * h * inv4
        if d.is_zero():
            count += 1
        elif d in squares:
            count += 2
    return count


def trial_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs, by
    trial division up to sqrt(n)."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def base_change_rules(data: LocalReductionData, f: int) -> dict:
    """Reduction data over the unramified extension of degree f of Q_ell,
    from the data over Q_ell by rule: I_n stays I_n, nonsplit becomes split
    iff f is even, good reduction extends its count along the trace
    recurrence, potential good reduction is preserved.  Additive component
    groups are deliberately not ruled."""
    if data.e != 1 or data.f != 1:
        raise ValueError("base_change_rules starts from data over Q_ell")
    q = data.ell**f
    out = {"potentially_good": data.potentially_good, "q_v": q}
    if data.is_good:
        N = extension_count(data.N_v, data.ell, f)
        trace = q + 1 - N
        out.update(
            kodaira=data.kodaira,
            c_v=1,
            N_v=N,
            reduction_class=GOOD_SUPERSINGULAR if trace % data.ell == 0 else GOOD_ORDINARY,
            L_at_1=Fraction(q, N),
        )
    elif data.kodaira.is_multiplicative:
        n = data.kodaira.n
        split = data.reduction_class == MULT_SPLIT or f % 2 == 0
        out.update(
            kodaira=data.kodaira,
            c_v=n if split else (2 if n % 2 == 0 else 1),
            N_v=None,
            reduction_class=MULT_SPLIT if split else MULT_NONSPLIT,
            L_at_1=Fraction(q, q - 1) if split else Fraction(q, q + 1),
        )
    return out
