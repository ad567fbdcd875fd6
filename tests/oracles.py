"""Brute-force oracles for the tests.

`brute_count` enumerates the x-fibers of a Weierstrass model over its whole
field F_q, with no reference to Frobenius, so it checks the library's
F_ell count plus trace recurrence on any model, including those over
extension fields.  Its cost is O(q) field operations: keep q small.
"""

from __future__ import annotations

from eulerchar.curves import WeierstrassModel


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
