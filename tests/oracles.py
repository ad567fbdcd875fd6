"""Brute-force oracles for the tests.

`finite_field(ell, f)` builds F_{ell^f} = F_ell[u]/(modulus) with its
arithmetic: the reference field the counts, root scans and group-law checks
below run on.  The library builds only F_ell, without arithmetic, in
`curves.reduce_model`.  The modulus is pinned deterministically: the first
monic irreducible polynomial of degree f in increasing integer encoding
sum(c_i * ell**i), found by the Rabin test, so every run builds the same
field.  For f = 1 the modulus is u itself.

`brute_count` enumerates the x-fibers of a Weierstrass model over its whole
field F_q, with no reference to Frobenius, so it checks the library's
F_ell count plus trace recurrence on any model, including those over
extension fields.  Its cost is O(q) field operations: keep q small.

`extension_count_linear` steps the Frobenius trace recurrence once per
degree, against the library's O(log k) doubling in `extension_count`.

`lift_model` carries a model over F_ell into an extension field, so that
`brute_count` can count a reduced curve over F_{ell^f} itself.
`roots_in_field` scans F_q for roots of an integer polynomial, against the
library's gcd root count.
`delta_local` evaluates Delta in the exact ring Z[pi], against the
library's v(Delta) = e * v_ell(disc).
`RingField` is the library's `LocalField` with values in Z[pi] at every e:
at e = 1 its values are `LocalElement`s where the library's are plain ints,
so Tate's ladder run on it is the oracle of the integer ladder.  `pi` and
`power` build pi^k and other powers by repeated multiplication, on the
values of either field.
`discriminant` is Delta of an integer model, 0 when it is singular, for
the scans that skip the models whose Delta some ell divides.
`evaluate` is Horner's rule for a coefficient list, low to high, at any
value that adds and multiplies with its coefficients.
`trial_factorize` divides by every d up to sqrt(n), against the library's
trial division plus Pollard rho.  Its cost is O(sqrt(n)): keep n small.
`rational_roots_by_divisors` tries every s/t with s dividing the constant
term and t the leading coefficient, against the library's ell-adic lifting.
Its divisors come by trial division up to the square root: keep both small.
`base_change_rules` gives the textbook reduction data over the unramified
extension of degree f, against Tate's algorithm run with residue degree f.
`tate_normal_form(p, t)` is Kubert's family of curves with a rational point
of order p in {5, 7}, and `smallest_prime_not_dividing(n)` the good prime
that a root lifting or a reduction starts from.

The generic chord-tangent group law, exact over Q and over any FiniteField:
`CurvePoint`, `is_on_curve`, `negate_point`, `add_points`, `scalar_mul` and
`point_order`, with `lift_x_to_points` for the rational points above an x.
It checks Shanks-Mestre, the roots of psi_n and the square test that
accepts a rational root of psi_p as a point of order p.  `transform` is the
general coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t, for the
metamorphic tests of Tate's algorithm and the invariants.  `velu_isogenous`
gives the curve isogenous to a model by Velu's formulas, for the test that
isogenous curves share their isogeny-invariant local data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from eulerchar.curves import (
    WeierstrassModel,
    b_invariants,
    c_invariants,
    extension_count,
    invariants,
)
from eulerchar.polynomials import (
    _frobenius_minus_x_mod_p,
    _poly_gcd_mod_p,
    _poly_rem_mod_p,
    poly_mul,
)
from eulerchar.tate import (
    GOOD_ORDINARY,
    GOOD_SUPERSINGULAR,
    MULT_NONSPLIT,
    MULT_SPLIT,
    LocalElement,
    LocalField,
    LocalReductionData,
)
from eulerchar.valuations import factorize, is_prime, rational_sqrt


# -- finite fields ----------------------------------------------------------------


class FieldElement:
    """Element of a FiniteField, stored as f coefficients in {0, ..., ell-1}."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "FiniteField", coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def _check(self, other: "FieldElement"):
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.characteristic
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.characteristic
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.field.characteristic
        return FieldElement(self.field, tuple(-a % p for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.characteristic
            return FieldElement(self.field, tuple(a * other % p for a in self.coords))
        self._check(other)
        return FieldElement(self.field, self.field._mul(self.coords, other.coords))

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

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.order - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"GF({self.field.characteristic}^{self.field.degree}){list(self.coords)}"


class FiniteField:
    """Finite field with ell**f elements: polynomial arithmetic modulo
    (modulus, ell), with the modulus `finite_field` picks."""

    def __init__(self, ell: int, f: int, modulus: tuple[int, ...]):
        self.characteristic = ell
        self.degree = f
        self.order = ell**f
        self.modulus = modulus  # length f+1, monic, low-to-high degree

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.degree)

    def one(self) -> FieldElement:
        return self.from_int(1)

    def from_int(self, n: int) -> FieldElement:
        coords = [0] * self.degree
        coords[0] = n % self.characteristic
        return FieldElement(self, tuple(coords))

    def generator(self) -> FieldElement:
        """The class of u (only meaningful for f > 1)."""
        coords = [0] * self.degree
        if self.degree > 1:
            coords[1] = 1
        else:
            coords[0] = 1
        return FieldElement(self, tuple(coords))

    def elements(self):
        """Iterate over all q elements, in deterministic coordinate order."""
        p = self.characteristic
        for coords in itertools.product(range(p), repeat=self.degree):
            yield FieldElement(self, coords)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, f = self.characteristic, self.degree
        if f == 1:
            return (a[0] * b[0] % p,)
        rem = _poly_rem_mod_p(poly_mul(a, b), self.modulus, p)
        return tuple(rem) + (0,) * (f - len(rem))

    def absolute_trace(self, a: FieldElement) -> int:
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
        return f"FiniteField({self.characteristic}^{self.degree})"


def _is_irreducible_mod_p(poly: tuple[int, ...], p: int) -> bool:
    """Irreducibility over F_p of a monic polynomial of degree f >= 2, by
    the Rabin criterion: x^(p^f) = x modulo the polynomial, and
    x^(p^(f/t)) - x is coprime to it for every prime t | f."""
    f = len(poly) - 1
    modulus = list(poly)
    for t, _ in factorize(f):
        h = _frobenius_minus_x_mod_p(p ** (f // t), modulus, p)
        if _poly_gcd_mod_p(modulus, h, p) != [1]:
            return False
    return _frobenius_minus_x_mod_p(p**f, modulus, p) == [0]


@lru_cache(maxsize=None)
def finite_field(ell: int, f: int) -> FiniteField:
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
        return FiniteField(ell, 1, (0, 1))  # modulus u
    for code in range(ell**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % ell)
            c //= ell
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible_mod_p(candidate, ell):
            return FiniteField(ell, f, candidate)
    raise AssertionError("unreachable: irreducibles of every degree exist")


# -- counts, roots and local checks -------------------------------------------------


def lift_model(model: WeierstrassModel, field: FiniteField) -> WeierstrassModel:
    """A model over the library's F_ell (a `curves.reduce_model` result),
    with its coefficients read as elements of a field of characteristic ell."""
    return WeierstrassModel(*(field.from_int(c.coords[0]) for c in model.coefficients()))


def roots_in_field(coeffs: list[int], field: FiniteField) -> list[FieldElement]:
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


class RingField(LocalField):
    """Q_ell(pi) whose values are elements of Z[pi] = Z[x]/(x^e - c) at
    every e, e = 1 included: every value the ladder computes is then a
    `LocalElement`, and each field operation is the ring's own."""

    def embed(self, n: int) -> LocalElement:
        return LocalElement(self, (n,) + (0,) * (self.e - 1))


def pi(K: LocalField):
    """The uniformizer, as a value of K: 1 shifted once."""
    return K.shift(K.embed(1), 1)


def power(K: LocalField, x, n: int):
    """x^n, n >= 0, as a product of n factors x."""
    result = K.embed(1)
    for _ in range(n):
        result = result * x
    return result


def delta_local(a: list) -> object:
    """Delta of embedded coefficients [a1, a2, a3, a4, a6], computed in the
    local field from the b-invariants."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return 9 * (b2 * b4 * b6) - b2 * b2 * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6)


def discriminant(model: WeierstrassModel) -> int:
    """Delta of a model with integer coefficients; 0 when it is singular."""
    return c_invariants(*b_invariants(model))[2]


def evaluate(coeffs: list, x):
    """The polynomial with coefficients coeffs, low to high, at x, by
    Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def extension_count_linear(n1: int, q: int, k: int) -> int:
    """#E(F_{q^k}) from #E(F_q) by the trace recurrence a_j = a a_(j-1) -
    q a_(j-2), a_0 = 2, a_1 = a = q + 1 - n1, in k - 1 steps."""
    a = q + 1 - n1
    prev, cur = 2, a
    for _ in range(k - 1):
        prev, cur = cur, a * cur - q * prev
    return q**k + 1 - cur


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


def _divisors_abs(n: int) -> list[int]:
    """Positive divisors of |n| by trial division up to its square root."""
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


def rational_roots_by_divisors(coeffs: list[int]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with integer coefficients
    coeffs, low to high, each listed once.

    Tries s/t with s dividing the constant term and t dividing the leading
    coefficient.  Roots at zero are split off first, so the divisor trial
    only sees a nonzero constant term.  Candidates are evaluated with pure
    integer arithmetic, P(s/t) t^n = sum c_i s^i t^(n-i).
    """
    if not any(coeffs):
        raise ValueError("zero polynomial has every rational as a root")
    ints = list(coeffs)
    while ints[-1] == 0:
        ints.pop()
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints.pop(0)
    if len(ints) == 1:
        return roots
    for s in _divisors_abs(ints[0]):
        for t in _divisors_abs(ints[-1]):
            for num in (s, -s):
                acc, tp = 0, 1
                for c in reversed(ints):
                    acc = acc * num + c * tp
                    tp *= t
                if acc == 0 and Fraction(num, t) not in roots:
                    roots.append(Fraction(num, t))
    return roots


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
    elif data.kodaira.kind == "In":
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


def transform(model: WeierstrassModel, u, r, s, t) -> WeierstrassModel:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t, computed
    on Fractions and returned as its integral model (`from_rationals`)."""
    a1, a2, a3, a4, a6 = (Fraction(c) for c in model.coefficients())
    u, r, s, t = (Fraction(x) for x in (u, r, s, t))
    u2 = u * u
    u3 = u2 * u
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u2
    na3 = (a3 + r * a1 + 2 * t) / u3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / (u2 * u2)
    na6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / (u3 * u3)
    return WeierstrassModel.from_rationals([na1, na2, na3, na4, na6])


def velu_isogenous(model: WeierstrassModel, kernel_xs) -> WeierstrassModel:
    """The codomain of the isogeny over Q whose kernel is a finite subgroup
    of model: kernel_xs holds the x-coordinates on model of its nonzero
    points, one for each pair +-Q, and must be Galois-stable as a set.

    Velu's formulas (Velu 1971; Washington, Elliptic Curves, 12.16) on the
    short model Y^2 = X^3 + A X + B, A = -27 c4, B = -54 c6, where
    X = 36 x + 3 b2: each Q has g = 3 X^2 + A and u = 4 (X^3 + A X + B);
    it adds v_Q = g at a point of order 2 (u = 0) and 2 g otherwise, and
    u + X v_Q to w; the codomain is Y^2 = X^3 + (A - 5 v) X + (B - 7 w)."""
    inv, b2 = invariants(model), b_invariants(model)[0]
    A, B = -27 * inv.c4, -54 * inv.c6
    v = w = 0
    for x in kernel_xs:
        X = 36 * Fraction(x) + 3 * b2
        g = 3 * X * X + A
        u = 4 * (X**3 + A * X + B)
        v_Q = g if u == 0 else 2 * g
        v += v_Q
        w += u + X * v_Q
    return WeierstrassModel.from_rationals([0, 0, 0, A - 5 * v, B - 7 * w])


# -- points ---------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) or the point at infinity (x = y = None)."""

    x: object = None
    y: object = None

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None


def is_on_curve(model: WeierstrassModel, point: CurvePoint) -> bool:
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    return y * y + model.y_line(x) * y == model.rhs(x)


def negate_point(model: WeierstrassModel, point: CurvePoint) -> CurvePoint:
    if point.is_infinity:
        return point
    return CurvePoint(point.x, -point.y - model.y_line(point.x))


def add_points(model: WeierstrassModel, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-tangent addition; exact over Q and over finite fields."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    a1, a2, a3, a4, a6 = model.coefficients()
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return CurvePoint.infinity()
        denom = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / denom
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / denom
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def scalar_mul(model: WeierstrassModel, n: int, point: CurvePoint) -> CurvePoint:
    if n < 0:
        return scalar_mul(model, -n, negate_point(model, point))
    acc = CurvePoint.infinity()
    base = point
    while n:
        if n & 1:
            acc = add_points(model, acc, base)
        base = add_points(model, base, base)
        n >>= 1
    return acc


def point_order(model: WeierstrassModel, point: CurvePoint, bound: int) -> int | None:
    """Smallest n <= bound with n*P = infinity, or None if there is none.

    Raises ValueError when the point does not satisfy the curve equation.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if not is_on_curve(model, point):
        raise ValueError("point is not on the curve")
    acc = point
    for n in range(1, bound + 1):
        if acc.is_infinity:
            return n
        acc = add_points(model, acc, point)
    return None


def tate_normal_form(p: int, t) -> WeierstrassModel:
    """E(b, c): y^2 + (1 - c)xy - by = x^3 - bx^2, on which (0, 0) has order
    5 for b = c = t and order 7 for b = t^3 - t^2, c = t^2 - t (Kubert 1976)."""
    b, c = (t, t) if p == 5 else (t**3 - t**2, t**2 - t)
    return WeierstrassModel.from_rationals([1 - c, -b, -b, 0, 0])


def smallest_prime_not_dividing(n: int) -> int:
    """The least prime not dividing n != 0, by trial division."""
    ell = 2
    while n % ell == 0 or any(ell % d == 0 for d in range(2, ell)):
        ell += 1
    return ell


def lift_x_to_points(model: WeierstrassModel, x0: Fraction) -> list[CurvePoint]:
    """Rational points on the model with the given x-coordinate."""
    h = model.y_line(x0)
    disc = h * h + 4 * model.rhs(x0)
    root = rational_sqrt(disc)
    if root is None:
        return []
    ys = {(-h + root) / 2, (-h - root) / 2}
    return [CurvePoint(x0, y) for y in sorted(ys)]
