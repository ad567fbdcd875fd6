"""Tate's algorithm over the supported local fields, reduction
classification, Tamagawa numbers, local Euler factors at s = 1, and the
potential-supersingularity test.

Every place is Q_ell(pi) for a root pi of one Eisenstein shape,

    g(x) = x^e - c,    pi^e = c,

with residue field F_{ell^f}.  c = -ell at the cyclotomic layer
e = ell - 1 > 1, and c = ell for e = 1 and every other tame e,
gcd(e, ell) = 1.  Wildly ramified fields are rejected, and there is no
unramified layer: f enters only through q = ell^f (see below).
x^(ell-1) + ell defines Q_ell(mu_ell): for zeta a primitive ell-th root
of unity, (zeta - 1)^(ell-1) / (-ell) is a unit congruent to 1 mod
zeta - 1, so it has an (ell-1)-th root by Hensel's lemma, and
Q_ell(mu_ell) = Q_ell((-ell)^(1/(ell-1))) (Washington, *Cyclotomic
Fields*; ell x + x^ell is the [ell]-series of a Lubin-Tate group).  Local
data depends only on the field, so this pi serves as well as zeta - 1.

v(Delta) is never evaluated in the pi-adic field: every
rational integer x = ell^v u has v(x) = e v, so v(Delta) = e * v_ell(disc)
of the model over Q, which is integral.  At every ell, v(Delta) = 0 means
good reduction, and the residues of the model are those of the reduced
curve.  Past that, the residue characteristic picks the route.

Residue characteristic >= 5: a closed form, with no step that grows with e
(Papadopoulos 1993; Silverman, Advanced Topics, IV.9).  The short model
y^2 = x^3 - 27 c4 x - 54 c6 of the model is scaled by pi^k,
k = min(floor(v(c4)/4), floor(v(c6)/6)), which makes it minimal, with
v(Delta_min) = v(Delta) - 12 k.  A potentially multiplicative place, where
j has a pole of order n/e, is I_n at v(Delta_min) = n and I_n* at n + 6;
at a potentially good place v(Delta_min) fixes the type.  Each c_v is a
square test, or a root count of the I0* cubic, on residues of c4, c6 and
Delta over powers of pi, as in PARI's `elllocalred` at p >= 5.  As
pi^(e v) = c^v, the residue of x / pi^(e v) is u (ell/c)^v mod ell, a
sign (-1)^v at the cyclotomic layer e = ell - 1 > 1, where c = -ell.  A
nonzero residue is a square in F_{ell^f} whenever f is even; for odd f,
Euler's criterion decides.  A place that is good after the scaling is
counted from the residues of the scaled short model.

Residue characteristic 2 and 3: the classical step ladder (I0, I_n, II,
III, IV, I0*, I_n*, IV*, III*, II*, rescale), which works at every residue
characteristic and serves the tests as the oracle of the closed form at
ell >= 5.  Residues are integers mod ell, and every division in the
residue field is an inverse pow(x, -1, ell).  Residue characteristic 2
needs two non-generic normalizations, both solved by square roots in F_2,
which Frobenius fixes: the coordinate change before the step-6 cubic uses
s = a2 mod pi and t = pi * (a6 / pi^2 mod pi); everything else divides only
by units.  Singular points and multiple roots come from closed-form
solutions (the cube root in characteristic 3 is the identity on F_3 too),
and each residue quadratic or cubic is read by one call to
`polynomials.residue_roots`: its root count in F_{ell^f} and its multiple
root, so no step is linear in the residue field size.  Translations leave
Delta unchanged and each step-11 rescale by pi divides it by pi^12.

The ladder never embeds a good or multiplicative place in the pi-adic
field.  A model is minimal with multiplicative reduction exactly when
v(c4) = 0, i.e. v(Delta) = -v(j) > 0, and then the type is I_n with
n = v(Delta); its split test needs only the residues of a1 and of
a2 + 3 x0 at the singular point (x0, y0) (Silverman, Advanced Topics, IV.9;
Cremona, Algorithms, 3.2).  Only additive or non-minimal models are
embedded, translated and walked down the ladder, in the exact ring
Z[pi] = Z[x]/(g): translations are by integers times powers of pi, the
step-6 normalization multiplies by the integer -(ell + 1)/2 where the
textbook divides by -2, and each step-11 rescale divides by powers of pi
exactly.  No digit is truncated, so the algorithm runs once, with no
working precision.

The ladder reads and shifts its values only through the field
`LocalField`: `embed`, `embed_model`, `shift`, `val_at_least`,
`valuation` and `residue`.  At e = 1, where pi = ell and Z[pi] = Z, a
value is a plain int and each of these is one integer operation; only at
e > 1 is it a `LocalElement`, with +, - and * by elements and ints.  A
value is never both: `embed` picks the representation, and ring
operations between values and ints keep it.  An element is a tuple of e
Python integers, the coefficients of 1, pi, ..., pi^(e-1).  The powers
pi^i, 0 <= i < e, have distinct valuations mod e, so

    v(c_0 + c_1 pi + ... + c_(e-1) pi^(e-1)) = min(e v_ell(c_i) + i)

holds exactly, zero alone has infinite valuation, and the residue is
c_0 mod ell.  A product folds its high half back through pi^e = c.  A
shift by pi^k, k = q e + r with 0 <= r < e, is a rotation of the
coefficients by r, the wrapped ones multiplied by c, then a scaling by
c^q = (+-ell)^q, which for q < 0 is an exact division once pi^(-k) is
known to divide.  A field holds only ell, e and c, so each place builds
its own.  The tests' `oracles.RingField` gives `LocalElement`s at e = 1
too, and the ladder run on it is the oracle of the integer values.

Both routes take the curve over Q, and every choice they make is
canonical, so every residue they inspect lies in F_ell.  The residue
degree f enters only in q_v = ell^f, in square tests and in the number of
roots in F_{ell^f} of each residue quadratic or cubic, and in
N_v = #E(F_{ell^f}), which `curves.count_residues` takes of the residues of
a minimal model and which is checked against the Hasse bound.  At residue
characteristic >= 5 every result is checked against Ogg's formula
v(Delta_min) = f_v + m_v - 1, with f_v read off the reduction class.
Potential supersingularity above p is read off a_p mod p of a curve over
F_p with the reduced j, which `curves.model_with_j_invariant` builds and
`count_points` counts; this module handles residues as integers only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import NamedTuple

from .curves import (
    WeierstrassModel,
    b_invariants,
    count_points,
    count_residues,
    invariants,
    model_with_j_invariant,
)
from .polynomials import is_square, residue_roots
from .valuations import int_valuation, is_prime

GOOD_ORDINARY = "GoodOrdinary"
GOOD_SUPERSINGULAR = "GoodSupersingular"
MULT_SPLIT = "MultSplit"
MULT_NONSPLIT = "MultNonsplit"
ADDITIVE = "Additive"


class KodairaType(NamedTuple):
    kind: str  # I0, In, II, III, IV, I0*, In*, IV*, III*, II*
    n: int = 0

    @property
    def symbol(self) -> str:
        if self.kind == "In":
            return f"I{self.n}"
        if self.kind == "In*":
            return f"I{self.n}*"
        return self.kind

    @property
    def components(self) -> int:
        """m_v, the number of geometric components of the special fibre."""
        if self.kind == "In":
            return self.n
        if self.kind == "In*":
            return self.n + 5
        return _COMPONENTS[self.kind]


_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}
# the types without an index, each one shared record
_KODAIRA = {kind: KodairaType(kind) for kind in _COMPONENTS}


class LocalReductionData(NamedTuple):
    """Per-place output of Tate's algorithm."""

    ell: int
    e: int
    f: int
    kodaira: KodairaType
    c_v: int
    v_min_delta: int
    q_v: int
    reduction_class: str
    potentially_good: bool
    N_v: int | None
    L_at_1: Fraction

    # a class constant, not a field: `bench/tracing.py` reads it with
    # `LocalField.precision` to count precision retries, of which there are
    # none; ROADMAP item 1 (the next change to the benchmark) removes both.
    precision_used = 1

    @property
    def is_good(self) -> bool:
        return self.N_v is not None


# -- the place Q_ell(pi), pi^e = c, and its ring Z[pi] ---------------------------


class LocalField:
    """Q_ell(pi) with pi^e = c, for the Eisenstein polynomial chosen above;
    its values are ints at e = 1 and `LocalElement`s above."""

    # `bench/tracing.py` reads `K.precision` and `precision_used` to count
    # retries at doubled precision, of which there are none; ROADMAP item 1
    # (the next change to the benchmark) removes both attributes.
    precision = 1

    def __init__(self, ell: int, e: int):
        if not is_prime(ell):
            raise ValueError(f"residue characteristic must be prime, got {ell}")
        if e < 1:
            raise ValueError("ramification index must be >= 1")
        if gcd(e, ell) != 1:
            raise ValueError(
                f"wildly ramified non-cyclotomic extension rejected (e={e}, ell={ell})"
            )
        self.ell = ell
        self.e = e
        # pi^e = c
        self.c = -ell if e == ell - 1 > 1 else ell

    def embed(self, n: int):
        """The value of a rational integer; v = e * v_ell(n)."""
        return n if self.e == 1 else LocalElement(self, (n,) + (0,) * (self.e - 1))

    def embed_model(self, coeffs) -> list:
        """The values of the a-invariants of a model over Q, which are
        integers."""
        return [self.embed(c) for c in coeffs]

    def shift(self, x, k: int):
        """x pi^k, exact; for k < 0, pi^(-k) must divide x."""
        if k < 0 and not self.val_at_least(x, -k):
            raise ValueError(f"not divisible by pi^{-k}")
        if type(x) is int:
            return x * self.ell**k if k >= 0 else x // self.ell**-k
        e, c = self.e, self.c
        q, r = divmod(k, e)
        A = tuple(c * a for a in x.coeffs[e - r :]) + x.coeffs[: e - r]
        if q > 0:
            scale = c**q
            A = tuple(a * scale for a in A)
        elif q < 0:
            # the rotation left every coefficient divisible by ell^(-q)
            scale = c**-q
            A = tuple(a // scale for a in A)
        return LocalElement(self, A)

    def val_at_least(self, x, k: int) -> bool:
        """v(x) >= k, as ell^ceil((k - i) / e) | c_i for every i."""
        ell = self.ell
        if type(x) is int:
            return k <= 0 or x % ell**k == 0
        return all(c % ell ** -((i - k) // self.e) == 0
                   for i, c in enumerate(x.coeffs) if i < k)

    def valuation(self, x) -> int | float:
        """pi-adic valuation; math.inf for zero."""
        ell = self.ell
        if type(x) is int:
            return int_valuation(x, ell) if x else inf
        return min((self.e * int_valuation(c, ell) + i for i, c in enumerate(x.coeffs) if c),
                   default=inf)

    def residue(self, x) -> int:
        """Residue in F_ell, as an integer in [0, ell)."""
        return (x if type(x) is int else x.coeffs[0]) % self.ell


class LocalElement:
    """c_0 + c_1 pi + ... + c_(e-1) pi^(e-1) with integer coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: LocalField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _same_field(self, other: "LocalElement") -> bool:
        # (ell, e) fixes c, so two fields built with the same pair are one
        F, G = self.field, other.field
        return F is G or (F.ell, F.e) == (G.ell, G.e)

    def _coerce(self, other) -> tuple:
        if isinstance(other, int):
            return (other,) + (0,) * (self.field.e - 1)
        if not self._same_field(other):
            raise ValueError("elements of different local fields")
        return other.coeffs

    def __add__(self, other) -> "LocalElement":
        B = self._coerce(other)
        return LocalElement(self.field, tuple(a + b for a, b in zip(self.coeffs, B)))

    __radd__ = __add__

    def __sub__(self, other) -> "LocalElement":
        B = self._coerce(other)
        return LocalElement(self.field, tuple(a - b for a, b in zip(self.coeffs, B)))

    def __mul__(self, other) -> "LocalElement":
        F = self.field
        if isinstance(other, int):
            return LocalElement(F, tuple(a * other for a in self.coeffs))
        B = self._coerce(other)
        prod = [0] * (2 * F.e)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(B):
                    prod[i + j] += a * b
        return LocalElement(F, tuple(prod[k] + F.c * prod[k + F.e] for k in range(F.e)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, LocalElement):
            return self._same_field(other) and self.coeffs == other.coeffs
        return isinstance(other, int) and self.coeffs == self._coerce(other)


# -- residue-field helpers: residues are integers mod ell -----------------------


def _singular_point(abar: list[int], ell: int) -> tuple[int, int]:
    """The unique singular point of a singular reduced Weierstrass cubic
    over F_ell, by closed-form solution of the two vanishing partial
    derivatives.

    Characteristic 2 inverts the y-partial directly (square roots are the
    identity on F_2); odd characteristic completes the square,
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, and takes the
    multiple root of the right-hand cubic.
    """
    a1, a2, a3, a4, a6 = abar

    def vanishes(x, y):
        """F, F_x and F_y all vanish at (x, y), in every characteristic, so
        the translation to (x, y) leaves a6, a4 and a3 divisible by pi."""
        F = y * y + (a1 * x + a3) * y - (((x + a2) * x + a4) * x + a6)
        Fx = a1 * y - (3 * x * x + 2 * a2 * x + a4)
        Fy = 2 * y + a1 * x + a3
        return F % ell == Fx % ell == Fy % ell == 0

    if ell == 2:
        if a1 % 2:
            x0 = a3
            y0 = x0 * x0 + a4
        else:
            if a3 % 2:
                raise AssertionError("nonsingular reduction reached singular search")
            x0 = a4
            y0 = ((x0 + a2) * x0 + a4) * x0 + a6
        x0, y0 = x0 % 2, y0 % 2
        if not vanishes(x0, y0):
            raise AssertionError("char-2 singular point formulas failed")
        return x0, y0

    b2, b4, b6, _ = b_invariants(abar)
    _, x0 = residue_roots([b6, 2 * b4, b2, 4], ell, 1)
    if x0 is None:
        raise AssertionError("nonsingular reduction reached singular search")
    y0 = -(a1 * x0 + a3) * pow(2, -1, ell) % ell
    if not vanishes(x0, y0):
        raise AssertionError("singular point formulas failed")
    return x0, y0


# -- coordinate changes over the local field ------------------------------------


def _translate(a: list, r=None, s=None, t=None) -> list:
    """(x, y) -> (x + r, y + s x + t) on [a1, a2, a3, a4, a6].

    The change is applied as x -> x + r, then y -> y + s x, then y -> y + t,
    which composes to the same substitution, so only the terms of the
    shifts actually given are evaluated.
    """
    a1, a2, a3, a4, a6 = a
    if r is not None:
        rr = r * r
        a6 = a6 + r * a4 + rr * a2 + rr * r
        a4 = a4 + 2 * r * a2 + 3 * rr
        a3 = a3 + r * a1
        a2 = a2 + 3 * r
    if s is not None:
        a4 = a4 - s * a3
        a2 = a2 - s * a1 - s * s
        a1 = a1 + 2 * s
    if t is not None:
        a6 = a6 - t * a3 - t * t
        a4 = a4 - t * a1
        a3 = a3 + 2 * t
    return [a1, a2, a3, a4, a6]


def _rescale_by_pi(K: LocalField, a: list) -> list:
    """u = pi scaling: a_i -> a_i / pi^i."""
    return [K.shift(x, -i) for x, i in zip(a, (1, 2, 3, 4, 6))]


def _res_shift(K: LocalField, x, k: int) -> int:
    """Residue of x / pi^k."""
    return K.residue(K.shift(x, -k))


# -- the algorithm ----------------------------------------------------------------


def tate_algorithm(model: WeierstrassModel, K: LocalField, f: int = 1) -> LocalReductionData:
    """Kodaira type, Tamagawa number, minimal discriminant valuation, and
    (for good reduction) residue point count of a model over Q at a place
    with ramification index K.e and residue field F_{ell^f}: the closed form
    at ell >= 5, the step ladder at ell in {2, 3}."""
    if K.ell < 5:
        return _ladder(model, K, f)
    inv, v_disc, pole, place = _place(model, K, f)
    if not v_disc:
        return _good_data([c % K.ell for c in model], place)
    return _closed_form(inv, v_disc, pole, K, place)


def _place(model: WeierstrassModel, K: LocalField, f: int):
    """The model's invariants, v_ell(Delta), the pole order of j at ell
    (`CurveInvariants.j_pole_order`), and the place
    (ell, e, f, q_v, potentially_good)."""
    if f < 1:
        raise ValueError("residue degree must be >= 1")
    if not model.is_rational():
        raise ValueError("tate_algorithm expects a model over Q")
    inv = invariants(model)  # also rejects singular models
    ell = K.ell
    v_disc = int_valuation(inv.disc, ell)
    pole = inv.j_pole_order(ell)
    place = (ell, K.e, f, ell**f, pole == 0)
    return inv, v_disc, pole, place


# -- the closed form at residue characteristic >= 5 ------------------------------

# Kodaira type by v(Delta_min) at a potentially good place, with c_v where
# the type alone fixes it (Papadopoulos 1993)
_POTENTIALLY_GOOD = {
    2: ("II", 1),
    3: ("III", 2),
    4: ("IV", None),
    6: ("I0*", None),
    8: ("IV*", None),
    9: ("III*", 2),
    10: ("II*", 1),
}


def _closed_form(inv, v_disc: int, pole: int, K: LocalField, place: tuple) -> LocalReductionData:
    """Local data at ell >= 5 off the valuations over K of the model's c4,
    c6 and Delta = (c4^3 - c6^2)/1728, given v_ell(Delta) > 0 and the pole
    order of j.

    The short model y^2 = x^3 - 27 c4 x - 54 c6 scaled by pi^k,
    k = min(floor(v(c4)/4), floor(v(c6)/6)), is minimal; its invariants are
    c4/pi^4k, c6/pi^6k and Delta/pi^12k.  Every c_v test follows PARI's
    `elllocalred` at p >= 5 with pi in place of p."""
    ell, e, f = K.ell, K.e, place[2]
    c4, c6 = inv.c4, inv.c6
    v_c4 = int_valuation(c4, ell) if c4 else None
    v_c6 = int_valuation(c6, ell) if c6 else None
    D = e * v_disc
    k = min(e * v // w for v, w in ((v_c4, 4), (v_c6, 6)) if v is not None)
    D_min = D - 12 * k

    def residue(x: int, v: int | None, w: int) -> int:
        return _residue_over_pi(x, v, w, K)

    if pole:
        n = e * pole
        if D_min == n:
            return _multiplicative(place, n, is_square(-residue(c6, v_c6, 6 * k), ell, f))
        if D_min != n + 6:
            raise AssertionError(f"v(Delta_min) = {D_min} fits neither I{n} nor I{n}*")
        d = residue(inv.disc, v_disc, D)
        if n % 2:
            d *= residue(c6, v_c6, 6 * k + 3)
        return _additive(place, KodairaType("In*", n), 4 if is_square(d, ell, f) else 2, D_min)

    if D_min == 0:
        r4, r6 = residue(c4, v_c4, 4 * k), residue(c6, v_c6, 6 * k)
        return _good_data([0, 0, 0, -27 * r4, -54 * r6], place)
    if D_min not in _POTENTIALLY_GOOD:
        raise AssertionError(f"no potentially good type has v(Delta_min) = {D_min}")
    kind, c_v = _POTENTIALLY_GOOD[D_min]
    if kind in ("IV", "IV*"):
        c_v = 3 if is_square(-6 * residue(c6, v_c6, 6 * k + D_min // 2), ell, f) else 1
    elif kind == "I0*":
        cubic = [-2 * residue(c6, v_c6, 6 * k + 3), -3 * residue(c4, v_c4, 4 * k + 2), 0, 1]
        roots, multiple = residue_roots(cubic, ell, f)
        if multiple is not None:
            raise AssertionError("I0* cubic has a multiple root")
        c_v = 1 + roots
    return _additive(place, _KODAIRA[kind], c_v, D_min)


def _residue_over_pi(x: int, v: int | None, w: int, K: LocalField) -> int:
    """Residue of the rational integer x, of ell-adic valuation v (None for
    x = 0), divided by pi^w, which must divide it: 0 when e v > w; else
    x = ell^v u with w = e v, pi^w = c^v and the residue is u (ell/c)^v,
    where ell/c = -1 at the cyclotomic layer."""
    if v is None:
        return 0
    if K.e * v < w:
        raise AssertionError(f"pi^{w} does not divide {x}")
    if K.e * v > w:
        return 0
    ell = K.ell
    sign = -1 if K.c < 0 and v % 2 else 1
    return sign * (x // ell**v) % ell


# -- the step ladder: residue characteristic 2 and 3, and the oracle ----------------


def _ladder(model: WeierstrassModel, K: LocalField, f: int) -> LocalReductionData:
    """Tate's step ladder over Z[pi], valid at every residue characteristic:
    `tate_algorithm`'s route at ell in {2, 3}, and the oracle of the closed
    form at ell >= 5.  Values are K's: ints at e = 1, elements of Z[pi]
    above."""
    _, v_disc, pole, place = _place(model, K, f)
    ell, e = K.ell, K.e

    # v(Delta) of the current model: translations keep it, rescales drop 12
    n = e * v_disc
    abar = [c % ell for c in model]
    if n == 0:
        return _good_data(abar, place)
    # the pi-adic model, embedded at the first round that is not multiplicative
    a = None

    for _round in range(n // 12 + 1):
        # Step 2: the singular point, from the residues of the current model.
        x0, y0 = _singular_point(abar, ell)
        if e * pole == n:
            # Type I_n: a minimal model is multiplicative iff v(c4) = 0, iff
            # v(Delta) = -v(j).  Translating the node to the origin keeps a1
            # and turns a2 into a2 + 3 x0, so its tangent cone is
            # T^2 + a1 T - (a2 + 3 x0) mod pi, and b2 = a1^2 + 4 a2 is a unit.
            roots, cusp = residue_roots([-abar[1] - 3 * x0, abar[0], 1], ell, f)
            if cusp is not None:
                raise AssertionError("multiplicative type has a cusp")
            # at a node the roots are distinct: one in F_q means it splits there
            return _multiplicative(place, n, roots > 0)

        if a is None:
            a = K.embed_model(model)
        a = _translate(a, r=x0, t=y0)
        _check_valuations(K, a, ((2, 1), (3, 1), (4, 1)), "singular translation")

        b2, b4, b6, b8 = b_invariants(a)
        if not K.val_at_least(b2, 1):
            raise AssertionError("node at a place where v(Delta) != -v(j)")

        if not K.val_at_least(a[4], 2):
            return _additive(place, _KODAIRA["II"], 1, n)
        if not K.val_at_least(b8, 3):
            return _additive(place, _KODAIRA["III"], 2, n)
        if not K.val_at_least(b6, 3):
            roots, _ = residue_roots([-_res_shift(K, a[4], 2), _res_shift(K, a[2], 1), 1], ell, f)
            return _additive(place, _KODAIRA["IV"], 3 if roots else 1, n)

        a = _normalize_for_cubic(a, K)
        cubic = [_res_shift(K, a[4], 3), _res_shift(K, a[3], 2), _res_shift(K, a[1], 1), 1]
        roots, multiple = residue_roots(cubic, ell, f)
        if multiple is None:
            return _additive(place, _KODAIRA["I0*"], 1 + roots, n)
        a = _translate(a, r=K.shift(K.embed(multiple), 1))
        if roots == 2:  # a double root
            return _star_loop(a, K, place, n)

        # a triple root
        _check_valuations(K, a, ((1, 2), (3, 3), (4, 4)), "triple-root translation")
        roots, double = residue_roots([-_res_shift(K, a[4], 4), _res_shift(K, a[2], 2), 1], ell, f)
        if double is None:
            return _additive(place, _KODAIRA["IV*"], 3 if roots else 1, n)
        a = _translate(a, t=K.shift(K.embed(double), 2))
        if not K.val_at_least(a[3], 4):
            return _additive(place, _KODAIRA["III*"], 2, n)
        if not K.val_at_least(a[4], 6):
            return _additive(place, _KODAIRA["II*"], 1, n)
        # Step 11: not minimal, rescale and restart.
        a = _rescale_by_pi(K, a)
        n -= 12
        abar = [K.residue(x) for x in a]
        if n == 0:
            return _good_data(abar, place)

    raise AssertionError("tate loop failed to terminate")


def _check_valuations(K: LocalField, a: list, least, step: str) -> None:
    """Assert v(a[idx]) >= k for every (idx, k) in least."""
    if not all(K.val_at_least(a[idx], k) for idx, k in least):
        raise AssertionError(f"{step} failed")


def _normalize_for_cubic(a: list, K: LocalField) -> list:
    """Arrange pi | a1, a2; pi^2 | a3, a4; pi^3 | a6 (entry state of the
    step-6 cubic).

    In odd residue characteristic s = h a1 and t = h a3 with the integer
    h = -(ell + 1)/2 = -1/2 mod ell, which makes a1 -ell a1 and a3 -ell a3;
    a2 and a6 differ from their values under the exact -1/2 by
    -ell^2 a1^2/4 and -ell^2 a3^2/4, so the checks below still hold.  In
    residue characteristic 2, residue square roots take the place of the
    division: s^2 = a2 and (t / pi)^2 = a6 / pi^2 mod pi, and a square root
    in F_2 is the residue itself."""
    if K.ell != 2:
        h = -(K.ell + 1) // 2
        a = _translate(a, s=a[0] * h)
        a = _translate(a, t=a[2] * h)
    else:
        a = _translate(a, s=K.residue(a[1]))
        a = _translate(a, t=K.shift(K.embed(_res_shift(K, a[4], 2)), 1))
    _check_valuations(K, a, ((0, 1), (1, 1), (2, 2), (3, 2), (4, 3)), "step-6 normalization")
    return a


def _star_loop(a: list, K: LocalField, place: tuple, n_delta: int) -> LocalReductionData:
    """The I_n* subtype ladder (one double root in the step-6 cubic)."""
    ell, f = K.ell, place[2]
    if K.valuation(a[1]) != 1:
        raise AssertionError("I_n* entry expects v(a2) = 1")
    _check_valuations(K, a, ((3, 3), (4, 4)), "I_n* entry")
    j = 1
    while j <= n_delta:
        if j % 2 == 1:
            m = (j + 3) // 2
            quadratic = [-_res_shift(K, a[4], 2 * m), _res_shift(K, a[2], m), 1]
        else:
            m = j // 2 + 2
            quadratic = [_res_shift(K, a[4], 2 * m - 1), _res_shift(K, a[3], m),
                         _res_shift(K, a[1], 1)]
        roots, double = residue_roots(quadratic, ell, f)
        if double is None:
            return _additive(place, KodairaType("In*", j), 4 if roots else 2, n_delta)
        if j % 2 == 1:
            a = _translate(a, t=K.shift(K.embed(double), m))
        else:
            a = _translate(a, r=K.shift(K.embed(double), m - 1))
        j += 1
    raise AssertionError("I_n* ladder failed to terminate")


def _finish(place, kodaira, c_v, v_min_delta, cls, N_v=None):
    ell, e, f, q, potentially_good = place
    if N_v is not None and (q + 1 - N_v) ** 2 > 4 * q:
        raise AssertionError(f"Hasse bound fails: N_v = {N_v} over F_{q}")
    if potentially_good and c_v > 4:
        raise AssertionError("potentially good reduction forces c_v <= 4")
    # f_v at ell >= 5 is 0 good, 1 multiplicative, 2 additive
    f_v = 0 if N_v is not None else 2 if cls == ADDITIVE else 1
    if ell >= 5 and v_min_delta != f_v + kodaira.components - 1:
        raise AssertionError(
            f"Ogg's formula fails: {kodaira.symbol} with v(Delta_min) = {v_min_delta}"
        )
    return LocalReductionData(ell, e, f, kodaira, c_v, v_min_delta, q, cls, potentially_good,
                              N_v, _euler_factor(cls, q, N_v))


def _multiplicative(place, n: int, split: bool) -> LocalReductionData:
    """I_n: c_v = n when split, and 2 - n % 2 when not."""
    if split:
        return _finish(place, KodairaType("In", n), n, n, MULT_SPLIT)
    return _finish(place, KodairaType("In", n), 2 - n % 2, n, MULT_NONSPLIT)


def _additive(place, kodaira, c_v, v_min_delta):
    return _finish(place, kodaira, c_v, v_min_delta, ADDITIVE)


def _good_data(abar: list[int], place) -> LocalReductionData:
    """Good reduction: abar are the residues of a minimal model, whose
    curve over F_ell is counted over F_q."""
    ell, _, f, q, _ = place
    N = count_residues(abar, ell, f)
    cls = GOOD_SUPERSINGULAR if (q + 1 - N) % ell == 0 else GOOD_ORDINARY
    return _finish(place, _KODAIRA["I0"], 1, 0, cls, N_v=N)


# -- derived operations -------------------------------------------------------------


# L_v(E, 1) at every additive place, one shared value
_ONE = Fraction(1)


def _euler_factor(cls: str, q: int, N: int | None) -> Fraction:
    """L_v(E, 1): q/N for good reduction, q/(q-1) split multiplicative,
    q/(q+1) nonsplit multiplicative, 1 additive."""
    if cls in (GOOD_ORDINARY, GOOD_SUPERSINGULAR):
        return Fraction(q, N)
    if cls == MULT_SPLIT:
        return Fraction(q, q - 1)
    if cls == MULT_NONSPLIT:
        return Fraction(q, q + 1)
    return _ONE


def pot_supersingular(model: WeierstrassModel, p: int) -> bool:
    """Is the reduction at a prime p >= 5 potentially supersingular?

    False at a potentially multiplicative place (v_p(j) < 0), which has no
    supersingular type.  Elsewhere supersingularity depends only on j over
    the algebraic closure, and jbar lies in F_p, so any curve over F_p with
    that j-invariant decides it: it is supersingular iff a_p = p + 1 - N is
    0 mod p, i.e. N = 1 mod p (Silverman, AEC V.3-V.4).
    """
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    inv = invariants(model)
    if inv.j_pole_order(p):
        return False
    num, den = inv.j.numerator, inv.j.denominator
    jbar = num * pow(den, -1, p) % p
    return count_points(model_with_j_invariant(jbar, p)) % p == 1
