"""Tate's algorithm over the supported local fields, reduction
classification, Tamagawa numbers, local Euler factors at s = 1, and the
potential-supersingularity test.

The algorithm follows the classical step ladder (I0, I_n, II, III, IV,
I0*, I_n*, IV*, III*, II*, rescale) and works for every residue
characteristic.  Residues are integers mod ell, and every division in the
residue field is an inverse pow(x, -1, ell).  Residue characteristic 2
needs two non-generic normalizations, both solved by square roots in F_2,
which Frobenius fixes: the coordinate change before the step-6 cubic uses
s = a2 mod pi and t = pi * (a6 / pi^2 mod pi); everything else divides only
by units.  Singular points and multiple roots come from closed-form
solutions (the cube root in characteristic 3 is the identity on F_3 too),
and residue-field root counts are deg gcd(P, x^q - x) on integer
coefficient lists, so no step is linear in the residue field size.

v(Delta) is never evaluated in the pi-adic field.  It is e * v_ell(disc) of
the integral rational model: translations leave Delta unchanged and each
step-11 rescale by pi divides it by pi^12 (Silverman, Advanced Topics,
IV.9).  Good and multiplicative places never embed the model in the pi-adic
field.  At v(Delta) = 0 the integral model is reduced straight into the
residue field.  A model is minimal with multiplicative reduction exactly
when v(c4) = 0, i.e. v(Delta) = -v(j) > 0, and then the type is I_n with
n = v(Delta); its split test needs only the residues of a1 and of
a2 + 3 x0 at the singular point (x0, y0) (Silverman, Advanced Topics, IV.9;
Cremona, Algorithms, 3.2).  Only additive or non-minimal models are embedded,
translated and walked down the ladder.  At residue characteristic >= 5 every
result is checked against Ogg's formula v(Delta_min) = f_v + m_v - 1.

The embedded model lives in the exact ring Z[pi] of `local_fields`, for every
e alike: translations are by integers times powers of pi, the step-6
normalization multiplies by the integer -(ell + 1)/2 where the textbook
divides by -2, and each step-11 rescale divides by powers of pi exactly.  No
digit is truncated, so the algorithm runs once, with no working precision.

The algorithm runs over the totally ramified field Q_ell(pi) of degree e,
whose residue field is F_ell, even at a place with residue field F_{ell^f}.
It takes the curve over Q and every choice above is canonical, so every
residue it inspects lies in F_ell.  The residue degree f enters only
through q = ell^f: in q_v, in the number of roots in F_q of each residue
quadratic or cubic (the split test of the tangent cone included), taken as
deg gcd(P, x^q - x) in F_ell[x], and in N_v, the F_ell count of the reduced
curve extended to F_q by the Frobenius recurrence (`extension_count`) and
checked against the Hasse bound; above ell = 229 the F_ell count costs
O(ell^{1/4}) group operations for any f (`count_points`).  Potential
supersingularity above p is read off a_p mod p of a curve over F_p with
the reduced j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    WeierstrassModel,
    b_invariants,
    count_points,
    extension_count,
    integral_model,
    invariants,
    model_with_j_invariant,
    reduce_model,
)
from .finite_fields import fq_create
from .local_fields import LocalElement, LocalField
from .polynomials import count_roots_in_field
from .valuations import vp

GOOD_ORDINARY = "GoodOrdinary"
GOOD_SUPERSINGULAR = "GoodSupersingular"
MULT_SPLIT = "MultSplit"
MULT_NONSPLIT = "MultNonsplit"
ADDITIVE = "Additive"


@dataclass(frozen=True)
class KodairaType:
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
    def is_good(self) -> bool:
        return self.kind == "I0"

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "In"

    @property
    def components(self) -> int:
        """m_v, the number of geometric components of the special fibre."""
        if self.kind == "In":
            return self.n
        if self.kind == "In*":
            return self.n + 5
        return _COMPONENTS[self.kind]

    @property
    def conductor_exponent(self) -> int:
        """f_v at residue characteristic >= 5: 0 good, 1 multiplicative,
        2 additive."""
        return 0 if self.is_good else (1 if self.is_multiplicative else 2)


_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


@dataclass(frozen=True)
class LocalReductionData:
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
    reduced_model: WeierstrassModel | None

    # a class constant, not a field: `bench/tracing.py` reads it with
    # `LocalField.precision` to count precision retries, of which there are
    # none; ROADMAP item 1 (the next change to the benchmark) removes both.
    precision_used = 1

    @property
    def is_good(self) -> bool:
        return self.kodaira.is_good

    def comparable_fields(self) -> tuple:
        """Everything reported, without the reduced model."""
        return (
            self.ell,
            self.e,
            self.f,
            self.kodaira,
            self.c_v,
            self.v_min_delta,
            self.q_v,
            self.reduction_class,
            self.potentially_good,
            self.N_v,
            self.L_at_1,
        )


# -- residue-field helpers: residues are integers mod ell -----------------------


def _quadratic_data(A: int, B: int, C: int, ell: int, q: int):
    """(has distinct roots, root count in F_q, double root) for
    A X^2 + B X + C over F_ell, with A nonzero mod ell."""
    if (B * B - 4 * A * C) % ell:
        return True, count_roots_in_field([C, B, A], ell, q), None
    if ell == 2:
        double = C % 2  # the square root of C / A with A = 1; Frobenius fixes F_2
    else:
        double = -B * pow(2 * A, -1, ell) % ell
    return False, 1, double


def _cubic_analysis(a: int, b: int, c: int, ell: int, q: int):
    """Root structure of P = T^3 + a T^2 + b T + c over F_ell.

    Returns ("distinct", count of roots in F_q), ("double", root) or
    ("triple", root); multiple roots of a cubic are always rational over a
    perfect field.
    """
    disc = 18 * a * b * c - 4 * a * a * a * c + a * a * b * b - 4 * b * b * b - 27 * c * c
    if disc % ell:
        return "distinct", count_roots_in_field([c, b, a, 1], ell, q)
    # the multiple root is rational and has a closed form in every
    # characteristic: it is the sole root of gcd(P, P').  Frobenius fixes
    # F_ell, so the square roots of characteristic 2 and the cube roots of
    # characteristic 3 below are the identity.
    if ell == 2:
        # P' = T^2 + b, so the multiple root squares to b; triple iff b = a^2
        kind, r = ("triple", a) if (b - a * a) % 2 == 0 else ("double", b)
    else:
        hessian = a * a - 3 * b  # (double root - simple root)^2 when disc = 0
        if hessian % ell:
            kind, r = "double", (9 * c - a * b) * pow(2 * hessian, -1, ell)
        elif ell == 3:
            kind, r = "triple", -c
        else:
            kind, r = "triple", -a * pow(3, -1, ell)
    r %= ell
    if (((r + a) * r + b) * r + c) % ell:
        raise AssertionError("cubic multiple-root formulas failed")
    return kind, r


def _singular_point(abar: list[int], ell: int) -> tuple[int, int]:
    """The unique singular point of a singular reduced Weierstrass cubic
    over F_ell, by closed-form solution of the two vanishing partial
    derivatives.

    Characteristic 2 inverts the y-partial directly (square roots are the
    identity on F_2); characteristic 3 solves the x-partial, which
    degenerates to a cube root (the identity on F_3) when its linear
    coefficient vanishes; odd characteristic >= 5 completes the square and
    locates the multiple root of the resulting cubic from its coefficients.
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

    inv2 = pow(2, -1, ell)
    if ell == 3:
        # F_x(x, y(x)) = (a1^2 + a2) x + (a1 a3 - a4) along 2y = -(a1 x + a3)
        lead = a1 * a1 + a2
        if lead % 3:
            x0 = (a4 - a1 * a3) * pow(lead, -1, 3)
        else:
            # then F(x, y(x)) = -(x^3 + a6 + a3^2), whose cube root is itself
            x0 = -(a6 + a3 * a3)
    else:
        # complete the square: eta^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4,
        # and take the multiple root of the right-hand cubic
        inv4 = inv2 * inv2
        c2 = (a1 * a1 + 4 * a2) * inv4
        c1 = (2 * a4 + a1 * a3) * inv2
        c0 = (a3 * a3 + 4 * a6) * inv4
        hessian = (c2 * c2 - 3 * c1) % ell  # equals (double root - simple root)^2
        if hessian:
            x0 = (9 * c0 - c2 * c1) * pow(2 * hessian, -1, ell)
        else:
            x0 = -c2 * pow(3, -1, ell)
    x0 %= ell
    y0 = -(a1 * x0 + a3) * inv2 % ell
    if not vanishes(x0, y0):
        raise AssertionError("singular point formulas failed")
    return x0, y0


# -- coordinate changes over the local field ------------------------------------


def _translate(a: list[LocalElement], r=None, s=None, t=None) -> list[LocalElement]:
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


def _rescale_by_pi(a: list[LocalElement]) -> list[LocalElement]:
    """u = pi scaling: a_i -> a_i / pi^i."""
    return [x.shift_pi(-i) for x, i in zip(a, (1, 2, 3, 4, 6))]


def _res_shift(x: LocalElement, k: int) -> int:
    """Residue of x / pi^k."""
    return x.shift_pi(-k).residue()


# -- the algorithm ----------------------------------------------------------------


def tate_algorithm(model: WeierstrassModel, K: LocalField, f: int = 1) -> LocalReductionData:
    """Kodaira type, Tamagawa number, minimal discriminant valuation, and
    (for good reduction) residue point count of a rational model at a place
    with ramification index K.e and residue field F_{ell^f}."""
    if f < 1:
        raise ValueError("residue degree must be >= 1")
    if not model.is_rational():
        raise ValueError("tate_algorithm expects a model over Q")
    work = integral_model(model)
    inv = invariants(work)  # also rejects singular models
    ell = K.ell
    q = ell**f
    pole = inv.j_pole_order(ell)

    place = dict(ell=ell, e=K.e, f=f, q_v=q, potentially_good=pole == 0)

    # v(Delta) of the current model: translations keep it, rescales drop 12
    n = K.e * vp(inv.disc, ell)
    if n == 0:
        return _good_data(reduce_model(work, fq_create(ell, 1)), place)
    # the pi-adic model, embedded at the first round that is not multiplicative
    a = None
    abar = [c.numerator % ell for c in work.coefficients()]

    for _round in range(n // 12 + 1):
        # Step 2: the singular point, from the residues of the current model.
        x0, y0 = _singular_point(abar, ell)
        if K.e * pole == n:
            # Type I_n: a minimal model is multiplicative iff v(c4) = 0, iff
            # v(Delta) = -v(j).  Translating the node to the origin keeps a1
            # and turns a2 into a2 + 3 x0, so its tangent cone is
            # T^2 + a1 T - (a2 + 3 x0) mod pi, and b2 = a1^2 + 4 a2 is a unit.
            a1bar, a2bar = abar[0], (abar[1] + 3 * x0) % ell
            if (a1bar * a1bar + 4 * a2bar) % ell == 0:
                raise AssertionError("multiplicative type has a cusp")
            # at a node the roots are distinct: one in F_q means it splits there
            if count_roots_in_field([-a2bar, a1bar, 1], ell, q):
                return _finish(place, KodairaType("In", n), n, n, MULT_SPLIT)
            return _finish(place, KodairaType("In", n), 2 - n % 2, n, MULT_NONSPLIT)

        if a is None:
            a = K.embed_model(work.coefficients())
        a = _translate(a, r=x0, t=y0)
        _check_valuations(a, ((2, 1), (3, 1), (4, 1)), "singular translation")

        b2, b4, b6, b8 = b_invariants(a)
        if not b2.val_at_least(1):
            raise AssertionError("node at a place where v(Delta) != -v(j)")

        if not a[4].val_at_least(2):
            return _additive(place, KodairaType("II"), 1, n)
        if not b8.val_at_least(3):
            return _additive(place, KodairaType("III"), 2, n)
        if not b6.val_at_least(3):
            quad_roots = count_roots_in_field(
                [-_res_shift(a[4], 2), _res_shift(a[2], 1), 1], ell, q
            )
            c_v = 3 if quad_roots else 1
            return _additive(place, KodairaType("IV"), c_v, n)

        a = _normalize_for_cubic(a, K)
        P_a = _res_shift(a[1], 1)
        P_b = _res_shift(a[3], 2)
        P_c = _res_shift(a[4], 3)
        shape, info = _cubic_analysis(P_a, P_b, P_c, ell, q)

        if shape == "distinct":
            c_v = 1 + info
            return _additive(place, KodairaType("I0*", 0), c_v, n)

        if shape == "double":
            a = _translate(a, r=K.embed(info).shift_pi(1))
            return _star_loop(a, K, place, n)

        # triple root
        a = _translate(a, r=K.embed(info).shift_pi(1))
        _check_valuations(a, ((1, 2), (3, 3), (4, 4)), "triple-root translation")
        distinct, roots, double = _quadratic_data(
            1, _res_shift(a[2], 2), -_res_shift(a[4], 4), ell, q
        )
        if distinct:
            c_v = 3 if roots else 1
            return _additive(place, KodairaType("IV*"), c_v, n)
        a = _translate(a, t=K.embed(double).shift_pi(2))
        if not a[3].val_at_least(4):
            return _additive(place, KodairaType("III*"), 2, n)
        if not a[4].val_at_least(6):
            return _additive(place, KodairaType("II*"), 1, n)
        # Step 11: not minimal, rescale and restart.
        a = _rescale_by_pi(a)
        n -= 12
        abar = [x.residue() for x in a]
        if n == 0:
            k = fq_create(ell, 1)
            reduced = WeierstrassModel(*(k.from_int(x) for x in abar))
            return _good_data(reduced, place)

    raise AssertionError("tate loop failed to terminate")


def _check_valuations(a: list[LocalElement], least, step: str) -> None:
    """Assert v(a[idx]) >= k for every (idx, k) in least."""
    if not all(a[idx].val_at_least(k) for idx, k in least):
        raise AssertionError(f"{step} failed")


def _normalize_for_cubic(a: list[LocalElement], K: LocalField) -> list[LocalElement]:
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
        a = _translate(a, s=a[1].residue())
        a = _translate(a, t=K.embed(_res_shift(a[4], 2)).shift_pi(1))
    _check_valuations(a, ((0, 1), (1, 1), (2, 2), (3, 2), (4, 3)), "step-6 normalization")
    return a


def _star_loop(
    a: list[LocalElement], K: LocalField, place: dict, n_delta: int
) -> LocalReductionData:
    """The I_n* subtype ladder (one double root in the step-6 cubic)."""
    ell, q = K.ell, place["q_v"]
    if a[1].valuation() != 1:
        raise AssertionError("I_n* entry expects v(a2) = 1")
    _check_valuations(a, ((3, 3), (4, 4)), "I_n* entry")
    j = 1
    while j <= n_delta:
        if j % 2 == 1:
            m = (j + 3) // 2
            distinct, roots, double = _quadratic_data(
                1, _res_shift(a[2], m), -_res_shift(a[4], 2 * m), ell, q
            )
            if distinct:
                c_v = 4 if roots else 2
                return _additive(place, KodairaType("In*", j), c_v, n_delta)
            a = _translate(a, t=K.embed(double).shift_pi(m))
        else:
            m = j // 2 + 2
            distinct, roots, double = _quadratic_data(
                _res_shift(a[1], 1),
                _res_shift(a[3], m),
                _res_shift(a[4], 2 * m - 1),
                ell,
                q,
            )
            if distinct:
                c_v = 4 if roots else 2
                return _additive(place, KodairaType("In*", j), c_v, n_delta)
            a = _translate(a, r=K.embed(double).shift_pi(m - 1))
        j += 1
    raise AssertionError("I_n* ladder failed to terminate")


def _finish(place, kodaira, c_v, v_min_delta, cls, N_v=None, reduced=None):
    q = place["q_v"]
    if N_v is not None and (q + 1 - N_v) ** 2 > 4 * q:
        raise AssertionError(f"Hasse bound fails: N_v = {N_v} over F_{q}")
    data = LocalReductionData(
        ell=place["ell"],
        e=place["e"],
        f=place["f"],
        kodaira=kodaira,
        c_v=c_v,
        v_min_delta=v_min_delta,
        q_v=q,
        reduction_class=cls,
        potentially_good=place["potentially_good"],
        N_v=N_v,
        L_at_1=_euler_factor(cls, q, N_v),
        reduced_model=reduced,
    )
    if data.potentially_good and data.c_v > 4:
        raise AssertionError("potentially good reduction forces c_v <= 4")
    if data.ell >= 5 and v_min_delta != kodaira.conductor_exponent + kodaira.components - 1:
        raise AssertionError(
            f"Ogg's formula fails: {kodaira.symbol} with v(Delta_min) = {v_min_delta}"
        )
    return data


def _additive(place, kodaira, c_v, v_min_delta):
    return _finish(place, kodaira, c_v, v_min_delta, ADDITIVE)


def _good_data(reduced: WeierstrassModel, place) -> LocalReductionData:
    """Good reduction: reduced is the model over F_ell, counted there and
    extended to F_q."""
    q = place["q_v"]
    N = extension_count(count_points(reduced), place["ell"], place["f"])
    trace = q + 1 - N
    cls = GOOD_SUPERSINGULAR if trace % place["ell"] == 0 else GOOD_ORDINARY
    return _finish(place, KodairaType("I0"), 1, 0, cls, N_v=N, reduced=reduced)


# -- derived operations -------------------------------------------------------------


def _euler_factor(cls: str, q: int, N: int | None) -> Fraction:
    """L_v(E, 1): q/N for good reduction, q/(q-1) split multiplicative,
    q/(q+1) nonsplit multiplicative, 1 additive."""
    if cls in (GOOD_ORDINARY, GOOD_SUPERSINGULAR):
        return Fraction(q, N)
    if cls == MULT_SPLIT:
        return Fraction(q, q - 1)
    if cls == MULT_NONSPLIT:
        return Fraction(q, q + 1)
    return Fraction(1)


def pot_supersingular(model: WeierstrassModel, p: int) -> bool:
    """Is the reduction at p potentially supersingular?

    Requires potential good reduction at p (v_p(j) >= 0).  Supersingularity
    depends only on j over the algebraic closure, and jbar lies in F_p, so
    any curve over F_p with that j-invariant decides it: it is supersingular
    iff a_p = p + 1 - N is 0 mod p, i.e. N = 1 mod p (Silverman, AEC
    V.3-V.4).
    """
    inv = invariants(model)
    if inv.j_pole_order(p):
        raise ValueError("potentially multiplicative place has no supersingular type")
    num, den = inv.j.numerator, inv.j.denominator
    jbar = num * pow(den, p - 2, p) % p
    if p <= 3:
        return jbar == 0  # the supersingular locus in characteristic 2 and 3
    N = count_points(model_with_j_invariant(fq_create(p, 1).from_int(jbar)))
    return N % p == 1
