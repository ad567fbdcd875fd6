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
and each residue quadratic or cubic is read by one call to
`polynomials.residue_roots`: its root count in F_{ell^f} and its multiple
root, so no step is linear in the residue field size.

v(Delta) is never evaluated in the pi-adic field.  It is e * v_ell(disc) of
the integral rational model: translations leave Delta unchanged and each
step-11 rescale by pi divides it by pi^12 (Silverman, Advanced Topics,
IV.9).  Good and multiplicative places never embed the model in the pi-adic
field.  At v(Delta) = 0 the residues of the integral model are those of
the reduced curve.  A model is minimal with multiplicative reduction exactly
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
residue it inspects lies in F_ell.  The residue degree f enters only in
q_v = ell^f, in the number of roots in F_{ell^f} of each residue quadratic
or cubic (the split test of the tangent cone included), and in
N_v = #E(F_{ell^f}), which `curves.count_residues` takes of the residues of
the minimal model and which is checked against the Hasse bound.  Potential
supersingularity above p is read off a_p mod p of a curve over F_p with the
reduced j, which `curves.model_with_j_invariant` builds and `count_points`
counts; this module handles residues as integers only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .curves import (
    WeierstrassModel,
    b_invariants,
    count_points,
    count_residues,
    integral_model,
    invariants,
    model_with_j_invariant,
)
from .local_fields import LocalElement, LocalField
from .polynomials import residue_roots
from .valuations import vp

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
        return self.kodaira.is_good


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
    abar = [c.numerator % ell for c in work.coefficients()]
    if n == 0:
        return _good_data(abar, place)
    # the pi-adic model, embedded at the first round that is not multiplicative
    a = None

    for _round in range(n // 12 + 1):
        # Step 2: the singular point, from the residues of the current model.
        x0, y0 = _singular_point(abar, ell)
        if K.e * pole == n:
            # Type I_n: a minimal model is multiplicative iff v(c4) = 0, iff
            # v(Delta) = -v(j).  Translating the node to the origin keeps a1
            # and turns a2 into a2 + 3 x0, so its tangent cone is
            # T^2 + a1 T - (a2 + 3 x0) mod pi, and b2 = a1^2 + 4 a2 is a unit.
            roots, cusp = residue_roots([-abar[1] - 3 * x0, abar[0], 1], ell, f)
            if cusp is not None:
                raise AssertionError("multiplicative type has a cusp")
            # at a node the roots are distinct: one in F_q means it splits there
            if roots:
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
            roots, _ = residue_roots([-_res_shift(a[4], 2), _res_shift(a[2], 1), 1], ell, f)
            return _additive(place, KodairaType("IV"), 3 if roots else 1, n)

        a = _normalize_for_cubic(a, K)
        cubic = [_res_shift(a[4], 3), _res_shift(a[3], 2), _res_shift(a[1], 1), 1]
        roots, multiple = residue_roots(cubic, ell, f)
        if multiple is None:
            return _additive(place, KodairaType("I0*", 0), 1 + roots, n)
        a = _translate(a, r=K.embed(multiple).shift_pi(1))
        if roots == 2:  # a double root
            return _star_loop(a, K, place, n)

        # a triple root
        _check_valuations(a, ((1, 2), (3, 3), (4, 4)), "triple-root translation")
        roots, double = residue_roots([-_res_shift(a[4], 4), _res_shift(a[2], 2), 1], ell, f)
        if double is None:
            return _additive(place, KodairaType("IV*"), 3 if roots else 1, n)
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
            return _good_data(abar, place)

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
    ell, f = K.ell, place["f"]
    if a[1].valuation() != 1:
        raise AssertionError("I_n* entry expects v(a2) = 1")
    _check_valuations(a, ((3, 3), (4, 4)), "I_n* entry")
    j = 1
    while j <= n_delta:
        if j % 2 == 1:
            m = (j + 3) // 2
            quadratic = [-_res_shift(a[4], 2 * m), _res_shift(a[2], m), 1]
        else:
            m = j // 2 + 2
            quadratic = [_res_shift(a[4], 2 * m - 1), _res_shift(a[3], m), _res_shift(a[1], 1)]
        roots, double = residue_roots(quadratic, ell, f)
        if double is None:
            return _additive(place, KodairaType("In*", j), 4 if roots else 2, n_delta)
        if j % 2 == 1:
            a = _translate(a, t=K.embed(double).shift_pi(m))
        else:
            a = _translate(a, r=K.embed(double).shift_pi(m - 1))
        j += 1
    raise AssertionError("I_n* ladder failed to terminate")


def _finish(place, kodaira, c_v, v_min_delta, cls, N_v=None):
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


def _good_data(abar: list[int], place) -> LocalReductionData:
    """Good reduction: abar are the residues of a minimal model, whose
    curve over F_ell is counted over F_q."""
    ell, q = place["ell"], place["q_v"]
    N = count_residues(abar, ell, place["f"])
    cls = GOOD_SUPERSINGULAR if (q + 1 - N) % ell == 0 else GOOD_ORDINARY
    return _finish(place, KodairaType("I0"), 1, 0, cls, N_v=N)


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
    return count_points(model_with_j_invariant(jbar, p)) % p == 1
