"""Weierstrass models: invariants, point counting over finite fields,
division polynomials on integers, and p-primary torsion bounds.  A curve
over Q is read from rational a-invariants and carried as its integral model
a_i * d^i, d the lcm of their denominators: every coefficient and every
b-, c-invariant and Delta is an int, and j is the one Fraction.  psi_5 and
psi_7, the only division polynomials built, are in the one polynomial format
of `polynomials`, dense integer lists low to high, and reach
`rational_roots` as such lists.  The rational lower bound lifts the roots of
psi_p ell-adically and keeps a root x0 when the points above it are
rational, which is a square test on the discriminant of
y^2 + (a1 x0 + a3) y - (x0^3 + a2 x0^2 + a4 x0 + a6).

A count of a-invariants goes through `count_residues`, which takes them as
integers mod ell; `count_points` hands it the residues of a model over
F_ell.  At ell >= 5 it hands c4 and c6 mod ell to `count_invariants`, which
Tate's closed form calls too, so a curve is counted once whatever model
asks; at ell in {2, 3} it counts the at most 9 affine points itself.  A
curve held fixed while the conductor climbs a tower keeps #E(F_ell) and
E(Q)[p], so `_count_prime_field` and `rational_p_torsion_order` are each a
bounded module-level `functools.lru_cache`, as is the square-root table of
the O(ell) counting kernel; the *_MEMO_SIZE constants bound them.  Every
value is immutable, and a call that raises stores nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm
from typing import NamedTuple

from .cyclotomic import UnprintableFieldError, splitting
from .finite_fields import fq_create
from .polynomials import Polynomial, is_square, poly_mul, poly_sub
from .valuations import (
    check_formula_prime,
    int_valuation,
    primes_from,
    rational_sqrt,
)

# Largest characteristic counted: one count at 10^18 takes about a second, and
# past it the O(ell^{1/4}) baby-step table grows into minutes and memory
COUNT_CAP = 10**18
# Mestre-Schoof: above this prime, Shanks-Mestre always pins #E(F_ell)
MESTRE_BOUND = 229
# good primes torsion_bound_over_F reduces at unless told otherwise, and at
# most: it samples primes below SAMPLE_BOUND, of which there are 1229, so
# MAX_SAMPLES leaves room for p and up to 228 primes of bad reduction
DEFAULT_SAMPLES = 20
SAMPLE_BOUND = 10_000
MAX_SAMPLES = 1000

# Memo sizes.  #E(F_ell) by (ell, a, b) of the short model, ell >= 5: a
# tower pass counts 48 distinct curves, and a census pass (seed 1) from empty
# memos misses 882 times and hits 1,928 times, as curves mod small ell recur
# across census curves and the sampler and Tate's algorithm ask one question
COUNT_MEMO_SIZE = 256
# square-root tables, one per prime 5 <= ell <= MESTRE_BOUND: there are 48
SQUARE_TABLE_MEMO_SIZE = 64
# `rational_p_torsion_order` by (model, p): from empty memos a tower pass
# misses twice and hits 5 times, and a census pass (seed 1) misses twice
TORSION_MEMO_SIZE = 64


class SingularModelError(ValueError):
    """Raised when a model has vanishing discriminant."""


class CountCapError(ValueError):
    """Raised when a count is asked for in a characteristic past COUNT_CAP."""


class _Coefficients(NamedTuple):
    a1: object
    a2: object
    a3: object
    a4: object
    a6: object


class WeierstrassModel(_Coefficients):
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6.

    Coefficients are ints for curves over Q (`from_rationals` clears the
    denominators of rational input), or residues in F_ell for a reduction
    (`reduce_model`), which carry no arithmetic: only `count_points` reads
    them.  The model is an immutable tuple of the five; its `invariants` are
    memoized in its instance dict once computed (this subclass declares no
    `__slots__` for that), so equal models built separately never share
    them, and a singular model raises SingularModelError and stores
    nothing.  A model outlives its request only as a key of the bounded
    memo of `rational_p_torsion_order`.
    """

    @classmethod
    def from_rationals(cls, coeffs) -> "WeierstrassModel":
        """The integral model a_i * d^i of rational a-invariants a_i, d the
        lcm of their denominators (the change of variables x = x'/d^2,
        y = y'/d^3).  Ints and Fractions are read as they are, anything
        else through Fraction."""
        rationals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        d = lcm(*[c.denominator for c in rationals])
        return cls(*(c.numerator * (d**k // c.denominator)
                     for c, k in zip(rationals, (1, 2, 3, 4, 6))))

    def coefficients(self):
        return tuple(self)

    def is_rational(self) -> bool:
        return isinstance(self.a1, int)

    def rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def y_line(self, x):
        return self.a1 * x + self.a3

    @cached_property
    def _invariants(self) -> "CurveInvariants":
        c4, c6, disc = c_invariants(*b_invariants(self))
        if disc == 0:
            raise SingularModelError("discriminant is zero")
        return CurveInvariants(c4, c6, disc, Fraction(c4**3, disc))


def b_invariants(coeffs):
    """(b2, b4, b6, b8) of the a-invariants [a1, a2, a3, a4, a6] over any
    coefficient ring: rationals, integers mod ell, field or local elements."""
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def c_invariants(b2, b4, b6, b8):
    """(c4, c6, Delta) from the b-invariants, over the same ring."""
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


class CurveInvariants(NamedTuple):
    c4: int
    c6: int
    disc: int
    j: Fraction

    def j_pole_order(self, ell: int) -> int:
        """Exponent of ell in the denominator of j, max(0, -v_ell(j)) and 0
        at j = 0.  The reduction at ell is potentially good exactly when it
        is 0, and potentially multiplicative otherwise."""
        return int_valuation(self.j.denominator, ell)


def invariants(model: WeierstrassModel) -> CurveInvariants:
    """(c4, c6, Delta, j) of a nonsingular model over Q, computed once per
    model object.

    Raises SingularModelError when the discriminant vanishes.
    """
    return model._invariants


def reduce_model(model: WeierstrassModel, ell: int) -> WeierstrassModel:
    """The model over F_ell of a model over Q, for `count_points`.  The
    library builds one only in `model_with_j_invariant`, for
    `pot_supersingular`; its other counts pass integers to `count_residues`
    or `count_invariants`."""
    field = fq_create(ell)
    return WeierstrassModel(*(field.from_int(c) for c in model))


# -- point counting --------------------------------------------------------------


def count_points(model: WeierstrassModel, f: int = 1) -> int:
    """#E(F_{ell^f}) including infinity, for a model over F_ell from
    `reduce_model`: `count_residues` of its residues.  A model over an
    extension field (the test oracles build them) raises ValueError; the
    degree goes in f.
    """
    field = model.a1.field
    ell = field.characteristic
    if field.degree != 1:
        raise ValueError(f"model is over F_{ell}^{field.degree}, not the prime field F_{ell}")
    return count_residues([c.coords[0] for c in model.coefficients()], ell, f)


def count_residues(coeffs, ell: int, f: int = 1) -> int:
    """#E(F_{ell^f}) including infinity, for the curve over F_ell whose
    a-invariants are the integers coeffs mod ell: the counting entry for
    a-invariants.

    At ell >= 5 the curve is counted by its invariants c4 and c6 mod ell
    (`count_invariants`), so isomorphic models share one count.  At ell in
    {2, 3} its at most 9 affine points are counted directly.  The count over
    F_{ell^f} follows from the Frobenius trace recurrence (`extension_count`,
    which also checks the Hasse bound).  Every curve the pipeline counts is
    defined over F_ell, since every choice in Tate's algorithm is canonical.
    A singular model raises SingularModelError.
    """
    coeffs = [c % ell for c in coeffs]
    c4, c6, disc = c_invariants(*b_invariants(coeffs))
    if ell >= 5:
        return count_invariants(c4, c6, ell, f)
    if disc % ell == 0:
        raise SingularModelError("cannot count points on a singular model")
    a1, a2, a3, a4, a6 = coeffs
    n = 1 + sum((y * y + (a1 * x + a3) * y - ((x + a2) * x + a4) * x - a6) % ell == 0
                for x in range(ell) for y in range(ell))
    return extension_count(n, ell, f)


def count_invariants(c4: int, c6: int, ell: int, f: int = 1) -> int:
    """#E(F_{ell^f}) including infinity, for the curve over F_ell, ell >= 5,
    with invariants c4 and c6 mod ell: y^2 = x^3 + a x + b with a = -27 c4
    and b = -54 c6, counted over F_ell (`_count_prime_field`) and lifted to
    F_{ell^f} by `extension_count`.  ell > COUNT_CAP raises CountCapError,
    and Delta = 0 mod ell SingularModelError.  ell < 5 raises ValueError, as
    the short model is singular there whatever the curve: count its
    a-invariants with `count_residues`.
    """
    if ell < 5:
        raise ValueError(f"count_invariants needs ell >= 5, got {ell}: use count_residues")
    if ell > COUNT_CAP:
        raise CountCapError(f"characteristic {ell} exceeds counting cap {COUNT_CAP}")
    return extension_count(_count_prime_field(ell, -27 * c4 % ell, -54 * c6 % ell), ell, f)


@lru_cache(maxsize=COUNT_MEMO_SIZE)
def _count_prime_field(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x + b over F_p, p >= 5; memoized by
    (p, a, b), so a curve met again, at another residue degree f, through
    another model or in another request, is neither checked nor counted
    again.  A singular curve raises SingularModelError, which stores
    nothing.

    Above MESTRE_BOUND the count is Shanks-Mestre baby-step giant-step
    (`_count_shanks_mestre`); at or below it, one pass over the x-fibers
    (`_count_by_squares`).  The bound is where the Mestre-Schoof theorem
    starts to guarantee that Shanks-Mestre finishes, not a tuning constant.
    """
    if (4 * a**3 + 27 * b * b) % p == 0:
        raise SingularModelError("cannot count points on a singular model")
    if p <= MESTRE_BOUND:
        return _count_by_squares(p, a, b)
    return _count_shanks_mestre(p, a, b)


def _count_by_squares(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x + b by one pass over the x-fibers: O(p)
    time and memory, exact at every odd prime p.  The fiber over x holds as
    many points as x^3 + a x + b has square roots, which
    `_square_root_counts` tabulates."""
    roots = _square_root_counts(p)
    return 1 + sum([roots[((x * x + a) * x + b) % p] for x in range(p)])


@lru_cache(maxsize=SQUARE_TABLE_MEMO_SIZE)
def _square_root_counts(p: int) -> bytes:
    """For each d in F_p, the number of y in F_p with y^2 = d: 1 at d = 0,
    2 at a nonzero square, 0 otherwise."""
    counts = bytearray(p)
    for y in range(p):
        counts[y * y % p] += 1
    return bytes(counts)


def _count_shanks_mestre(p: int, a: int, b: int) -> int:
    """#E(F_p) for E: y^2 = g(x) = x^3 + a x + b over a prime p >= 5 by
    Shanks-Mestre (Cohen, GTM 138, 7.4.3).

    For x0 = 0, 1, 2, ... with d = g(x0) != 0 the point
    (d x0, d^2) lies on the twist E_d: Y^2 = X^3 + d^2 a X + d^3 b, which
    has N = #E(F_p) points when d is a square and 2p + 2 - N when it is
    not, so no square root is taken.  Every point narrows the values of N
    in the Hasse interval to those compatible with the multiples of its
    order that lie there, until one is left.  The answer is exact for every
    such p; the Mestre-Schoof theorem (Cremona-Sutherland, JTNB 22, 2010)
    guarantees a unique survivor once p > 229: the group exponent of E or of
    its twist then has a single multiple in the Hasse interval.
    """
    r = isqrt(4 * p)  # floor(2 sqrt(p)); 4p is never a square
    lo, hi = p + 1 - r, p + 1 + r
    candidates = None
    for x0 in range(p):
        d = ((x0 * x0 + a) * x0 + b) % p
        if d == 0:
            continue
        twist = not is_square(d, p)
        d2 = d * d % p
        multiples = _hasse_multiples((d * x0 % p, d2), d2 * a % p, p, lo, hi)
        if multiples is None:
            continue
        found = {2 * p + 2 - m if twist else m for m in multiples}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    raise AssertionError(f"unreachable for p > {MESTRE_BOUND}: no point pins #E(F_{p})")


def _hasse_multiples(P, a: int, p: int, lo: int, hi: int) -> list[int] | None:
    """Multiples of the order n of the affine point P on Y^2 = X^3 + aX + b
    over F_p that lie in [lo, hi], by baby steps keyed by x and giant steps
    of 2w + 1, or None when n <= 2w + 1.

    The baby steps meet O or the negative of an earlier step exactly when
    n <= 2w + 1.  Such a point is skipped: a point of order the group
    exponent, at least sqrt(lo) > 2w + 1 for p > 229, exists on E and on its
    twist.  Otherwise each giant window c - w .. c + w holds at most one
    multiple, and it is found from c P = +-j P.
    """
    w = isqrt((hi - lo) // 2) + 1
    baby = {}
    R = None
    for j in range(1, w + 2):
        R = _affine_add(R, P, a, p)
        if R is None or R[0] in baby:
            return None
        if j <= w:
            baby[R[0]] = (j, R[1])
    step = _affine_mul(2 * w + 1, P, a, p)
    c = lo + w
    Q = _affine_mul(c, P, a, p)
    multiples = []
    while c - w <= hi:
        m = None
        if Q is None:
            m = c
        elif Q[0] in baby:
            j, y = baby[Q[0]]
            m = c - j if Q[1] == y else c + j
        if m is not None and lo <= m <= hi:
            multiples.append(m)
        Q = _affine_add(Q, step, a, p)
        c += 2 * w + 1
    return multiples


def _affine_add(P, Q, a: int, p: int):
    """P + Q on Y^2 = X^3 + aX + b over F_p; points are (x, y) integer
    pairs and None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _affine_mul(n: int, P, a: int, p: int):
    """n P for n >= 0 by double-and-add with `_affine_add`."""
    acc = None
    while n:
        if n & 1:
            acc = _affine_add(acc, P, a, p)
        P = _affine_add(P, P, a, p)
        n >>= 1
    return acc


def extension_count(n1: int, q: int, k: int) -> int:
    """#E(F_{q^k}) from #E(F_q), in O(log k) steps.

    With a = q + 1 - n1 the traces V_j = alpha^j + beta^j of Frobenius
    (alpha + beta = a, alpha beta = q) satisfy V_0 = 2, V_1 = a and

        V_2n = V_n^2 - 2 q^n,    V_2n+1 = V_n V_n+1 - a q^n,

    so the pair (V_n, V_n+1) doubles along the bits of k; the count over
    F_{q^k} is q^k + 1 - V_k.  Rejects n1 outside the Hasse window.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    a = q + 1 - n1
    if a * a > 4 * q:
        raise ValueError(f"count {n1} violates the Hasse bound for q={q}")
    v, w, qn = 2, a, 1  # V_n, V_n+1, q^n at n = 0
    for bit in bin(k)[2:]:
        if bit == "1":  # n -> 2n + 1
            v, w, qn = v * w - a * qn, w * w - 2 * q * qn, qn * qn * q
        else:  # n -> 2n
            v, w, qn = v * v - 2 * qn, v * w - a * qn, qn * qn
    return qn + 1 - v


# -- division polynomials ---------------------------------------------------------


def division_polynomial(model: WeierstrassModel, n: int) -> Polynomial:
    """psi_n in x of a model over Q for n in {5, 7}, the primes at which
    E(Q) can have a point of order p >= 5 (Mazur): integer coefficients,
    degree (n^2 - 1)/2 and leading coefficient n.

    From the integer b-invariants, with B = psi_2^2 = 4x^3 + b2 x^2 +
    2 b4 x + b6 and psi_4 carried as psi_4 / psi_2, the recurrence
    psi_(2m+1) = psi_(m+2) psi_m^3 - psi_(m-1) psi_(m+1)^3 gives

        psi_5 = psi_4 B^2 - psi_3^3,    psi_7 = psi_5 psi_3^3 - psi_4^3 B^2.

    Raises ValueError for any other n or a model over F_ell.
    """
    if n not in (5, 7):
        raise ValueError("division_polynomial is defined here for n in {5, 7}")
    if not model.is_rational():
        raise ValueError("division_polynomial needs a model over Q")
    b2, b4, b6, b8 = b_invariants(model)
    B = [b6, 2 * b4, b2, 4]
    psi3 = [b8, 3 * b6, 3 * b4, b2, 3]
    psi4 = [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]
    psi5 = poly_sub(poly_mul(psi4, B, B), poly_mul(psi3, psi3, psi3))
    if n == 5:
        return Polynomial(psi5)
    return Polynomial(poly_sub(poly_mul(psi5, psi3, psi3, psi3), poly_mul(psi4, psi4, psi4, B, B)))


# -- torsion ----------------------------------------------------------------------


@lru_cache(maxsize=TORSION_MEMO_SIZE)
def rational_p_torsion_order(model: WeierstrassModel, p: int) -> int:
    """Exact order of the p-primary torsion of E(Q) for a prime p >= 5,
    memoized by (model, p).

    Rational roots of psi_p are found by ell-adic lifting at the smallest
    prime ell not dividing p * Delta.  There E mod ell is an elliptic curve
    and ell != p, so psi_p mod ell has leading coefficient p and
    (p^2 - 1)/2 distinct roots: it is squarefree, as the lifting requires.  For odd p a point P != O lies in E[p] exactly when
    psi_p(x(P)) = 0 (Silverman, AEC, Ex. 3.7), so a root x0 is the
    x-coordinate of a point of order p exactly when a point above it is
    rational: when (a1 x0 + a3)^2 + 4 (x0^3 + a2 x0^2 + a4 x0 + a6) is a
    rational square.  Over Q and for p >= 5 the group is trivial or cyclic
    of order p.  By Mazur's theorem (1977) E(Q) has no point of prime order
    p >= 11, so those p return 1 without building psi_p, whose degree is
    (p^2 - 1)/2.
    """
    from .polynomials import rational_roots  # at call time, where bench/tracing.py wraps it

    check_formula_prime(p)
    if p >= 11:
        return 1
    disc = invariants(model).disc
    ell = next(q for q in primes_from(2) if p * disc % q)
    psi = division_polynomial(model, p)
    for x0 in rational_roots(psi, ell):
        h = model.y_line(x0)
        if rational_sqrt(h * h + 4 * model.rhs(x0)) is not None:
            return p
    return 1


class TorsionEstimate(NamedTuple):
    """Certified bracket lower | #E(F)(p) | upper, both powers of p."""

    p: int
    lower: int
    upper: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def torsion_bound_over_F(
    model: WeierstrassModel, p: int, m: int, samples: int = DEFAULT_SAMPLES
) -> TorsionEstimate:
    """Bracket the p-primary torsion of E over Q(mu_m).

    Upper bound: torsion prime to the residue characteristic injects into
    the reduction at good places, so gcd over >= `samples` good rational
    primes ell (ell not dividing p*disc) of the p-part of #E(k_w), with
    k_w = F_{ell^f} read off the splitting of ell in Q(mu_m).  Lower bound:
    the rational p-torsion order.  Rational p-torsion injects into the same
    reductions, so an upper bound of 1 settles the lower bound without a
    search.  A prime whose k_w `splitting` refuses is skipped, as the gcd
    over the other samples still bounds the torsion; when the skipped fields
    leave fewer than `samples` primes below SAMPLE_BOUND, the first of them
    is refused (`UnprintableFieldError`).
    """
    check_formula_prime(p)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    disc = invariants(model).disc
    upper_exp = None
    used = 0
    skipped = None
    for ell in primes_from(2):
        if ell > SAMPLE_BOUND:
            short = f"could not find {samples} usable primes below {SAMPLE_BOUND}"
            raise UnprintableFieldError(*skipped, f"{short}: ") if skipped else ValueError(short)
        if ell == p or disc % ell == 0:
            continue
        try:
            f = splitting(ell, m).f
        except UnprintableFieldError as exc:
            skipped = skipped or (exc.ell, exc.f)
            continue
        nf = count_residues(model, ell, f)
        e = int_valuation(nf, p)
        upper_exp = e if upper_exp is None else min(upper_exp, e)
        used += 1
        if upper_exp == 0 or used >= samples:
            break  # the gcd is monotone; zero exponent cannot recover
    upper = p**upper_exp
    lower = 1 if upper == 1 else rational_p_torsion_order(model, p)
    return TorsionEstimate(p=p, lower=lower, upper=upper)


def model_with_j_invariant(jbar: int, p: int) -> WeierstrassModel:
    """Some model over F_p with j-invariant jbar mod p, for a prime p >= 5."""
    check_formula_prime(p)
    jbar %= p
    if jbar == 0:
        coeffs = (0, 0, 0, 0, 1)
    elif jbar == 1728 % p:
        coeffs = (0, 0, 0, 1, 0)
    else:
        c = pow(jbar - 1728, -1, p)
        coeffs = (1, 0, 0, -36 * c, -c)
    return reduce_model(WeierstrassModel(*coeffs), p)
