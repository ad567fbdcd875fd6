"""Weierstrass models: invariants, point counting over finite fields,
division polynomials on integers, and p-primary torsion bounds.  A curve
over Q is read from rational a-invariants and carried as its integral model
a_i * d^i, d the lcm of their denominators: every coefficient and every
b-, c-invariant and Delta is an int, and j is the one Fraction.  psi_n is
built in the one polynomial format of `polynomials`, dense integer lists
low to high, and reaches `rational_roots` as such a list.  The rational
lower bound lifts the roots of psi_p ell-adically and keeps a root x0 when
the points above it are rational, which is a square test on the
discriminant of
y^2 + (a1 x0 + a3) y - (x0^3 + a2 x0^2 + a4 x0 + a6).

Every count goes through `count_residues`, which takes the a-invariants as
integers mod ell; `count_points` hands it the residues of a model from
`reduce_model`.  A curve held fixed while the conductor climbs a tower keeps
#E(F_ell) and E(Q)[p], so both are memoized in bounded module-level
`functools.lru_cache`s, as are the square-root tables of the O(ell) counting
kernel; the *_MEMO_SIZE constants bound them.  Every value is immutable, and
a call that raises stores nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm
from typing import NamedTuple

from .cyclotomic import splitting
from .finite_fields import fq_create
from .polynomials import Polynomial, is_square, poly_mul, poly_sub
from .valuations import (
    int_valuation,
    is_prime,
    primes_from,
    rational_sqrt,
)

# Largest characteristic counted: one count at 10^18 takes about a second, and
# past it the O(ell^{1/4}) baby-step table grows into minutes and memory
COUNT_CAP = 10**18
# Mestre-Schoof: above this prime, Shanks-Mestre always pins #E(F_ell)
MESTRE_BOUND = 229
# good primes torsion_bound_over_F reduces at unless told otherwise
DEFAULT_SAMPLES = 20

# Memo sizes.  #E(F_ell) by (ell, residues): a tower pass counts 53 distinct
# curves, and residues mod small ell recur across census curves
COUNT_MEMO_SIZE = 256
# square-root tables, one per prime up to MESTRE_BOUND: there are 50
SQUARE_TABLE_MEMO_SIZE = 64
# rational p-torsion orders by (model, p): a tower pass needs 2
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
    rational-torsion memo (`_rational_torsion`).
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
        return _compute_invariants(self)


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


def _compute_invariants(model: WeierstrassModel) -> CurveInvariants:
    """(c4, c6, Delta, j) of a model over Q, on its integer coefficients;
    SingularModelError when Delta = 0."""
    c4, c6, disc = c_invariants(*b_invariants(model))
    if disc == 0:
        raise SingularModelError("discriminant is zero")
    return CurveInvariants(c4, c6, disc, Fraction(c4**3, disc))


def reduce_model(model: WeierstrassModel, ell: int) -> WeierstrassModel:
    """The model over F_ell of a model over Q.  This is the library's one
    constructor of F_ell: it builds every curve the library counts."""
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
    a-invariants are the integers coeffs mod ell: the library's one
    counting entry.

    It is counted over F_ell (`_count_prime_field`: O(ell^{1/4}) group
    operations above ell = 229, a pass over the x-fibers at or below), and
    the count over F_{ell^f} follows from the Frobenius trace recurrence
    (`extension_count`, which also checks the Hasse bound).  Every curve the
    pipeline counts is defined over F_ell, since every choice in Tate's
    algorithm is canonical.  ell > COUNT_CAP raises CountCapError, and a
    singular model SingularModelError.
    """
    if ell > COUNT_CAP:
        raise CountCapError(f"characteristic {ell} exceeds counting cap {COUNT_CAP}")
    return extension_count(_count_prime_field(ell, tuple([c % ell for c in coeffs])), ell, f)


@lru_cache(maxsize=COUNT_MEMO_SIZE)
def _count_prime_field(p: int, coeffs: tuple[int, ...]) -> int:
    """#E(F_p) for a1..a6 given as a tuple of residues mod p; memoized by
    (p, residues), so a curve met again, at another residue degree f or in
    another request, is neither checked nor counted again.  A singular
    model raises SingularModelError, which stores nothing.

    Above MESTRE_BOUND the count is Shanks-Mestre baby-step giant-step
    (`_count_shanks_mestre`); at or below it, one pass over the x-fibers
    (`_count_by_squares`).  The bound is where the Mestre-Schoof theorem
    starts to guarantee that Shanks-Mestre finishes, not a tuning constant.
    """
    b = b_invariants(coeffs)
    c4, c6, disc = c_invariants(*b)
    if disc % p == 0:
        raise SingularModelError("cannot count points on a singular model")
    if p <= MESTRE_BOUND:
        return _count_by_squares(p, coeffs, b)
    return _count_shanks_mestre(p, c4, c6)


def _count_by_squares(p: int, coeffs, b) -> int:
    """#E(F_p) by one pass over the x-fibers: O(p) time and memory, exact
    at every prime p; b holds the b-invariants of coeffs.

    For odd p the fiber over x is (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 +
    2 b4 x + b6, so it holds as many points as its right-hand side has
    square roots, which `_square_root_counts` tabulates.
    """
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        return 1 + sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    b2, b4, b6, _ = b
    b4 *= 2
    roots = _square_root_counts(p)
    return 1 + sum([roots[(((4 * x + b2) * x + b4) * x + b6) % p] for x in range(p)])


@lru_cache(maxsize=SQUARE_TABLE_MEMO_SIZE)
def _square_root_counts(p: int) -> bytes:
    """For each d in F_p, the number of y in F_p with y^2 = d: 1 at d = 0,
    2 at a nonzero square, 0 otherwise."""
    counts = bytearray(p)
    for y in range(p):
        counts[y * y % p] += 1
    return bytes(counts)


def _count_shanks_mestre(p: int, c4: int, c6: int) -> int:
    """#E(F_p) for a prime p >= 5 by Shanks-Mestre (Cohen, GTM 138, 7.4.3),
    from the invariants c4 and c6 of the curve.

    E is isomorphic to y^2 = g(x) = x^3 + a x + b with a = -27 c4 and
    b = -54 c6.  For x0 = 0, 1, 2, ... with d = g(x0) != 0 the point
    (d x0, d^2) lies on the twist E_d: Y^2 = X^3 + d^2 a X + d^3 b, which
    has N = #E(F_p) points when d is a square and 2p + 2 - N when it is
    not, so no square root is taken.  Every point narrows the values of N
    in the Hasse interval to those compatible with the multiples of its
    order that lie there, until one is left.  The answer is exact for every
    such p; the Mestre-Schoof theorem (Cremona-Sutherland, JTNB 22, 2010)
    guarantees a unique survivor once p > 229: the group exponent of E or of
    its twist then has a single multiple in the Hasse interval.
    """
    a, b = -27 * c4 % p, -54 * c6 % p
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
    """psi_n in x of a model over Q, for odd n >= 1: integer
    coefficients, degree (n^2 - 1)/2 and leading coefficient n.

    The recurrence runs on the integer b-invariants, with B = psi_2^2 =
    4x^3 + b2 x^2 + 2 b4 x + b6, and memoizes psi_k within the call only;
    even k carry psi_k / psi_2, so even n is not exposed (psi_n has a factor
    linear in y).  Raises ValueError for even n or a model over F_ell.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("division_polynomial is defined here for odd n >= 1")
    if not model.is_rational():
        raise ValueError("division_polynomial needs a model over Q")
    b2, b4, b6, b8 = b_invariants(model)
    B = [b6, 2 * b4, b2, 4]
    psi = {
        1: [1],
        2: [1],
        3: [b8, 3 * b6, 3 * b4, b2, 3],
        4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2],
    }
    return Polynomial(_psi(n, psi, poly_mul(B, B)))


def _psi(k: int, psi: dict, B2: list[int]) -> list[int]:
    """psi_k by the division-polynomial recurrence, as integer coefficients
    low-to-high, memoized in psi; a module-level function, since a closure
    that calls itself outlives its call in a reference cycle."""
    if k not in psi:
        m = k // 2
        # psi_{m-1}, psi_m, psi_{m+1}, psi_{m+2}
        m1, m0, p1, p2 = (_psi(i, psi, B2) for i in range(m - 1, m + 3))
        if k % 2 == 0:
            psi[k] = poly_mul(m0, poly_sub(poly_mul(p2, m1, m1), poly_mul(_psi(m - 2, psi, B2), p1, p1)))
        elif m % 2 == 0:
            psi[k] = poly_sub(poly_mul(p2, m0, m0, m0, B2), poly_mul(m1, p1, p1, p1))
        else:
            psi[k] = poly_sub(poly_mul(p2, m0, m0, m0), poly_mul(m1, p1, p1, p1, B2))
    return psi[k]


# -- torsion ----------------------------------------------------------------------


def rational_p_torsion_order(model: WeierstrassModel, p: int) -> int:
    """Exact order of the p-primary torsion of E(Q) for a prime p >= 5.

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
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    if p >= 11:
        return 1
    return _rational_torsion(model, p)


@lru_cache(maxsize=TORSION_MEMO_SIZE)
def _rational_torsion(model: WeierstrassModel, p: int) -> int:
    """`rational_p_torsion_order` at p in {5, 7}, memoized by (model, p)."""
    from .polynomials import rational_roots

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
    search.
    """
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    disc = invariants(model).disc
    upper_exp = None
    used = 0
    for ell in primes_from(2):
        if ell > 10_000:
            raise ValueError(f"could not find {samples} usable primes below 10000")
        if ell == p or disc % ell == 0:
            continue
        nf = count_residues(model, ell, splitting(ell, m).f)
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
    if p < 5:
        raise ValueError("construction requires characteristic >= 5")
    jbar %= p
    if jbar == 0:
        coeffs = (0, 0, 0, 0, 1)
    elif jbar == 1728 % p:
        coeffs = (0, 0, 0, 1, 0)
    else:
        c = pow(jbar - 1728, -1, p)
        coeffs = (1, 0, 0, -36 * c, -c)
    return reduce_model(WeierstrassModel(*coeffs), p)
