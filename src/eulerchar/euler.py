"""Global quantities of the Euler-characteristic formula: the bad-place set
of the tower, hypothesis audit, the Birch-Swinnerton-Dyer-type invariant
rho_p, the Euler characteristics over the cyclotomic line and over the full
tower, tau_p, local restriction-kernel orders, and corank predictions.

Everything here is exact integer arithmetic on p-adic valuation exponents;
chi values are only ever (base p, exponent) pairs.

E is defined over Q and Q(mu_m)/Q is Galois, so the g places above a
rational prime ell are conjugate and share their local data.  The pipeline
keeps one (CyclotomicSplitting, LocalReductionData) pair per relevant
prime and weights that prime's terms by g; only the serialized report
lists the places one by one (`cli.report_to_dict`).

`AbelianVarietyInput` holds the rules of a variety, and
`EulerCharReport.status` decides a report's status; the CLI reports the
first's refusals at `/abelian_variety` and exits by the second.
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import (
    DEFAULT_SAMPLES,
    TorsionEstimate,
    WeierstrassModel,
    invariants,
    torsion_bound_over_F,
)
from .cyclotomic import CyclotomicSplitting, field_degree, splitting
from .tate import GOOD_ORDINARY, LocalField, LocalReductionData, pot_supersingular, tate_algorithm
from .valuations import check_formula_prime, factorize, vp

PASS = "PASS"
FAIL = "FAIL"
ASSUMED = "ASSUMED"


class _ReductionFields(NamedTuple):
    prime: int
    potentially_good: bool
    good: bool


class ReductionFact(_ReductionFields):
    """User-supplied reduction behaviour of the abelian variety at a prime."""

    __slots__ = ()

    def __new__(cls, prime: int, potentially_good: bool, good: bool):
        if good and not potentially_good:
            raise ValueError(f"table marks {prime} good but not potentially good")
        return super().__new__(cls, prime, potentially_good, good)

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too


class _VarietyFields(NamedTuple):
    dimension: int
    factors: tuple[WeierstrassModel, ...]
    reduction_table: tuple[ReductionFact, ...]


class AbelianVarietyInput(_VarietyFields):
    """The variety whose division tower is adjoined, of dimension >= 1: a
    product of elliptic-curve factors, a table covering every bad prime, or
    both, as `compute_M` and `check_hypotheses` read them."""

    __slots__ = ()

    def __new__(cls, dimension: int, factors=(), reduction_table=()):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        if not factors and not reduction_table:
            raise ValueError("needs factors or a reduction_table")
        if factors and dimension != len(factors):
            raise ValueError("dimension must equal the number of factors")
        return super().__new__(cls, dimension, factors, reduction_table)

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too


class TorsionCertificateError(ValueError):
    """The torsion certificate lies outside the computed torsion bracket."""


class ExternalArithmetic(NamedTuple):
    """Certificates the formula consumes but never computes."""

    sha_p_order: int = 1
    selmer_finite: bool = False
    lambda_torsion_certificate: bool = False
    torsion_p_override: int | None = None  # the certified exact torsion order
    sigma_index_R: int | None = None
    no_p_torsion_certificate: bool = False


class HypothesisResult(NamedTuple):
    name: str
    status: str
    detail: str


def plan(E: WeierstrassModel, p: int, m: int, M=()) -> list[CyclotomicSplitting]:
    """The splitting in Q(mu_m) of every relevant prime, in increasing order:
    the primes of the discriminant of the integral model E, the primes of M,
    and p.  A report covers these primes and no others.  Before any local
    data is computed, `invariants` refuses a singular E, and `splitting`
    refuses m < 1, a composite p and a residue field whose counts could not
    print (`UnprintableFieldError`)."""
    primes = {ell for ell, _ in factorize(abs(invariants(E).disc))}.union(M, (p,))
    return [splitting(ell, m) for ell in sorted(primes)]


def compute_M(A: AbelianVarietyInput) -> list[int]:
    """The sorted rational primes where the abelian variety has bad and not
    potentially good reduction; M is the set of places of Q(mu_m) above them.

    For factor curves the criterion is v_ell(j) < 0 for some factor; a
    reduction table takes precedence when supplied.
    """
    rational: set[int] = set()
    if A.reduction_table:
        for fact in A.reduction_table:
            if not fact.potentially_good:
                rational.add(fact.prime)
    else:
        for factor in A.factors:
            # j_pole_order(ell) > 0 exactly at the primes of the denominator
            j = invariants(factor).j
            rational.update(q for q, _ in factorize(j.denominator))
    return sorted(rational)


def local_data_at(model: WeierstrassModel, ell: int, m: int) -> LocalReductionData:
    """Reduction data of the curve at each of the g conjugate places of
    Q(mu_m) above ell: E is defined over Q, so they all share it.

    Tate's algorithm runs over the totally ramified field of degree e that
    `LocalField(ell, e)` is; the residue degree f is passed on.
    """
    sp = splitting(ell, m)
    return tate_algorithm(model, LocalField(ell, sp.e), f=sp.f)


def _certificate(given: bool) -> tuple[str, str]:
    """A clause that only a user certificate vouches for."""
    return (ASSUMED, "user certificate") if given else (FAIL, "no certificate supplied")


def _factors_ordinary(A: AbelianVarietyInput, p: int, m: int) -> tuple[str, str]:
    """A is good ordinary above p.  A table row marking p bad fails the
    clause, whatever the factors say; a table alone cannot certify it."""
    if any(fact.prime == p and not fact.good for fact in A.reduction_table):
        return FAIL, f"table marks {p} as bad"
    if not A.factors:
        return ASSUMED, "reduction table cannot certify ordinariness"
    classes = [local_data_at(factor, p, m).reduction_class for factor in A.factors]
    bad = [f"factor {i}: {cls}" for i, cls in enumerate(classes, 1) if cls != GOOD_ORDINARY]
    return (FAIL, "; ".join(bad)) if bad else (PASS, "all factors good ordinary")


def check_hypotheses(
    A: AbelianVarietyInput,
    p: int,
    m: int,
    ext: ExternalArithmetic,
    e_data_at_p: LocalReductionData,
) -> list[HypothesisResult]:
    """Audit of every clause the Euler-characteristic formula assumes, given
    the reduction data of E at the places above p, one row per clause in
    the order of the table below.

    Statuses: PASS (verified), ASSUMED (user certificate), FAIL.  The table
    is always produced; no clause failure aborts the computation.  Any p
    but a prime >= 5 is refused (`check_formula_prime`), so the first clause
    always passes.
    """
    check_formula_prime(p)
    threshold = 2 * A.dimension + 1
    cls = e_data_at_p.reduction_class
    clauses = {
        "p_prime_at_least_5": (PASS, f"p = {p}"),
        "sigma_no_p_torsion": (PASS, f"p = {p} > 2*dim(A) + 1 = {threshold}") if p > threshold
        else (ASSUMED, "certified by no_p_torsion_certificate") if ext.no_p_torsion_certificate
        else (FAIL, f"p = {p} <= {threshold} and no certificate supplied"),
        "E_good_ordinary_above_p": (PASS, f"class {cls}, N_v = {e_data_at_p.N_v}")
        if cls == GOOD_ORDINARY else (FAIL, f"class {cls} at the place above {p}"),
        "A_good_ordinary_above_p": _factors_ordinary(A, p, m),
        "selmer_finite": _certificate(ext.selmer_finite),
        "dual_selmer_lambda_torsion": _certificate(ext.lambda_torsion_certificate),
        "finitely_many_ramified_primes": (
            PASS, "ramification is confined to bad-not-potentially-good places and p"),
        "contains_cyclotomic_tower": (
            PASS, "automatic from the Weil pairing on the division points"),
    }
    return [HypothesisResult(name, *clause) for name, clause in clauses.items()]


# -- the exponent arithmetic ---------------------------------------------------------


class RhoResult(NamedTuple):
    """rho_p = p^exponent, with the audit decomposition of the exponent.

    When the torsion input is not exact the exponent is None and the window
    carries the two exponents obtained from the torsion bracket.
    """

    exponent: int | None
    window: tuple[int, int]
    breakdown: dict


def rho_p(
    p: int,
    prime_data: list[tuple[CyclotomicSplitting, LocalReductionData]],
    torsion: tuple[int, int],
    sha_p_order: int,
) -> RhoResult:
    """Exponent k with rho_p = p^k:

    k = vp(sha) - 2 vp(#torsion) + sum_v vp(c_v) + 2 sum_{v|p} vp(N_v).

    `prime_data` holds one (splitting, local data) pair per rational prime;
    the g places above it share that data, so each of its terms counts g
    times.  `torsion` is the bracket (lower, upper) of the torsion order
    that rho uses.  When lower == upper that order is exact and so is the
    exponent; otherwise the result is the exponent window of the bracket
    and no single value is fabricated.
    """
    sha_exp = vp(sha_p_order, p)
    tamagawa = sum(sp.g * vp(data.c_v, p) for sp, data in prime_data)
    counts = 2 * sum(
        sp.g * vp(data.N_v, p) for sp, data in prime_data if sp.ell == p and data.is_good
    )
    base = sha_exp + tamagawa + counts
    lower, upper = (vp(t, p) for t in torsion)
    torsion_term = -2 * lower if lower == upper else None
    breakdown = {
        "sha": sha_exp,
        "torsion": torsion_term,
        "tamagawa": tamagawa,
        "reduction_counts": counts,
    }
    exact_exp = None if torsion_term is None else base + torsion_term
    return RhoResult(exact_exp, (base - 2 * upper, base - 2 * lower), breakdown)


class AuditRow(NamedTuple):
    """|L_v(E,1)|_p = p^-vp_L at each of the g places above the rational
    prime ell of the bad-tower set; the places are conjugate and share the
    row.  Away from p, #ker(gamma_v) = p^k with k = gamma_kernel_exponent =
    vp(c_v) - vp_L; A is not potentially good at v, which is what puts v in
    M.  At p it is None."""

    ell: int
    vp_L: int
    gamma_kernel_exponent: int | None

    @property
    def contribution(self) -> int:
        """-vp_L, the exponent each place adds to chi_sigma."""
        return -self.vp_L


def chi_euler(
    p: int,
    rho: RhoResult,
    m_prime_data: list[tuple[CyclotomicSplitting, LocalReductionData]],
) -> tuple[int | None, list[AuditRow]]:
    """(chi_sigma exponent, audit rows, one per prime).

    chi_cyc is rho_p, so chi_sigma is the rho exponent plus -vp(L_v(E,1))
    at every place of the bad-tower set, g times for the g places above a
    prime; it is None when the rho exponent is.
    """
    rows, contributions = [], 0
    for sp, data in m_prime_data:
        vp_L = vp(data.L_at_1, p)
        rows.append(AuditRow(sp.ell, vp_L, None if sp.ell == p else vp(data.c_v, p) - vp_L))
        contributions -= sp.g * vp_L
    return None if rho.exponent is None else rho.exponent + contributions, rows


def tau_p(E: WeierstrassModel, p: int, m: int) -> int:
    """Sum of local degrees [F_v : Q_p] over places above p where the
    reduction is potentially supersingular; 0 in the potentially
    multiplicative or potentially ordinary cases.  The g places above p
    have degree e*f each, so the sum is e*f*g = [F : Q]."""
    return field_degree(m) if pot_supersingular(E, p) else 0


class CorankReport(NamedTuple):
    """Window and (when the tower index R is certified) absolute predictions
    for the normalized rank of the dual Selmer module, with degree = [F:Q]."""

    tau: int
    degree: int
    sigma_index_R: int | None

    @property
    def window(self) -> tuple[int, int]:
        return (self.tau, self.degree)

    def _times_R(self, n: int) -> int | None:
        return None if self.sigma_index_R is None else self.sigma_index_R * n

    global_corank = property(lambda self: self._times_R(self.degree))
    local_corank = property(lambda self: self._times_R(self.degree - self.tau))
    conjectural_rank = property(lambda self: self._times_R(self.tau))


def corank_report(degree: int, tau: int, sigma_index_R: int | None) -> CorankReport:
    if tau > degree:
        raise AssertionError("tau exceeds the field degree")
    return CorankReport(tau, degree, sigma_index_R)


# -- full pipeline --------------------------------------------------------------------


class EulerCharReport(NamedTuple):
    """One request's results; chi_cyc is `rho.exponent`, and tau and [F:Q]
    are `coranks.tau` and `coranks.degree`."""

    p: int
    conductor: int
    hypotheses: list[HypothesisResult]
    M_rational: list[int]
    places: list[tuple[CyclotomicSplitting, LocalReductionData]]  # one per prime
    torsion: TorsionEstimate
    torsion_source: str  # "computed" or "certificate"
    rho: RhoResult
    chi_sigma_exponent: int | None
    audit: list[AuditRow]
    coranks: CorankReport
    target_chi_sigma_exponent: int | None

    @property
    def suppressed(self) -> bool:
        """chi is not exact, as `chi_euler` decided."""
        return self.chi_sigma_exponent is None

    @property
    def suppression_reason(self) -> dict | None:
        """Why chi is suppressed, a torsion bracket that is not exact; None
        when it is not."""
        if not self.suppressed:
            return None
        return {
            "code": "TORSION_NOT_EXACT",
            "lower": self.torsion.lower,
            "upper": self.torsion.upper,
            "hint": "supply torsion_p_override or raise samples",
        }

    @property
    def failed(self) -> bool:
        return any(h.status == FAIL for h in self.hypotheses)

    @property
    def status(self) -> str:
        """HYPOTHESIS_FAIL if a clause FAILed, else NOT_EXACT if chi is suppressed, else OK."""
        return "HYPOTHESIS_FAIL" if self.failed else "NOT_EXACT" if self.suppressed else "OK"


def analyze(
    E: WeierstrassModel,
    p: int,
    m: int,
    A: AbelianVarietyInput,
    ext: ExternalArithmetic,
    samples: int = DEFAULT_SAMPLES,
    target_chi_sigma_exponent: int | None = None,
) -> EulerCharReport:
    """Run the whole pipeline: local data at every prime of the `plan`, the
    hypothesis audit, torsion bracketing, rho_p, both Euler-characteristic
    exponents, tau_p and the corank window."""
    M_rational = compute_M(A)
    prime_rows = [(sp, local_data_at(E, sp.ell, m)) for sp in plan(E, p, m, M_rational)]

    data_at_p = next(data for sp, data in prime_rows if sp.ell == p)
    hypotheses = check_hypotheses(A, p, m, ext, data_at_p)

    torsion = torsion_bound_over_F(E, p, m, samples=samples)
    used, torsion_source = (torsion.lower, torsion.upper), "computed"
    certificate = ext.torsion_p_override
    if certificate is not None:
        # lower and upper are powers of p, so this admits exactly the
        # powers of p in the bracket
        if certificate < torsion.lower or torsion.upper % certificate:
            raise TorsionCertificateError(
                f"certificate {certificate} lies outside the computed "
                f"bracket [{torsion.lower}, {torsion.upper}]"
            )
        torsion = TorsionEstimate(p, certificate, torsion.upper)
        used, torsion_source = (certificate, certificate), "certificate"
    rho = rho_p(p, prime_rows, used, ext.sha_p_order)

    m_prime_rows = [(sp, data) for sp, data in prime_rows if sp.ell in M_rational]
    chi_sigma, audit = chi_euler(p, rho, m_prime_rows)

    return EulerCharReport(
        p=p,
        conductor=m,
        hypotheses=hypotheses,
        M_rational=M_rational,
        places=prime_rows,
        torsion=torsion,
        torsion_source=torsion_source,
        rho=rho,
        chi_sigma_exponent=chi_sigma,
        audit=audit,
        coranks=corank_report(field_degree(m), tau_p(E, p, m), ext.sigma_index_R),
        target_chi_sigma_exponent=target_chi_sigma_exponent,
    )
