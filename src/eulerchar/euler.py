"""Global quantities of the Euler-characteristic formula: the bad-place set
of the tower, hypothesis audit, the Birch-Swinnerton-Dyer-type invariant
rho_p, the Euler characteristics over the cyclotomic line and over the full
tower, tau_p, local restriction-kernel orders, and corank predictions.

Everything here is exact integer arithmetic on p-adic valuation exponents;
chi values are only ever (base p, exponent) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    TorsionEstimate,
    WeierstrassModel,
    discriminant,
    integral_model,
    invariants,
    torsion_bound_over_F,
)
from .cyclotomic import field_degree, splitting
from .local_fields import make_local_field
from .tate import GOOD_ORDINARY, LocalReductionData, pot_supersingular, tate_algorithm
from .valuations import factorize, is_prime, vp

PASS = "PASS"
FAIL = "FAIL"
ASSUMED = "ASSUMED"


@dataclass(frozen=True)
class ReductionFact:
    """User-supplied reduction behaviour of the abelian variety at a prime."""

    prime: int
    potentially_good: bool
    good: bool

    def __post_init__(self):
        if self.good and not self.potentially_good:
            raise ValueError(f"table marks {self.prime} good but not potentially good")


@dataclass(frozen=True)
class AbelianVarietyInput:
    """The variety whose division tower is adjoined: either an explicit
    product of elliptic-curve factors, or a table covering every bad prime."""

    dimension: int
    factors: tuple[WeierstrassModel, ...] = ()
    reduction_table: tuple[ReductionFact, ...] = ()

    def __post_init__(self):
        if self.factors and self.dimension != len(self.factors):
            raise ValueError("dimension must equal the number of factors")
        if not self.factors and not self.reduction_table and self.dimension < 1:
            raise ValueError("abelian variety input is empty")

    def table_fact(self, ell: int) -> ReductionFact | None:
        for fact in self.reduction_table:
            if fact.prime == ell:
                return fact
        return None


class TorsionCertificateError(ValueError):
    """The torsion certificate lies outside the computed torsion bracket."""


@dataclass(frozen=True)
class ExternalArithmetic:
    """Certificates the formula consumes but never computes."""

    sha_p_order: int = 1
    selmer_finite: bool = False
    lambda_torsion_certificate: bool = False
    torsion_p_override: int | None = None  # the certified exact torsion order
    sigma_index_R: int | None = None
    no_p_torsion_certificate: bool = False


@dataclass(frozen=True)
class Place:
    """One place of Q(mu_m), identified by its rational prime and an index
    among the g conjugate places (which all share (e, f))."""

    ell: int
    e: int
    f: int
    index: int
    g: int

    @property
    def label(self) -> str:
        return f"{self.ell}#{self.index}"

    @property
    def q_v(self) -> int:
        return self.ell**self.f


@dataclass(frozen=True)
class HypothesisResult:
    name: str
    status: str
    detail: str


def places_above(ell: int, m: int) -> list[Place]:
    sp = splitting(ell, m)
    return [Place(ell, sp.e, sp.f, i + 1, sp.g) for i in range(sp.g)]


def bad_primes_of_curve(model: WeierstrassModel) -> list[int]:
    """Primes where the given integral model has positive disc valuation."""
    disc = discriminant(integral_model(model))
    return [p for p, _ in factorize(abs(disc.numerator))]


def compute_M(A: AbelianVarietyInput, m: int) -> tuple[list[int], list[Place]]:
    """Rational primes (and the places of Q(mu_m) above them) where the
    abelian variety has bad and not potentially good reduction.

    For factor curves the criterion is v_ell(j) < 0 for some factor; a
    reduction table takes precedence when supplied.
    """
    rational: set[int] = set()
    if A.reduction_table:
        for fact in A.reduction_table:
            if not fact.potentially_good:
                rational.add(fact.prime)
    else:
        if not A.factors:
            raise ValueError("abelian variety has neither factors nor a table")
        for factor in A.factors:
            # j_pole_order(ell) > 0 exactly at the primes of the denominator
            j = invariants(factor).j
            rational.update(q for q, _ in factorize(j.denominator))
    rational_sorted = sorted(rational)
    places = [pl for ell in rational_sorted for pl in places_above(ell, m)]
    return rational_sorted, places


def local_data_at(model: WeierstrassModel, ell: int, m: int) -> LocalReductionData:
    """Reduction data of the curve at (any of) the places of Q(mu_m) above ell.

    Tate's algorithm runs over the totally ramified field of degree e from
    the memoized `make_local_field`, so places with the same (ell, e) share
    one field; the residue degree f is passed on.
    """
    sp = splitting(ell, m)
    return tate_algorithm(model, make_local_field(ell, sp.e), f=sp.f)


def check_hypotheses(
    A: AbelianVarietyInput,
    p: int,
    m: int,
    ext: ExternalArithmetic,
    e_data_at_p: LocalReductionData,
) -> list[HypothesisResult]:
    """Audit of every clause the Euler-characteristic formula assumes, given
    the reduction data of E at the places above p.

    Statuses: PASS (verified), ASSUMED (user certificate), FAIL.  The table
    is always produced; no clause failure aborts the computation.
    """
    rows: list[HypothesisResult] = []

    if is_prime(p) and p >= 5:
        rows.append(HypothesisResult("p_prime_at_least_5", PASS, f"p = {p}"))
    else:
        rows.append(
            HypothesisResult("p_prime_at_least_5", FAIL, f"p = {p} is not a prime >= 5")
        )

    threshold = 2 * A.dimension + 1
    if p > threshold:
        rows.append(
            HypothesisResult(
                "sigma_no_p_torsion",
                PASS,
                f"p = {p} > 2*dim(A) + 1 = {threshold}",
            )
        )
    elif ext.no_p_torsion_certificate:
        rows.append(
            HypothesisResult(
                "sigma_no_p_torsion", ASSUMED, "certified by no_p_torsion_certificate"
            )
        )
    else:
        rows.append(
            HypothesisResult(
                "sigma_no_p_torsion",
                FAIL,
                f"p = {p} <= {threshold} and no certificate supplied",
            )
        )

    if e_data_at_p.reduction_class == GOOD_ORDINARY:
        rows.append(
            HypothesisResult(
                "E_good_ordinary_above_p",
                PASS,
                f"class {e_data_at_p.reduction_class}, N_v = {e_data_at_p.N_v}",
            )
        )
    else:
        rows.append(
            HypothesisResult(
                "E_good_ordinary_above_p",
                FAIL,
                f"class {e_data_at_p.reduction_class} at the place above {p}",
            )
        )

    if A.factors:
        bad = []
        for i, factor in enumerate(A.factors):
            data = local_data_at(factor, p, m)
            if data.reduction_class != GOOD_ORDINARY:
                bad.append(f"factor {i + 1}: {data.reduction_class}")
        if bad:
            rows.append(HypothesisResult("A_good_ordinary_above_p", FAIL, "; ".join(bad)))
        else:
            rows.append(
                HypothesisResult(
                    "A_good_ordinary_above_p", PASS, "all factors good ordinary"
                )
            )
    else:
        fact = A.table_fact(p)
        if fact is not None and not fact.good:
            rows.append(
                HypothesisResult(
                    "A_good_ordinary_above_p", FAIL, f"table marks {p} as bad"
                )
            )
        else:
            rows.append(
                HypothesisResult(
                    "A_good_ordinary_above_p",
                    ASSUMED,
                    "reduction table cannot certify ordinariness",
                )
            )

    rows.append(
        HypothesisResult(
            "selmer_finite",
            ASSUMED if ext.selmer_finite else FAIL,
            "user certificate" if ext.selmer_finite else "no certificate supplied",
        )
    )
    rows.append(
        HypothesisResult(
            "dual_selmer_lambda_torsion",
            ASSUMED if ext.lambda_torsion_certificate else FAIL,
            "user certificate" if ext.lambda_torsion_certificate else "no certificate supplied",
        )
    )
    rows.append(
        HypothesisResult(
            "finitely_many_ramified_primes",
            PASS,
            "ramification is confined to bad-not-potentially-good places and p",
        )
    )
    rows.append(
        HypothesisResult(
            "contains_cyclotomic_tower",
            PASS,
            "automatic from the Weil pairing on the division points",
        )
    )
    return rows


def hypotheses_failed(rows: list[HypothesisResult]) -> bool:
    return any(r.status == FAIL for r in rows)


# -- the exponent arithmetic ---------------------------------------------------------


@dataclass(frozen=True)
class RhoResult:
    """rho_p = p^exponent, with the audit decomposition of the exponent.

    When the torsion input is not exact the exponent is None and the window
    carries the two exponents obtained from the torsion bracket.
    """

    p: int
    exponent: int | None
    window: tuple[int, int]
    breakdown: dict

    @property
    def exact(self) -> bool:
        return self.exponent is not None


def rho_p(
    p: int,
    place_data: list[tuple[Place, LocalReductionData]],
    torsion: tuple[int, int] | None,
    sha_p_order: int,
) -> RhoResult:
    """Exponent k with rho_p = p^k:

    k = vp(sha) - 2 vp(#torsion) + sum_v vp(c_v) + 2 sum_{v|p} vp(N_v).

    `torsion` is the bracket (lower, upper) of the torsion order that rho
    uses.  When lower == upper that order is exact and so is the exponent;
    otherwise the result is the exponent window of the bracket and no
    single value is fabricated.  With torsion=None (no torsion machinery,
    p < 5) the exponent is None and the window collapses to the
    torsion-free sum.
    """
    sha_exp = vp(sha_p_order, p)
    tamagawa = sum(vp(data.c_v, p) for _, data in place_data)
    counts = 2 * sum(
        vp(data.N_v, p) for _, data in place_data if data.ell == p and data.is_good
    )
    base = sha_exp + tamagawa + counts

    exact_exp = torsion_term = None
    window = (base, base)
    if torsion is not None:
        lower, upper = (vp(t, p) for t in torsion)
        window = (base - 2 * upper, base - 2 * lower)
        if lower == upper:
            torsion_term = -2 * lower
            exact_exp = base + torsion_term
    breakdown = {
        "sha": sha_exp,
        "torsion": torsion_term,
        "tamagawa": tamagawa,
        "reduction_counts": counts,
    }
    return RhoResult(p=p, exponent=exact_exp, window=window, breakdown=breakdown)


@dataclass(frozen=True)
class AuditRow:
    """Per-place contribution to |prod L_v(E,1)|_p over the bad-tower set."""

    place: Place
    q_v: int
    reduction_class: str
    L_at_1: Fraction
    vp_L: int
    contribution: int  # -vp_L, the exponent this place adds to chi_sigma
    gamma_kernel_exponent: int | None


def chi_euler(
    p: int,
    rho: RhoResult,
    m_place_data: list[tuple[Place, LocalReductionData]],
) -> tuple[int | None, int | None, list[AuditRow]]:
    """(chi_cyc exponent, chi_sigma exponent, per-place audit).

    chi_cyc equals the rho exponent; chi_sigma adds -vp(L_v(E,1)) at every
    place of the bad-tower set.  Both are None when rho is not exact.
    """
    rows: list[AuditRow] = []
    total = 0
    for place, data in m_place_data:
        v = vp(data.L_at_1, p)
        gamma = None
        if place.ell != p:
            gamma = gamma_kernel_exponent(data, p)
        rows.append(
            AuditRow(
                place=place,
                q_v=data.q_v,
                reduction_class=data.reduction_class,
                L_at_1=data.L_at_1,
                vp_L=v,
                contribution=-v,
                gamma_kernel_exponent=gamma,
            )
        )
        total += -v
    if not rho.exact:
        return None, None, rows
    chi_cyc = rho.exponent
    chi_sigma = chi_cyc + total
    return chi_cyc, chi_sigma, rows


def tau_p(E: WeierstrassModel, p: int, m: int) -> int:
    """Sum of local degrees [F_v : Q_p] over places above p where the
    reduction is potentially supersingular; 0 in the potentially
    multiplicative or potentially ordinary cases."""
    if invariants(E).j_pole_order(p) or not pot_supersingular(E, p):
        return 0
    sp = splitting(p, m)
    return sp.g * sp.e * sp.f


def gamma_kernel_exponent(e_data: LocalReductionData, p: int) -> int:
    """Exponent k = vp(c_v / L_v(E,1)) with #ker(gamma_v) = p^k at a place
    v of the bad-tower set M not dividing p; A is not potentially good
    there, which is what puts v in M."""
    if e_data.ell == p:
        raise ValueError("gamma kernel orders are computed away from p")
    return vp(e_data.c_v, p) - vp(e_data.L_at_1, p)


@dataclass(frozen=True)
class CorankReport:
    """Window and (when the tower index is certified) absolute predictions
    for the normalized rank of the dual Selmer module."""

    tau: int
    degree: int
    sigma_index_R: int | None
    global_corank: int | None
    local_corank: int | None
    conjectural_rank: int | None

    @property
    def window(self) -> tuple[int, int]:
        return (self.tau, self.degree)


def corank_report(degree: int, tau: int, sigma_index_R: int | None) -> CorankReport:
    if tau > degree:
        raise AssertionError("tau exceeds the field degree")
    if sigma_index_R is None:
        return CorankReport(tau, degree, None, None, None, None)
    return CorankReport(
        tau,
        degree,
        sigma_index_R,
        sigma_index_R * degree,
        sigma_index_R * (degree - tau),
        sigma_index_R * tau,
    )


# -- full pipeline --------------------------------------------------------------------


@dataclass
class EulerCharReport:
    p: int
    conductor: int
    degree: int
    hypotheses: list[HypothesisResult]
    M_rational: list[int]
    places: list[tuple[Place, LocalReductionData]]
    torsion: TorsionEstimate | None
    torsion_source: str
    rho: RhoResult
    chi_cyc_exponent: int | None
    chi_sigma_exponent: int | None
    audit: list[AuditRow]
    tau: int
    coranks: CorankReport
    target_chi_sigma_exponent: int | None
    suppressed: bool
    suppression_reason: dict | None

    @property
    def failed(self) -> bool:
        return hypotheses_failed(self.hypotheses)


def analyze(
    E: WeierstrassModel,
    p: int,
    m: int,
    A: AbelianVarietyInput,
    ext: ExternalArithmetic,
    samples: int = 20,
    target_chi_sigma_exponent: int | None = None,
) -> EulerCharReport:
    """Run the whole pipeline: local data at every relevant place, the
    hypothesis audit, torsion bracketing, rho_p, both Euler-characteristic
    exponents, tau_p and the corank window."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if not is_prime(p):
        raise ValueError("p must be prime")
    invariants(E)  # reject singular input with a clear diagnostic

    M_rational, M_places = compute_M(A, m)

    e_bad = bad_primes_of_curve(E)
    relevant = sorted(set(e_bad) | set(M_rational) | {p})
    data_by_ell: dict[int, LocalReductionData] = {}
    for ell in relevant:
        data_by_ell[ell] = local_data_at(E, ell, m)

    place_rows: list[tuple[Place, LocalReductionData]] = []
    for ell in relevant:
        for place in places_above(ell, m):
            place_rows.append((place, data_by_ell[ell]))

    hypotheses = check_hypotheses(A, p, m, ext, data_by_ell[p])

    # the torsion machinery requires p >= 5; below it the p >= 5 hypothesis
    # clause has already FAILed, so rho stays undetermined
    torsion, used, torsion_source = None, None, "unavailable"
    if p >= 5:
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
    rho = rho_p(p, place_rows, used, ext.sha_p_order)

    m_place_rows = [(pl, data) for pl, data in place_rows if pl.ell in M_rational]
    chi_cyc, chi_sigma, audit = chi_euler(p, rho, m_place_rows)

    suppressed = chi_sigma is None
    reason = None
    if suppressed and torsion is None:
        reason = {"code": "TORSION_UNAVAILABLE_FOR_SMALL_P", "p": p}
    elif suppressed:
        reason = {
            "code": "TORSION_NOT_EXACT",
            "lower": torsion.lower,
            "upper": torsion.upper,
            "hint": "supply torsion_p_override or raise samples",
        }

    tau = tau_p(E, p, m)
    coranks = corank_report(field_degree(m), tau, ext.sigma_index_R)

    return EulerCharReport(
        p=p,
        conductor=m,
        degree=field_degree(m),
        hypotheses=hypotheses,
        M_rational=list(M_rational),
        places=place_rows,
        torsion=torsion,
        torsion_source=torsion_source,
        rho=rho,
        chi_cyc_exponent=chi_cyc,
        chi_sigma_exponent=chi_sigma,
        audit=audit,
        tau=tau,
        coranks=coranks,
        target_chi_sigma_exponent=target_chi_sigma_exponent,
        suppressed=suppressed,
        suppression_reason=reason,
    )
