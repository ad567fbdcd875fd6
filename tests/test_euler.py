import json
from dataclasses import replace
from fractions import Fraction

import pytest

from eulerchar.cli import report_to_dict
from eulerchar.curves import WeierstrassModel, extension_count
from eulerchar.euler import (
    ASSUMED,
    FAIL,
    PASS,
    AbelianVarietyInput,
    ExternalArithmetic,
    ReductionFact,
    analyze,
    check_hypotheses,
    chi_euler,
    compute_M,
    corank_report,
    gamma_kernel_exponent,
    hypotheses_failed,
    local_data_at,
    places_above,
    rho_p,
    tau_p,
)
from eulerchar.finite_fields import fq_create
from oracles import brute_count, lift_model

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])
EPRIME = WeierstrassModel.from_rationals([-1, 2, 2, 0, 0])
EJ0 = WeierstrassModel.from_rationals([0, 0, 0, 0, 1])

TABLE_23 = AbelianVarietyInput(
    dimension=2,
    reduction_table=(ReductionFact(2, False, False), ReductionFact(3, False, False)),
)
EXT_FULL = ExternalArithmetic(
    sha_p_order=1,
    selmer_finite=True,
    lambda_torsion_certificate=True,
    torsion_p_override=7,
)


def test_compute_M_factor_curve():
    rational, places = compute_M(AbelianVarietyInput(dimension=1, factors=(EPRIME,)), 7)
    assert rational == [2, 13]
    by_ell = {}
    for pl in places:
        by_ell.setdefault(pl.ell, []).append(pl)
    assert len(by_ell[2]) == 2  # two places of F above 2
    assert len(by_ell[13]) == 3  # three places above 13
    rational_e, _ = compute_M(AbelianVarietyInput(dimension=1, factors=(E294,)), 7)
    assert rational_e == [2, 3]


def test_compute_M_everywhere_potentially_good():
    rational, places = compute_M(AbelianVarietyInput(dimension=1, factors=(EJ0,)), 7)
    assert rational == [] and places == []


def test_compute_M_table_precedence():
    rational, _ = compute_M(TABLE_23, 7)
    assert rational == [2, 3]
    with pytest.raises(ValueError):
        compute_M(
            AbelianVarietyInput(
                dimension=1, reduction_table=(ReductionFact(2, False, True),)
            ),
            7,
        )


def test_check_hypotheses_statuses():
    rows = check_hypotheses(TABLE_23, 7, 7, EXT_FULL, local_data_at(E294, 7, 7))
    by_name = {r.name: r for r in rows}
    assert by_name["p_prime_at_least_5"].status == PASS
    # dim = 2: threshold 2*2+1 = 5 and 7 > 5
    assert by_name["sigma_no_p_torsion"].status == PASS
    assert by_name["E_good_ordinary_above_p"].status == PASS
    assert by_name["selmer_finite"].status == ASSUMED
    assert by_name["dual_selmer_lambda_torsion"].status == ASSUMED
    assert not hypotheses_failed(rows)


def test_check_hypotheses_failures():
    rows = check_hypotheses(TABLE_23, 3, 7, EXT_FULL, local_data_at(E294, 3, 7))
    by_name = {r.name: r for r in rows}
    assert by_name["p_prime_at_least_5"].status == FAIL
    assert hypotheses_failed(rows)

    # supersingular at p: y^2 = x^3 + 1 at p = 5
    rows2 = check_hypotheses(
        AbelianVarietyInput(dimension=1, factors=(EJ0,)), 5, 1, EXT_FULL, local_data_at(EJ0, 5, 1)
    )
    by_name2 = {r.name: r for r in rows2}
    assert by_name2["E_good_ordinary_above_p"].status == FAIL

    # low p against large dimension without certificate
    at_7 = local_data_at(E294, 7, 7)
    rows3 = check_hypotheses(
        AbelianVarietyInput(dimension=3, reduction_table=(ReductionFact(2, False, False),)),
        7, 7, ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True), at_7,
    )
    assert {r.name: r.status for r in rows3}["sigma_no_p_torsion"] == FAIL
    rows4 = check_hypotheses(
        AbelianVarietyInput(dimension=3, reduction_table=(ReductionFact(2, False, False),)),
        7, 7, ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True,
                                 no_p_torsion_certificate=True), at_7,
    )
    assert {r.name: r.status for r in rows4}["sigma_no_p_torsion"] == ASSUMED


def _place_rows(model, p, m, primes):
    rows = []
    for ell in primes:
        data = local_data_at(model, ell, m)
        for pl in places_above(ell, m):
            rows.append((pl, data))
    return rows


def test_rho_reference_configuration():
    rows = _place_rows(E294, 7, 7, [2, 3, 7])
    rho = rho_p(7, rows, (7, 7), 1)
    assert rho.exponent == 0
    assert rho.breakdown == {
        "sha": 0,
        "torsion": -2,
        "tamagawa": 0,
        "reduction_counts": 2,
    }


def test_rho_trivial_and_sha():
    rho = rho_p(7, [], (1, 1), 1)
    assert rho.exponent == 0
    rho2 = rho_p(7, [], (1, 1), 7)
    assert rho2.exponent == 1


def test_rho_window_when_not_exact():
    rho = rho_p(7, [], (1, 7), 1)
    assert rho.exponent is None
    assert rho.window == (-2, 0)
    assert rho.breakdown["torsion"] is None


def test_rho_override_when_not_exact():
    """A certificate inside a bracket that is not exact is the one order
    rho uses; the report keeps the computed upper bound."""
    rows = _place_rows(E294, 7, 7, [2, 3, 7])
    ext = ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True)
    computed = analyze(E294, 7, 7, TABLE_23, ext)
    assert (computed.torsion.lower, computed.torsion.upper) == (1, 7)
    for certificate, exponent in ((1, 2), (7, 0)):
        report = analyze(E294, 7, 7, TABLE_23, replace(ext, torsion_p_override=certificate))
        assert (report.torsion.lower, report.torsion.upper) == (certificate, 7)
        assert report.torsion_source == "certificate"
        assert report.rho == rho_p(7, rows, (certificate, certificate), 1)
        assert report.rho.exponent == exponent


def test_rho_without_torsion():
    """torsion=None (p < 5): no exponent, and the window is the
    torsion-free sum."""
    rows = _place_rows(E294, 7, 7, [2, 3, 7])
    rho = rho_p(7, rows, None, 1)
    assert rho.exponent is None
    assert rho.window == (2, 2)
    assert rho.breakdown == {
        "sha": 0,
        "torsion": None,
        "tamagawa": 0,
        "reduction_counts": 2,
    }


def test_rho_ignores_euler_factors():
    """rho never reads L_at_1: perturbing every Euler factor changes nothing."""
    rows = _place_rows(E294, 7, 7, [2, 3, 7])
    before = rho_p(7, rows, (7, 7), 1).exponent
    perturbed = [
        (pl, replace(data, L_at_1=data.L_at_1 * Fraction(7, 3))) for pl, data in rows
    ]
    assert rho_p(7, perturbed, (7, 7), 1).exponent == before


def test_chi_example_one():
    rows = _place_rows(E294, 7, 7, [2, 3, 7])
    rho = rho_p(7, rows, (7, 7), 1)
    m_rows = [(pl, d) for pl, d in rows if pl.ell in (2, 3)]
    chi_cyc, chi_sigma, audit = chi_euler(7, rho, m_rows)
    assert chi_cyc == 0
    assert chi_sigma == 3  # 7^3
    assert [row.contribution for row in audit] == [1, 1, 1]
    assert chi_sigma - chi_cyc == sum(r.contribution for r in audit)


def test_chi_empty_bad_set():
    rho = rho_p(7, [], (1, 1), 1)
    chi_cyc, chi_sigma, audit = chi_euler(7, rho, [])
    assert chi_cyc == chi_sigma == 0 and audit == []


def test_tau_anchors():
    assert tau_p(E294, 7, 7) == 0
    assert tau_p(EJ0, 5, 1) == 1
    assert tau_p(EJ0, 5, 5) == 4  # unique totally ramified place, e*f = phi(5)
    assert tau_p(E294, 2, 7) == 0  # potentially multiplicative: the zero branch


def test_gamma_kernel_anchors():
    data2 = local_data_at(E294, 2, 7)  # split, c = 1, L = 8/7
    assert gamma_kernel_exponent(data2, 7) == 1
    data3 = local_data_at(E294, 3, 7)  # split, c = 1, L = 729/728
    assert gamma_kernel_exponent(data3, 7) == 1
    with pytest.raises(ValueError):
        gamma_kernel_exponent(local_data_at(E294, 7, 7), 7)


def test_corank_reports():
    rep = corank_report(6, 0, None)
    assert rep.window == (0, 6)
    assert rep.global_corank is None
    pinned = corank_report(4, 4, None)
    assert pinned.window == (4, 4)
    full = corank_report(1, 1, 48)
    assert (full.global_corank, full.local_corank, full.conjectural_rank) == (48, 0, 48)


def test_analyze_example_one_end_to_end():
    report = analyze(E294, 7, 7, TABLE_23, EXT_FULL)
    assert report.chi_sigma_exponent == 3
    assert report.chi_cyc_exponent == 0
    assert report.rho.exponent == 0
    assert not report.failed and not report.suppressed
    assert report.M_rational == [2, 3]
    assert report.tau == 0
    assert report.coranks.window == (0, 6)


def test_analyze_example_two_audit():
    report = analyze(
        E294,
        7,
        7,
        AbelianVarietyInput(dimension=1, factors=(EPRIME,)),
        EXT_FULL,
        target_chi_sigma_exponent=2,
    )
    assert report.M_rational == [2, 13]
    above2 = [r for r in report.audit if r.place.ell == 2]
    above13 = [r for r in report.audit if r.place.ell == 13]
    assert sum(r.contribution for r in above2) == 2
    assert len(above13) == 3
    for row in above13:
        assert row.q_v == 169
        assert row.L_at_1 == Fraction(169, row.L_at_1.denominator)
        assert row.L_at_1.denominator == 196  # genuine F_169 count
    assert report.target_chi_sigma_exponent == 2


def test_analyze_not_exact_suppression():
    ext = ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True)
    report = analyze(E294, 7, 7, TABLE_23, ext)
    assert report.suppressed
    assert report.chi_sigma_exponent is None
    assert report.rho.exponent is None
    assert report.rho.window == (0, 2)
    assert report.suppression_reason["code"] == "TORSION_NOT_EXACT"


def test_report_determinism():
    doc1 = json.dumps(report_to_dict(analyze(E294, 7, 7, TABLE_23, EXT_FULL)), indent=2)
    doc2 = json.dumps(report_to_dict(analyze(E294, 7, 7, TABLE_23, EXT_FULL)), indent=2)
    assert doc1 == doc2


def test_analyze_large_residue_fields_match_oracle():
    """37a with A bad at 2, p = 5, m = 19 has good places with residue fields
    F_{2^18} and F_{5^9}.  Each N_v is the F_ell brute-force count of the
    reduced curve carried up by the trace recurrence, and brute-force counts
    over F_{ell^2} and F_{ell^3} confirm the recurrence on that curve."""
    e37 = WeierstrassModel.from_rationals([0, 0, 1, -1, 0])
    bad_at_2 = AbelianVarietyInput(dimension=1, reduction_table=(ReductionFact(2, False, False),))
    ext = ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True)
    report = analyze(e37, 5, 19, bad_at_2, ext)
    good = {(pl.ell, pl.f): data for pl, data in report.places if data.is_good}
    assert sorted(good) == [(2, 18), (5, 9)]
    for (ell, f), data in good.items():

        def over(k):
            return lift_model(data.reduced_model, fq_create(ell, k))

        n1 = brute_count(over(1))
        for k in (2, 3):
            assert brute_count(over(k)) == extension_count(n1, ell, k)
        assert data.N_v == extension_count(n1, ell, f)
