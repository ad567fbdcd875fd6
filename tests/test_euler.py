import json
from fractions import Fraction
from math import gcd

import pytest

from eulerchar import euler
from eulerchar.cli import main, report_to_dict
from eulerchar.curves import (
    SingularModelError,
    WeierstrassModel,
    extension_count,
    invariants,
    reduce_model,
)
from eulerchar.cyclotomic import splitting
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
    local_data_at,
    rho_p,
    tau_p,
)
from eulerchar.valuations import vp
from oracles import brute_count, finite_field, lift_model

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])
EPRIME = WeierstrassModel.from_rationals([-1, 2, 2, 0, 0])
EJ0 = WeierstrassModel.from_rationals([0, 0, 0, 0, 1])
E11A = WeierstrassModel.from_rationals([0, -1, 1, -10, -20])

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
    rational = compute_M(AbelianVarietyInput(dimension=1, factors=(EPRIME,)))
    assert rational == [2, 13]
    # two places of F = Q(mu_7) above 2, three above 13
    assert [splitting(ell, 7).g for ell in rational] == [2, 3]
    assert compute_M(AbelianVarietyInput(dimension=1, factors=(E294,))) == [2, 3]


def test_compute_M_everywhere_potentially_good():
    assert compute_M(AbelianVarietyInput(dimension=1, factors=(EJ0,))) == []


def test_compute_M_table_precedence():
    assert compute_M(TABLE_23) == [2, 3]
    with pytest.raises(ValueError):
        compute_M(
            AbelianVarietyInput(
                dimension=1, reduction_table=(ReductionFact(2, False, True),)
            )
        )


def test_records_validate_at_construction():
    """The checks of a table row and of a variety run whenever one is
    built, by `_replace` too."""
    with pytest.raises(ValueError, match="table marks 2 good but not potentially good"):
        ReductionFact(2, False, True)
    with pytest.raises(ValueError, match="table marks 2 good but not potentially good"):
        ReductionFact(2, False, False)._replace(good=True)
    with pytest.raises(ValueError, match="dimension must equal the number of factors"):
        AbelianVarietyInput(dimension=2, factors=(E294,))
    with pytest.raises(ValueError, match="dimension must equal the number of factors"):
        AbelianVarietyInput(dimension=1, factors=(E294,))._replace(dimension=2)
    with pytest.raises(ValueError, match="dimension must be at least 1, got 0"):
        AbelianVarietyInput(dimension=0)


def test_variety_needs_a_dimension_of_at_least_one_and_some_input():
    """A variety of dimension < 1 is refused whatever else it is given, by
    `_replace` too; so is one with neither factors nor a table."""
    table = (ReductionFact(2, False, False),)
    for dimension in (0, -1):
        with pytest.raises(ValueError, match=f"dimension must be at least 1, got {dimension}"):
            AbelianVarietyInput(dimension=dimension, reduction_table=table)
    with pytest.raises(ValueError, match="dimension must be at least 1, got 0"):
        AbelianVarietyInput(dimension=1, reduction_table=table)._replace(dimension=0)
    with pytest.raises(ValueError, match="needs factors or a reduction_table"):
        AbelianVarietyInput(dimension=1)
    with pytest.raises(ValueError, match="needs factors or a reduction_table"):
        TABLE_23._replace(reduction_table=())


def test_table_marking_p_bad_outranks_the_factors():
    """With factors and a table, a table row marking p bad FAILs
    A_good_ordinary_above_p though every factor is good ordinary above p;
    without such a row the factors decide, and with no factors the clause
    is ASSUMED.  The table decides the bad-tower set."""
    rows_2_7 = (ReductionFact(2, False, False), ReductionFact(7, False, False))
    both = AbelianVarietyInput(dimension=1, factors=(EPRIME,), reduction_table=rows_2_7)
    data = local_data_at(E294, 7, 7)

    def clause(A):
        rows = check_hypotheses(A, 7, 7, EXT_FULL, data)
        return next((r.status, r.detail) for r in rows if r.name == "A_good_ordinary_above_p")

    assert clause(both) == (FAIL, "table marks 7 as bad")
    assert clause(both._replace(reduction_table=rows_2_7[:1])) == (
        PASS, "all factors good ordinary")
    assert clause(AbelianVarietyInput(dimension=1, reduction_table=rows_2_7[:1]))[0] == ASSUMED
    assert clause(AbelianVarietyInput(dimension=1, reduction_table=rows_2_7)) == (
        FAIL, "table marks 7 as bad")
    report = analyze(E294, 7, 7, both, EXT_FULL)
    assert report.M_rational == [2, 7]
    assert report.status == "HYPOTHESIS_FAIL"


def test_records_are_immutable():
    report = analyze(E294, 7, 7, TABLE_23, EXT_FULL)
    _, data = report.places[0]
    for record, field in ((E294, "a1"), (data.kodaira, "n"), (data, "c_v"), (report, "tau")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_check_hypotheses_statuses():
    rows = check_hypotheses(TABLE_23, 7, 7, EXT_FULL, local_data_at(E294, 7, 7))
    by_name = {r.name: r for r in rows}
    assert by_name["p_prime_at_least_5"].status == PASS
    # dim = 2: threshold 2*2+1 = 5 and 7 > 5
    assert by_name["sigma_no_p_torsion"].status == PASS
    assert by_name["E_good_ordinary_above_p"].status == PASS
    assert by_name["selmer_finite"].status == ASSUMED
    assert by_name["dual_selmer_lambda_torsion"].status == ASSUMED
    assert all(r.status != FAIL for r in rows)


def test_check_hypotheses_failures():
    # p = 3 is refused, not audited: the first clause cannot FAIL
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        check_hypotheses(TABLE_23, 3, 7, EXT_FULL, local_data_at(E294, 3, 7))

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


def _prime_rows(model, m, primes):
    return [(splitting(ell, m), local_data_at(model, ell, m)) for ell in primes]


def test_rho_reference_configuration():
    rows = _prime_rows(E294, 7, [2, 3, 7])
    rho = rho_p(7, rows, (7, 7), 1)
    assert rho.exponent == 0
    assert rho.breakdown == {
        "sha": 0,
        "torsion": -2,
        "tamagawa": 0,
        "reduction_counts": 2,
    }


def test_rho_weights_each_prime_by_g():
    """Over Q(mu_55) 11a has g = 4 places above 11, each I50 with c_v = 50,
    and g = 2 good places above 5, each with N_v = 3025 = 5^2 11^2: every
    place adds its own term."""
    rows = _prime_rows(E11A, 55, [5, 11])
    assert [(sp.ell, sp.g) for sp, _ in rows] == [(5, 2), (11, 4)]
    assert [(data.c_v, data.N_v) for _, data in rows] == [(1, 3025), (50, None)]
    rho = rho_p(5, rows, (5, 5), 1)
    assert rho.breakdown == {
        "sha": 0,
        "torsion": -2,
        "tamagawa": 4 * 2,
        "reduction_counts": 2 * (2 * 2),
    }
    assert rho.exponent == 14


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
    rows = _prime_rows(E294, 7, [2, 3, 7])
    ext = ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True)
    computed = analyze(E294, 7, 7, TABLE_23, ext)
    assert (computed.torsion.lower, computed.torsion.upper) == (1, 7)
    for certificate, exponent in ((1, 2), (7, 0)):
        report = analyze(E294, 7, 7, TABLE_23, ext._replace(torsion_p_override=certificate))
        assert (report.torsion.lower, report.torsion.upper) == (certificate, 7)
        assert report.torsion_source == "certificate"
        assert report.rho == rho_p(7, rows, (certificate, certificate), 1)
        assert report.rho.exponent == exponent


def test_rho_ignores_euler_factors():
    """rho never reads L_at_1: perturbing every Euler factor changes nothing."""
    rows = _prime_rows(E294, 7, [2, 3, 7])
    before = rho_p(7, rows, (7, 7), 1).exponent
    perturbed = [
        (sp, data._replace(L_at_1=data.L_at_1 * Fraction(7, 3))) for sp, data in rows
    ]
    assert rho_p(7, perturbed, (7, 7), 1).exponent == before


def test_chi_example_one():
    rows = _prime_rows(E294, 7, [2, 3, 7])
    rho = rho_p(7, rows, (7, 7), 1)
    m_rows = [(sp, d) for sp, d in rows if sp.ell in (2, 3)]
    chi_sigma, audit = chi_euler(7, rho, m_rows)
    assert rho.exponent == 0  # chi_cyc
    assert chi_sigma == 3  # 7^3
    # one row per prime: the g = 2 places above 2 each contribute 1
    g = {sp.ell: sp.g for sp, _ in m_rows}
    assert [(r.ell, g[r.ell], r.contribution) for r in audit] == [(2, 2, 1), (3, 1, 1)]
    assert chi_sigma - rho.exponent == sum(g[r.ell] * r.contribution for r in audit)


def test_chi_empty_bad_set():
    rho = rho_p(7, [], (1, 1), 1)
    chi_sigma, audit = chi_euler(7, rho, [])
    assert rho.exponent == chi_sigma == 0 and audit == []


def test_tau_anchors():
    assert tau_p(E294, 7, 7) == 0
    assert tau_p(EJ0, 5, 1) == 1
    assert tau_p(EJ0, 5, 5) == 4  # unique totally ramified place, e*f = phi(5)
    assert tau_p(EJ0, 5, 11) == 10  # g = 2 places of degree f = 5
    assert tau_p(EPRIME, 13, 7) == 0  # v_13(j) < 0: the zero branch


def test_gamma_kernel_anchors():
    """#ker(gamma_v) = p^(vp(c_v) - vp(L_v)) away from p, and None at p."""
    # split at 2 and 3 with c = 1, L = 8/7 and L = 729/728
    rows = _prime_rows(E294, 7, [2, 3, 7])
    _, audit = chi_euler(7, rho_p(7, rows, (7, 7), 1), rows)
    assert [(r.ell, r.gamma_kernel_exponent) for r in audit] == [(2, 1), (3, 1), (7, None)]


def test_corank_reports():
    rep = corank_report(6, 0, None)
    assert rep.window == (0, 6)
    assert (rep.global_corank, rep.local_corank, rep.conjectural_rank) == (None, None, None)
    pinned = corank_report(4, 4, None)
    assert pinned.window == (4, 4)
    full = corank_report(1, 1, 48)
    assert (full.global_corank, full.local_corank, full.conjectural_rank) == (48, 0, 48)
    # R [F:Q], R ([F:Q] - tau) and R tau
    split = corank_report(6, 2, 3)
    assert (split.global_corank, split.local_corank, split.conjectural_rank) == (18, 12, 6)
    with pytest.raises(AssertionError):
        corank_report(1, 2, None)


def test_analyze_example_one_end_to_end():
    report = analyze(E294, 7, 7, TABLE_23, EXT_FULL)
    assert report.chi_sigma_exponent == 3
    assert report.rho.exponent == 0  # chi_cyc
    assert not report.failed and not report.suppressed
    assert report.suppression_reason is None
    assert report.M_rational == [2, 3]
    assert (report.coranks.tau, report.coranks.degree) == (0, 6)
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
    above2, above13 = report.audit
    places = {sp.ell: (sp, data) for sp, data in report.places}
    assert (above2.ell, places[2][0].g) == (2, 2)
    assert places[2][0].g * above2.contribution == 2
    sp13, data13 = places[13]
    assert (above13.ell, sp13.g) == (13, 3)
    assert data13.q_v == 169
    assert data13.L_at_1 == Fraction(169, 196)  # genuine F_169 count
    assert above13.vp_L == vp(data13.L_at_1, 7) == -2
    assert report.target_chi_sigma_exponent == 2


def test_analyze_not_exact_suppression():
    ext = ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True)
    report = analyze(E294, 7, 7, TABLE_23, ext)
    assert report.suppressed
    assert report.chi_sigma_exponent is None
    assert report.rho.exponent is None
    assert report.rho.window == (0, 2)
    assert report.suppression_reason == {
        "code": "TORSION_NOT_EXACT",
        "lower": 1,
        "upper": 7,
        "hint": "supply torsion_p_override or raise samples",
    }
    # below p = 5 the formula does not apply, and no report is made
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        analyze(E294, 3, 1, TABLE_23, EXT_FULL)


def test_analyze_refusals_come_from_the_plan(monkeypatch):
    """A composite p, m < 1 and a singular E are refused by `plan`, before
    any local data is computed."""

    def no_local_data(*args):
        raise AssertionError("local data computed for a refused request")

    monkeypatch.setattr(euler, "local_data_at", no_local_data)
    with pytest.raises(ValueError, match=r"\b4\b"):
        analyze(E294, 4, 7, TABLE_23, EXT_FULL)
    with pytest.raises(ValueError, match="conductor"):
        analyze(E294, 7, 0, TABLE_23, EXT_FULL)
    with pytest.raises(SingularModelError):
        analyze(WeierstrassModel.from_rationals([0, 0, 0, 0, 0]), 7, 7, TABLE_23, EXT_FULL)


def test_report_determinism():
    doc1 = json.dumps(report_to_dict(analyze(E294, 7, 7, TABLE_23, EXT_FULL)), indent=2)
    doc2 = json.dumps(report_to_dict(analyze(E294, 7, 7, TABLE_23, EXT_FULL)), indent=2)
    assert doc1 == doc2


def test_analyze_large_residue_fields_match_oracle():
    """37a with A bad at 2, p = 5, m = 19 has good places with residue fields
    F_{2^18} and F_{5^9}.  37a has discriminant 37, so its reduction mod ell
    is the reduced curve there.  Each N_v is the F_ell brute-force count of
    that curve carried up by the trace recurrence, and brute-force counts
    over F_{ell^2} and F_{ell^3} confirm the recurrence on that curve."""
    e37 = WeierstrassModel.from_rationals([0, 0, 1, -1, 0])
    bad_at_2 = AbelianVarietyInput(dimension=1, reduction_table=(ReductionFact(2, False, False),))
    ext = ExternalArithmetic(selmer_finite=True, lambda_torsion_certificate=True)
    report = analyze(e37, 5, 19, bad_at_2, ext)
    good = {(sp.ell, sp.f): data for sp, data in report.places if data.is_good}
    assert sorted(good) == [(2, 18), (5, 9)]
    assert invariants(e37).disc == 37
    for (ell, f), data in good.items():

        def over(k):
            return lift_model(reduce_model(e37, ell), finite_field(ell, k))

        n1 = brute_count(over(1))
        for k in (2, 3):
            assert brute_count(over(k)) == extension_count(n1, ell, k)
        assert data.N_v == extension_count(n1, ell, f)


TOWER_CONDUCTORS = (1, 3, 5, 7, 11, 13, 15, 21, 33, 35, 39, 55, 77, 105)


def test_reports_obey_the_tower_laws(capsys):
    """Along m | m', the tau and torsion reports of one curve obey the
    tower laws: tau_p is [F:Q] or 0 whatever m, so it scales by
    [Q(mu_m'):Q(mu_m)], and neither torsion bound falls, as E(F)[p^oo]
    only grows with F.  y^2 = x^3 + 1 is supersingular at 5 and
    y^2 = x^3 + x at 7, so tau_p is not always 0."""
    curves = ("0,0,0,0,1", "0,0,0,1,0", "1,0,0,-1,-1", "0,-1,1,-10,-20", "0,0,1,-1,0")

    def report(command, curve, p, m):
        assert main([command, f"--curve={curve}", "--prime", str(p),
                     "--conductor", str(m), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def phi(n):
        return sum(gcd(k, n) == 1 for k in range(1, n + 1))

    pairs, supersingular, violations = 0, 0, []
    for curve in curves:
        for p in (5, 7):
            tau = {m: report("tau", curve, p, m)["tau_p"] for m in TOWER_CONDUCTORS}
            torsion = {m: report("torsion", curve, p, m) for m in TOWER_CONDUCTORS}
            supersingular += tau[1] > 0
            for m in TOWER_CONDUCTORS:
                for m2 in TOWER_CONDUCTORS:
                    if m2 == m or m2 % m:
                        continue
                    pairs += 1
                    if tau[m2] * phi(m) != tau[m] * phi(m2):
                        violations.append(("tau", curve, p, m, m2))
                    for bound in ("lower", "upper"):
                        if int(torsion[m2][bound]) < int(torsion[m][bound]):
                            violations.append((bound, curve, p, m, m2))
    assert (pairs, supersingular) == (330, 2)
    assert violations == []
