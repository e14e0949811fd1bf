"""Tests for the bound checkers on worked and constructed examples."""

import pytest

from idealkit import bounds as bd
from idealkit import groebner as gb
from idealkit import instances as ins
from idealkit import invariants as iv
from idealkit import monomial as mo
from idealkit import semigroup as sg


@pytest.fixture
def ctx2():
    return iv.poly_context(2)


@pytest.fixture
def msq(ctx2):
    return mo.power(ctx2.maximal_ideal(), 2)


def test_thm_2_2_cube_example():
    ctx = iv.poly_context(3)
    J = mo.minimalize(3, [(7, 0, 0), (0, 7, 0), (0, 0, 7)])
    I = mo.sum_ideals(J, mo.minimalize(3, [(2, 2, 2)]))
    rep = bd.check_thm_2_2(ctx, J, I)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs, rep.slack) == (49, 125, 76)
    assert rep.witness == {"e0_J": 343, "e0_I": 294,
                           "colon_colength": 125, "f0_J": 1}


def test_thm_2_2_trivial_equal_ideals(ctx2, msq):
    rep = bd.check_thm_2_2(ctx2, msq, msq)
    assert rep.status == "verified"
    assert rep.lhs == 0


def test_thm_2_3_diagonal(ctx2):
    J = mo.minimalize(2, [(2, 0), (0, 2)])
    rep = bd.check_thm_2_3(ctx2, J, J.extend([(1, 1)]))
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (1, 1)
    assert rep.witness["red_J_I"] == 1
    assert rep.witness["colon_colength"] == 1


def test_thm_2_3_skips_non_integral(ctx2):
    J = mo.minimalize(2, [(3, 0), (0, 3)])
    rep = bd.check_thm_2_3(ctx2, J, J.extend([(1, 1)]))
    assert rep.status == "skipped"
    assert rep.hypotheses == (("h_integral_over_J", False),)


def test_thm_2_3_skips_two_added_generators(ctx2):
    # x^3y and xy^3 both lie in the closure of (x^4, y^4), but I = (J, h) has one h
    J = mo.minimalize(2, [(4, 0), (0, 4)])
    I = J.extend([(3, 1), (1, 3)])
    assert bd.added_generators(J, I) == ((1, 3), (3, 1))
    rep = bd.check_thm_2_3(ctx2, J, I)
    assert rep.status == "skipped"
    assert rep.hypotheses == (("h_integral_over_J", False),)


def test_thm_2_3_skips_no_added_generator(ctx2):
    J = mo.minimalize(2, [(2, 0), (0, 2)])
    rep = bd.check_thm_2_3(ctx2, J, J)
    assert rep.status == "skipped"
    assert rep.hypotheses == (("h_integral_over_J", False),)


def test_cor_e1para_gorenstein_identity(ctx2, msq):
    rep_min = iv.minimal_reduction(ctx2, msq, samples=4, seed=9)
    Q = gb.GroebnerIdeal(gb.PolyRing(2), [dict(g) for g in rep_min.q_descriptor])
    rep = bd.check_cor_e1para(ctx2, Q, msq)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (1, 1)
    assert rep.witness["gorenstein_identity_ok"]


def test_thm_e1hs_single_generator_matches_thm_2_3(ctx2):
    # with one extra generator, C(1+s, s) - 1 = s: identical right-hand sides
    J = mo.minimalize(2, [(2, 0), (0, 2)])
    r1 = bd.check_thm_2_3(ctx2, J, J.extend([(1, 1)]))
    r2 = bd.check_thm_e1hs(ctx2, J, J.extend([(1, 1)]))
    assert r1.rhs == r2.rhs
    assert r2.status == "verified"


def test_prop_f0_with_intermediate(ctx2):
    J = mo.minimalize(2, [(2, 0), (0, 2)])
    rep = bd.check_prop_f0(ctx2, J, J.extend([(1, 1)]))
    assert rep.status == "verified"
    assert rep.witness["intermediate_f0_le_e1_ok"]


def test_thm_e1hs_counts_only_generators_outside_j(ctx2):
    # x^2y already lies in J, so I adds one generator, xy
    J = mo.minimalize(2, [(2, 0), (0, 2)])
    rep = bd.check_thm_e1hs(ctx2, J, J.extend([(1, 1), (2, 1)]))
    assert rep.status == "verified"
    assert rep.witness["m"] == 1
    assert rep.rhs == bd.check_thm_e1hs(ctx2, J, J.extend([(1, 1)])).rhs


def test_battery_builds_each_enlargement_once(monkeypatch):
    insts = ins.make_family("random_monomial_d2", 100, 11)
    calls = []
    extend = mo.MonomialIdeal.extend

    def counted(self, extra):
        calls.append(extra)
        return extend(self, extra)

    monkeypatch.setattr(mo.MonomialIdeal, "extend", counted)
    for inst in insts:
        ins.run_battery(inst)
    # J + (h) always, and J + (extras) once more when there are two extras
    assert len(calls) == (sum(1 for i in insts if i["extras"])
                          + sum(1 for i in insts if len(i["extras"]) == 2))


def test_cor_sally(ctx2, msq):
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    rep = bd.check_cor_sally(ctx2, Q, msq)
    assert rep.status == "verified"
    assert rep.lhs == 0
    assert rep.hypotheses == (("Q_is_reduction", True),)


def test_sally_multiplicity(ctx2, msq):
    # s0 = e1(I) - e1(Q) - e0(I) + lam(R/I) for the reduction Q = (x^2, y^2) of m^2
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    w = bd.check_cor_sally(ctx2, Q, msq).witness
    assert (w["s0"], w["e1_I"], w["e1_Q"], w["e0_I"], w["colength_I"]) == (0, 1, 0, 4, 3)


def test_cor_sally_states_e1_zero_for_a_d_generated_gfp_q(ctx2, msq):
    # a sampled 2-generated reduction of m^2 is a parameter ideal, so e1(Q) = 0
    Q = iv.minimal_reduction(ctx2, msq, seed=2).reduction
    rep = bd.check_cor_sally(ctx2, Q, msq)
    assert (rep.status, rep.lhs, rep.witness["e1_Q"]) == ("verified", 0, 0)
    assert rep.witness["note"].endswith("; e1(Q) = 0 taken from the parameter-ideal vanishing")
    assert iv.hilbert_coeffs(ctx2, Q).e[1] == 0


def test_cor_sally_fits_e1_of_a_gfp_q_with_more_than_d_generators(ctx2, msq):
    # m^2 given by its three monomials over GF(p) is no parameter ideal: e1(Q) = 1
    rep = bd.check_cor_sally(ctx2, iv.to_groebner(ctx2, msq), msq)
    assert (rep.status, rep.lhs, rep.rhs, rep.witness["e1_Q"]) == ("verified", -1, -1, 1)
    assert rep.as_dict() == bd.check_cor_sally(ctx2, msq, msq).as_dict()


def test_cor_sally_skips_a_non_reduction(ctx2, msq):
    # (x^2, xy) lies in m^2 but is not m-primary, so no reduction number exists
    Q = mo.minimalize(2, [(2, 0), (1, 1)])
    rep = bd.check_cor_sally(ctx2, Q, msq)
    assert rep.status == "skipped"
    assert rep.hypotheses == (("Q_is_reduction", False),)


def test_thm_3_1_msq_equality(ctx2, msq):
    rep = bd.check_thm_3_1(ctx2, msq)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (1, 1)


def test_thm_3_1_maximal_ideal(ctx2):
    rep = bd.check_thm_3_1(ctx2, ctx2.maximal_ideal())
    assert rep.status == "verified"
    assert rep.lhs == 0


def test_thm_3_1_unit_ideal_has_order_zero(ctx2):
    H = sg.semigroup([2, 3])
    for ctx, R in ((ctx2, mo.unit_ideal(2)), (iv.semigroup_context(H), sg.ideal(H, [0]))):
        rep = bd.check_thm_3_1(ctx, R)  # divided by the order 0
        assert (rep.status, rep.lhs, rep.rhs, rep.witness["order"]) == ("verified", 0, 0, 0)


def test_sampled_reduction_bound_when_the_criterion_hits_the_cap():
    # rm3-5-43 of random_monomial_d3 at seed 5: nu(I^n) >= C(n+3, 3) up to the
    # cap, so the bound is the best of 8 sampled reductions, not certified
    ctx = iv.poly_context(3)
    I = mo.minimalize(3, [(0, 0, 4), (0, 3, 1), (0, 4, 0), (1, 2, 1), (4, 0, 0)])
    with pytest.raises(gb.CapExceeded):
        iv.nu_power_criterion(ctx, I)
    rep = bd.check_thm_3_1(ctx, I, seed=5000058)
    assert (rep.status, rep.lhs, rep.rhs) == ("verified", 6, 43)
    assert rep.witness == {"e0_I": 64, "order": 4, "red_upper_bound": 6,
                           "bound_certified": False, "nu_power_bound": None,
                           "sampled_red": 6, "samples_tried": 8}


def _stub_report(status):
    return bd.BoundReport("stub", (), 0, 0, status != "violated", 0, {}, status)


@pytest.mark.parametrize("status, first, second, want, primes", [
    ("unresolved", "unresolved", "verified", "second", [gb.DEFAULT_PRIME, ins.SECOND_PRIME]),
    ("unresolved", "violated", None, "first", [gb.DEFAULT_PRIME]),
    ("unresolved", "unresolved", "unresolved", "original",
     [gb.DEFAULT_PRIME, ins.SECOND_PRIME]),
    ("verified", None, None, "original", []),
])
def test_retry_unresolved_takes_the_first_settled_rerun(status, first, second, want, primes):
    original = _stub_report(status)
    reruns = {"first": first and _stub_report(first),
              "second": second and _stub_report(second)}
    asked = []

    def rerun(char_p):
        asked.append(char_p)
        return reruns["first" if len(asked) == 1 else "second"]

    got = ins._retry_unresolved(original, rerun)
    assert got is (original if want == "original" else reruns[want])
    assert asked == primes


def test_lemma_3_2():
    H = sg.semigroup([4, 7, 9])
    ctx = iv.semigroup_context(H)
    I = sg.ideal(H, [11, 14])
    rep = bd.check_lemma_3_2(ctx, sg.ideal(H, [11]), I)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (2, 11)
    m = sg.maximal_ideal(H)
    rep = bd.check_lemma_3_2(ctx, sg.ideal(H, [4]), m)
    assert rep.lhs <= 4  # embedding dimension at most multiplicity


def test_thm_3_3(ctx2, msq):
    rep = bd.check_thm_3_3(ctx2, msq)
    assert rep.status == "verified"
    assert rep.rhs == 5
    assert rep.witness["criterion_consistent"]


def test_cor_after_3_3_regular_is_trivial(ctx2):
    rep = bd.check_cor_after_3_3(ctx2)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (0, 0)


def test_cor_after_3_3_semigroups():
    ctx = iv.semigroup_context(sg.semigroup([2, 3]))
    rep = bd.check_cor_after_3_3(ctx)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (1, 1)
    ctx479 = iv.semigroup_context(sg.semigroup([4, 7, 9]))
    rep = bd.check_cor_after_3_3(ctx479)
    assert rep.status in ("verified", "unresolved")


def test_rossi(ctx2, msq):
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    rep = bd.check_rossi(ctx2, Q, msq)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (1, 1)


def test_normalization(ctx2, msq):
    rep = bd.check_normalization(ctx2, msq)
    assert rep.status == "verified"
    assert (rep.lhs, rep.rhs) == (4, 6)
    m = ctx2.maximal_ideal()
    rep = bd.check_normalization(ctx2, m)
    assert (rep.lhs, rep.rhs) == (1, 1)


def test_intro_bounds_kirby_tight():
    ctx = iv.semigroup_context(sg.semigroup([2, 3]))
    reports = {r.theorem_id: r for r in
               bd.check_intro_bounds(ctx, ctx.maximal_ideal())}
    assert reports["kirby"].status == "verified"
    assert reports["kirby"].lhs == reports["kirby"].rhs == 1


def test_intro_bounds_rossi_valla_hypothesis_gate(ctx2, msq):
    reports = {r.theorem_id: r for r in bd.check_intro_bounds(ctx2, msq)}
    # bar(m^2) equals bar(m^2): hypothesis fails, check skipped
    assert reports["rossi_valla"].status == "skipped"
    assert reports["e1bar_nonneg"].status == "verified"
    assert reports["e1bar_regular"].status == "verified"


def test_report_determinism(ctx2, msq):
    r1 = bd.check_thm_3_1(ctx2, msq, seed=4)
    r2 = bd.check_thm_3_1(ctx2, msq, seed=4)
    assert r1.as_dict() == r2.as_dict()


def test_report_serialization_round_trip(ctx2, msq):
    import json
    rep = bd.check_normalization(ctx2, msq)
    blob = json.dumps(rep.as_dict(), sort_keys=True)
    assert json.loads(blob) == rep.as_dict()
