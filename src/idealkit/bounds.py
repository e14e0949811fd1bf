"""Named checkers for the multiplicity inequalities, one per bound.

Each checker consumes engine-exact invariants and emits a BoundReport with
the two sides of the inequality, per-hypothesis detail and a status.  A
violation that depends on a sampled object (a randomly generated minimal
reduction, which an existence statement does not pin down) is downgraded to
"unresolved"; only hypothesis-complete, sampling-free failures are reported
as "violated".
"""

from dataclasses import dataclass, field

from . import groebner, invariants, monomial, semigroup
from .binomfit import binom


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    hypotheses: tuple  # ((name, bool), ...)
    lhs: int
    rhs: int
    holds: bool
    slack: int
    witness: dict = field(compare=False)
    status: str  # verified | violated | unresolved | skipped

    def as_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": [[n, bool(ok)] for n, ok in self.hypotheses],
            "lhs": int(self.lhs),
            "rhs": int(self.rhs),
            "holds": bool(self.holds),
            "slack": int(self.slack),
            "witness": self.witness,
            "status": self.status,
        }


def _report(theorem_id, hyps, lhs, rhs, witness, sampled=False, extra_ok=True):
    hyps = tuple(hyps)
    ok = all(v for _, v in hyps)
    holds = lhs <= rhs and extra_ok
    if not ok:
        status = "skipped"
    elif holds:
        status = "verified"
    elif sampled:
        status = "unresolved"
    else:
        status = "violated"
    return BoundReport(theorem_id, hyps, lhs, rhs, holds, rhs - lhs, witness, status)


def _extra_generator_count(I, J):
    """nu(I/J): minimal generators of I that J does not already provide."""
    return sum(1 for g in I.gens if not J.member(g))


def _is_gorenstein(ctx):
    if ctx.kind == "poly":
        return True
    return semigroup.is_symmetric(ctx.numerical)


def check_thm_2_2(ctx, J, I):
    """e0(J) - e0(I) <= lam(R/(J:I)) * f0(J), for I = J plus one generator."""
    hyps = [
        ("J_subset_I", I.contains_ideal(J)),
        ("one_extra_generator", _extra_generator_count(I, J) <= 1),
    ]
    e0_j = invariants.hilbert_coeffs(ctx, J).e[0]
    e0_i = invariants.hilbert_coeffs(ctx, I).e[0]
    lam = J.colon(I).colength()
    f0 = invariants.fiber_coeffs(ctx, J).f[0]
    witness = {"e0_J": e0_j, "e0_I": e0_i, "colon_colength": lam, "f0_J": f0}
    return _report("thm_2_2", hyps, e0_j - e0_i, lam * f0, witness)


def check_thm_2_3(ctx, J, h):
    """e1(I) - e1(J) <= red_J(I) * lam(R/(J:I)) * f0(J) for I = (J, h)."""
    integral = J.integral_over(h)
    hyps = [("h_integral_over_J", integral)]
    if not integral:
        return _report("thm_2_3", hyps, 0, 0, {"reason": "h not integral over J"})
    I = J.extend([h])
    e1_i = invariants.hilbert_coeffs(ctx, I).e[1]
    e1_j = invariants.hilbert_coeffs(ctx, J).e[1]
    red = invariants.reduction_number(ctx, J, I)
    lam = J.colon(I).colength()
    f0 = invariants.fiber_coeffs(ctx, J).f[0]
    witness = {"e1_I": e1_i, "e1_J": e1_j, "red_J_I": red,
               "colon_colength": lam, "f0_J": f0, "h": list(h) if not isinstance(h, int) else h}
    return _report("thm_2_3", hyps, e1_i - e1_j, red * lam * f0, witness)


def check_cor_e1para(ctx, Q, I):
    """e1(I) <= red_Q(I) * lam(R/(Q:I)) for a minimal reduction Q.

    In Gorenstein contexts the colon colength equals e0(I) - lam(R/I), giving
    the second form of the bound; the identity itself is asserted too.  Where
    invariants.colon_colength takes linkage (a poly context, a d-generated Q
    termwise inside a monomial I), the colon colength is lam(R/Q) - lam(R/I),
    so the witness gorenstein_identity_ok tests lam(R/Q) = e0(I).  For a
    parameter ideal in a Cohen-Macaulay ring lam(R/Q) = e(Q), so that is Q
    being a reduction of I by Rees's theorem; it no longer tests the colon.
    """
    d = ctx.dim
    hyps = [("Q_has_d_generators", len(Q.gens) == d)]
    red = invariants.reduction_number(ctx, Q, I)
    hil = invariants.hilbert_coeffs(ctx, I)
    lam_colon = invariants.colon_colength(ctx, Q, I)
    lam_i = I.colength()
    gor = _is_gorenstein(ctx)
    identity_ok = True
    witness = {"e1_I": hil.e[1], "red_Q_I": red, "colon_colength": lam_colon,
               "e0_I": hil.e[0], "colength_I": lam_i, "gorenstein": gor}
    if gor:
        identity_ok = lam_colon == hil.e[0] - lam_i
        witness["gorenstein_identity_ok"] = identity_ok
        witness["gorenstein_rhs"] = red * (hil.e[0] - lam_i)
    return _report("cor_e1para", hyps, hil.e[1], red * lam_colon, witness,
                   extra_ok=identity_ok)


def check_thm_e1hs(ctx, J, extra):
    """e1(I) - e1(J) <= lam(R/(J:I)) * [C(m+s, s) - 1] * f0(J).

    extra is a list of generators integral over J; m counts those that J
    does not already contain, s is the exact reduction number red_J(I).
    """
    hyps = [("extras_integral_over_J",
             all(J.integral_over(h) for h in extra))]
    if not hyps[0][1]:
        return _report("thm_e1hs", hyps, 0, 0, {"reason": "non-integral extras"})
    I = J.extend(extra)
    m = _extra_generator_count(I, J)
    s = invariants.reduction_number(ctx, J, I)
    e1_i = invariants.hilbert_coeffs(ctx, I).e[1]
    e1_j = invariants.hilbert_coeffs(ctx, J).e[1]
    lam = J.colon(I).colength()
    f0 = invariants.fiber_coeffs(ctx, J).f[0]
    rhs = lam * (binom(m + s, s) - 1) * f0
    witness = {"e1_I": e1_i, "e1_J": e1_j, "m": m, "s": s,
               "colon_colength": lam, "f0_J": f0}
    return _report("thm_e1hs", hyps, e1_i - e1_j, rhs, witness)


def check_prop_f0(ctx, J, extra):
    """f0(I) <= (1 + lam(R/(J:I)) * [C(m+s,s) - 1]) * f0(J).

    Also verifies the intermediate step f0(I) - f0(J) <= e1(I) - e1(J).
    """
    hyps = [("extras_integral_over_J",
             all(J.integral_over(h) for h in extra))]
    if not hyps[0][1]:
        return _report("prop_f0", hyps, 0, 0, {"reason": "non-integral extras"})
    I = J.extend(extra)
    m = _extra_generator_count(I, J)
    s = invariants.reduction_number(ctx, J, I)
    f0_i = invariants.fiber_coeffs(ctx, I).f[0]
    f0_j = invariants.fiber_coeffs(ctx, J).f[0]
    e1_i = invariants.hilbert_coeffs(ctx, I).e[1]
    e1_j = invariants.hilbert_coeffs(ctx, J).e[1]
    lam = J.colon(I).colength()
    rhs = (1 + lam * (binom(m + s, s) - 1)) * f0_j
    intermediate = f0_i - f0_j <= e1_i - e1_j
    witness = {"f0_I": f0_i, "f0_J": f0_j, "e1_I": e1_i, "e1_J": e1_j,
               "m": m, "s": s, "colon_colength": lam,
               "intermediate_f0_le_e1_ok": intermediate}
    return _report("prop_f0", hyps, f0_i, rhs, witness, extra_ok=intermediate)


def check_cor_sally(ctx, Q, I):
    """s0(Q,I) <= -e0(I) + lam(R/I) + lam(R/(Q:I)) * [C(nu(I)-d+s, s) - 1].

    Q is a reduction of I exactly when red_Q(I) exists; one not found within
    the cap leaves that hypothesis unmet.
    """
    d = ctx.dim
    try:
        red = invariants.reduction_number(ctx, Q, I)
    except groebner.CapExceeded:
        red = None
    hyps = [("Q_is_reduction", red is not None)]
    if red is None:
        return _report("cor_sally", hyps, 0, 0, {"reason": "no reduction relation within the cap"})
    sal = invariants.sally_multiplicity(ctx, Q, I)
    lam_colon = invariants.colon_colength(ctx, Q, I)
    nu_i = I.nu()
    rhs = -sal.e0_i + sal.colength_i + lam_colon * (binom(nu_i - d + red, red) - 1)
    witness = {"s0": sal.s0, "e1_I": sal.e1_i, "e1_Q": sal.e1_q,
               "e0_I": sal.e0_i, "colength_I": sal.colength_i,
               "nu_I": nu_i, "s": red, "colon_colength": lam_colon,
               "note": sal.hypotheses_note}
    return _report("cor_sally", hyps, sal.s0, rhs, witness)


def _best_reduction_bound(ctx, I, seed, samples, good_enough):
    """Best available upper bound for the minimal reduction number of I.

    Tries the certified generator-count criterion first, then sampled
    reductions; returns (bound, certified_flag, details).  Sampling is
    skipped once the bound is at most good_enough.
    """
    details = {}
    best = None
    certified = False
    try:
        crit = invariants.nu_power_criterion(ctx, I)
        details["nu_power_bound"] = crit
        best = crit
        certified = True
    except groebner.CapExceeded:
        details["nu_power_bound"] = None
    settled = best is not None and best <= good_enough
    if not settled:
        try:
            rep = invariants.minimal_reduction(ctx, I, samples=samples, seed=seed)
            details["sampled_red"] = rep.reduction_number
            details["samples_tried"] = rep.samples_tried
            if best is None or rep.reduction_number < best:
                best = rep.reduction_number
                certified = rep.certified
        except invariants.NoReductionFound:
            details["sampled_red"] = None
    if best is None:
        raise invariants.NoReductionFound("no reduction bound obtained")
    return best, certified, details


def check_thm_3_1(ctx, I, seed=0, samples=invariants.SAMPLE_COUNT):
    """red(I) <= max(d*e0(I)/o(I) - 2d + 1, 0) for some minimal reduction."""
    d = ctx.dim
    e0 = invariants.hilbert_coeffs(ctx, I).e[0]
    o = I.order()  # 0 only for the unit ideal, whose reduction number is 0
    rhs = max(d * e0 // o - 2 * d + 1, 0) if o else 0
    bound, certified, details = _best_reduction_bound(ctx, I, seed, samples,
                                                      good_enough=rhs)
    witness = {"e0_I": e0, "order": o, "red_upper_bound": bound,
               "bound_certified": certified, **details}
    return _report("thm_3_1", [("cohen_macaulay", True)], bound, rhs, witness,
                   sampled=True)


def check_lemma_3_2(ctx, x_exp, I):
    """nu(I) <= lam(R/(x)) for a parameter x = t^x_exp in a dim-1 semigroup ring."""
    if ctx.kind != "semigroup":
        raise ValueError("lemma 3.2 checker is one-dimensional")
    H = ctx.numerical
    hyps = [("x_in_semigroup", H.contains(x_exp) and x_exp > 0)]
    X = semigroup.ideal(H, [x_exp])
    lam_x = X.colength()
    nu_i = I.nu()
    s = X.order()
    witness = {"nu_I": nu_i, "colength_x": lam_x, "order_x": s,
               "cm_refinement_rhs": (lam_x * nu_i) // max(s, 1)}
    return _report("lemma_3_2", hyps, nu_i, lam_x, witness)


def check_thm_3_3(ctx, I, seed=0, samples=invariants.SAMPLE_COUNT):
    """exists Q with red_Q(I) <= max(d*lam(R/J) - 2d + 1, 0), J a minimal reduction."""
    d = ctx.dim
    if ctx.kind == "semigroup":
        lam_j = min(I.gens)  # principal reduction (t^e), Apery colength e
    else:
        # any minimal reduction J has lam(R/J) = e0(I)
        lam_j = invariants.hilbert_coeffs(ctx, I).e[0]
    rhs = max(d * lam_j - 2 * d + 1, 0)
    bound, certified, details = _best_reduction_bound(ctx, I, seed, samples,
                                                      good_enough=rhs)
    consistency = True
    if details.get("nu_power_bound") is not None:
        consistency = details["nu_power_bound"] <= rhs
    witness = {"colength_J": lam_j, "red_upper_bound": bound,
               "bound_certified": certified,
               "criterion_consistent": consistency, **details}
    return _report("thm_3_3", [("J_minimal_reduction", True)], bound, rhs,
                   witness, sampled=True)


def check_cor_after_3_3(ctx):
    """e1(m) <= lam(R/(Q:m)) * [C(nu(m)+lam(R/Q)d-3d+1, nu(m)-d) - 1]."""
    d = ctx.dim
    m = ctx.maximal_ideal()
    e1_m = invariants.hilbert_coeffs(ctx, m).e[1]
    nu_m = m.nu()
    # in k[[t^H]] the monomial t^mult is one choice among minimal reductions
    sampled = ctx.kind == "semigroup"
    if nu_m == d:  # regular (every poly context): m reduces itself, both sides vanish
        rhs = 0
        witness = {"e1_m": e1_m, "nu_m": nu_m, "regular": True}
    else:
        Q = semigroup.ideal(ctx.numerical, [ctx.numerical.multiplicity])
        lam_q = Q.colength()
        lam_colon = Q.colon(m).colength()
        rhs = lam_colon * (binom(nu_m + lam_q * d - 3 * d + 1, nu_m - d) - 1)
        witness = {"e1_m": e1_m, "nu_m": nu_m, "colength_Q": lam_q,
                   "colon_colength": lam_colon}
    return _report("cor_after_3_3", [("Q_minimal_reduction", True)], e1_m, rhs,
                   witness, sampled=sampled)


def check_rossi(ctx, Q, I, sampled=False):
    """red_Q(I) <= e1(I) - e0(I) + lam(R/I) + 1 in dimension <= 2."""
    hyps = [("dim_le_2", ctx.dim <= 2)]
    red = invariants.reduction_number(ctx, Q, I)
    hil = invariants.hilbert_coeffs(ctx, I)
    lam = I.colength()
    rhs = hil.e[1] - hil.e[0] + lam + 1
    witness = {"red_Q_I": red, "e1_I": hil.e[1], "e0_I": hil.e[0],
               "colength_I": lam}
    return _report("rossi", hyps, red, rhs, witness, sampled=sampled)


def check_normalization(ctx, I):
    """e0(I) <= min(f0(I)*lam(R/I), f0bar(I)*lam(R/Ibar)) (monomial engine)."""
    hyps = [("monomial_engine", isinstance(I, monomial.MonomialIdeal))]
    if not hyps[0][1]:
        return _report("normalization", hyps, 0, 0, {"reason": "I is not a monomial ideal"})
    e0 = invariants.hilbert_coeffs(ctx, I).e[0]
    f0 = invariants.fiber_coeffs(ctx, I).f[0]
    lam = I.colength()
    _, fbar = invariants.normal_coeffs(ctx, I)
    ibar = monomial.integral_closure(I)
    lam_bar = ibar.colength()
    branch_adic = f0 * lam
    branch_normal = fbar.f[0] * lam_bar
    witness = {"e0": e0, "f0": f0, "colength_I": lam,
               "f0_bar": fbar.f[0], "colength_Ibar": lam_bar,
               "branch_adic": branch_adic, "branch_normal": branch_normal}
    return _report("normalization", hyps, e0, min(branch_adic, branch_normal),
                   witness)


def check_intro_bounds(ctx, I):
    """Classical e1 bounds: Kirby (d=1, I=m), Elias, Rossi-Valla, and the
    normal-coefficient window 0 <= e1bar <= (d-1)e0/2 in regular contexts."""
    d = ctx.dim
    hil = invariants.hilbert_coeffs(ctx, I)
    e0, e1 = hil.e[0], hil.e[1]
    nu_i = I.nu()
    lam = I.colength()
    m = ctx.maximal_ideal()
    reports = []
    if d == 1:
        is_max = I.equals(m)
        reports.append(_report(
            "kirby", [("I_is_maximal_ideal", is_max)], e1, binom(e0, 2),
            {"e0": e0, "e1": e1}))
    reports.append(_report(
        "elias", [("cohen_macaulay", True)], e1,
        binom(e0, 2) - binom(nu_i - d, 2) - lam + 1,
        {"e0": e0, "e1": e1, "nu": nu_i, "colength": lam}))
    if isinstance(I, monomial.MonomialIdeal):
        s = I.order()
        ms = monomial.power(m, s)
        distinct = monomial.integral_closure(I).gens != monomial.integral_closure(ms).gens
        reports.append(_report(
            "rossi_valla", [("closure_differs_from_power", distinct)],
            e1, binom(e0 - s, 2), {"e0": e0, "e1": e1, "order": s}))
        ebar, _ = invariants.normal_coeffs(ctx, I)
        reports.append(_report(
            "e1bar_nonneg", [("analytically_unramified", True)],
            0, ebar.e[1], {"e1_bar": ebar.e[1]}))
        reports.append(_report(
            "e1bar_regular", [("regular_ring", True)],
            2 * ebar.e[1], (d - 1) * e0,
            {"e1_bar": ebar.e[1], "e0": e0, "note": "doubled to stay integral"}))
    return reports
