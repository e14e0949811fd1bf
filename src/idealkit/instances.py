"""Seeded instance families and the checker battery that sweeps run.

An instance is a plain JSON-able dict describing a ring and one or more
ideals; run_battery reconstructs the engine objects and applies every
checker whose hypotheses the instance can satisfy.  Aggregation counts
statuses per bound so a sweep can assert "no violations" at a glance.
"""

import random

from . import bounds, groebner, invariants, monomial, semigroup
from .binomfit import binom

FAMILIES = ("e0Ih", "random_monomial_d2", "random_monomial_d3",
            "semigroup_small", "example_2_4")
SECOND_PRIME = 31991
RESAMPLE_FACTOR = 4


# ----------------------------------------------------------------- families

def family_e0Ih(count=None):
    """Three-variable instances J=(x^a, y^b, z^c), I=J+(x^alpha y^beta z^gamma).

    Parameter grid a,b,c in 5..8, alpha,beta,gamma in 1..2, filtered by the
    hypothesis alpha/a + beta/b + gamma/c < 1.
    """
    out = []
    for a in range(5, 9):
        for b in range(5, 9):
            for c in range(5, 9):
                for alpha in (1, 2):
                    for beta in (1, 2):
                        for gamma in (1, 2):
                            if alpha * b * c + beta * a * c + gamma * a * b >= a * b * c:
                                continue
                            out.append({
                                "id": f"e0Ih-{a}{b}{c}-{alpha}{beta}{gamma}",
                                "family": "e0Ih", "kind": "poly", "dim": 3,
                                "params": [a, b, c, alpha, beta, gamma],
                            })
    return out[:count] if count is not None else out


def _random_m_primary(rng, d):
    """Random m-primary monomial ideal: pure powers plus interior monomials."""
    pure = [rng.randint(2, 4) for _ in range(d)]
    gens = []
    for i in range(d):
        e = [0] * d
        e[i] = pure[i]
        gens.append(tuple(e))
    for _ in range(rng.randint(1, d)):
        g = tuple(rng.randint(0, p - 1) for p in pure)
        if any(g):
            gens.append(g)
    return monomial.minimalize(d, gens)


def family_random_monomial(d, count, seed):
    out = []
    for idx in range(count):
        rng = random.Random(seed * 1000003 + idx)
        J = _random_m_primary(rng, d)
        extras = []
        for k in range(rng.randint(1, 2)):
            try:
                h = monomial.sample_integral_element(J, rng.randrange(1 << 30))
            except monomial.Exhausted:
                break
            if h not in extras:
                extras.append(h)
        out.append({
            "id": f"rm{d}-{seed}-{idx}",
            "family": f"random_monomial_d{d}", "kind": "poly", "dim": d,
            "J": [list(g) for g in J.gens],
            "extras": [list(h) for h in extras],
            "seed": seed * 1000003 + idx,
        })
    return out


SMALL_SEMIGROUPS = ((2, 3), (3, 4), (4, 7, 9))


def family_semigroup_small(count, seed):
    out = []
    for idx in range(count):
        rng = random.Random(seed * 998244353 + idx)
        gens_h = SMALL_SEMIGROUPS[idx % len(SMALL_SEMIGROUPS)]
        H = semigroup.semigroup(gens_h)
        lo = H.multiplicity
        hi = H.conductor + 2 * lo + 2
        members = [x for x in range(lo, hi) if H.contains(x)]
        k = rng.randint(2, 3)
        gens = sorted(rng.sample(members, min(k, len(members))))
        out.append({
            "id": f"sg-{seed}-{idx}",
            "family": "semigroup_small", "kind": "semigroup",
            "H": list(gens_h), "I": gens,
            "seed": seed * 998244353 + idx,
        })
    return out


def family_example_2_4():
    """Canonical-ideal instances in H = <a, al-1, al+1..al+a-3>."""
    out = []
    for a, ell in ((4, 2), (4, 3), (5, 2), (5, 3)):
        hgens = [a, a * ell - 1] + [a * ell + i for i in range(1, a - 2)]
        igens = [2 * a * ell - a - 1] + [3 * a * ell - 2 * a - 1 - i
                                         for i in range(1, a - 2)]
        out.append({
            "id": f"ex24-a{a}-l{ell}",
            "family": "example_2_4", "kind": "semigroup",
            "H": hgens, "I": sorted(igens), "Q": [igens[0]],
            "params": [a, ell],
        })
    return out


def make_family(name, count=None, seed=0):
    if name == "e0Ih":
        return family_e0Ih(count)
    if name == "random_monomial_d2":
        return family_random_monomial(2, count if count is not None else 100, seed)
    if name == "random_monomial_d3":
        return family_random_monomial(3, count if count is not None else 100, seed)
    if name == "semigroup_small":
        return family_semigroup_small(count if count is not None else 50, seed)
    if name == "example_2_4":
        inst = family_example_2_4()
        return inst[:count] if count is not None else inst
    raise ValueError(f"unknown family {name!r}")


# ------------------------------------------------------------------ battery

def _retry_unresolved(report, rerun):
    """Resample with a larger budget and a second prime before accepting."""
    if report.status != "unresolved":
        return report
    for char_p in (groebner.DEFAULT_PRIME, SECOND_PRIME):
        retry = rerun(char_p)
        if retry.status != "unresolved":
            return retry
    return report


def _battery_e0Ih(inst):
    a, b, c, alpha, beta, gamma = inst["params"]
    ctx = invariants.poly_context(3)
    J = monomial.minimalize(3, [(a, 0, 0), (0, b, 0), (0, 0, c)])
    I = J.extend([(alpha, beta, gamma)])
    reports = [bounds.check_thm_2_2(ctx, J, I)]
    ring = groebner.PolyRing(3, ctx.char_p)
    p = ring.char_p
    Q = groebner.GroebnerIdeal(ring, [
        {(a, 0, 0): 1, (0, 0, c): p - 1},
        {(0, b, 0): 1, (0, 0, c): p - 1},
        {(alpha, beta, gamma): 1},
    ])
    reports.append(bounds.check_cor_e1para(ctx, Q, I))
    return reports, {"red_Q_I": invariants.reduction_number(ctx, Q, I)}


def _battery_random_monomial(inst):
    d = inst["dim"]
    ctx = invariants.poly_context(d)
    J = monomial.minimalize(d, [tuple(g) for g in inst["J"]])
    extras = [tuple(h) for h in inst["extras"]]
    seed = inst["seed"]
    reports = []
    if extras:
        Ih = J.extend(extras[:1])
        I = J.extend(extras) if len(extras) > 1 else Ih
        reports.append(bounds.check_thm_2_2(ctx, J, Ih))
        reports.append(bounds.check_thm_2_3(ctx, J, Ih))
        reports.append(bounds.check_thm_e1hs(ctx, J, I))
        reports.append(bounds.check_prop_f0(ctx, J, I))
    else:
        I = J
    reports.append(bounds.check_normalization(ctx, I))
    reports.extend(bounds.check_intro_bounds(ctx, I))
    for check in (bounds.check_thm_3_1, bounds.check_thm_3_3):
        reports.append(_retry_unresolved(
            check(ctx, I, seed=seed),
            lambda p, check=check: check(
                invariants.poly_context(d, p), I,
                seed=seed + 1, samples=invariants.SAMPLE_COUNT * RESAMPLE_FACTOR)))
    reports.append(bounds.check_cor_after_3_3(ctx))
    if d <= 2:
        rep = invariants.minimal_reduction(ctx, I, seed=seed)
        reports.append(bounds.check_rossi(ctx, rep.reduction, I, sampled=not rep.certified))
    return reports, {}


def _battery_semigroup(inst):
    H = semigroup.semigroup(inst["H"])
    ctx = invariants.semigroup_context(H)
    I = semigroup.ideal(H, inst["I"])
    Q = invariants.principal_reduction(ctx, I)
    red = invariants.reduction_number(ctx, Q, I)
    e1_fit = invariants.hilbert_coeffs(ctx, I).e[1]
    e1_series = invariants.e1_series_check(ctx, Q, I)
    extra = {
        "red_Q_I": red,
        "e1_fit": e1_fit,
        "e1_series": e1_series,
        "e1_oracles_agree": e1_fit == e1_series,
    }
    if tuple(inst["H"]) == (2, 3):
        lam_colon = invariants.colon_colength(ctx, Q, I)
        extra["e1_identity_lhs"] = e1_fit
        extra["e1_identity_rhs"] = lam_colon * (semigroup.nu(I) - 1)
        extra["e1_identity_ok"] = e1_fit == extra["e1_identity_rhs"]
    reports = [
        bounds.check_cor_e1para(ctx, Q, I),
        bounds.check_rossi(ctx, Q, I),
        bounds.check_thm_3_1(ctx, I, seed=inst["seed"]),
        bounds.check_thm_3_3(ctx, I, seed=inst["seed"]),
        bounds.check_cor_after_3_3(ctx),
        bounds.check_lemma_3_2(ctx, Q, I),
    ]
    reports.extend(bounds.check_intro_bounds(ctx, ctx.maximal_ideal()))
    return reports, extra


def _claim(engine, claimed, **detail):
    """One claim of Example 2.4: the engine's value, the paper's, and whether they agree."""
    return {"engine": engine, "claimed": claimed, "agree": engine == claimed, **detail}


def _battery_example_2_4(inst):
    a, ell = inst["params"]
    H = semigroup.semigroup(inst["H"])
    ctx = invariants.semigroup_context(H)
    I = semigroup.ideal(H, inst["I"])
    Q = semigroup.ideal(H, inst["Q"])
    m = semigroup.maximal_ideal(H)
    red = invariants.reduction_number(ctx, Q, I)
    hil = invariants.hilbert_coeffs(ctx, I)
    e0, e1 = hil.e[0], hil.e[1]
    e1_series = invariants.e1_series_check(ctx, Q, I)
    lam_i = semigroup.colength(I)
    lam_iq = semigroup.rel_length(I, Q)
    mi = semigroup.product(m, I)
    mi_in_q = semigroup.contains_ideal(Q, mi)
    mm = len(bounds.added_generators(Q, I))
    lam_colon = invariants.colon_colength(ctx, Q, I)
    e1hs_rhs = lam_colon * (binom(mm + red, red) - 1)
    claims = {
        "mI_in_Q": _claim(mi_in_q, True),
        "e1_equals_a_minus_2": _claim(e1, a - 2),
        "lam_I_over_Q_equals_a_minus_3": _claim(lam_iq, a - 3),
        "I3_equals_QI2": _claim(red <= 2, True, red_Q_I=red),
        "e1_identity_e0_lam": _claim(e1 == e0 - lam_i + 1, True, e0=e0, colength_I=lam_i),
        "e1hs_equality_iff_a4": _claim(e1 == e1hs_rhs, a == 4, rhs=e1hs_rhs),
        "e1_fit_equals_series": _claim(e1 == e1_series, True),
    }
    reports = [
        bounds.check_cor_sally(ctx, Q, I),
        bounds.check_rossi(ctx, Q, I),
    ]
    return reports, {"claims": claims}


BATTERIES = {"e0Ih": _battery_e0Ih, "random_monomial_d2": _battery_random_monomial,
             "random_monomial_d3": _battery_random_monomial,
             "semigroup_small": _battery_semigroup, "example_2_4": _battery_example_2_4}


def run_battery(inst):
    """All applicable checks for one instance, in one invariants memo; returns
    a JSON-able record."""
    battery = BATTERIES.get(inst["family"])
    if battery is None:
        raise ValueError(f"unknown family {inst['family']!r}")
    token = invariants.MEMO.set({})
    try:
        reports, extra = battery(inst)
    finally:
        invariants.MEMO.reset(token)
    return {
        "id": inst["id"],
        "instance": inst,
        "reports": [r.as_dict() for r in reports],
        **extra,
    }


def aggregate(records):
    agg = {}
    for rec in records:
        for rep in rec["reports"]:
            slot = agg.setdefault(rep["theorem_id"],
                                  {"verified": 0, "violated": 0,
                                   "unresolved": 0, "skipped": 0})
            slot[rep["status"]] += 1
    return agg


def sweep(family, count=None, seed=0, jobs=1):
    insts = make_family(family, count, seed)
    if jobs > 1 and len(insts) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools load multiprocessing
        # the pool starts all its workers at once, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(insts))) as pool:
            records = list(pool.map(run_battery, insts))
    else:
        records = [run_battery(i) for i in insts]
    records.sort(key=lambda r: r["id"])
    from . import __version__
    return {"tool_version": __version__, "seed": seed, "family": family,
            "instances": records, "aggregate": aggregate(records)}
