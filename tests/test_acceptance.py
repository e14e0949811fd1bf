"""End-to-end acceptance gate: nine criteria, one pass/fail line each.

Every criterion prints "ACCEPTANCE n: PASS <detail>" on success so a plain
`pytest -v -s tests/test_acceptance.py` doubles as the sign-off transcript.
All comparisons are exact integers.
"""

import hashlib
import json
import random
import time

from idealkit import binomfit as bf
from idealkit import bounds as bd
from idealkit import groebner as gb
from idealkit import instances as ins
from idealkit import invariants as iv
from idealkit import monomial as mo
from idealkit import semigroup as sg


def _ok(n, detail):
    print(f"ACCEPTANCE {n}: PASS  {detail}")


_SWEEP_CACHE = {}

# SHA-256 of json.dumps(records, sort_keys=True) over the records of
# `sweep --family random_monomial_d2 --count 100 --seed 11` and
# `sweep --family random_monomial_d3 --count 100 --seed 12`, the two halves
# of the shared sweep: any change to one of its integers or reports shows here
D2_RECORDS_SHA256 = "c36ffef38a7a62b92b5fac5421a30388b24af21ef12e120e25bc14a83c2e51b2"
D3_RECORDS_SHA256 = "ef981c5c810b9708d24fac67ed6a383c739bca8c37f5bd7c45fd60f55b9a4b38"
# the same over the records of `sweep --family e0Ih --count 40`, whose
# reductions Q are GF(p) polynomial ideals and whose I are monomial
E0IH_RECORDS_SHA256 = "31d7e98cc4eccfc0e20d61da94d2f427b162503c51b8d61b0bb8f5e758664fd7"


def _sweep_200():
    """Shared 200-instance sweep used by criteria 5 and 6."""
    key = "d2d3"
    if key not in _SWEEP_CACHE:
        records = []
        for d, count, seed in ((2, 100, 11), (3, 100, 12)):
            sw = ins.sweep(f"random_monomial_d{d}", count=count, seed=seed)
            records.extend(sw["instances"])
        _SWEEP_CACHE[key] = records
    return _SWEEP_CACHE[key]


def test_acceptance_1_cube_example_strict():
    t0 = time.time()
    a = b = c = 7
    alpha = beta = gamma = 2
    ctx = iv.poly_context(3)
    J = mo.minimalize(3, [(a, 0, 0), (0, b, 0), (0, 0, c)])
    I = mo.sum_ideals(J, mo.minimalize(3, [(alpha, beta, gamma)]))
    e0_j = iv.hilbert_coeffs(ctx, J).e[0]
    e0_i = iv.hilbert_coeffs(ctx, I).e[0]
    assert e0_j == 343
    assert e0_i == 294
    closed_form = a * b * c - (a * b * gamma + b * c * alpha + a * c * beta)
    assert e0_j - e0_i == 49 == closed_form
    colon = mo.colon(J, I)
    assert colon.gens == ((0, 0, 5), (0, 5, 0), (5, 0, 0))
    lam = mo.colength(colon)
    assert lam == 125
    assert lam > e0_j - e0_i  # strict, as the worked example asserts
    elapsed = time.time() - t0
    assert elapsed < 5
    _ok(1, f"e0(J)=343 e0(I)=294 diff=49 colon colength=125 ({elapsed:.2f}s)")


def test_acceptance_2_reduction_of_cube_example():
    t0 = time.time()
    ctx = iv.poly_context(3)
    ring = gb.PolyRing(3, ctx.char_p)
    p = ring.char_p
    J = mo.minimalize(3, [(7, 0, 0), (0, 7, 0), (0, 0, 7)])
    I = mo.sum_ideals(J, mo.minimalize(3, [(2, 2, 2)]))
    Q = gb.GroebnerIdeal(ring, [
        {(7, 0, 0): 1, (0, 0, 7): p - 1},
        {(0, 7, 0): 1, (0, 0, 7): p - 1},
        {(2, 2, 2): 1},
    ])
    red = gb.reduction_number(Q, iv.to_groebner(ctx, I))
    assert red <= 2
    rep = bd.check_cor_e1para(ctx, Q, I)
    assert rep.status == "verified"
    elapsed = time.time() - t0
    assert elapsed < 180
    _ok(2, f"red_Q(I)={red} cor_e1para lhs={rep.lhs} rhs={rep.rhs} "
           f"({elapsed:.2f}s)")


def test_acceptance_3_maximal_power_e1():
    t0 = time.time()
    ctx = iv.poly_context(2)
    m = ctx.maximal_ideal()
    for n in range(2, 6):
        hil = iv.hilbert_coeffs(ctx, mo.power(m, n))
        assert hil.e[1] == n * (n - 1) // 2, (n, hil.e)
    elapsed = time.time() - t0
    assert elapsed < 10
    _ok(3, f"e1(m^n)=n(n-1)/2 exact for n=2..5 ({elapsed:.2f}s)")


def test_acceptance_4_dim1_oracle_agreement():
    t0 = time.time()
    agree = 0
    checked = 0
    for idx in range(50):
        rng = random.Random(5000 + idx)
        hgens = ((2, 3), (3, 4), (4, 7, 9))[idx % 3]
        H = sg.semigroup(hgens)
        ctx = iv.semigroup_context(H)
        members = [x for x in range(H.multiplicity,
                                    H.conductor + 2 * H.multiplicity + 3)
                   if H.contains(x)]
        gens = sorted(rng.sample(members, min(rng.randint(2, 3), len(members))))
        I = sg.ideal(H, gens)
        Q = sg.ideal(H, [min(I.gens)])
        e1_fit = iv.hilbert_coeffs(ctx, I).e[1]
        e1_series = iv.e1_series_check(ctx, Q, I)
        checked += 1
        if e1_fit == e1_series:
            agree += 1
        if hgens == (2, 3):
            red = iv.reduction_number(ctx, Q, I)
            assert red <= 1, (gens, red)
            lam_colon = sg.colength(sg.colon(Q, I))
            assert e1_fit == lam_colon * (sg.nu(I) - 1), gens
    assert checked == 50 and agree == 50
    elapsed = time.time() - t0
    _ok(4, f"e1 fit == series oracle in {agree}/50; red<=1 and the "
           f"principal-reduction e1 identity hold in <2,3> ({elapsed:.2f}s)")


def test_acceptance_5_theorem_sweep_200():
    t0 = time.time()
    records = _sweep_200()
    agg = ins.aggregate(records)
    watched = ("thm_2_2", "thm_2_3", "thm_e1hs", "prop_f0",
               "normalization", "e1bar_nonneg", "e1bar_regular")
    for tid in watched:
        slot = agg[tid]
        assert slot["violated"] == 0, (tid, slot)
        assert slot["unresolved"] == 0, (tid, slot)
        complete = slot["verified"] + slot["skipped"]
        assert slot["verified"] == complete - slot["skipped"]
        assert slot["verified"] > 0, tid
    # prop_f0's intermediate inequality is folded into its holds flag;
    # double-check it explicitly on every hypothesis-complete report
    for rec in records:
        for rep in rec["reports"]:
            if rep["theorem_id"] == "prop_f0" and rep["status"] == "verified":
                assert rep["witness"]["intermediate_f0_le_e1_ok"]
    for part, digest in ((records[:100], D2_RECORDS_SHA256),
                         (records[100:], D3_RECORDS_SHA256),
                         (ins.sweep("e0Ih", count=40)["instances"], E0IH_RECORDS_SHA256)):
        text = json.dumps(part, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    elapsed = time.time() - t0
    assert elapsed < 300
    counts = {tid: agg[tid]["verified"] for tid in watched}
    _ok(5, f"200 instances, zero violated/unresolved on {counts} "
           f"({elapsed:.2f}s)")


def test_acceptance_6_reduction_bounds():
    t0 = time.time()
    records = _sweep_200()
    # plus the m^n family in k[x,y]
    ctx2 = iv.poly_context(2)
    m = ctx2.maximal_ideal()
    extra_reports = []
    for n in range(1, 6):
        mn = mo.power(m, n)
        extra_reports.append(bd.check_thm_3_1(ctx2, mn, seed=n))
        extra_reports.append(bd.check_thm_3_3(ctx2, mn, seed=n))
        extra_reports.append(bd.check_cor_after_3_3(ctx2))
        rep = iv.minimal_reduction(ctx2, mn, seed=n)
        Q = (mn if mn.nu() == 2 else
             gb.GroebnerIdeal(gb.PolyRing(2), [dict(g) for g in rep.q_descriptor]))
        extra_reports.append(bd.check_rossi(ctx2, Q, mn, sampled=not rep.certified))
    all_reports = [rep for rec in records for rep in rec["reports"]]
    all_reports += [r.as_dict() for r in extra_reports]
    watched = ("thm_3_1", "thm_3_3", "cor_after_3_3", "rossi")
    total = unresolved = 0
    for rep in all_reports:
        if rep["theorem_id"] in watched:
            assert rep["status"] != "violated", rep
            total += 1
            unresolved += rep["status"] == "unresolved"
    rate = unresolved / total
    assert rate < 0.10, (unresolved, total)
    elapsed = time.time() - t0
    _ok(6, f"no violations over {total} reduction-bound reports, "
           f"unresolved rate {rate:.1%} ({elapsed:.2f}s)")


def test_acceptance_7_cross_engine_100():
    t0 = time.time()
    matches = 0
    for idx in range(100):
        rng = random.Random(31000 + idx)
        d = 2 if idx % 2 else 3
        pure = [rng.randint(2, 4) for _ in range(d)]
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = pure[i]
            gens.append(tuple(e))
        for _ in range(rng.randint(0, d)):
            g = tuple(rng.randint(0, b - 1) for b in pure)
            if any(g):
                gens.append(g)
        I = mo.minimalize(d, gens)
        A = gb.from_monomial_ideal(I)
        assert gb.local_colength(A) == mo.colength(I)
        h = tuple(rng.randint(0, 2) for _ in range(d))
        if not any(h):
            h = (1,) + (0,) * (d - 1)
        C_mono = mo.colon(I, mo.minimalize(d, [h]))
        C_gb = gb.colon_poly(A, {h: 1})
        assert gb.local_colength(C_gb) == mo.colength(C_mono)
        Q = mo.minimalize(d, [g for g in I.gens
                              if sum(1 for x in g if x) == 1][:d])
        if len(Q.gens) == d and all(mo.np_contains(mo.newton(Q), g)
                                    for g in I.gens):
            ctx = iv.poly_context(d)
            assert (iv.reduction_number(ctx, Q, I)
                    == gb.reduction_number(gb.from_monomial_ideal(Q), A))
        matches += 1
    assert matches == 100
    elapsed = time.time() - t0
    _ok(7, f"colength/colon/reduction agree across engines in 100/100 "
           f"({elapsed:.2f}s)")


def test_acceptance_8_canonical_family_claim_table():
    t0 = time.time()
    sw = ins.sweep("example_2_4")
    assert len(sw["instances"]) == 4
    required = ("mI_in_Q", "e1_equals_a_minus_2",
                "lam_I_over_Q_equals_a_minus_3", "I3_equals_QI2",
                "e1_identity_e0_lam", "e1hs_equality_iff_a4",
                "e1_fit_equals_series")
    lines = []
    for rec in sw["instances"]:
        claims = rec["claims"]
        assert set(required) <= set(claims)
        for name in required:
            assert "engine" in claims[name] and "agree" in claims[name]
        # engine-internal consistency is non-negotiable; agreement with the
        # source claims is recorded per quantity, not assumed
        assert claims["e1_fit_equals_series"]["agree"]
        assert claims["I3_equals_QI2"]["red_Q_I"] <= 2
        lines.append((rec["id"],
                      {k: claims[k]["agree"] for k in required}))
    elapsed = time.time() - t0
    _ok(8, f"claim table complete for 4 instances; per-claim agreement "
           f"recorded (claim reconciliation documented, not assumed) "
           f"({elapsed:.2f}s)")
    for rid, row in lines:
        print(f"    {rid}: {row}")


def test_acceptance_9_property_suites_runtime():
    t0 = time.time()
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout
    assert elapsed < 60
    _ok(9, f"4 property suites x 500 generated cases in {elapsed:.2f}s")
