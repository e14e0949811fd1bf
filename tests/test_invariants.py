"""Tests for the coefficient-extraction and reduction orchestration layer."""

import json

import pytest

from idealkit import binomfit, bounds, cli, instances
from idealkit import groebner as gb
from idealkit import invariants as iv
from idealkit import monomial as mo
from idealkit import semigroup as sg


@pytest.fixture
def ctx2():
    return iv.poly_context(2)


@pytest.fixture
def ctx479():
    return iv.semigroup_context(sg.semigroup([4, 7, 9]))


def test_poly_context_validates_char():
    for p in (32003, 31991):
        assert iv.poly_context(2, p).char_p == p
    for p in (32004, 1, 2 ** 31 - 1):  # composite, not prime, int64 overflow
        with pytest.raises(ValueError):
            iv.poly_context(2, p)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_maximal_ideal_is_canonical(d):
    m = iv.poly_context(d).maximal_ideal()
    M = mo.minimalize(d, [tuple(int(i == j) for j in range(d)) for i in range(d)])
    assert m == M and m.equals(M)
    assert hash(m) == hash(M) and m.descriptor() == M.descriptor()


def test_maximal_ideal_power_coeffs():
    """e(m^n) from lam(R/m^(nk)) = C(nk+d-1, d); at n = 1 it is (1, 0, ..., 0),
    the e(m) that check_cor_after_3_3 states for a regular ring."""
    closed_forms = {1: lambda n: (n, 0),
                    2: lambda n: (n * n, n * (n - 1) // 2, 0),
                    3: lambda n: (n ** 3, n * n * (n - 1), n * (n - 1) * (n - 2) // 6, 0)}
    for d, e in closed_forms.items():
        ctx = iv.poly_context(d)
        m = ctx.maximal_ideal()
        assert bounds.check_cor_after_3_3(ctx).witness["e1_m"] == e(1)[1] == 0
        for n in range(1, 6):
            assert iv.hilbert_coeffs(ctx, mo.power(m, n)).e == e(n), (d, n)


def test_parameter_ideal_e1_vanishes():
    ctx3 = iv.poly_context(3)
    J = mo.minimalize(3, [(7, 0, 0), (0, 7, 0), (0, 0, 7)])
    hil = iv.hilbert_coeffs(ctx3, J)
    assert hil.e == (343, 0, 0, 0)


def test_semigroup_parameter_coeffs(ctx479):
    Q = sg.ideal(ctx479.numerical, [11])
    hil = iv.hilbert_coeffs(ctx479, Q)
    assert hil.e == (11, 0)


def test_semigroup_ideal_coeffs(ctx479):
    I = sg.ideal(ctx479.numerical, [11, 14])
    hil = iv.hilbert_coeffs(ctx479, I)
    assert hil.e == (11, 3)


def test_fiber_parameter_f0_is_one(ctx2):
    J = mo.minimalize(2, [(3, 0), (0, 3)])
    assert iv.fiber_coeffs(ctx2, J).f[0] == 1


def test_fiber_m_squared(ctx2):
    fib = iv.fiber_coeffs(ctx2, mo.power(ctx2.maximal_ideal(), 2))
    assert fib.f[0] == 2  # nu((m^2)^n) = 2n + 1


def test_fiber_constant_in_dim1(ctx479):
    I = sg.ideal(ctx479.numerical, [11, 14])
    fib = iv.fiber_coeffs(ctx479, I)
    assert len(fib.f) == 1  # degree-0 fit: eventually constant nu


def test_fiber_partial_sums_widen_the_horizon():
    # nu(I^n) = 2, 3, 4, 5, 6, 7, 7, ... is constant from n = 6, so the first
    # window (n = 6..8) fits; its partial sums are linear only from n = 5, so
    # their window (n = 4..8) does not, and the horizon must double
    ctx = iv.semigroup_context(sg.semigroup([7, 9, 16, 18, 26]))
    fib = iv.fiber_coeffs(ctx, sg.ideal(ctx.numerical, [16, 18]))
    assert fib.f == (7,)
    assert fib.postulation == 6
    assert len(fib.sequence) == 16


def test_normal_coeffs_preserve_e0(ctx2):
    for raw in ([(2, 0), (0, 2)], [(3, 0), (1, 1), (0, 3)], [(4, 0), (0, 5)]):
        I = mo.minimalize(2, raw)
        hil = iv.hilbert_coeffs(ctx2, I)
        ebar, fbar = iv.normal_coeffs(ctx2, I)
        assert ebar.e[0] == hil.e[0]
        assert ebar.e[1] >= 0
        assert fbar.f[0] >= 1


def test_normal_filtration_of_closed_ideal_is_adic(ctx2):
    I = mo.minimalize(2, [(2, 0), (1, 1), (0, 2)])
    assert mo.integral_closure(I).gens == I.gens
    hil = iv.hilbert_coeffs(ctx2, I)
    ebar, _ = iv.normal_coeffs(ctx2, I)
    assert ebar.e == hil.e


def test_reduction_number_monomial(ctx2):
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    I = mo.minimalize(2, [(2, 0), (1, 1), (0, 2)])
    assert iv.reduction_number(ctx2, Q, I) == 1
    assert iv.reduction_number(ctx2, I, I) == 0


def test_reduction_number_semigroup_example(ctx479):
    I = sg.ideal(ctx479.numerical, [11, 14])
    Q = sg.ideal(ctx479.numerical, [11])
    assert iv.reduction_number(ctx479, Q, I) == 2


def test_reduction_number_rejects_non_subideal(ctx2):
    Q = mo.minimalize(2, [(3, 0), (0, 3)])
    I = mo.minimalize(2, [(2, 0), (0, 2)])
    with pytest.raises(ValueError):
        iv.reduction_number(ctx2, mo.minimalize(2, [(1, 0), (0, 1)]), I)
        # a proper superset of I is not contained in I
    with pytest.raises(gb.CapExceeded):
        iv.reduction_number(ctx2, mo.power(Q, 2), mo.power(I, 2))


def test_minimal_reduction_poly(ctx2):
    m2 = mo.power(ctx2.maximal_ideal(), 2)
    rep = iv.minimal_reduction(ctx2, m2, samples=4, seed=2)
    assert rep.reduction_number == 1
    assert not rep.certified
    rep0 = iv.minimal_reduction(ctx2, ctx2.maximal_ideal())
    assert rep0.reduction_number == 0
    assert rep0.certified


def test_minimal_reduction_semigroup(ctx479):
    I = sg.ideal(ctx479.numerical, [11, 14])
    rep = iv.minimal_reduction(ctx479, I)
    assert rep.q_descriptor == (11,)
    assert rep.reduction_number == 2
    assert rep.certified


def test_nu_power_criterion(ctx2):
    assert iv.nu_power_criterion(ctx2, ctx2.maximal_ideal()) == 0
    assert iv.nu_power_criterion(ctx2, mo.power(ctx2.maximal_ideal(), 2)) == 1


def test_e1_series_matches_fit(ctx479):
    H = ctx479.numerical
    I = sg.ideal(H, [11, 14])
    Q = sg.ideal(H, [11])
    series = iv.e1_series_check(ctx479, Q, I)
    assert series == iv.hilbert_coeffs(ctx479, I).e[1] == 3
    assert iv.e1_series_check(ctx479, Q, Q) == 0


def test_reduction_number_and_e1_series_share_one_walk(monkeypatch, ctx479):
    H = ctx479.numerical
    I = sg.ideal(H, [11, 14])
    Q = sg.ideal(H, [11])
    products = _counting(monkeypatch, sg, "product")
    token = iv.MEMO.set({})
    try:
        assert iv.reduction_number(ctx479, Q, I) == 2
        assert len(products) == 4  # Q*I, I^2, Q*I^2, I^3
        assert iv.e1_series_check(ctx479, Q, I) == 3
    finally:
        iv.MEMO.reset(token)
    assert len(products) == 4


def test_e1_series_red_le_1_identity():
    # with red <= 1: e1 = lam(I/Q)
    H = sg.semigroup([2, 3])
    ctx = iv.semigroup_context(H)
    I = sg.ideal(H, [4, 5])
    Q = sg.ideal(H, [4])
    assert iv.reduction_number(ctx, Q, I) <= 1
    e1 = iv.hilbert_coeffs(ctx, I).e[1]
    assert e1 == sg.rel_length(I, Q)
    assert e1 == iv.e1_series_check(ctx, Q, I)


def test_horizon_doubling_handles_late_stabilization(ctx2):
    # high postulation: an ideal whose Hilbert function needs a longer window
    I = mo.minimalize(2, [(6, 0), (5, 2), (2, 5), (0, 6)])
    hil = iv.hilbert_coeffs(ctx2, I)
    # spot check two values against the fitted polynomial shape
    from idealkit import binomfit as bf
    for n in (hil.postulation, hil.postulation + 3):
        assert bf.eval_binomial(hil.e, n) == hil.sequence[n - 1]


# ------------------------------------------------------------ battery memo

def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_battery_memo_is_closed_after_the_battery():
    inst = instances.make_family("semigroup_small", count=1, seed=3)[0]
    instances.run_battery(inst)
    assert iv.MEMO.get() is None
    with pytest.raises(ValueError):  # 5 is not in <4, 7, 9>
        instances.run_battery({**inst, "H": [4, 7, 9], "I": [5]})
    assert iv.MEMO.get() is None


def test_each_battery_starts_cold_and_shares_work_inside(monkeypatch):
    inst = instances.make_family("semigroup_small", count=1, seed=3)[0]
    fits = _counting(monkeypatch, binomfit, "fit_binomial")
    hilbert = _counting(monkeypatch, iv, "hilbert_coeffs")
    records, fit_counts = [], []
    for _ in range(2):
        fits.clear()
        hilbert.clear()
        records.append(instances.run_battery(inst))
        fit_counts.append(len(fits))
    assert records[0] == records[1]
    assert fit_counts[0] == fit_counts[1] < len(hilbert)


# ------------------------------------------------------------ one power walk

def _reference_reduction_number(ctx, Q, I, cap=iv.REDUCTION_CAP):
    """The fiber-cone rank of reduction_number for one GF(p) Q and a
    monomial I, walking I^s by products and building each matrix by hand."""
    p = Q.ring.char_p
    Is, Inext = mo.unit_ideal(I.dim), I
    for s in range(cap + 1):
        column = {w: k for k, w in enumerate(Inext.gens)}
        rows = [(q, g) for q in Q.gens for g in Is.gens]
        if len(rows) >= len(column):
            M = [[0] * len(column) for _ in rows]
            for row, (q, g) in zip(M, rows):
                for u, c in q.items():
                    k = column.get(tuple(a + b for a, b in zip(u, g)))
                    if k is not None:
                        row[k] = c
            if gb._rank_mod(M, p) == len(column):
                return s
        Is, Inext = Inext, mo.product(Inext, I)
    raise gb.CapExceeded(cap)


def _reference_minimal_reduction(ctx, I, samples, seed):
    """(q_descriptor, reduction number, samples tried) of the one-by-one
    search: the first sample with the least reduction number, stopping at 0."""
    Ig = iv.to_groebner(ctx, I)
    best, tried = None, 0
    for k in range(samples):
        Q = gb.random_minimal_reduction(list(Ig.gens), ctx.dim, Ig.ring,
                                        rng_seed=seed * 10007 + k)
        tried += 1
        try:
            s = _reference_reduction_number(ctx, Q, I)
        except gb.CapExceeded:
            continue
        if best is None or s < best[1]:
            best = (Q.descriptor(), s)
        if s == 0:
            break
    return None if best is None else (*best, tried)


def _battery_ideals(family, count, seed):
    for inst in instances.make_family(family, count=count, seed=seed):
        J = mo.minimalize(inst["dim"], [tuple(g) for g in inst["J"]])
        extras = [tuple(h) for h in inst["extras"]]
        yield inst["seed"], (J.extend(extras) if extras else J)


@pytest.mark.parametrize("family, count, seed, char_p", [
    ("random_monomial_d2", 60, 11, gb.DEFAULT_PRIME),
    ("random_monomial_d3", 20, 12, gb.DEFAULT_PRIME),
    # over GF(7) samples differ: some are no reduction, and a later one can win
    ("random_monomial_d2", 20, 11, 7)])
def test_minimal_reduction_matches_the_one_by_one_search(family, count, seed, char_p):
    sampled = 0
    for inst_seed, I in _battery_ideals(family, count, seed):
        ctx = iv.poly_context(I.dim, char_p)
        if I.nu() == I.dim:
            continue  # I is its own reduction; nothing is sampled
        sampled += 1
        for samples in (1, 3, 8):
            want = _reference_minimal_reduction(ctx, I, samples, inst_seed)
            if want is None:
                with pytest.raises(iv.NoReductionFound):
                    iv.minimal_reduction(ctx, I, samples=samples, seed=inst_seed)
                continue
            rep = iv.minimal_reduction(ctx, I, samples=samples, seed=inst_seed)
            assert (rep.q_descriptor, rep.reduction_number, rep.samples_tried) == want
    assert sampled


def test_the_least_step_wins_then_the_first_sample(ctx2):
    m2 = mo.power(ctx2.maximal_ideal(), 2)
    Ig = iv.to_groebner(ctx2, m2)
    general = gb.random_minimal_reduction(list(Ig.gens), 2, Ig.ring, rng_seed=0).gens
    own = Ig.gens  # I itself: reduction number 0
    x2 = [{(2, 0): 1}]  # no reduction
    assert iv._least_full_rank([x2, general, own, own], ctx2.char_p, m2) == (0, 2)
    assert iv._least_full_rank([x2, general, general], ctx2.char_p, m2) == (1, 1)
    with pytest.raises(gb.CapExceeded):
        iv._least_full_rank([x2], ctx2.char_p, m2)


def test_no_samples_find_no_reduction(ctx2):
    m2 = mo.power(ctx2.maximal_ideal(), 2)
    for I in (m2, iv.to_groebner(ctx2, m2)):
        with pytest.raises(iv.NoReductionFound):
            iv.minimal_reduction(ctx2, I, samples=0)


def test_polynomial_ideal_keeps_its_minreduce_payload(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({
        "rings": {"P2": {"kind": "poly", "vars": 2}},
        "ideals": {"Ip": {"ring": "P2", "form": "polynomials", "data": [
            [{"exp": [3, 0], "coef": 1}, {"exp": [0, 4], "coef": 2}],
            [{"exp": [2, 1], "coef": 1}], [{"exp": [1, 2], "coef": 1}],
            [{"exp": [0, 3], "coef": 1}]]}}}))
    assert cli.main(["minreduce", "--file", str(path), "--ideal", "Ip",
                     "--samples", "3", "--seed", "1"]) == 0
    terms = ([0, 3], [0, 4], [1, 2], [2, 1], [3, 0])
    assert json.loads(capsys.readouterr().out) == {
        "certified": False, "is_minimal": True, "reduction_number": 1, "samples_tried": 3,
        "q_descriptor": [[[list(u), c] for u, c in zip(terms, coeffs)] for coeffs in
                         ((4780, 16814, 9440, 24957, 8407), (12656, 3625, 10958, 5618, 17814))]}


def test_fits_and_criterion_share_one_power_walk(monkeypatch, ctx2):
    I = mo.minimalize(2, [(5, 0), (3, 1), (1, 3), (0, 6)])
    products = _counting(monkeypatch, mo, "product")
    token = iv.MEMO.set({})
    try:
        hil = iv.hilbert_coeffs(ctx2, I)
        fib = iv.fiber_coeffs(ctx2, I)
        crit = iv.nu_power_criterion(ctx2, I)
    finally:
        iv.MEMO.reset(token)
    horizon = max(len(hil.sequence), len(fib.sequence), crit + 1)
    assert 0 < len(products) <= horizon - 1


@pytest.mark.parametrize("traced", [False, True])
def test_rossi_reads_the_sampled_reduction_number(monkeypatch, ctx2, traced):
    if traced:  # a wrapper on the module attribute, as the benchmark's tracer installs
        memo_fn = iv.reduction_number

        def wrapper(*args, **kwargs):
            return memo_fn(*args, **kwargs)

        wrapper.__wrapped__ = memo_fn
        monkeypatch.setattr(iv, "reduction_number", wrapper)
    I = mo.minimalize(2, [(3, 0), (2, 1), (0, 3)])
    token = iv.MEMO.set({})
    try:
        rep = iv.minimal_reduction(ctx2, I, seed=5)
        ranks = _counting(monkeypatch, gb, "_rank_mod")
        report = bounds.check_rossi(ctx2, rep.reduction, I, sampled=True)
    finally:
        iv.MEMO.reset(token)
    assert ranks == []
    assert report.witness["red_Q_I"] == rep.reduction_number
