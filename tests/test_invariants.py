"""Tests for the coefficient-extraction and reduction orchestration layer."""

import pytest

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


def test_maximal_ideal_power_coeffs(ctx2):
    m = ctx2.maximal_ideal()
    for n in range(2, 6):
        hil = iv.hilbert_coeffs(ctx2, mo.power(m, n))
        assert hil.e == (n * n, n * (n - 1) // 2, 0)


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
        iv.reduction_number(ctx2, mo.power(Q, 2), mo.power(I, 2), cap=3)


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
    assert rep.is_minimal and rep.certified


def test_sally_multiplicity(ctx2):
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    I = mo.power(ctx2.maximal_ideal(), 2)
    rep = iv.sally_multiplicity(ctx2, Q, I)
    assert (rep.s0, rep.e1_i, rep.e1_q, rep.e0_i, rep.colength_i) == (0, 1, 0, 4, 3)


def test_socle_extension(ctx2):
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    assert iv.socle_extension(ctx2, Q, 1).gens == ((0, 2), (1, 1), (2, 0))
    assert iv.socle_extension(ctx2, Q, 0).gens == Q.gens


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
    poly = bf.BinomialPolynomial(2, hil.e)
    for n in (hil.postulation, hil.postulation + 3):
        assert bf.eval_binomial(poly, n) == hil.sequence.at(n)
