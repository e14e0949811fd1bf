"""Unit tests for the GF(p) Buchberger engine."""

import pytest

from idealkit import groebner as gb
from idealkit import monomial as mo


def _ring(n):
    return gb.PolyRing(n)


def test_buchberger_twisted_cusp_pair():
    # {x^2 - y, y^2 - x}: quotient is 4-dimensional
    ring = _ring(2)
    p = ring.char_p
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1, (0, 1): p - 1},
                                {(0, 2): 1, (1, 0): p - 1}])
    assert len(A.basis) == 2
    init = A.initial_ideal()
    assert mo.colength(init) == 4


def test_normal_form_against_quotient_oracle():
    ring = _ring(2)
    p = ring.char_p
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1, (0, 1): p - 1},
                                {(0, 2): 1, (1, 0): p - 1}])
    # x^3 = x*x^2 = x*y mod A, and xy is a standard monomial
    nf = gb.normal_form({(3, 0): 1}, A.lead_pairs, ring)
    assert nf == {(1, 1): 1}
    # membership
    assert A.contains({(2, 0): 1, (0, 1): p - 1})
    assert not A.contains({(1, 0): 1})
    one_ideal = gb.GroebnerIdeal(ring, [{(1, 0): 1}, {(0, 1): 1}])
    assert gb.normal_form({(0, 0): 5}, one_ideal.lead_pairs, ring) == {(0, 0): 5}


def test_monomial_input_reproduces_minimal_generators():
    ring = _ring(3)
    raw = [(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1), (2, 1, 0)]
    A = gb.GroebnerIdeal(ring, [{g: 1} for g in raw])
    expected = mo.minimalize(3, raw)
    assert sorted(gb.monomial_generators(A)) == list(expected.gens)


def test_buchberger_deterministic():
    ring = _ring(2)
    p = ring.char_p
    gens = [{(2, 0): 1, (0, 1): p - 1}, {(0, 2): 1, (1, 0): p - 1}]
    b1 = gb.buchberger([dict(g) for g in gens], ring)
    b2 = gb.buchberger([dict(g) for g in gens], ring)
    assert b1 == b2


def test_local_colength_splits_off_distant_point():
    ring = _ring(1)
    p = ring.char_p
    # (x^2 - x) = (x) locally at the origin
    A = gb.GroebnerIdeal(ring, [{(2,): 1, (1,): p - 1}])
    assert mo.colength(A.initial_ideal()) == 2
    assert gb.local_colength(A) == 1


def test_local_colength_matrix_path():
    ring = _ring(2)
    p = ring.char_p
    # (x^3 - x^2, xy, y^2): local factor at origin is k{1, x, y}
    A = gb.GroebnerIdeal(ring, [{(3, 0): 1, (2, 0): p - 1},
                                {(1, 1): 1}, {(0, 2): 1}])
    assert gb.local_colength(A) == 3


def test_local_colength_monomial_matches_staircase():
    ring = _ring(2)
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(0, 3): 1}])
    assert gb.local_colength(A) == 6


def test_local_colength_not_zero_dimensional():
    ring = _ring(2)
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1}])
    with pytest.raises(gb.NonStabilizing):
        gb.local_colength(A)


def test_colon_matches_monomial_oracle():
    ring = _ring(2)
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(0, 2): 1}])
    C = gb.colon_poly(A, {(1, 0): 1})
    assert sorted(gb.monomial_generators(C)) == [(0, 2), (1, 0)]


def test_colon_general_coefficients():
    ring = _ring(1)
    p = ring.char_p
    # ((x^2 - x) : x) = (x - 1)
    A = gb.GroebnerIdeal(ring, [{(2,): 1, (1,): p - 1}])
    C = gb.colon_poly(A, {(1,): 1})
    assert C.basis == [{(1,): 1, (0,): p - 1}]


def test_colon_by_unit_is_identity():
    ring = _ring(2)
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}])
    C = gb.colon_poly(A, {(0, 0): 1})
    assert sorted(gb.monomial_generators(C)) == sorted(gb.monomial_generators(A))


def test_ideal_product_and_power():
    ring = _ring(2)
    m = gb.GroebnerIdeal(ring, [{(1, 0): 1}, {(0, 1): 1}])
    m2 = gb.ideal_power(m, 2)
    assert sorted(gb.monomial_generators(m2)) == [(0, 2), (1, 1), (2, 0)]
    unit = gb.ideal_power(m, 0)
    assert gb.local_colength(unit) == 0


def test_reduction_number_monomial_oracle():
    ring = _ring(2)
    Q = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(0, 2): 1}])
    I = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}])
    assert gb.reduction_number(Q, I) == 1
    assert gb.reduction_number(I, I) == 0


def test_reduction_number_needs_q_in_i_at_the_origin():
    ring = _ring(2)
    p = ring.char_p
    # (x^3, y) and (x^2, xy, y^2) both have colength 3, but y is not in I
    I = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}])
    with pytest.raises(ValueError):
        gb.reduction_number(gb.GroebnerIdeal(ring, [{(3, 0): 1}, {(0, 1): 1}]), I)
    # (x^2 - x, y) is (x, y) at the origin, so (x, y) lies in it there only
    I = gb.GroebnerIdeal(ring, [{(2, 0): 1, (1, 0): p - 1}, {(0, 1): 1}])
    assert gb.reduction_number(gb.GroebnerIdeal(ring, [{(1, 0): 1}, {(0, 1): 1}]), I) == 0


def test_equals_is_local_equality():
    ring = _ring(2)
    # (x, y^2) and (x^2, y) both have local colength 2, yet differ
    assert not gb.GroebnerIdeal(ring, [{(1, 0): 1}, {(0, 2): 1}]).equals(
        gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(0, 1): 1}]))
    # x + x^2 = x(1 + x), and 1 + x is a unit at the origin
    m = gb.GroebnerIdeal(ring, [{(1, 0): 1}, {(0, 1): 1}])
    assert gb.GroebnerIdeal(ring, [{(1, 0): 1, (2, 0): 1}, {(0, 1): 1}]).equals(m)
    assert m.equals(mo.minimalize(2, [(1, 0), (0, 1)]))
    assert not m.equals(mo.minimalize(2, [(2, 0), (0, 1)]))


def test_random_minimal_reduction_deterministic():
    ring = _ring(2)
    gens = [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}]
    Q1 = gb.random_minimal_reduction(gens, 2, ring, rng_seed=5)
    Q2 = gb.random_minimal_reduction(gens, 2, ring, rng_seed=5)
    assert Q1.gens == Q2.gens
    assert gb.reduction_number(Q1, gb.GroebnerIdeal(ring, gens)) == 1


def test_reduction_number_cap():
    ring = _ring(2)
    Q = gb.GroebnerIdeal(ring, [{(3, 0): 1}, {(0, 3): 1}])
    I = gb.GroebnerIdeal(ring, [{(1, 0): 1}, {(0, 1): 1}])
    with pytest.raises(gb.CapExceeded):
        gb.reduction_number(Q, I, cap=3)  # Q is not a reduction of m


def test_intersection():
    ring = _ring(2)
    A = gb.GroebnerIdeal(ring, [{(2, 0): 1}])
    B = gb.GroebnerIdeal(ring, [{(0, 3): 1}])
    inter = gb.intersection(A, B)
    assert gb.monomial_generators(inter) == [(2, 3)]
