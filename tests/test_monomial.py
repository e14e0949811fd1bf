"""Unit tests for the monomial ideal engine, with brute-force oracles."""

import copy
import pickle
import random
from itertools import count, product as iproduct
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealkit import monomial as mo


def brute_colength(I):
    bounds = mo.pure_bounds(I)
    return sum(1 for v in iproduct(*(range(b) for b in bounds))
               if not I.member(v))


def test_minimalize_drops_dominated_generators():
    I = mo.minimalize(2, [(2, 0), (3, 1), (0, 3), (1, 4), (2, 2)])
    assert I.gens == ((0, 3), (2, 0))
    # a redundant generator does not size the staircase
    I = mo.minimalize(2, [(1, 0), (0, 1), (10 ** 9, 0), (3, 10 ** 30)])
    assert I.gens == ((0, 1), (1, 0)) and I.heights.shape == (2,)
    # nor does one that no pure power bounds
    for raw in ([(1, 1), (10 ** 9, 1)], [(1, 1), (2, 10 ** 10)]):
        I = mo.minimalize(2, raw)
        assert I.gens == ((1, 1),) and I.heights.shape == (2,)


def test_copies_keep_read_only_heights():
    I = mo.minimalize(3, [(2, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 3)])
    copies = [pickle.loads(pickle.dumps(I, protocol=k))
              for k in range(pickle.HIGHEST_PROTOCOL + 1)]
    for J in copies + [copy.deepcopy(I), copy.copy(I)]:
        assert not J.heights.flags.writeable
        assert J == I and hash(J) == hash(I) and J.gens == I.gens


def test_colength_small_staircase():
    I = mo.minimalize(2, [(2, 0), (1, 1), (0, 3)])
    assert mo.colength(I) == 4
    assert mo.colength(I) == brute_colength(I)


def test_colength_matches_brute_force_on_batch():
    cases = [
        [(3, 0), (0, 3)],
        [(4, 0), (2, 1), (0, 2)],
        [(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)],
        [(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 0), (0, 1, 3)],
    ]
    for raw in cases:
        I = mo.minimalize(len(raw[0]), raw)
        assert mo.colength(I) == brute_colength(I)


def test_not_m_primary_raises():
    I = mo.minimalize(2, [(2, 0), (1, 1)])  # no pure power of y
    with pytest.raises(mo.NotMPrimary):
        mo.colength(I)
    assert not mo.is_m_primary(I)


def test_product_and_power():
    m = mo.minimalize(2, [(1, 0), (0, 1)])
    m3 = mo.power(m, 3)
    assert m3.gens == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert mo.colength(m3) == 6
    assert mo.power(m, 0).is_unit


def test_colon_pure_powers():
    J = mo.minimalize(3, [(7, 0, 0), (0, 7, 0), (0, 0, 7)])
    C = mo.colon(J, mo.minimalize(3, [(2, 2, 2)]))
    assert C.gens == ((0, 0, 5), (0, 5, 0), (5, 0, 0))
    assert mo.colength(C) == 125


def test_colon_socle():
    Q = mo.minimalize(2, [(2, 0), (0, 2)])
    m = mo.minimalize(2, [(1, 0), (0, 1)])
    assert mo.colon(Q, m).gens == ((0, 2), (1, 1), (2, 0))


def test_newton_halfspaces_of_mixed_ideal():
    I = mo.minimalize(2, [(4, 0), (0, 4), (1, 1)])
    NP = mo.newton(I)
    assert ((1, 3), 4) in NP.halfspaces
    assert ((3, 1), 4) in NP.halfspaces
    assert mo.np_contains(NP, (1, 1))
    assert not mo.np_contains(NP, (1, 0))


def facets_by_normal_search(I, bound):
    """Facets of NP(I) among the primitive normals in [0, bound]^d.

    Each w >= 0 supports NP at min <w, g>; the halfspace is a facet when the
    generators on it and the axes it contains span a hyperplane.
    """
    d = I.dim
    facets = set()
    for w in iproduct(range(bound + 1), repeat=d):
        if gcd(*w) != 1:
            continue
        dots = [sum(a * x for a, x in zip(w, g)) for g in I.gens]
        offset = min(dots)
        tight = [g for g, t in zip(I.gens, dots) if t == offset]
        rows = [np.subtract(g, tight[0]) for g in tight[1:]]
        rows += [np.eye(d, dtype=int)[i] for i in range(d) if w[i] == 0]
        if (np.linalg.matrix_rank(np.array(rows)) if rows else 0) == d - 1:
            facets.add((w, offset))
    return facets


@st.composite
def m_primary_ideals(draw):
    d = draw(st.integers(1, 3))
    top = 6 if d <= 2 else 3
    pure = [draw(st.integers(1, top)) for _ in range(d)]
    gens = [tuple(p * (i == j) for j in range(d)) for i, p in enumerate(pure)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, top)] * d), max_size=4))
    return mo.minimalize(d, gens), top


@settings(max_examples=60, deadline=None)
@given(m_primary_ideals())
def test_newton_halfspaces_are_the_primitive_facets(case):
    I, top = case
    NP = mo.newton(I)
    for normal, offset in NP.halfspaces:
        assert all(a >= 0 for a in normal)
        assert gcd(*normal) == 1
        dots = [sum(a * x for a, x in zip(normal, g)) for g in I.gens]
        assert min(dots) == offset  # valid on every generator, tight on one
    # facet normals are minors of generator differences: entries at most top
    # for d <= 2 and 2 * top^2 for d = 3
    assert set(NP.halfspaces) == facets_by_normal_search(I, 2 * top ** 2 if I.dim == 3 else top)


def test_integral_closure_adds_diagonal():
    I = mo.minimalize(2, [(2, 0), (0, 2)])
    assert mo.integral_closure(I).gens == ((0, 2), (1, 1), (2, 0))


def test_integral_closure_idempotent():
    for raw in ([(3, 0), (0, 3), (1, 1)], [(4, 0), (0, 5)], [(2, 0, 0), (0, 2, 0), (0, 0, 2)]):
        I = mo.minimalize(len(raw[0]), raw)
        c1 = mo.integral_closure(I)
        assert mo.integral_closure(c1).gens == c1.gens


def test_closure_powers_contain_ordinary_powers():
    I = mo.minimalize(2, [(3, 0), (0, 2)])
    for n in range(1, 5):
        closure = mo.integral_closure(I, n)
        assert closure.contains_ideal(mo.power(I, n))


def test_closure_data_matches_direct_computation():
    I = mo.minimalize(2, [(2, 0), (0, 3)])
    data = mo.closure_data(I, 4)
    for n, (lam, nu_n) in enumerate(data, start=1):
        closure = mo.integral_closure(I, n)
        assert lam == mo.colength(closure)
        assert nu_n == mo.nu(closure)


def test_sample_integral_element_is_integral_not_member():
    J = mo.minimalize(2, [(4, 0), (0, 4)])
    h = mo.sample_integral_element(J, rng_seed=11)
    assert mo.np_contains(mo.newton(J), h)
    assert not J.member(h)
    # deterministic in the seed
    assert h == mo.sample_integral_element(J, rng_seed=11)


def test_sample_integral_element_exhausted_on_closed_ideal():
    closed = mo.minimalize(2, [(1, 0), (0, 1)])
    with pytest.raises(mo.Exhausted):
        mo.sample_integral_element(closed, rng_seed=0)


def test_order_and_nu():
    I = mo.minimalize(2, [(3, 0), (1, 1), (0, 2)])
    assert mo.order(I) == 2
    assert mo.nu(I) == 3


def in_ideal(gens, v):
    return any(all(a <= b for a, b in zip(g, v)) for g in gens)


def minimal_points(test, top, d):
    """Minimal generators, by brute force, of the monomial ideal of the points
    v of [0, top]^d with test(v); the box must hold all of them."""
    pts = {v for v in iproduct(range(top + 1), repeat=d) if test(v)}
    return tuple(sorted(
        v for v in pts
        if not any(v[i] and v[:i] + (v[i] - 1,) + v[i + 1:] in pts for i in range(d)))), pts


@st.composite
def ideal_pairs(draw):
    d = draw(st.integers(1, 3))
    top = 4 if d <= 2 else 3
    def raw():
        gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * d), min_size=1, max_size=5))
        if draw(st.booleans()):
            gens += [tuple(draw(st.integers(1, top)) * (i == j) for j in range(d))
                     for i in range(d)]
        return gens
    return d, top, raw(), raw()


def assert_reads_match(results, d):
    """Each result (R, test, box) is canonical, and its generators, membership,
    generator count, unit test, containments and equalities agree with test,
    the brute-force membership of its monomials; [0, box]^d holds R's
    generators."""
    brute = []
    for R, test, box in results:
        gens, pts = minimal_points(test, box, d)
        assert R.gens == gens
        again = mo.minimalize(d, R.gens)
        assert R == again and hash(R) == hash(again)
        assert all(R.member(v) == (v in pts) for v in iproduct(range(box + 1), repeat=d))
        assert R.nu() == len(gens) and R.is_unit == test((0,) * d)
        brute.append(gens)
    for (R, test, _), mine in zip(results, brute):
        for (S, _, _), gens in zip(results, brute):
            assert R.contains_ideal(S) == all(test(g) for g in gens)
            assert (R == S) == (mine == gens)


@settings(max_examples=150, deadline=None)
@given(ideal_pairs())
def test_engine_matches_divisibility_oracle(case):
    d, top, A, B = case
    I, J = mo.minimalize(d, A), mo.minimalize(d, B)
    results = [
        (I, lambda v: in_ideal(A, v), top),
        (J, lambda v: in_ideal(B, v), top),
        (mo.sum_ideals(I, J), lambda v: in_ideal(A, v) or in_ideal(B, v), top),
        (mo.colon(J, I),
         lambda v: all(in_ideal(B, [x + y for x, y in zip(v, g)]) for g in A), top),
        (mo.product(I, J),
         lambda v: any(in_ideal(A, [x - y for x, y in zip(v, g)]) for g in B), 2 * top),
    ]
    pure = [next((k for k in range(top + 1) if in_ideal(A, [k * (i == j) for j in range(d)])),
                 None) for i in range(d)]
    assert mo.is_m_primary(I) == (None not in pure)
    if None in pure:
        for f in (mo.pure_bounds, mo.colength, mo.standard_monomials,
                  mo.integral_closure, lambda I: mo.closure_data(I, 2)):
            with pytest.raises(mo.NotMPrimary):
                f(I)
        assert_reads_match(results, d)
        return
    outside = sorted(v for v in iproduct(range(top + 1), repeat=d) if not in_ideal(A, v))
    assert mo.pure_bounds(I) == tuple(pure)
    assert mo.colength(I) == len(outside)
    assert mo.standard_monomials(I) == outside
    NP = mo.newton(I)
    data = []
    for n in (1, 2, 3):
        def test(v, n=n):
            return all(sum(a * x for a, x in zip(normal, v)) >= n * offset
                       for normal, offset in NP.halfspaces)
        gens, pts = minimal_points(test, n * top, d)
        results.append((mo.integral_closure(I, n), test, n * top))
        data.append(((n * top + 1) ** d - len(pts), len(gens)))
        if n == 1:
            integral = sorted(v for v in pts if not in_ideal(A, v))
    assert mo.closure_data(I, 3) == data
    assert_reads_match(results, d)
    if not integral:
        with pytest.raises(mo.Exhausted):
            mo.sample_integral_element(I, 0)
    else:  # a seeded pick among the integral monomials outside I, in order
        for seed in range(3):
            pick = integral[random.Random(seed).randrange(len(integral))]
            assert mo.sample_integral_element(I, seed) == pick


# ------------------------------------------------------------ staircase invariants

def nonincreasing(h):
    return all((np.diff(h, axis=ax) <= 0).all() for ax in range(h.ndim))


@settings(max_examples=100, deadline=None)
@given(ideal_pairs())
def test_kernel_heights_are_nonincreasing_along_every_axis(case):
    # _from_heights reads the largest height at the origin on this invariant
    d, _, A, B = case
    I, J = mo.minimalize(d, A), mo.minimalize(d, B)
    results = [I, J, mo.sum_ideals(I, J), mo.product(I, J), mo.product(J, I),
               mo.colon(J, I), mo.colon(I, J), mo.unit_ideal(d)]
    if mo.is_m_primary(I):
        results += [mo.integral_closure(I, n) for n in (1, 2, 3)]
    for R in results:
        assert nonincreasing(R.heights)


@settings(max_examples=60, deadline=None)
@given(m_primary_ideals())
def test_closure_table_matches_each_closure(case):
    I, _ = case
    closures = [mo.integral_closure(I, n) for n in range(1, 7)]
    assert mo.closure_data(I, 6) == [(C.colength(), C.nu()) for C in closures]


@settings(max_examples=100, deadline=None)
@given(ideal_pairs())
def test_kept_drop_mask_matches_fresh_builds(case):
    d, _, A, B = case
    I, J = mo.minimalize(d, A), mo.minimalize(d, B)
    for R, raw in ((I, A), (mo.sum_ideals(I, J), A + B),
                   (mo.product(I, J), [tuple(map(sum, zip(a, b))) for a in A for b in B])):
        fresh = mo.minimalize(d, raw)
        copied = pickle.loads(pickle.dumps(R))
        for S in (fresh, copied, copy.deepcopy(R)):
            assert (S.nu(), S.gens) == (R.nu(), R.gens)
            assert np.array_equal(S.drops, R.drops) and not S.drops.flags.writeable


# ------------------------------------------------------------ limits

# y^(2^30 + 1) fits under HEIGHT_CAP, but its square y^(2^31 + 2) does not
OVER_CAP_SQUARE = [(1, 0), (0, 2 ** 30 + 1)]


def test_heights_over_the_cap_raise():
    I = mo.minimalize(2, OVER_CAP_SQUARE)
    for f in (lambda: mo.product(I, I), lambda: mo.integral_closure(I, 2),
              lambda: mo.closure_data(I, 3)):
        with pytest.raises(MemoryError, match="heights are over the cap"):
            f()
    assert mo.closure_data(I, 1) == [(2 ** 30 + 1, 2)]


@pytest.mark.parametrize("raw", [[(3, 0), (1, 1), (0, 4)],
                                 [(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 0)]])
@pytest.mark.parametrize("per_block", [1, 2])
def test_closure_table_blocks_stay_under_the_cell_cap(monkeypatch, raw, per_block):
    # the cap sits just above per_block boxes of n = nmax, so the table goes
    # in blocks; the first n whose own box is over the cap still raises
    I = mo.minimalize(len(raw[0]), raw)
    nmax = 5

    def cells(n):
        return prod(n * (s - 1) + 1 for s in I.heights.shape[:I.dim - 1])

    monkeypatch.setattr(mo, "GRID_CELL_CAP", per_block * cells(nmax) + 1)
    closures = [mo.integral_closure(I, n) for n in range(1, nmax + 1)]
    tables = []
    heights = mo._closure_heights

    def recorded(I, ns):
        tables.append(heights(I, ns))
        return tables[-1]

    monkeypatch.setattr(mo, "_closure_heights", recorded)
    assert mo.closure_data(I, nmax) == [(C.colength(), C.nu()) for C in closures]
    assert sum(map(len, tables)) == nmax
    assert max(t.size for t in tables) < mo.GRID_CELL_CAP
    over = next(n for n in count(nmax) if cells(n) > mo.GRID_CELL_CAP)
    with pytest.raises(MemoryError, match="cells is over the cap"):
        mo.closure_data(I, over)
