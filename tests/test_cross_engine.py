"""Agreement between the exponent-grid and GF(p) engines on monomial inputs."""

import random

import pytest

from idealkit import groebner as gb
from idealkit import invariants as iv
from idealkit import monomial as mo
from idealkit import semigroup as sg
from idealkit.instances import SECOND_PRIME, family_e0Ih


def _random_ideal(rng, d, max_exp=4, interior=None):
    pure = [rng.randint(2, max_exp) for _ in range(d)]
    gens = []
    for i in range(d):
        e = [0] * d
        e[i] = pure[i]
        gens.append(tuple(e))
    for _ in range(rng.randint(0, d) if interior is None else interior):
        g = tuple(rng.randint(0, b - 1) for b in pure)
        if any(g):
            gens.append(g)
    return mo.minimalize(d, gens)


def _e0ih_reduction(a, b, c, h, p):
    """Q = (x^a - z^c, y^b - z^c, the monomial h) over GF(p): the e0Ih battery's reduction."""
    return gb.GroebnerIdeal(gb.PolyRing(3, p), [{(a, 0, 0): 1, (0, 0, c): p - 1},
                                                {(0, b, 0): 1, (0, 0, c): p - 1},
                                                {h: 1}])


def _colon_by_linkage(monkeypatch, ctx, Q, I):
    """iv.colon_colength(ctx, Q, I), failing if it builds a colon ideal."""
    def no_colon(*args):
        raise AssertionError("linkage should need no colon ideal")
    with monkeypatch.context() as patch:
        patch.setattr(gb, "colon_ideal", no_colon)
        patch.setattr(mo, "colon", no_colon)
        return iv.colon_colength(ctx, Q, I)


def test_colon_colength_by_linkage_matches_e0ih_colons(monkeypatch):
    """lam(R/Q) - lam(R/I) against the Buchberger colon on e0Ih points.

    A seeded sample of the grid, the grid point (6,6,7) with h = x^2y^2z^2,
    and (5,5,5) with that h, which the family's hypothesis leaves out but
    linkage does not need.
    """
    grid = {tuple(inst["params"]) for inst in family_e0Ih()}
    points = random.Random(11).sample(sorted(grid), 10)
    points += [(6, 6, 7, 2, 2, 2), (5, 5, 5, 2, 2, 2)]
    assert (6, 6, 7, 2, 2, 2) in grid and (5, 5, 5, 2, 2, 2) not in grid
    ctx = iv.poly_context(3)
    for a, b, c, *h in points:
        I = mo.minimalize(3, [(a, 0, 0), (0, b, 0), (0, 0, c), tuple(h)])
        Q = _e0ih_reduction(a, b, c, tuple(h), ctx.char_p)
        lam = _colon_by_linkage(monkeypatch, ctx, Q, I)
        assert lam == gb.colon_ideal(Q, iv.to_groebner(ctx, I)).colength(), (a, b, c, h)


def test_colon_colength_by_linkage_matches_monomial_colons_on_e0ih_grid(monkeypatch):
    """thm_2_2's lam(R/(J:I)) for J = (x^a, y^b, z^c) on every e0Ih grid point."""
    ctx = iv.poly_context(3)
    for inst in family_e0Ih():
        a, b, c, *h = inst["params"]
        J = mo.minimalize(3, [(a, 0, 0), (0, b, 0), (0, 0, c)])
        I = J.extend([tuple(h)])
        lam = _colon_by_linkage(monkeypatch, ctx, J, I)
        assert lam == mo.colon(J, I).colength(), inst["id"]


def test_colon_colength_by_linkage_on_sampled_gfp_q(monkeypatch):
    for idx in range(10):
        rng = random.Random(5300 + idx)
        I = _random_ideal(rng, 2, interior=2)
        for p in (gb.DEFAULT_PRIME, SECOND_PRIME):
            ctx = iv.poly_context(2, p)
            Ig = iv.to_groebner(ctx, I)
            Q = gb.random_minimal_reduction(list(Ig.gens), 2, Ig.ring, rng_seed=idx)
            lam = _colon_by_linkage(monkeypatch, ctx, Q, I)
            assert lam == gb.colon_ideal(Q, Ig).colength(), (I.gens, p)


def test_colon_colength_falls_back_to_the_colon():
    ctx = iv.poly_context(2)
    ring = gb.PolyRing(2, ctx.char_p)
    m = ctx.maximal_ideal()
    # Q = m^2 has d + 1 generators and R/Q is not Gorenstein: linkage would say 2
    Q = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}])
    assert iv.colon_colength(ctx, Q, m) == 1
    # Q = (x^2, y^3) is not in I = (x^3, xy, y^2): linkage would say 6 - 4 = 2
    Q = gb.GroebnerIdeal(ring, [{(2, 0): 1}, {(0, 3): 1}])
    I = mo.minimalize(2, [(3, 0), (1, 1), (0, 2)])
    assert iv.colon_colength(ctx, Q, I) == 3
    assert mo.colon(mo.minimalize(2, [(2, 0), (0, 3)]), I).colength() == 3
    # <4,7,9> is not symmetric, so not Gorenstein: its closed-form colon stays
    H = sg.semigroup([4, 7, 9])
    ctx = iv.semigroup_context(H)
    I, Q = sg.ideal(H, [12, 14, 17]), sg.ideal(H, [12])
    assert iv.colon_colength(ctx, Q, I) == 3 != Q.colength() - I.colength()


def test_colength_agreement_sampled():
    for idx in range(20):
        rng = random.Random(900 + idx)
        d = 2 + idx % 2
        I = _random_ideal(rng, d)
        A = gb.from_monomial_ideal(I)
        assert gb.local_colength(A) == mo.colength(I), I.gens


def test_colon_colength_agreement_sampled():
    for idx in range(10):
        rng = random.Random(4400 + idx)
        d = 2 + idx % 2
        J = _random_ideal(rng, d)
        h = tuple(rng.randint(0, 2) for _ in range(d))
        if not any(h):
            h = (1,) + (0,) * (d - 1)
        C_mono = mo.colon(J, mo.minimalize(d, [h]))
        C_gb = gb.colon_poly(gb.from_monomial_ideal(J), {h: 1})
        assert sorted(gb.monomial_generators(C_gb)) == list(C_mono.gens)


def test_reduction_number_agreement_sampled():
    for idx in range(10):
        rng = random.Random(7100 + idx)
        d = 2
        I = _random_ideal(rng, d)
        bounds_ = mo.pure_bounds(I)
        Q = mo.minimalize(d, [(bounds_[0], 0), (0, bounds_[1])])
        if not mo.np_contains(mo.newton(Q), g := max(I.gens)):
            continue  # Q not a reduction of I; skip
        if not all(mo.np_contains(mo.newton(Q), g) for g in I.gens):
            continue
        ctx = iv.poly_context(d)
        s_mono = iv.reduction_number(ctx, Q, I)
        s_gb = gb.reduction_number(gb.from_monomial_ideal(Q),
                                   gb.from_monomial_ideal(I))
        assert s_mono == s_gb


def test_fiber_cone_rank_matches_buchberger_on_gfp_q():
    """The rank path of iv.reduction_number against gb.reduction_number.

    Sampled Q are d random GF(p) combinations of I's generators, at both
    primes a sweep uses.  In d = 3 Buchberger on Q*I^s takes seconds once I
    has five generators or exponents of 4, so the d = 3 ideals are pure
    powers up to 3 plus one monomial.
    """
    seen = set()
    for idx in range(40):
        rng = random.Random(6200 + idx)
        d = 2 + idx % 2
        I = (_random_ideal(rng, 2, interior=2) if d == 2
             else _random_ideal(rng, 3, max_exp=3, interior=1))
        for p in (gb.DEFAULT_PRIME, SECOND_PRIME):
            ctx = iv.poly_context(d, p)
            Ig = iv.to_groebner(ctx, I)
            Q = gb.random_minimal_reduction(list(Ig.gens), d, Ig.ring, rng_seed=idx)
            s = iv.reduction_number(ctx, Q, I)
            assert s == gb.reduction_number(Q, Ig), (I.gens, p)
            seen.add((d, s))
    assert {(2, 1), (2, 2), (3, 1), (3, 2)} <= seen
    # the e0Ih reduction Q = (x^a - z^c, y^b - z^c, h) of I = (x^a, y^b, z^c, h)
    both = (gb.DEFAULT_PRIME, SECOND_PRIME)
    for (a, b, c), h, r, primes in (
            ((5, 5, 5), (1, 1, 1), 2, both),
            ((6, 7, 8), (1, 2, 1), 2, both),
            ((8, 8, 8), (2, 1, 2), 2, both),
            ((5, 7, 7), (2, 2, 2), 6, both[:1])):  # Buchberger takes seconds here
        I = mo.minimalize(3, [(a, 0, 0), (0, b, 0), (0, 0, c), h])
        for p in primes:
            ctx = iv.poly_context(3, p)
            Q = _e0ih_reduction(a, b, c, h, p)
            assert iv.reduction_number(ctx, Q, I) == r, (a, b, c, h, p)
            assert gb.reduction_number(Q, iv.to_groebner(ctx, I)) == r


def test_powers_agree():
    I = mo.minimalize(2, [(2, 0), (1, 1), (0, 3)])
    A = gb.from_monomial_ideal(I)
    for n in (2, 3):
        In = mo.power(I, n)
        An = gb.ideal_power(A, n)
        assert sorted(gb.monomial_generators(An)) == list(In.gens)
        assert gb.local_colength(An) == mo.colength(In)


def test_ideal_protocol_agrees_with_gfp_lift():
    ctx = iv.poly_context(2)
    J = mo.minimalize(2, [(4, 0), (1, 2), (0, 3)])
    I = J.extend([(2, 1)])
    Jg, Ig = iv.to_groebner(ctx, J), iv.to_groebner(ctx, I)
    assert I.gens == mo.minimalize(2, [(4, 0), (2, 1), (1, 2), (0, 3)]).gens
    assert Ig.colength() == I.colength() == mo.colength(I)
    assert Jg.colon(I).colength() == J.colon(I).colength()
    assert Jg.extend([(2, 1)]).colength() == I.colength()
    assert Ig.contains_ideal(J) and I.contains_ideal(J)
    assert not Jg.contains_ideal(I) and not J.contains_ideal(I)
    assert Ig.member((2, 1)) and I.member((2, 1))
    assert not Jg.member((2, 1)) and not J.member((2, 1))
    assert Ig.product(Ig).colength() == I.product(I).colength()
    assert Jg.product(Ig).equals(Ig.product(Ig)) == J.product(I).equals(I.product(I))
    assert Ig.equals(I) and not Jg.equals(I)
    for call in (lambda: I.contains_ideal(Jg), lambda: I.member(Jg.gens[0])):
        with pytest.raises(TypeError, match="one form"):
            call()
    assert I.descriptor() == I.gens
    assert Ig.descriptor() == tuple(((g, 1),) for g in I.gens)
    for method in ("nu", "order"):
        with pytest.raises(TypeError):
            getattr(Ig, method)()
    with pytest.raises(TypeError):
        Jg.integral_over((2, 1))
