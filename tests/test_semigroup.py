"""Unit tests for numerical semigroups and their monomial ideals."""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from idealkit import semigroup as sg


def test_semigroup_479_gaps_and_conductor():
    H = sg.semigroup([4, 7, 9])
    assert H.gaps() == (1, 2, 3, 5, 6, 10)
    assert H.conductor == 11
    assert H.frobenius == 10
    assert H.multiplicity == 4


def test_non_coprime_rejected():
    with pytest.raises(sg.NotCoprime):
        sg.semigroup([4, 6])


def test_symmetry():
    assert sg.is_symmetric(sg.semigroup([2, 3]))
    assert sg.is_symmetric(sg.semigroup([3, 4]))
    assert sg.is_symmetric(sg.semigroup([2, 5]))
    assert not sg.is_symmetric(sg.semigroup([4, 7, 9]))


def test_apery_colength_identity():
    # lam(R/(t^e)) = e for every e in H (Apery set has e elements)
    for gens in ((2, 3), (3, 4), (4, 7, 9), (5, 7, 9, 11, 13)):
        H = sg.semigroup(gens)
        for e in range(1, H.conductor + 21):
            if H.contains(e):
                assert sg.colength(sg.ideal(H, [e])) == e


def test_ideal_minimalization():
    H = sg.semigroup([4, 7, 9])
    E = sg.ideal(H, [11, 14, 15, 18, 22])
    assert E.gens == (11, 14)


def test_product_gens_lie_in_sum():
    H = sg.semigroup([3, 4])
    E = sg.ideal(H, [6, 7])
    F = sg.ideal(H, [3, 8])
    P = sg.product(E, F)
    sums = {a + b for a in E.gens for b in F.gens}
    assert all(any(g <= s and H.contains(s - g) for s in sums) for g in P.gens)
    # colon(E*F, F) contains E
    assert sg.contains_ideal(sg.colon(P, F), E)


def test_colength_and_rel_length():
    H = sg.semigroup([4, 7, 9])
    I = sg.ideal(H, [11, 14])
    Q = sg.ideal(H, [11])
    assert sg.colength(I) == 9
    assert sg.rel_length(I, Q) == 2
    assert sg.colength(Q) - sg.colength(I) == 2


def test_colon():
    H = sg.semigroup([2, 3])
    Q = sg.ideal(H, [4])
    m = sg.maximal_ideal(H)
    socle = sg.colon(Q, m)
    assert socle.gens == (4, 5)


def test_order():
    H = sg.semigroup([2, 3])
    m = sg.maximal_ideal(H)
    assert sg.order(sg.ideal(H, [4, 5])) == 2
    assert sg.order(m) == 1


def test_canonical_ideal_479():
    H = sg.semigroup([4, 7, 9])
    K = sg.canonical_ideal(H)
    assert sg.nu(K) == 2  # non-Gorenstein of type 2


def test_canonical_ideal_principal_iff_symmetric():
    for gens in ((2, 3), (3, 4), (2, 5)):
        K = sg.canonical_ideal(sg.semigroup(gens))
        assert sg.nu(K) == 1
    assert sg.nu(sg.canonical_ideal(sg.semigroup([4, 7, 9]))) > 1


def test_parameter_multiplicity_from_gorenstein_duality():
    # symmetric H with parameter Q and I = (Q : m): lam(R/(Q:I)) = e0(I) - lam(R/I)
    for gens in ((2, 3), (3, 4), (2, 5)):
        H = sg.semigroup(gens)
        m = sg.maximal_ideal(H)
        for e in [x for x in range(1, H.conductor + 8) if H.contains(x)][:5]:
            Q = sg.ideal(H, [e])
            I = sg.colon(Q, m)
            lam_colon = sg.colength(sg.colon(Q, I))
            assert lam_colon == e - sg.colength(I)


def test_contains_and_equals():
    H = sg.semigroup([3, 4])
    E = sg.ideal(H, [6, 7])
    F = sg.ideal(H, [6, 7, 11])
    assert sg.equals(E, F)
    assert sg.contains_ideal(E, sg.ideal(H, [10]))


# ------------------------------------------------ brute-force oracle

def _members(gens, hi):
    """Membership in the semigroup generated by gens on [0, hi), by reachability."""
    member = [True] + [False] * (hi - 1)
    for x in range(1, hi):
        member[x] = any(g <= x and member[x - g] for g in gens)
    return member


@st.composite
def semigroup_and_ideals(draw):
    m = draw(st.integers(1, 12))
    gens = [m] + draw(st.lists(st.integers(m + 1, 3 * m + 1), min_size=1, max_size=3))
    assume(gcd(*gens) == 1)
    # every Apery element is a sum of at most m - 1 generators
    member = _members(gens, m * max(gens) + 1)
    elements = [x for x in range(len(member)) if member[x]]
    ideals = [draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4))
              for _ in range(2)]
    return gens, ideals


@settings(max_examples=150, deadline=None)
@given(case=semigroup_and_ideals())
def test_apery_engine_matches_membership_oracle(case):
    gens, (a, b) = case
    H = sg.semigroup(gens)
    # conductor <= m * max(gens), and past conductor + max(a) + max(b) each
    # ideal below contains everything, so [0, hi) decides them all
    hi = 2 * (min(gens) * max(gens) + max(a) + max(b))
    member = _members(gens, hi + max(b))
    conductor = max((x + 1 for x in range(hi) if not member[x]), default=0)
    assert H.conductor == conductor
    assert H.gaps() == tuple(x for x in range(conductor) if not member[x])

    def in_ideal(g, x):
        return any(x >= e and member[x - e] for e in g)

    def oracle_gens(g):
        return tuple(x for x in range(hi) if in_ideal(g, x)
                     and not any(in_ideal(g, x - h) for h in range(1, x + 1) if member[h]))

    def same(ideal, test):
        return all(ideal.contains(x) == test(x) for x in range(hi))

    E, F = sg.ideal(H, a), sg.ideal(H, b)
    assert E.gens == oracle_gens(a)
    assert F.gens == oracle_gens(b)
    assert sg.colength(E) == sum(member[x] and not in_ideal(a, x) for x in range(hi))
    sums = [x + y for x in a for y in b]
    P = sg.product(E, F)
    assert same(P, lambda x: in_ideal(sums, x))
    assert sg.rel_length(E, P) == sum(in_ideal(a, x) and not in_ideal(sums, x)
                                      for x in range(hi))
    C = sg.colon(E, F)
    assert same(C, lambda x: member[x] and all(in_ideal(a, x + f) for f in b))
    assert sg.contains_ideal(E, F) == all(in_ideal(a, f) for f in b)
