"""Property-based suites for the algebra kernels."""

from hypothesis import given, settings, strategies as st

from idealkit import binomfit as bf
from idealkit import bounds as bd
from idealkit import invariants as iv
from idealkit import monomial as mo
from idealkit import semigroup as sg

SUITE = settings(max_examples=500, deadline=None)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50),
                       min_size=1, max_size=4)


@SUITE
@given(coeffs=coeff_lists)
def test_binomial_round_trip(coeffs):
    d = len(coeffs) - 1
    if coeffs[0] == 0:
        coeffs = [1] + coeffs[1:]
    coeffs = tuple(coeffs)
    values = tuple(bf.eval_binomial(coeffs, n) for n in range(1, 2 * d + 5))
    fitted, _ = bf.fit_binomial(values, d)
    assert fitted == coeffs
    # fitted polynomial reproduces every value it was fitted to
    assert all(bf.eval_binomial(fitted, n) == v for n, v in enumerate(values, 1))


exponent_vectors = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.integers(min_value=0, max_value=6)).filter(lambda v: any(v)),
    min_size=1, max_size=8)


@SUITE
@given(raw=exponent_vectors)
def test_canonicalization_idempotent(raw):
    I = mo.minimalize(2, raw)
    again = mo.minimalize(2, I.gens)
    assert again.gens == I.gens
    # adding redundant multiples changes nothing
    padded = list(I.gens) + [tuple(g + 1 for g in I.gens[0])]
    assert mo.minimalize(2, padded).gens == I.gens
    # every original generator is in the ideal
    assert all(I.member(v) for v in raw)


closure_ideals = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                       st.integers(min_value=0, max_value=4)),
             min_size=0, max_size=2))


@SUITE
@given(spec=closure_ideals)
def test_integral_closure_idempotent(spec):
    a, b, extra = spec
    gens = [(a, 0), (0, b)] + [g for g in extra if any(g)]
    I = mo.minimalize(2, gens)
    c1 = mo.integral_closure(I)
    assert mo.integral_closure(c1).gens == c1.gens
    assert c1.contains_ideal(I)
    assert mo.colength(c1) <= mo.colength(I)


semigroup_instances = st.tuples(
    st.sampled_from(((2, 3), (3, 4), (4, 7, 9), (2, 5), (3, 5))),
    st.integers(min_value=0, max_value=1 << 16))


@SUITE
@given(spec=semigroup_instances)
def test_report_determinism(spec):
    hgens, seed = spec
    import random
    H = sg.semigroup(hgens)
    rng = random.Random(seed)
    members = [x for x in range(H.multiplicity, H.conductor + 2 * H.multiplicity + 2)
               if H.contains(x)]
    gens = sorted(rng.sample(members, min(2, len(members))))
    I = sg.ideal(H, gens)
    ctx = iv.semigroup_context(H)
    r1 = bd.check_thm_3_1(ctx, I, seed=seed)
    r2 = bd.check_thm_3_1(ctx, I, seed=seed)
    assert r1.as_dict() == r2.as_dict()
    assert r1.status != "violated"
