"""Engine-agnostic extraction of multiplicity data from ideal powers.

Given an m-primary ideal in one of the supported engines (monomial exponent
ideals, numerical-semigroup ideals, or GF(p) polynomial ideals), this module
takes the lengths and generator counts of its powers at n = 1, 2, ... as plain
integer tuples, fits them in the signed binomial basis (binomfit.fit_binomial)
to obtain the Hilbert coefficients e_0..e_d and fiber coefficients
f_0..f_{d-1}, and computes reduction numbers, minimal reductions and related
integers.  Everything is exact.

The ideal protocol: monomial.MonomialIdeal, semigroup.SemigroupIdeal and
groebner.GroebnerIdeal all have the property is_unit (I is the whole local
ring) and the methods colength() (local for GF(p)), nu(), order(),
product(J), colon(J) = (I : J), contains_ideal(J) (J in I), equals(J),
member(g) (the monomial g lies in I; in a poly ring g may also be a
polynomial, as a term dict), integral_over(g), extend(extra) (I plus the
monomials in extra) and descriptor() (generators as JSON-ready nested
tuples).  A GF(p) ideal raises TypeError for nu, order and integral_over, and
lifts a monomial argument of colon, contains_ideal and equals into its own
ring; a monomial ideal tests a polynomial, or a GF(p) ideal's generators,
termwise in contains_ideal and member, and raises TypeError when colon is
given a GF(p) ideal, whose colon need not be monomial.  Each method calls its
engine's module function by name when it runs, so the module functions remain
the implementation.

The checkers ask for the same invariants of J and I = J + (h) again and again,
so the functions marked @_memoized compute once per battery: run_battery opens
MEMO for one battery (not the process, so repeated benchmark passes stay cold),
keyed by positional arguments only: GF(p) ideals by identity, the rest by value.
The memo also keeps one list of each ideal's powers for every walk over them.
Each engine walks Q*I^s against I^(s+1) once, within the one REDUCTION_CAP:
in k[[t^H]] that walk also sums the dimension-one e1 series, and
minimal_reduction tests all its samples for a monomial I against one walk,
step by step.
"""

from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, wraps
from itertools import accumulate, count, islice
from math import isqrt
from operator import methodcaller

import numpy as np

from . import binomfit, groebner, monomial, semigroup

HORIZON_MAX = 200
REDUCTION_CAP = groebner.REDUCTION_CAP  # the largest s every reduction-number walk tries
SAMPLE_COUNT = 8
MEMO = ContextVar("MEMO", default=None)  # {(function, args): result} of the open battery


class HorizonExceeded(Exception):
    """Length sequence did not become polynomial within the horizon cap."""


class OracleMismatch(Exception):
    """Two independent computations of the same invariant disagree."""


class NoReductionFound(Exception):
    pass


@dataclass(frozen=True)
class RingContext:
    """Ambient local ring: a localized polynomial ring or k[[t^H]]."""

    kind: str  # "poly" | "semigroup"
    dim: int
    char_p: int = groebner.DEFAULT_PRIME
    numerical: object = None

    def maximal_ideal(self):
        if self.kind == "semigroup":
            return semigroup.maximal_ideal(self.numerical)
        return monomial.minimalize(
            self.dim, [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)])


def poly_context(dim, char_p=groebner.DEFAULT_PRIME):
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    # past MATRIX_CAP*(p-1)^2 >= 2^63 local_colength's int64 products can wrap
    if (groebner.MATRIX_CAP * (char_p - 1) ** 2 >= 2 ** 63 or char_p < 2
            or any(char_p % k == 0 for k in range(2, isqrt(char_p) + 1))):
        raise ValueError(f"char {char_p} is not a prime within the int64 bound")
    return RingContext("poly", dim, char_p)


def semigroup_context(H):
    return RingContext("semigroup", 1, numerical=H)


@dataclass(frozen=True)
class HilbertData:
    e: tuple
    postulation: int
    sequence: tuple  # the fitted lengths at n = 1, 2, ...


@dataclass(frozen=True)
class FiberData:
    f: tuple
    postulation: int
    sequence: tuple  # the fitted generator counts at n = 1, 2, ...


@dataclass(frozen=True)
class ReductionReport:
    reduction: object
    reduction_number: int
    samples_tried: int
    certified: bool

    @property
    def q_descriptor(self):
        return self.reduction.descriptor()


def _memoized(fn):
    """fn, answered from MEMO keyed by its positional arguments only; with no
    open memo it calls through."""
    @wraps(fn)
    def memo_fn(*args):
        memo = MEMO.get()
        if memo is None:
            return fn(*args)
        key = (fn, args)  # hashed once on a hit: ideals hash their whole value
        result = memo.get(key, memo)  # the memo itself marks a miss
        if result is memo:
            result = memo[key] = fn(*args)  # an exception stores nothing
        return result

    return memo_fn


# ---------------------------------------------------------------- lifting

def to_groebner(ctx, I):
    """I in the GF(p) engine: a monomial ideal is lifted over GF(ctx.char_p)."""
    if isinstance(I, groebner.GroebnerIdeal):
        return I
    return groebner.from_monomial_ideal(I, ctx.char_p)


# ---------------------------------------------------------------- sequences

@_memoized
def _powers(I):
    """[I, I^2, ...] as far as _power_walk has read them in the open battery."""
    return [I]


def _power_walk(I):
    """I, I^2, I^3, ...: each power is taken from _powers(I), or made and kept there."""
    powers = _powers(I)
    for n in count():
        if n == len(powers):
            powers.append(powers[-1].product(I))
        yield powers[n]


def _power_sequence(I, nmax, value):
    """value(I^n) for n = 1..nmax, e.g. lam(R/I^n) or nu(I^n)."""
    return tuple(map(value, islice(_power_walk(I), nmax)))


def _fit_with_horizon(make_seq, d, degree):
    """(coeffs, postulation, seq) of make_seq(h) fitted at degree, from
    h = 2(d+3), doubling h while the fit fails."""
    horizon = 2 * (d + 3)
    while True:
        seq = make_seq(horizon)
        try:
            return (*binomfit.fit_binomial(seq, degree), seq)
        except binomfit.NonPolynomial:
            if horizon >= HORIZON_MAX:
                raise HorizonExceeded(f"no polynomial behaviour up to n={horizon}")
            horizon = min(2 * horizon, HORIZON_MAX)


@_memoized
def hilbert_coeffs(ctx, I):
    """Hilbert coefficients e_0..e_d of an m-primary ideal."""
    d = ctx.dim
    return HilbertData(*_fit_with_horizon(
        lambda h: _power_sequence(I, h, methodcaller("colength")), d, d))


@_memoized
def fiber_coeffs(ctx, J):
    """Fiber coefficients f_0..f_{d-1}, with an independent f_0 cross-check.

    The partial sums of nu(J^n) are of polynomial type of degree d with the
    same leading coefficient, so a second fit at degree d must reproduce f_0.
    They need one more polynomial point than nu(J^n) does, so the horizon is
    the first at which the partial sums fit; the direct fit holds there too.
    """
    d = ctx.dim
    nus = cache(lambda h: _power_sequence(J, h, methodcaller("nu")))
    sum_coeffs, _, sums = _fit_with_horizon(lambda h: tuple(accumulate(nus(h))), d, d)
    seq = nus(len(sums))
    f, postulation = binomfit.fit_binomial(seq, d - 1)
    if sum_coeffs[0] != f[0]:
        raise OracleMismatch(f"f0 mismatch: direct {f[0]}, iterated-sum {sum_coeffs[0]}")
    return FiberData(f, postulation, seq)


@_memoized
def normal_coeffs(ctx, I):
    """Hilbert and fiber data of the integral-closure filtration n -> bar(I^n)."""
    if not isinstance(I, monomial.MonomialIdeal):
        raise monomial.DimensionUnsupported("the normal filtration needs the monomial engine")
    d = ctx.dim
    table = cache(lambda h: monomial.closure_data(I, h))

    def column(index):
        return lambda h: tuple(row[index] for row in table(h))

    return (HilbertData(*_fit_with_horizon(column(0), d, d)),
            FiberData(*_fit_with_horizon(column(1), d, d - 1)))


# ---------------------------------------------------------------- reductions

def _polynomials(ctx, Q):
    """Q's generators as term dicts over GF(p), with p; a monomial is a monic term."""
    if isinstance(Q, groebner.GroebnerIdeal):
        return Q.gens, Q.ring.char_p
    return [{u: 1} for u in Q.gens], ctx.char_p


def colon_colength(ctx, Q, I):
    """lam(R/(Q:I)), by linkage when Q is a parameter ideal inside I.

    In a regular local ring a d-generated m-primary Q is a complete
    intersection, so R/Q is Artinian Gorenstein and, by Matlis duality,
    (Q:I)/Q = Hom(R/I, R/Q) has length lam(R/I) for every Q in I.  Hence
    lam(R/(Q:I)) = lam(R/Q) - lam(R/I) (Peskine-Szpiro 1974; Bruns-Herzog,
    Cohen-Macaulay Rings, ch. 3): one local colength of Q, no colon ideal.
    That needs a poly context, len(Q.gens) == d and I containing Q, in any
    pair of engines; Q.colength() refuses a Q that is not m-primary.
    Anything else takes the engine's colon.  A semigroup ring need not be
    Gorenstein (<4,7,9> is not symmetric), so its closed-form colon stays.
    Every colon colength of the checkers and the batteries comes through here.
    """
    if ctx.kind == "poly" and len(Q.gens) == ctx.dim and I.contains_ideal(Q):
        return Q.colength() - I.colength()
    return Q.colon(I).colength()


@_memoized
def reduction_number(ctx, Q, I):
    """Least s with I^(s+1) = Q * I^s (at the origin for GF(p) ideals).

    A GF(p) ideal I goes to groebner.reduction_number.  For a monomial I and
    any Q (monomial, or GF(p) polynomials) this is graded Nakayama on the
    fiber cone: I^(s+1) = Q*I^s locally iff the images of the products q*g
    (q a generator of Q, g a minimal generator of I^s) span I^(s+1)/m*I^(s+1),
    whose basis is the minimal generators w of I^(s+1).  Every term u of q
    lies in I, so u*g lies in m*I^(s+1) unless it is one of the w; the
    products thus give a matrix over GF(p) (entry c where q = ... + c*u and
    u*g = w), and s is the least step at which it has full column rank.
    """
    if isinstance(I, groebner.GroebnerIdeal):
        return groebner.reduction_number(to_groebner(ctx, Q), I)
    if isinstance(I, semigroup.SemigroupIdeal):
        return _dimension_one_walk(Q, I)[0]
    if not I.contains_ideal(Q):
        raise ValueError("Q is not contained in I")
    qs, p = _polynomials(ctx, Q)
    return _least_full_rank([qs], p, I)[0]


_reduction_number = reduction_number.__wrapped__  # its memo key; tracers replace only the wrapper


@_memoized
def _dimension_one_walk(Q, I):
    """(red_Q(I), sum of lam(I^(s+1)/Q*I^s) over s >= 0) for ideals Q in I of
    k[[t^H]]: the terms vanish from s = red_Q(I) on, so one walk gives both."""
    if not I.contains_ideal(Q):
        raise ValueError("Q is not contained in I")
    total, QIs = 0, Q  # Q*I^s, against I^(s+1), from s = 0
    for s, Inext in zip(range(REDUCTION_CAP + 1), _power_walk(I)):
        if QIs.equals(Inext):
            return s, total
        total += semigroup.rel_length(Inext, QIs)
        QIs = Q.product(Inext)
    raise groebner.CapExceeded(f"no reduction relation up to cap {REDUCTION_CAP}")


def _least_full_rank(samples, p, I):
    """(s, k): the least step s at which some samples[k] (generators in I, as
    term dicts) gives the matrix of reduction_number full column rank, and the
    first such k.  The column of u*g (u a term, g in I^s) is found once a step."""
    terms = sorted({u for qs in samples for q in qs for u in q})
    coeffs = [np.array([[q.get(u, 0) for u in terms] for q in qs], dtype=np.int64)
              for qs in samples]
    Is = monomial.unit_ideal(I.dim)
    for s, Inext in zip(range(REDUCTION_CAP + 1), _power_walk(I)):
        column = {w: k for k, w in enumerate(Inext.gens)}
        at = np.array([[column.get(tuple(a + b for a, b in zip(u, g)), -1) for u in terms]
                       for g in Is.gens], dtype=np.int64)
        rows, ts = np.nonzero(at >= 0)
        cols = at[rows, ts]
        for k, C in enumerate(coeffs):
            nrows = len(C) * len(Is.gens)
            if nrows >= len(column):  # fewer rows cannot have full column rank
                M = np.zeros((nrows, len(column)), dtype=np.int64)
                M[np.arange(len(C))[:, None] * len(Is.gens) + rows, cols] = C[:, ts]
                if groebner._rank_mod(M, p) == len(column):
                    return s, k
        Is = Inext
    raise groebner.CapExceeded(f"no reduction relation up to cap {REDUCTION_CAP}")


def principal_reduction(ctx, I):
    """(t^e) for the least element e of an ideal I of k[[t^H]]: a minimal
    reduction of I."""
    return semigroup.ideal(ctx.numerical, [min(I.floors)])


def minimal_reduction(ctx, I, samples=SAMPLE_COUNT, seed=0):
    """A d-generated reduction with the best reduction number over samples:
    the first with the least.  A monomial I tests all samples against one
    walk; a GF(p) I tests them one by one, up to the first with number 0."""
    if ctx.kind == "semigroup":
        Q = principal_reduction(ctx, I)
        return ReductionReport(Q, reduction_number(ctx, Q, I), 1, True)
    d = ctx.dim
    if isinstance(I, monomial.MonomialIdeal) and I.nu() == d:
        return ReductionReport(I, 0, 0, True)
    Ig = to_groebner(ctx, I)
    Qs = [groebner.random_minimal_reduction(list(Ig.gens), d, Ig.ring, rng_seed=seed * 10007 + k)
          for k in range(samples)]
    found = []  # (s, k): sample k has reduction number s
    if Qs and isinstance(I, monomial.MonomialIdeal):
        try:
            found.append(_least_full_rank([Q.gens for Q in Qs], Ig.ring.char_p, I))
        except groebner.CapExceeded:
            pass
    else:
        for k, Q in enumerate(Qs):
            try:
                found.append((reduction_number(ctx, Q, I), k))
            except groebner.CapExceeded:
                continue
            if found[-1][0] == 0:
                break
    if not found:
        raise NoReductionFound(f"no sampled reduction within cap {REDUCTION_CAP}")
    s, k = min(found)
    memo = MEMO.get()
    if memo is not None:  # the checkers ask for this number again
        memo[(_reduction_number, (ctx, Qs[k], I))] = s
    return ReductionReport(Qs[k], s, k + 1 if s == 0 else samples, False)


@_memoized
def nu_power_criterion(ctx, I):
    """Least n with nu(I^n) < C(n+d, d); then n-1 bounds some minimal
    reduction number of I.

    By Eakin-Sathaye (1976), over an infinite residue field nu(I^n) <
    C(n+d, d) gives a d-generated reduction J with I^n = J*I^(n-1).  That
    theorem is what the checkers' bound_certified flag rests on.
    """
    d = ctx.dim
    for n, cur in zip(range(1, REDUCTION_CAP + 1), _power_walk(I)):
        if cur.nu() < binomfit.binom(n + d, d):
            return n - 1
    raise groebner.CapExceeded(f"criterion inconclusive up to n={REDUCTION_CAP}")


def e1_series_check(ctx, Q, I):
    """Dim-1 value of e1 independent of the fit: sum of lam(I^(n+1)/Q*I^n)
    over n >= 0 (Huneke 1987; Ooishi 1987), read off the reduction-number walk."""
    if ctx.dim != 1:
        raise ValueError("series oracle is one-dimensional only")
    return _dimension_one_walk(Q, I)[1]
