"""Engine-agnostic extraction of multiplicity data from ideal powers.

Given an m-primary ideal in one of the supported engines (monomial exponent
ideals, numerical-semigroup ideals, or GF(p) polynomial ideals), this module
tabulates the length and generator-count sequences of its powers, fits them in
the signed binomial basis to obtain the Hilbert coefficients e_0..e_d and
fiber coefficients f_0..f_{d-1}, and computes reduction numbers, minimal
reductions and related integers.  Everything is exact.

The ideal protocol: monomial.MonomialIdeal, semigroup.SemigroupIdeal and
groebner.GroebnerIdeal all have the methods colength() (local for GF(p)),
nu(), order(), product(J), power(n), colon(J) = (I : J), contains_ideal(J)
(J in I), equals(J), member(g) (the monomial g lies in I), integral_over(g),
extend(extra) (I plus the monomials in extra) and descriptor() (generators as
JSON-ready nested tuples).  A GF(p) ideal raises TypeError for nu, order and
integral_over, and lifts a monomial argument of colon, contains_ideal and
equals into its own ring; a monomial ideal raises TypeError when member or
contains_ideal is given a polynomial or a GF(p) ideal.  Each method calls its
engine's module function by name when it runs, so the module functions remain
the implementation.

The checkers ask for the same invariants of J and I = J + (h) again and again,
so the functions marked @_memoized compute once per battery: run_battery opens
MEMO for one battery (not the process, so repeated benchmark passes stay cold),
keyed by positional arguments: GF(p) ideals by identity, the rest by value.
The memo also keeps one list of each ideal's powers for every walk over them,
and minimal_reduction tests all its samples against one walk, step by step.
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
REDUCTION_CAP = 30
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
    dim: int
    e: tuple
    postulation: int
    sequence: binomfit.LengthSequence


@dataclass(frozen=True)
class FiberData:
    dim: int
    f: tuple
    postulation: int
    sequence: binomfit.LengthSequence


@dataclass(frozen=True)
class ReductionReport:
    reduction: object
    reduction_number: int
    is_minimal: bool
    samples_tried: int
    certified: bool

    @property
    def q_descriptor(self):
        return self.reduction.descriptor()


@dataclass(frozen=True)
class SallyReport:
    s0: int
    e1_i: int
    e1_q: int
    e0_i: int
    colength_i: int
    hypotheses_note: str


def _memoized(fn):
    """fn, answered from MEMO; keyword arguments or no open memo call through."""
    @wraps(fn)
    def memo_fn(*args, **kwargs):
        memo = MEMO.get()
        if memo is None or kwargs:
            return fn(*args, **kwargs)
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
    return binomfit.LengthSequence(1, tuple(map(value, islice(_power_walk(I), nmax))))


def _fit_with_horizon(make_seq, d, degree):
    """Fit make_seq(h) at degree from h = 2(d+3), doubling h while it fails."""
    horizon = 2 * (d + 3)
    while True:
        seq = make_seq(horizon)
        try:
            report = binomfit.fit_binomial(seq, degree)
            return report, seq
        except binomfit.NonPolynomial:
            if horizon >= HORIZON_MAX:
                raise HorizonExceeded(f"no polynomial behaviour up to n={horizon}")
            horizon = min(2 * horizon, HORIZON_MAX)


@_memoized
def hilbert_coeffs(ctx, I):
    """Hilbert coefficients e_0..e_d of an m-primary ideal."""
    d = ctx.dim
    report, seq = _fit_with_horizon(
        lambda h: _power_sequence(I, h, methodcaller("colength")), d, d)
    return HilbertData(d, report.poly.coeffs, report.postulation_index, seq)


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
    sum_fit, sums = _fit_with_horizon(
        lambda h: binomfit.LengthSequence(1, tuple(accumulate(nus(h).values))), d, d)
    seq = nus(len(sums))
    report = binomfit.fit_binomial(seq, d - 1)
    if sum_fit.poly.coeffs[0] != report.poly.coeffs[0]:
        raise OracleMismatch(
            f"f0 mismatch: direct {report.poly.coeffs[0]}, "
            f"iterated-sum {sum_fit.poly.coeffs[0]}")
    return FiberData(d, report.poly.coeffs, report.postulation_index, seq)


@_memoized
def normal_coeffs(ctx, I):
    """Hilbert and fiber data of the integral-closure filtration n -> bar(I^n)."""
    if not isinstance(I, monomial.MonomialIdeal):
        raise monomial.DimensionUnsupported("the normal filtration needs the monomial engine")
    d = ctx.dim
    table = cache(lambda h: monomial.closure_data(I, h))

    def column(index):
        return lambda h: binomfit.LengthSequence(1, tuple(row[index] for row in table(h)))

    hrep, hseq = _fit_with_horizon(column(0), d, d)
    frep, fseq = _fit_with_horizon(column(1), d, d - 1)
    return (HilbertData(d, hrep.poly.coeffs, hrep.postulation_index, hseq),
            FiberData(d, frep.poly.coeffs, frep.postulation_index, fseq))


# ---------------------------------------------------------------- reductions

def _polynomials(ctx, Q):
    """Q's generators as term dicts over GF(p), with p; a monomial is a monic term."""
    if isinstance(Q, groebner.GroebnerIdeal):
        return Q.gens, Q.ring.char_p
    return [{u: 1} for u in Q.gens], ctx.char_p


def _contains_termwise(I, qs):
    """The polynomials qs lie in the monomial ideal I: a polynomial lies in a
    monomial ideal iff each of its terms does."""
    return all(I.member(u) for q in qs for u in q)


def colon_colength(ctx, Q, I):
    """lam(R/(Q:I)), by linkage when Q is a parameter ideal inside I.

    In a regular local ring a d-generated m-primary Q is a complete
    intersection, so R/Q is Artinian Gorenstein and, by Matlis duality,
    (Q:I)/Q = Hom(R/I, R/Q) has length lam(R/I) for every Q in I.  Hence
    lam(R/(Q:I)) = lam(R/Q) - lam(R/I) (Peskine-Szpiro 1974; Bruns-Herzog,
    Cohen-Macaulay Rings, ch. 3): one local colength of Q, no colon ideal.
    That needs a poly context, len(Q.gens) == d and a monomial I holding every
    term of Q's generators; anything else takes the engine's colon.  A
    semigroup ring need not be Gorenstein (<4,7,9> is not symmetric), so its
    closed-form colon stays.
    """
    if (ctx.kind == "poly" and len(Q.gens) == ctx.dim
            and isinstance(I, monomial.MonomialIdeal)
            and _contains_termwise(I, _polynomials(ctx, Q)[0])):
        return Q.colength() - I.colength()
    return Q.colon(I).colength()


@_memoized
def reduction_number(ctx, Q, I, cap=REDUCTION_CAP):
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
        return groebner.reduction_number(to_groebner(ctx, Q), I, cap=cap)
    if isinstance(I, semigroup.SemigroupIdeal):
        if not I.contains_ideal(Q):
            raise ValueError("Q is not contained in I")
        QIs = Q  # Q*I^s, against I^(s+1), from s = 0
        for s, Inext in zip(range(cap + 1), _power_walk(I)):
            if QIs.equals(Inext):
                return s
            QIs = Q.product(Inext)
        raise groebner.CapExceeded(f"no reduction relation up to cap {cap}")
    qs, p = _polynomials(ctx, Q)
    if not _contains_termwise(I, qs):
        raise ValueError("Q is not contained in I")
    return _least_full_rank([qs], p, I, cap)[0]


_reduction_number = reduction_number.__wrapped__  # its memo key; tracers replace only the wrapper


def _least_full_rank(samples, p, I, cap):
    """(s, k): the least step s at which some samples[k] (generators in I, as
    term dicts) gives the matrix of reduction_number full column rank, and the
    first such k.  The column of u*g (u a term, g in I^s) is found once a step."""
    terms = sorted({u for qs in samples for q in qs for u in q})
    coeffs = [np.array([[q.get(u, 0) for u in terms] for q in qs], dtype=np.int64)
              for qs in samples]
    Is = monomial.unit_ideal(I.dim)
    for s, Inext in zip(range(cap + 1), _power_walk(I)):
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
    raise groebner.CapExceeded(f"no reduction relation up to cap {cap}")


def minimal_reduction(ctx, I, samples=SAMPLE_COUNT, seed=0):
    """A d-generated reduction with the best reduction number over samples:
    the first with the least, all tested together for a monomial I."""
    if ctx.kind == "semigroup":
        e = min(I.gens)
        Q = semigroup.ideal(ctx.numerical, [e])
        s = reduction_number(ctx, Q, I)
        return ReductionReport(Q, s, True, 1, True)
    d = ctx.dim
    if isinstance(I, monomial.MonomialIdeal) and I.nu() == d:
        return ReductionReport(I, 0, True, 0, True)
    Ig = to_groebner(ctx, I)
    draws = (groebner.random_minimal_reduction(list(Ig.gens), d, Ig.ring,
                                               rng_seed=seed * 10007 + k)
             for k in range(samples))
    best = None
    tried = 0
    if isinstance(I, monomial.MonomialIdeal) and samples > 0:
        Qs = list(draws)
        try:
            s, k = _least_full_rank([Q.gens for Q in Qs], Ig.ring.char_p, I, REDUCTION_CAP)
        except groebner.CapExceeded:
            pass
        else:
            best, tried = (Qs[k], s), (k + 1 if s == 0 else samples)
            memo = MEMO.get()
            if memo is not None:  # the checkers ask for this number again
                memo[(_reduction_number, (ctx, Qs[k], I))] = s
    for Q in draws:  # already drained for a monomial I
        tried += 1
        try:
            s = reduction_number(ctx, Q, I)
        except groebner.CapExceeded:
            continue
        if best is None or s < best[1]:
            best = (Q, s)
        if s == 0:
            break
    if best is None:
        raise NoReductionFound(f"no sampled reduction within cap {REDUCTION_CAP}")
    Q, s = best
    return ReductionReport(Q, s, True, tried, False)


def sally_multiplicity(ctx, Q, I):
    """s0 = e1(I) - e1(Q) - e0(I) + lam(R/I) for a reduction Q of I."""
    hil = hilbert_coeffs(ctx, I)
    note = "dim of the Sally module assumed maximal; H^0_m(R) = 0 in these domains"
    if isinstance(Q, groebner.GroebnerIdeal):
        # a d-generated parameter ideal in a CM ring has e1 = 0
        e1_q = 0
        note += "; e1(Q) = 0 taken from the parameter-ideal vanishing"
    else:
        e1_q = hilbert_coeffs(ctx, Q).e[1]
    lam = I.colength()
    s0 = hil.e[1] - e1_q - hil.e[0] + lam
    return SallyReport(s0, hil.e[1], e1_q, hil.e[0], lam, note)


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
    """Independent dim-1 value of e1: sum of lam(I^(n+1)/Q*I^n) over n >= 0."""
    if ctx.dim != 1:
        raise ValueError("series oracle is one-dimensional only")
    total = 0
    Inext, QIn = I, Q  # I^(n+1) and Q*I^n, from n = 0
    for _ in range(REDUCTION_CAP + 1):
        step = semigroup.rel_length(Inext, QIn)
        total += step
        if step == 0 and QIn.equals(Inext):
            return total
        Inext, QIn = Inext.product(I), Q.product(Inext)
    raise groebner.CapExceeded("series did not terminate within cap")
