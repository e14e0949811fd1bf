"""Engine-agnostic extraction of multiplicity data from ideal powers.

Given an m-primary ideal in one of the supported engines (monomial exponent
ideals, numerical-semigroup ideals, or GF(p) polynomial ideals), this module
tabulates the length and generator-count sequences of its powers, fits them in
the signed binomial basis to obtain the Hilbert coefficients e_0..e_d and
fiber coefficients f_0..f_{d-1}, and computes reduction numbers, minimal
reductions, socle extensions and related integers.  Everything is exact.

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
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product
from math import isqrt
from operator import methodcaller

import numpy as np

from . import binomfit, groebner, monomial, semigroup

HORIZON_MAX = 200
REDUCTION_CAP = 30
SAMPLE_COUNT = 8


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


# ---------------------------------------------------------------- lifting

def to_groebner(ctx, I):
    """I in the GF(p) engine: a monomial ideal is lifted over GF(ctx.char_p)."""
    if isinstance(I, groebner.GroebnerIdeal):
        return I
    return groebner.from_monomial_ideal(I, ctx.char_p)


# ---------------------------------------------------------------- sequences

def _power_sequence(I, nmax, value):
    """value(I^n) for n = 1..nmax, e.g. lam(R/I^n) or nu(I^n)."""
    out = []
    cur = I
    for n in range(1, nmax + 1):
        out.append(value(cur))
        if n < nmax:
            cur = cur.product(I)
    return binomfit.LengthSequence(1, tuple(out))


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


def hilbert_coeffs(ctx, I):
    """Hilbert coefficients e_0..e_d of an m-primary ideal."""
    d = ctx.dim
    report, seq = _fit_with_horizon(
        lambda h: _power_sequence(I, h, methodcaller("colength")), d, d)
    return HilbertData(d, report.poly.coeffs, report.postulation_index, seq)


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


def normal_coeffs(ctx, I):
    """Hilbert and fiber data of the integral-closure filtration n -> bar(I^n)."""
    d = ctx.dim
    NP = monomial.newton(I)

    @cache
    def table(h):
        return monomial.closure_data(I, h, NP=NP)

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
        QIs, Inext = Q, I  # Q*I^s and I^(s+1), from s = 0
        for s in range(cap + 1):
            if QIs.equals(Inext):
                return s
            QIs, Inext = Q.product(Inext), Inext.product(I)
        raise groebner.CapExceeded(f"no reduction relation up to cap {cap}")
    qs, p = _polynomials(ctx, Q)
    if not _contains_termwise(I, qs):
        raise ValueError("Q is not contained in I")
    Is, Inext = monomial.unit_ideal(I.dim), I  # I^s and I^(s+1), from s = 0
    for s in range(cap + 1):
        column = {w: k for k, w in enumerate(Inext.gens)}
        nrows = len(qs) * len(Is.gens)
        if nrows >= len(column):  # fewer rows cannot have full column rank
            M = np.zeros((nrows, len(column)), dtype=np.int64)
            for r, (q, g) in enumerate(product(qs, Is.gens)):
                for u, c in q.items():
                    k = column.get(tuple(a + b for a, b in zip(u, g)))
                    if k is not None:
                        M[r, k] = c
            if groebner._rank_mod(M, p) == len(column):
                return s
        Is, Inext = Inext, Inext.product(I)
    raise groebner.CapExceeded(f"no reduction relation up to cap {cap}")


def minimal_reduction(ctx, I, samples=SAMPLE_COUNT, seed=0):
    """A d-generated reduction with the best reduction number over samples."""
    if ctx.kind == "semigroup":
        e = min(I.gens)
        Q = semigroup.ideal(ctx.numerical, [e])
        s = reduction_number(ctx, Q, I)
        return ReductionReport(Q, s, True, 1, True)
    d = ctx.dim
    if isinstance(I, monomial.MonomialIdeal) and I.nu() == d:
        return ReductionReport(I, 0, True, 0, True)
    Ig = to_groebner(ctx, I)
    best = None
    tried = 0
    for k in range(samples):
        Q = groebner.random_minimal_reduction(list(Ig.gens), d, Ig.ring,
                                              rng_seed=seed * 10007 + k)
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


def socle_extension(ctx, Q, s):
    """The ideal Q : m^s."""
    if s == 0:
        return Q
    return Q.colon(ctx.maximal_ideal().power(s))


def nu_power_criterion(ctx, I):
    """Least n with nu(I^n) < C(n+d, d); then n-1 bounds some minimal
    reduction number of I.

    By Eakin-Sathaye (1976), over an infinite residue field nu(I^n) <
    C(n+d, d) gives a d-generated reduction J with I^n = J*I^(n-1).  That
    theorem is what the checkers' bound_certified flag rests on.
    """
    d = ctx.dim
    cur = I
    for n in range(1, REDUCTION_CAP + 1):
        if cur.nu() < binomfit.binom(n + d, d):
            return n - 1
        cur = cur.product(I)
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
