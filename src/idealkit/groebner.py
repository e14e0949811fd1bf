"""Minimal Buchberger engine over GF(p) for non-monomial ideal computations.

Polynomials are sparse dicts mapping exponent tuples to nonzero coefficients
mod p.  The engine provides reduced Groebner bases (degrevlex or a block
elimination order), normal forms, ideal products, colon ideals via an
auxiliary elimination variable, and colengths in the localization at the
origin.

Local colengths are exact: the quotient by a globally zero-dimensional ideal
splits into local factors, and the factor at the origin is the joint
generalized kernel of the (commuting) multiplication operators by the
variables on the finite-dimensional quotient.  When every variable is
nilpotent the origin is the only point and the global staircase count is
already the local length.
"""

import heapq
import random
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import monomial

DEFAULT_PRIME = 32003
GEN_CAP = 5000
MATRIX_CAP = 1500
REDUCTION_CAP = 30


class NonStabilizing(Exception):
    """Origin is not an isolated point of the zero set, or quotient too large."""


class ConeNotMPrimary(NonStabilizing, monomial.NotMPrimary):
    """A homogeneous ideal that is not zero-dimensional: its zero set is a cone
    through the origin, so the origin is not isolated and the input is not
    m-primary (an input error, where other NonStabilizing cases are limits)."""


class CapExceeded(Exception):
    pass


def _drl_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


@dataclass(frozen=True)
class TermOrder:
    """degrevlex, or a block order eliminating the first elim_vars variables."""

    kind: str = "degrevlex"
    elim_vars: int = 0

    def key(self, exp):
        if self.kind == "degrevlex":
            return _drl_key(exp)
        k = self.elim_vars
        return (_drl_key(exp[:k]), _drl_key(exp[k:]))


@dataclass(frozen=True)
class PolyRing:
    nvars: int
    char_p: int = DEFAULT_PRIME
    order: TermOrder = field(default_factory=TermOrder)

    def key(self, exp):
        return self.order.key(exp)

    def normalize(self, terms):
        out = {}
        for exp, c in terms.items():
            c %= self.char_p
            if c:
                out[tuple(exp)] = c
        return out

    def leading(self, f):
        exp = max(f, key=self.key)
        return exp, f[exp]

    def monic(self, f):
        _, lc = self.leading(f)
        if lc == 1:
            return dict(f)
        inv = pow(lc, self.char_p - 2, self.char_p)
        return {e: (c * inv) % self.char_p for e, c in f.items()}

    def add(self, f, g):
        out = dict(f)
        for e, c in g.items():
            v = (out.get(e, 0) + c) % self.char_p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return out

    def scale_shift(self, f, coef, shift):
        """coef * x^shift * f."""
        p = self.char_p
        return {tuple(a + b for a, b in zip(e, shift)): (c * coef) % p
                for e, c in f.items()}

    def mul(self, f, g):
        p = self.char_p
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out


def _exp_div(a, b):
    """a / b componentwise, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f, basis, ring):
    """Full remainder of f modulo a list of monic (lead_exp, poly) pairs."""
    p = ring.char_p
    work = dict(f)
    result = {}
    while work:
        exp = max(work, key=ring.key)
        c = work.pop(exp)
        hit = None
        for lt, g in basis:
            q = _exp_div(exp, lt)
            if q is not None:
                hit = (q, lt, g)
                break
        if hit is None:
            result[exp] = c
            continue
        q, lt, g = hit
        for e2, c2 in g.items():
            if e2 == lt:
                continue
            e3 = tuple(a + b for a, b in zip(e2, q))
            v = (work.get(e3, 0) - c * c2) % p
            if v:
                work[e3] = v
            else:
                work.pop(e3, None)
    return result


def buchberger(gens, ring):
    """Reduced Groebner basis; deterministic normal pair strategy."""
    G = []
    for f in gens:
        f = ring.normalize(f)
        if f:
            G.append(ring.monic(f))
    if not G:
        return []
    G.sort(key=lambda f: ring.key(ring.leading(f)[0]))
    lts = [ring.leading(f)[0] for f in G]
    heap = []
    pending = set()

    def push_pair(i, j):
        lcm = _exp_lcm(lts[i], lts[j])
        heapq.heappush(heap, (sum(lcm), ring.key(lcm), i, j))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = _exp_lcm(lts[i], lts[j])
        # product criterion: coprime leading terms
        if all(a + b == c for a, b, c in zip(lts[i], lts[j], lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _exp_div(lcm, lts[k]) is not None:
                pik = tuple(sorted((i, k)))
                pjk = tuple(sorted((j, k)))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        qi = _exp_div(lcm, lts[i])
        qj = _exp_div(lcm, lts[j])
        s = ring.add(ring.scale_shift(G[i], 1, qi),
                     ring.scale_shift(G[j], ring.char_p - 1, qj))
        s = normal_form(s, list(zip(lts, G)), ring)
        if s:
            s = ring.monic(s)
            G.append(s)
            lts.append(ring.leading(s)[0])
            for k in range(len(G) - 1):
                push_pair(k, len(G) - 1)
    # minimalize then tail-reduce
    keep = []
    for i, lt in enumerate(lts):
        if not any(j != i and _exp_div(lt, lts[j]) is not None
                   and (lts[j] != lt or j < i) for j in range(len(G))):
            keep.append(i)
    reduced = []
    keep_lts = [lts[i] for i in keep]
    for idx, i in enumerate(keep):
        others = [(keep_lts[k], G[keep[k]]) for k in range(len(keep)) if k != idx]
        r = normal_form(G[i], others, ring)
        reduced.append(ring.monic(r))
    reduced.sort(key=lambda f: ring.key(ring.leading(f)[0]))
    return reduced


class GroebnerIdeal:
    """Generator list with a lazily computed reduced Groebner basis."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(ring.normalize(g) for g in gens if ring.normalize(g))
        if not self.gens:
            raise ValueError("zero ideal not supported")
        self._basis = None
        self._local_colength = None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = buchberger(list(self.gens), self.ring)
        return self._basis

    @property
    def lead_pairs(self):
        return [(self.ring.leading(f)[0], f) for f in self.basis]

    def contains(self, f):
        return not normal_form(self.ring.normalize(f), self.lead_pairs, self.ring)

    @property
    def is_unit(self):
        """Some generator has a nonzero constant term: a unit at the origin."""
        return any(not any(exp) for g in self.gens for exp in g)

    def initial_ideal(self):
        return monomial.minimalize(self.ring.nvars, [lt for lt, _ in self.lead_pairs])

    # The ideal protocol (see invariants): methods call module functions by name.

    def colength(self):
        return local_colength(self)

    def nu(self):
        raise TypeError("generator counts are only exact in the monomial engines")

    def order(self):
        raise TypeError("order implemented for the monomial engines")

    def product(self, other):
        return ideal_product(self, other)

    def colon(self, other):
        return colon_ideal(self, self._lift(other))

    def contains_ideal(self, other):
        return all(self.contains(g) for g in self._lift(other).gens)

    def equals(self, other):
        """Equality at the origin: A, B and A + B have one local colength."""
        other = self._lift(other)
        lam = local_colength(self)
        return lam == local_colength(other) == local_colength(
            GroebnerIdeal(self.ring, self.gens + other.gens))

    def member(self, v):
        """The monomial x^v, or the polynomial v (a term dict), lies in the ideal."""
        return self.contains(v if isinstance(v, dict) else {v: 1})

    def integral_over(self, v):
        raise TypeError("integral closures need the monomial engines")

    def extend(self, extra):
        """The ideal plus the monomials with exponent vectors in extra."""
        return GroebnerIdeal(self.ring, list(self.gens) + [{tuple(v): 1} for v in extra])

    def descriptor(self):
        return tuple(tuple(sorted(g.items())) for g in self.gens)

    def _lift(self, other):
        """other in this ideal's ring, a monomial ideal as monic terms."""
        if isinstance(other, GroebnerIdeal):
            return other
        return GroebnerIdeal(self.ring, [{g: 1} for g in other.gens])


def from_monomial_ideal(I, char_p=DEFAULT_PRIME):
    if not isinstance(I, monomial.MonomialIdeal):
        raise TypeError("cannot lift a semigroup ideal to the GF(p) engine")
    ring = PolyRing(I.dim, char_p)
    return GroebnerIdeal(ring, [{g: 1} for g in I.gens])


def monomial_generators(A):
    """Exponents when every basis element is a single term, else None."""
    exps = []
    for lt, f in A.lead_pairs:
        if len(f) != 1:
            return None
        exps.append(lt)
    return exps


def _dedup(gens):
    seen = set()
    out = []
    for g in gens:
        key = tuple(sorted(g.items()))
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def ideal_product(A, B):
    if A.ring != B.ring:
        raise ValueError("different rings")
    gens = _dedup([A.ring.mul(f, g) for f in A.gens for g in B.gens])
    if len(gens) > GEN_CAP:
        raise CapExceeded("generator combinatorics too large")
    return GroebnerIdeal(A.ring, gens)


def ideal_power(A, n):
    if n == 0:
        return GroebnerIdeal(A.ring, [{(0,) * A.ring.nvars: 1}])
    result = A
    for _ in range(n - 1):
        result = ideal_product(result, A)
    return result


def _rank_mod(A, p):
    A = np.asarray(A, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[r + 1:, c]
        mask = col != 0
        if mask.any():
            A[r + 1:][mask] = (A[r + 1:][mask] - np.outer(col[mask], A[r])) % p
        r += 1
    return r


def local_colength(A):
    """Length of the quotient in the localization at the origin."""
    if A._local_colength is not None:
        return A._local_colength
    ring = A.ring
    init = A.initial_ideal()
    if init.is_unit:
        A._local_colength = 0
        return 0
    if not monomial.is_m_primary(init):
        if all(len({sum(e) for e in f}) == 1 for f in A.gens):
            raise ConeNotMPrimary("homogeneous ideal is not m-primary")
        raise NonStabilizing("the local colength needs a zero-dimensional ideal")
    D = monomial.colength(init)
    basis = A.lead_pairs
    nilpotent = True
    for i in range(ring.nvars):
        e = [0] * ring.nvars
        e[i] = D
        if normal_form({tuple(e): 1}, basis, ring):
            nilpotent = False
            break
    if nilpotent:
        A._local_colength = D
        return D
    if D > MATRIX_CAP:
        raise NonStabilizing("quotient too large for the local split")
    std = monomial.standard_monomials(init)
    index = {m: k for k, m in enumerate(std)}
    p = ring.char_p
    mats = []
    for i in range(ring.nvars):
        M = np.zeros((D, D), dtype=np.int64)
        for k, m in enumerate(std):
            e = list(m)
            e[i] += 1
            e = tuple(e)
            if e in index:
                M[index[e], k] = 1
            else:
                nf = normal_form({e: 1}, basis, ring)
                for exp, c in nf.items():
                    M[index[exp], k] = c
        mats.append(M)
    # generalized kernels: M^K with K >= D captures the nilpotent part
    powers = []
    for M in mats:
        P = M
        k = 1
        while k < D:
            P = (P @ P) % p
            k *= 2
        powers.append(P)
    stacked = np.vstack(powers)
    local = D - _rank_mod(stacked, p)
    A._local_colength = local
    return local


def _elim_ring(ring):
    return PolyRing(ring.nvars + 1, ring.char_p, TermOrder("block", 1))


def _lift(f, coef_var_exp):
    """Map f into the elimination ring, multiplying by w^coef_var_exp."""
    return {(coef_var_exp,) + e: c for e, c in f.items()}


def intersection(A, B):
    """A intersect B via w*A + (1-w)*B and elimination of w."""
    ring = A.ring
    ering = _elim_ring(ring)
    gens = [_lift(f, 1) for f in A.gens]
    for g in B.gens:
        h = dict(_lift(g, 0))
        h = ering.add(h, {k: ering.char_p - v for k, v in _lift(g, 1).items()})
        gens.append(h)
    basis = buchberger(gens, ering)
    down = []
    for f in basis:
        lt, _ = ering.leading(f)
        if lt[0] == 0:
            assert all(e[0] == 0 for e in f)
            down.append({e[1:]: c for e, c in f.items()})
    if not down:
        raise ValueError("trivial intersection")
    return GroebnerIdeal(ring, down)


def exact_div(f, h, ring):
    """Quotient f / h when h divides f (used after intersecting with (h))."""
    p = ring.char_p
    lt_h, lc_h = ring.leading(h)
    inv = pow(lc_h, p - 2, p)
    q = {}
    r = dict(f)
    while r:
        exp, c = ring.leading(r)
        qe = _exp_div(exp, lt_h)
        if qe is None:
            raise ArithmeticError("division not exact")
        coef = (c * inv) % p
        q[qe] = coef
        for e2, c2 in h.items():
            e3 = tuple(a + b for a, b in zip(e2, qe))
            v = (r.get(e3, 0) - coef * c2) % p
            if v:
                r[e3] = v
            else:
                r.pop(e3, None)
    return q


def colon_poly(A, h):
    """(A : h) for a single nonzero polynomial h."""
    h = A.ring.normalize(h)
    if not h:
        raise ValueError("colon by zero")
    inter = intersection(A, GroebnerIdeal(A.ring, [h]))
    return GroebnerIdeal(A.ring, [exact_div(f, h, A.ring) for f in inter.gens])


def colon_ideal(A, B):
    """(A : B), intersecting the single-element colons over B's generators."""
    result = None
    for h in B.gens:
        part = colon_poly(A, h)
        result = part if result is None else intersection(result, part)
    return result


def random_minimal_reduction(gens, d, ring, rng_seed):
    """d random GF(p)-linear combinations of the given generators."""
    rng = random.Random(rng_seed)
    combos = []
    for _ in range(d):
        f = {}
        for g in gens:
            c = rng.randrange(1, ring.char_p)
            f = ring.add(f, {e: (c * v) % ring.char_p for e, v in g.items()})
        combos.append(f)
    return GroebnerIdeal(ring, combos)


def reduction_number(Q, I, cap=REDUCTION_CAP):
    """Least s with I^(s+1) = Q * I^s in the localization at the origin.

    Comparing local colengths decides equality only when Q*I^s lies in
    I^(s+1) at the origin, so Q must lie in I there: as polynomials, or else
    I + Q has the local colength of I."""
    if not (I.contains_ideal(Q) or local_colength(I) == local_colength(
            GroebnerIdeal(I.ring, I.gens + Q.gens))):
        raise ValueError("Q is not contained in I")
    QIs, Inext = Q, I  # Q*I^s and I^(s+1), from s = 0
    for s in range(cap + 1):
        # Q*I^s lies in I^(s+1), so equal local colengths mean equal ideals
        if local_colength(QIs) == local_colength(Inext):
            return s
        QIs, Inext = ideal_product(Q, Inext), ideal_product(Inext, I)
    raise CapExceeded(f"no reduction relation up to cap {cap}")
