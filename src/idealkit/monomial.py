"""Exact arithmetic of m-primary monomial ideals in a localized polynomial ring.

Ideals are stored by their minimal generating exponent vectors (a canonical
antichain), so ideal equality is list equality.  Colengths and minimal
generator counts are computed on boolean membership grids: generators are
marked in the staircase box and an or-accumulate along every axis produces the
full monomial membership table.  Newton polyhedra are built by exact integer
facet enumeration, which gives integral closures and normal powers.
"""

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

import numpy as np

GRID_CELL_CAP = 400_000_000  # refuse membership grids bigger than this


class NotMPrimary(Exception):
    pass


class DimensionUnsupported(Exception):
    pass


class Exhausted(Exception):
    """The ideal is integrally closed; no integral monomial outside it."""


def _minimal_antichain(vectors):
    """Componentwise-minimal elements of a set of exponent vectors, sorted."""
    vs = sorted(set(map(tuple, vectors)), key=lambda v: (sum(v), v))
    if len(vs) <= 64:
        kept = []
        for v in vs:
            if not any(all(k <= x for k, x in zip(k_, v)) for k_ in kept):
                kept.append(v)
        return sorted(kept)
    # degree-grouped numpy pass: a dominator always has strictly smaller degree
    kept = []
    arr_kept = None
    i = 0
    while i < len(vs):
        j = i
        deg = sum(vs[i])
        while j < len(vs) and sum(vs[j]) == deg:
            j += 1
        group = np.array(vs[i:j], dtype=np.int64)
        if arr_kept is None or len(kept) == 0:
            survivors = group
        else:
            dominated = (group[:, None, :] >= arr_kept[None, :, :]).all(axis=2).any(axis=1)
            survivors = group[~dominated]
        kept.extend(map(tuple, survivors.tolist()))
        arr_kept = np.array(kept, dtype=np.int64)
        i = j
    return sorted(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators of a monomial ideal, canonically sorted."""

    dim: int
    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(map(tuple, self.gens)))
        for g in self.gens:
            if len(g) != self.dim:
                raise ValueError("generator dimension mismatch")

    def contains_monomial(self, v):
        return any(all(gi <= vi for gi, vi in zip(g, v)) for g in self.gens)

    def contains_ideal(self, other):
        return all(self.contains_monomial(g) for g in other.gens)

    @property
    def is_unit(self):
        return self.gens == ((0,) * self.dim,)

    # The ideal protocol (see invariants): methods call module functions by name.

    def colength(self):
        return colength(self)

    def nu(self):
        return nu(self)

    def order(self):
        return order(self)

    def product(self, other):
        return product(self, other)

    def power(self, n):
        return power(self, n)

    def colon(self, other):
        return colon(self, other)

    def equals(self, other):
        return self.gens == other.gens

    def member(self, v):
        return self.contains_monomial(v)

    def integral_over(self, v):
        """v lies in the integral closure of the ideal."""
        return np_contains(newton(self), v)

    def extend(self, extra):
        """The ideal plus the monomials with exponent vectors in extra."""
        return sum_ideals(self, minimalize(self.dim, extra))

    def descriptor(self):
        return self.gens


def minimalize(dim, raw):
    """Build a MonomialIdeal from an arbitrary generator list."""
    if not raw:
        raise ValueError("empty generator list")
    return MonomialIdeal(dim, _minimal_antichain(raw))


def unit_ideal(dim):
    return MonomialIdeal(dim, ((0,) * dim,))


def is_m_primary(I):
    """True iff a pure power of every variable lies in the ideal."""
    for i in range(I.dim):
        if not any(all(g[j] == 0 for j in range(I.dim) if j != i) for g in I.gens):
            return False
    return True


def pure_bounds(I):
    """Least pure-power exponent on each axis; raises NotMPrimary."""
    bounds = []
    for i in range(I.dim):
        axis = [g[i] for g in I.gens if all(g[j] == 0 for j in range(I.dim) if j != i)]
        if not axis:
            raise NotMPrimary(f"no pure power of variable {i}")
        bounds.append(min(axis))
    return tuple(bounds)


def _members_grid(gens, box):
    """Boolean grid over prod(box): True where the monomial lies in the ideal."""
    if int(np.prod(box)) > GRID_CELL_CAP:
        raise MemoryError("membership grid too large")
    grid = np.zeros(box, dtype=bool)
    for g in gens:
        if all(gi < bi for gi, bi in zip(g, box)):
            grid[g] = True
    for ax in range(len(box)):
        np.logical_or.accumulate(grid, axis=ax, out=grid)
    return grid


def _minimal_from_grid(grid):
    """Minimal elements of an upward-closed boolean grid, as sorted tuples."""
    below = np.zeros_like(grid)
    for ax in range(grid.ndim):
        sl_to = [slice(None)] * grid.ndim
        sl_from = [slice(None)] * grid.ndim
        sl_to[ax] = slice(1, None)
        sl_from[ax] = slice(None, -1)
        np.logical_or(below[tuple(sl_to)], grid[tuple(sl_from)], out=below[tuple(sl_to)])
    mins = grid & ~below
    return sorted(map(tuple, np.argwhere(mins).tolist()))


def colength(I):
    """Number of standard monomials; equals the length of R/I."""
    bounds = pure_bounds(I)
    if I.is_unit:
        return 0
    grid = _members_grid(I.gens, bounds)
    return int(np.prod(bounds)) - int(grid.sum())


def nu(I):
    """Minimal number of generators."""
    return len(I.gens)


def order(I):
    """m-adic order: minimum total degree of a minimal generator."""
    return min(sum(g) for g in I.gens)


def sum_ideals(I, J):
    if I.dim != J.dim:
        raise ValueError("dimension mismatch")
    return minimalize(I.dim, I.gens + J.gens)


def product(I, J):
    if I.dim != J.dim:
        raise ValueError("dimension mismatch")
    cands = {tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens}
    return minimalize(I.dim, cands)


def power(I, n):
    if n < 0:
        raise ValueError("negative power")
    result = unit_ideal(I.dim)
    for _ in range(n):
        result = product(result, I)
    return result


def colon(J, I):
    """Colon ideal (J : I), intersecting (J : h) over the generators h of I."""
    if J.dim != I.dim:
        raise ValueError("dimension mismatch")
    result = None
    for h in I.gens:
        quotient = minimalize(
            J.dim, [tuple(max(gi - hi, 0) for gi, hi in zip(g, h)) for g in J.gens])
        result = quotient if result is None else intersect(result, quotient)
    return result


def intersect(I, J):
    """Intersection of monomial ideals via pairwise componentwise max."""
    cands = {tuple(max(a, b) for a, b in zip(g, h)) for g in I.gens for h in J.gens}
    return minimalize(I.dim, cands)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """H-representation <normal, v> >= offset with integer data, normals >= 0."""

    dim: int
    halfspaces: tuple


def _det(m):
    """Determinant of a small square integer matrix, by cofactor expansion."""
    if not m:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def newton(I):
    """Newton polyhedron conv(gens) + nonnegative orthant, by facet enumeration.

    Every facet hyperplane is spanned by k generators and d-k coordinate
    directions.  Its normal vanishes on those axes, and on the other k
    coordinates it is the vector of signed maximal minors of the k-1
    generator differences, which is zero exactly when they are dependent.
    Only valid supporting halfspaces with nonnegative normals are kept, each
    divided by the gcd of its normal.
    """
    if not isinstance(I, MonomialIdeal):
        raise DimensionUnsupported("Newton polyhedra need the monomial engine")
    d = I.dim
    if d > 4:
        raise DimensionUnsupported("Newton polyhedra supported for dim <= 4")
    gens = I.gens
    found = set()
    for k in range(1, d + 1):
        for S in combinations(gens, k):
            for free in combinations(range(d), k):
                g0 = S[0]
                diffs = [[g[i] - g0[i] for i in free] for g in S[1:]]
                vec = [0] * d
                for j, i in enumerate(free):
                    vec[i] = (-1) ** j * _det([row[:j] + row[j + 1:] for row in diffs])
                if all(x <= 0 for x in vec):
                    vec = [-x for x in vec]
                if any(x < 0 for x in vec) or all(x == 0 for x in vec):
                    continue
                common = gcd(*vec)
                vec = tuple(x // common for x in vec)
                offset = sum(v * g for v, g in zip(vec, g0))
                if all(sum(v * gi for v, gi in zip(vec, g)) >= offset for g in gens):
                    found.add((vec, offset))
    return NewtonPolyhedron(d, tuple(sorted(found)))


def np_contains(NP, v):
    """Exact test for v in NP."""
    if len(v) != NP.dim:
        raise ValueError("dimension mismatch")
    return all(sum(a * x for a, x in zip(normal, v)) >= offset
               for normal, offset in NP.halfspaces)


def _closure_grid(I, NP, n):
    """Membership grid of the integral closure of I^n over its staircase box."""
    bounds = []
    for i in range(I.dim):
        b = 0
        for normal, offset in NP.halfspaces:
            if normal[i] > 0 and offset > 0:
                b = max(b, -((-n * offset) // normal[i]))  # ceil division
        bounds.append(b + 1)
    if int(np.prod(bounds)) > GRID_CELL_CAP:
        raise MemoryError("closure grid too large")
    coords = np.indices(bounds, dtype=np.int64)
    mask = np.ones(tuple(bounds), dtype=bool)
    for normal, offset in NP.halfspaces:
        acc = np.zeros(tuple(bounds), dtype=np.int64)
        for i, a in enumerate(normal):
            if a:
                acc += a * coords[i]
        mask &= acc >= n * offset
    return mask, bounds


def integral_closure(I, n=1, NP=None):
    """The monomial ideal of all lattice points of n * NP(I)."""
    if not is_m_primary(I):
        raise NotMPrimary("integral closure implemented for m-primary ideals")
    if n < 1:
        raise ValueError("n >= 1 required")
    if NP is None:
        NP = newton(I)
    mask, _ = _closure_grid(I, NP, n)
    return MonomialIdeal(I.dim, _minimal_from_grid(mask))


def closure_data(I, nmax, NP=None):
    """(colength, nu) of the integral closure of I^n for n = 1..nmax."""
    if NP is None:
        NP = newton(I)
    out = []
    for n in range(1, nmax + 1):
        mask, bounds = _closure_grid(I, NP, n)
        lam = int(np.prod(bounds)) - int(mask.sum())
        out.append((lam, len(_minimal_from_grid(mask))))
    return out


def sample_integral_element(J, rng_seed):
    """A deterministic monomial integral over J but not in J."""
    if not is_m_primary(J):
        raise NotMPrimary("sampling requires an m-primary ideal")
    NP = newton(J)
    bounds = tuple(b + 1 for b in pure_bounds(J))
    closure_mask, _ = _closure_grid(J, NP, 1)
    closure_mask = closure_mask[tuple(slice(0, b) for b in bounds)]
    ideal_mask = _members_grid(J.gens, bounds)
    cands = sorted(map(tuple, np.argwhere(closure_mask & ~ideal_mask).tolist()))
    if not cands:
        raise Exhausted("ideal is integrally closed")
    rng = random.Random(rng_seed)
    return cands[rng.randrange(len(cands))]
