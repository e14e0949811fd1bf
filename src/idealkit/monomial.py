"""Exact arithmetic of monomial ideals in a localized polynomial ring.

An ideal of k[x_1..x_d] is stored by its staircase heights: h(a), for a in
N^(d-1), is the least e with x^(a,e) in the ideal, or INF.  h is a read-only
int64 array over the box a_i <= (largest exponent of x_i in a minimal
generator), past which it repeats its last slice, so it is canonical and
defines equality and hashing.  h is nonincreasing along every axis, so its
largest value is at the origin.  Membership, containment, colengths, sums,
products and colons are closed forms on h; a product places h_I + g_d at each
generator g of J and fills in the rest by a running minimum along each axis.
The drop mask of h (the cells where it drops along every axis: the minimal
generators) is kept with it, and generator counts and generators are read off
it.  Integral closures follow from Newton polyhedra built by exact integer
facet enumeration, once per ideal; those of I^n for n = 1..nmax come as
tables over n.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import gcd, prod

import numpy as np

GRID_CELL_CAP = 50_000_000  # refuse staircases with more cells (400 MB of int64)
INF = 1 << 62  # the height of a column that meets no monomial of the ideal
HEIGHT_CAP = 1 << 31  # finite heights stay below this, so sums of them fit int64
TABLE_CELLS = 1 << 16  # closure tables over n go in blocks of this many cells


class NotMPrimary(Exception):
    pass


class DimensionUnsupported(Exception):
    pass


class Exhausted(Exception):
    """The ideal is integrally closed; no integral monomial outside it."""


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal by its trimmed, read-only staircase heights and their drop mask."""

    dim: int
    heights: np.ndarray
    drops: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.heights, other.heights)

    def __hash__(self):
        return hash((self.dim, self.heights.shape, self.heights.tobytes()))

    def __reduce__(self):
        """Copies (pickle, deepcopy) rebuild through _from_heights, so their
        heights are read-only too; the array passed is a writeable copy."""
        return _from_heights, (self.dim, self.heights.copy())

    @cached_property
    def gens(self):
        """Minimal generators, sorted: the finite cells where h drops."""
        return tuple((*a[:self.dim - 1], e) for a, e in
                     zip(np.argwhere(self.drops).tolist(), self.heights[self.drops].tolist()))

    @cached_property
    def newton(self):
        """Newton polyhedron, built on first use (see the function newton)."""
        return newton(self)

    def member(self, v):
        """x^v lies in the ideal: h at the cell of v, clipped to the box, is at most v_d."""
        if isinstance(v, dict):
            raise TypeError("a monomial ideal tests exponent vectors, not polynomials; "
                            "give both ideals in one form")
        h = self.heights
        cell = tuple(min(a, n - 1) for a, n in zip(v[:-1], h.shape)) or 0  # d = 1: one cell
        return int(h[cell]) <= v[-1]

    def contains_ideal(self, other):
        """other lies in the ideal: h is at most other's heights everywhere."""
        if not isinstance(other, MonomialIdeal):
            raise TypeError(f"a monomial ideal cannot compare with a {type(other).__name__}; "
                            "give both ideals in one form")
        mine, theirs = _common(self, other)
        return bool((mine <= theirs).all())

    @property
    def is_unit(self):
        return not self.heights.any()

    # The ideal protocol (see invariants): methods call module functions by name.

    def colength(self):
        return colength(self)

    def nu(self):
        return nu(self)

    def order(self):
        return order(self)

    def product(self, other):
        return product(self, other)

    def colon(self, other):
        return colon(self, other)

    def equals(self, other):
        return self == other

    def integral_over(self, v):
        """v lies in the integral closure of the ideal."""
        return np_contains(self.newton, v)

    def extend(self, extra):
        """The ideal plus the monomials with exponent vectors in extra."""
        return sum_ideals(self, minimalize(self.dim, extra))

    def descriptor(self):
        return self.gens


def _box(shape):
    """A staircase shape (one cell for d = 1); MemoryError past the cap."""
    shape = tuple(int(s) for s in shape) or (1,)
    if prod(shape) > GRID_CELL_CAP:
        raise MemoryError(f"staircase of {prod(shape)} cells is over the cap")
    return shape


def _fit(h, shape):
    """h over a box at least as large, repeating its last slices."""
    if h.shape == shape:
        return h
    return h[np.ix_(*(np.minimum(np.arange(s), n - 1) for n, s in zip(h.shape, shape)))]


def _common(I, J):
    """The heights of I and J over the smallest box holding both."""
    if I.dim != J.dim:
        raise ValueError("dimension mismatch")
    shape = _box(np.maximum(I.heights.shape, J.heights.shape))
    return _fit(I.heights, shape), _fit(J.heights, shape)


def _drops(h, lead=0):
    """The finite cells of h where it drops along every axis but the first lead."""
    drops = h < INF
    for ax in range(lead, h.ndim):
        cut = (slice(None),) * ax
        drops[cut + (slice(1, None),)] &= h[cut + (slice(1, None),)] < h[cut + (slice(-1),)]
    return drops


def _from_heights(dim, h):
    """The ideal with staircase heights h, a fresh nonincreasing array that it keeps
    with its drop mask, both trimmed to the box of the drop cells."""
    top = h.flat[0]
    if top > INF >> 1:
        h[h > INF >> 1] = INF  # INF plus or minus a height is still INF
    drops = _drops(h)
    if top >= HEIGHT_CAP and h.max(where=drops, initial=0) >= HEIGHT_CAP:
        raise MemoryError("staircase heights are over the cap")
    if h.ndim == 1:
        box = (slice(drops.size - drops[::-1].argmax()),)
    else:
        box = tuple(slice(b) for b in np.argwhere(drops).max(axis=0) + 1)
    h, drops = h[box], drops[box]
    h.flags.writeable = drops.flags.writeable = False
    return MonomialIdeal(dim, h, drops)


def minimalize(dim, raw):
    """Build a MonomialIdeal from an arbitrary generator list."""
    if not raw:
        raise ValueError("empty generator list")
    if any(len(v) != dim for v in raw):
        raise ValueError("generator dimension mismatch")
    *cols, tops = zip(*raw)
    # The staircase is built on a grid whose axis i holds only the distinct
    # exponents u_i of x_i in raw, behind one INF slice for the exponents below
    # them all, so a redundant vector with a huge exponent costs one slice.
    # Heights are clamped to the cap, which refuses them only at a drop cell.
    axes = [sorted(set(c)) for c in cols]
    h = np.full(_box(len(u) + 1 for u in axes), INF, dtype=np.int64)
    at = tuple([bisect_right(u, x) for x in c] for u, c in zip(axes, cols))
    np.minimum.at(h, at or ([0] * len(raw),),  # d = 1: one cell
                  [min(e, HEIGHT_CAP) for e in tops])
    for ax in range(dim - 1):
        np.minimum.accumulate(h, axis=ax, out=h)
    drops = _drops(h)
    if h.max(where=drops, initial=0) >= HEIGHT_CAP:
        raise MemoryError("staircase heights are over the cap")
    # Only the box of the drop cells goes back to exponents, where a reads the
    # slice of the largest u_i[k] <= a: that is the trimmed staircase.
    last = np.argwhere(drops).max(axis=0)
    shape = _box(u[k - 1] + 1 for u, k in zip(axes, last))
    for ax, (u, k, n) in enumerate(zip(axes, last, shape)):
        h = h.take(np.searchsorted(u[:k], np.arange(n), side="right"), axis=ax)
    return _from_heights(dim, h)


def unit_ideal(dim):
    return _from_heights(dim, np.zeros(_box((1,) * (dim - 1)), dtype=np.int64))


def is_m_primary(I):
    """True iff a pure power of every variable lies in the ideal."""
    try:
        pure_bounds(I)
    except NotMPrimary:
        return False
    return True


def pure_bounds(I):
    """Least pure-power exponent on each axis; raises NotMPrimary.  x_i^k is the
    minimal generator with the largest a_i, so k is the last index of the box on
    axis i and h is 0 at that corner; h is nonzero there when no x_i^k lies in I."""
    h, d = I.heights, I.dim
    bounds = [n - 1 for n in h.shape[:d - 1]]
    for i, k in enumerate(bounds):
        if h[(0,) * i + (k,) + (0,) * (d - 2 - i)]:
            raise NotMPrimary(f"no pure power of variable {i}")
    if h.flat[0] == INF:
        raise NotMPrimary(f"no pure power of variable {d - 1}")
    return (*bounds, int(h.flat[0]))


def _between(lo, hi, dim):
    """The vectors (a, e) with lo(a) <= e < hi(a), in lexicographic order."""
    cells = lo < hi
    return [(*a[:dim - 1], e) for a, l, u in
            zip(np.argwhere(cells).tolist(), lo[cells].tolist(), hi[cells].tolist())
            for e in range(l, u)]


def standard_monomials(I):
    """Exponent vectors of the monomials outside the m-primary ideal I, sorted."""
    pure_bounds(I)
    return _between(np.zeros_like(I.heights), I.heights, I.dim)


def colength(I):
    """Number of standard monomials; equals the length of R/I."""
    pure_bounds(I)
    return int(I.heights.sum())


def nu(I):
    """Minimal number of generators: the cells where the staircase drops."""
    return int(np.count_nonzero(I.drops))


def order(I):
    """m-adic order: minimum total degree of a minimal generator."""
    return min(sum(g) for g in I.gens)


def sum_ideals(I, J):
    """Sum of monomial ideals: the elementwise min of the heights."""
    return _from_heights(I.dim, np.minimum(*_common(I, J)))


def product(I, J):
    """IJ: h(a) is the least h_I(a - g') + g_d over the generators g of J.  Past
    its box at g', each placement is extended by the running minimum, as h_I is."""
    if I.dim != J.dim:
        raise ValueError("dimension mismatch")
    h = I.heights
    out = np.full(_box(np.add(h.shape, J.heights.shape) - 1), INF, dtype=np.int64)
    for g in J.gens:
        at = out[tuple(slice(x, x + n) for x, n in zip(g[:-1], h.shape))]
        np.minimum(at, h + g[-1], out=at)
    for ax in range(I.dim - 1):
        np.minimum.accumulate(out, axis=ax, out=out)
    return _from_heights(I.dim, out)


def power(I, n):
    if n < 0:
        raise ValueError("negative power")
    result = unit_ideal(I.dim)
    for _ in range(n):
        result = product(result, I)
    return result


def colon(J, I):
    """Colon ideal (J : I): h(a) is the max of h_J(a + g') - g_d and 0 over the
    generators g of I."""
    if not isinstance(I, MonomialIdeal):
        raise TypeError(f"a monomial ideal cannot take its colon by a {type(I).__name__}; "
                        "give both ideals in one form")
    if J.dim != I.dim:
        raise ValueError("dimension mismatch")
    h = J.heights
    out = np.zeros_like(h)
    for g in I.gens:
        shifted = h[tuple(slice(min(x, n - 1), None) for x, n in zip(g[:-1], h.shape))]
        np.maximum(out, _fit(shifted, h.shape) - g[-1], out=out)
    return _from_heights(J.dim, out)


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


def _closure_heights(I, ns):
    """Heights of the integral closures of I^n (I m-primary), a slice for each n
    of the increasing ns over the box of the last: the least e with <normal,
    (a, e)> >= n * offset on every facet of NP(I).  A facet with normal_d = 0
    has offset 0, as NP(I) meets every axis, so a slice is 0 past its n's box."""
    n = int(ns[-1])
    shape = _box(n * (s - 1) + 1 for s in I.heights.shape[:I.dim - 1])
    ns = np.reshape(ns, (-1,) + (1,) * len(shape))
    axes = np.indices(shape, sparse=True)
    out = np.zeros((len(ns),) + shape, dtype=np.int64)
    for normal, offset in I.newton.halfspaces:
        if normal[-1] > 0:
            if n * offset + sum(w * s for w, s in zip(normal[:-1], shape)) >= INF:
                raise MemoryError("closure staircase is over the int64 range")
            lin = sum(w * ax for w, ax in zip(normal[:-1], axes))
            np.maximum(out, -((lin - ns * offset) // normal[-1]), out=out)
    return out


def integral_closure(I, n=1):
    """The monomial ideal of all lattice points of n * NP(I)."""
    if not is_m_primary(I):
        raise NotMPrimary("integral closure implemented for m-primary ideals")
    if n < 1:
        raise ValueError("n >= 1 required")
    return _from_heights(I.dim, _closure_heights(I, [n])[0])


def closure_data(I, nmax):
    """(colength, nu) of the integral closure of I^n for n = 1..nmax: sums and
    drop counts of tables over n, of at most TABLE_CELLS cells or one n's box."""
    pure_bounds(I)
    cells = prod(nmax * (s - 1) + 1 for s in I.heights.shape[:I.dim - 1])
    step = max(1, min(TABLE_CELLS, GRID_CELL_CAP) // cells)
    data = []
    for first in range(1, nmax + 1, step):
        table = _closure_heights(I, range(first, min(first + step, nmax + 1)))
        if table[-1].flat[0] >= HEIGHT_CAP:  # the largest height of the table
            raise MemoryError("staircase heights are over the cap")
        axes = tuple(range(1, table.ndim))
        data += zip(table.sum(axis=axes).tolist(),
                    np.count_nonzero(_drops(table, 1), axis=axes).tolist())
    return data


def sample_integral_element(J, rng_seed):
    """A deterministic monomial integral over J but not in J."""
    if not is_m_primary(J):
        raise NotMPrimary("sampling requires an m-primary ideal")
    cands = _between(_closure_heights(J, [1])[0], J.heights, J.dim)
    if not cands:
        raise Exhausted("ideal is integrally closed")
    rng = random.Random(rng_seed)
    return cands[rng.randrange(len(cands))]
