"""Numerical semigroups and monomial ideals of the semigroup power-series ring.

A numerical semigroup H with multiplicity m is stored by its generators and
its Apery set for m: apery[r] is the least element of H congruent to r mod m,
so x lies in H iff x >= apery[x % m], and the conductor is max(apery) - m + 1
(Selmer).  Ideals of k[[t^H]] generated by monomials t^e correspond
bijectively to sets E = gens + H; since E + m lies in E, such a set is stored
by its floors, floors[r] being the least element of E congruent to r mod m.
Floors are canonical, and lengths, sums, products and colons are closed forms
on them (Rosales & Garcia-Sanchez, Numerical Semigroups, 2009).
"""

import heapq
from dataclasses import dataclass
from math import gcd


class NotCoprime(Exception):
    pass


class WindowOverflow(Exception):
    pass


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple
    apery: tuple  # apery[r] = least element congruent to r mod multiplicity

    def contains(self, x):
        return x >= self.apery[x % len(self.apery)]

    @property
    def multiplicity(self):
        """Least positive element; the multiplicity of k[[t^H]]."""
        return len(self.apery)

    @property
    def conductor(self):
        return max(self.apery) - self.multiplicity + 1

    @property
    def frobenius(self):
        """Largest gap, or -1 when H is all of the nonnegative integers."""
        return self.conductor - 1

    def gaps(self):
        m = self.multiplicity
        return tuple(sorted(x for r, a in enumerate(self.apery) for x in range(r, a, m)))


def semigroup(gens):
    """Numerical semigroup generated by gens (gcd must be 1)."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or any(g < 1 for g in gens):
        raise ValueError("generators must be positive")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise NotCoprime(f"gcd of generators is {g}")
    # shortest paths over the residues mod m, each generator an edge
    m = gens[0]
    apery = [None] * m
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if apery[r] is not None:
            continue
        apery[r] = w
        for s in gens[1:]:
            heapq.heappush(heap, (w + s, (r + s) % m))
    return NumericalSemigroup(tuple(gens), tuple(apery))


def is_symmetric(H):
    """Gorenstein test: exactly one of z, F-z lies in H for 0 <= z < conductor,
    that is, H has conductor / 2 gaps."""
    return 2 * len(H.gaps()) == H.conductor


@dataclass(frozen=True)
class SemigroupIdeal:
    ambient: NumericalSemigroup
    floors: tuple  # floors[r] = least element congruent to r mod multiplicity

    def contains(self, x):
        return x >= self.floors[x % len(self.floors)]

    @property
    def gens(self):
        """Minimal generators: the floors a with no floor b < a and a - b in H."""
        H = self.ambient
        return tuple(sorted(a for a in self.floors
                            if not any(b < a and H.contains(a - b) for b in self.floors)))

    @property
    def is_unit(self):
        """The ideal holds t^0."""
        return self.floors[0] == 0

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

    def contains_ideal(self, other):
        return contains_ideal(self, other)

    def equals(self, other):
        return equals(self, other)

    def member(self, x):
        return self.contains(x)

    def integral_over(self, x):
        """t^x lies in the integral closure of the ideal."""
        return x >= min(self.floors) and self.ambient.contains(x)

    def extend(self, extra):
        """The ideal plus the elements t^x for x in extra."""
        return sum_ideals(self, ideal(self.ambient, extra))

    def descriptor(self):
        return self.gens


def ideal(H, gens):
    """Semigroup ideal generated by t^g for g in gens."""
    gens = sorted(set(int(g) for g in gens))
    if not gens:
        raise ValueError("empty generator list")
    for g in gens:
        if not H.contains(g):
            raise ValueError(f"generator {g} not in the semigroup")
    m = H.multiplicity
    return SemigroupIdeal(H, tuple(min(g + H.apery[(r - g) % m] for g in gens)
                                   for r in range(m)))


def maximal_ideal(H):
    return SemigroupIdeal(H, (H.multiplicity,) + H.apery[1:])


def sum_ideals(E, F):
    _same_ambient(E, F)
    return SemigroupIdeal(E.ambient, tuple(map(min, E.floors, F.floors)))


def product(E, F):
    _same_ambient(E, F)
    m = len(E.floors)
    return SemigroupIdeal(E.ambient, tuple(
        min(a + F.floors[(r - i) % m] for i, a in enumerate(E.floors))
        for r in range(m)))


def nu(E):
    return len(E.gens)


def colength(E):
    """Length of R/E: the number of semigroup elements outside E."""
    m = len(E.floors)
    return sum((f - a) // m for f, a in zip(E.floors, E.ambient.apery))


def rel_length(E, F):
    """Length of E/F for F contained in E."""
    _same_ambient(E, F)
    if any(f < e for e, f in zip(E.floors, F.floors)):
        raise ValueError("F not contained in E")
    m = len(E.floors)
    return sum((f - e) // m for e, f in zip(E.floors, F.floors))


def colon(E, F):
    """Colon ideal (E : F) inside the semigroup ring."""
    _same_ambient(E, F)
    m = len(E.floors)
    return SemigroupIdeal(E.ambient, tuple(
        max(a, max(E.floors[(r + j) % m] - f for j, f in enumerate(F.floors)))
        for r, a in enumerate(E.ambient.apery)))


def contains_ideal(E, F):
    _same_ambient(E, F)
    return all(e <= f for e, f in zip(E.floors, F.floors))


def equals(E, F):
    _same_ambient(E, F)
    return E.floors == F.floors


def order(E):
    """Largest s with E contained in m^s (m-adic order)."""
    H = E.ambient
    m = maximal_ideal(H)
    s = 0
    cur = m
    while contains_ideal(cur, E):
        s += 1
        cur = product(cur, m)
        if s > 10_000:
            raise WindowOverflow("order loop runaway")
    return s


def canonical_ideal(H):
    """Canonical ideal {x : F - x not in H}, shifted minimally into H."""
    F = H.frobenius
    K = [x for x in range(F + 1) if not H.contains(F - x)]
    s = 0
    while not all(H.contains(k + s) for k in K):
        s += 1
    # every x > F belongs to K; m consecutive ones generate that tail
    return ideal(H, [k + s for k in K + list(range(F + 1, F + 1 + H.multiplicity))])


def _same_ambient(E, F):
    if E.ambient is not F.ambient and E.ambient != F.ambient:
        raise ValueError("ideals live in different semigroups")
