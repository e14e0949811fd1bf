"""Numerical semigroups and monomial ideals of the semigroup power-series ring.

A numerical semigroup H is stored by its generators, conductor and a
membership table on [0, conductor).  Ideals of k[[t^H]] generated by monomials
t^e correspond bijectively to sets E = gens + H, stored by their minimal
generators (an antichain under e <=_H f iff f - e in H).  Every ideal is
cofinite, so colengths, colons and equality tests reduce to finite windows.
"""

from dataclasses import dataclass
from math import gcd


class NotCoprime(Exception):
    pass


class WindowOverflow(Exception):
    pass


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple
    conductor: int
    membership: tuple  # booleans on [0, conductor)

    def contains(self, x):
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return self.membership[x]

    @property
    def frobenius(self):
        """Largest gap, or -1 when H is all of the nonnegative integers."""
        return self.conductor - 1

    @property
    def multiplicity(self):
        """Least positive element; the multiplicity of k[[t^H]]."""
        return min(g for g in self.generators if g > 0)

    def gaps(self):
        return tuple(x for x in range(self.conductor) if not self.membership[x])

    def elements_below(self, bound):
        return [x for x in range(bound) if self.contains(x)]

    def minimal_generators(self):
        """Elements of H not expressible as a sum of two positive elements."""
        mins = []
        for g in sorted(set(self.generators)):
            if not any(self.contains(g - e) for e in mins if 0 < g - e):
                # g - e == 0 means duplicate, filtered by set above
                mins.append(g)
        return tuple(mins)


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
    lo = gens[0]
    limit = gens[0] * (gens[1] if len(gens) > 1 else 1) + max(gens) + 1
    while True:
        reach = [False] * limit
        reach[0] = True
        for x in range(limit):
            if reach[x]:
                for s in gens:
                    if x + s < limit:
                        reach[x + s] = True
        # certified conductor: a run of lo consecutive members closes under +lo
        conductor = None
        run = 0
        for x in range(limit):
            run = run + 1 if reach[x] else 0
            if run >= lo:
                conductor = x - lo + 1
                while conductor > 0 and reach[conductor - 1]:
                    conductor -= 1
                break
        if conductor is not None:
            return NumericalSemigroup(tuple(gens), conductor,
                                      tuple(reach[:conductor]))
        limit *= 2


def is_symmetric(H):
    """Gorenstein test: exactly one of z, F-z lies in H for 0 <= z < conductor."""
    F = H.frobenius
    if F < 0:
        return True
    return all(H.contains(z) != H.contains(F - z) for z in range(H.conductor))


@dataclass(frozen=True)
class SemigroupIdeal:
    ambient: NumericalSemigroup
    gens: tuple

    def contains(self, x):
        return any(self.ambient.contains(x - g) for g in self.gens)

    @property
    def max_gen(self):
        return max(self.gens)

    def elements_below(self, bound):
        return [x for x in range(bound) if self.contains(x)]

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

    def contains_ideal(self, other):
        return contains_ideal(self, other)

    def equals(self, other):
        return equals(self, other)

    def member(self, x):
        return self.contains(x)

    def integral_over(self, x):
        """t^x lies in the integral closure of the ideal."""
        return x >= min(self.gens) and self.ambient.contains(x)

    def extend(self, extra):
        """The ideal plus the elements t^x for x in extra."""
        return sum_ideals(self, ideal(self.ambient, extra))

    def descriptor(self):
        return self.gens


def ideal(H, gens):
    """Semigroup ideal from a raw generator list (minimalized antichain)."""
    gens = sorted(set(int(g) for g in gens))
    if not gens:
        raise ValueError("empty generator list")
    for g in gens:
        if not H.contains(g):
            raise ValueError(f"generator {g} not in the semigroup")
    mins = []
    for g in gens:
        if not any(H.contains(g - e) for e in mins):
            mins.append(g)
    return SemigroupIdeal(H, tuple(mins))


def maximal_ideal(H):
    return ideal(H, [g for g in H.minimal_generators() if g > 0])


def sum_ideals(E, F):
    _same_ambient(E, F)
    return ideal(E.ambient, E.gens + F.gens)


def product(E, F):
    _same_ambient(E, F)
    return ideal(E.ambient, [a + b for a in E.gens for b in F.gens])


def power(E, n):
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return ideal(E.ambient, [0])
    result = E
    for _ in range(n - 1):
        result = product(result, E)
    return result


def nu(E):
    return len(E.gens)


def colength(E):
    """Length of R/E: the number of semigroup elements outside E."""
    H = E.ambient
    bound = H.conductor + E.max_gen
    return sum(1 for x in range(bound) if H.contains(x) and not E.contains(x))


def rel_length(E, F):
    """Length of E/F for F contained in E."""
    H = E.ambient
    bound = H.conductor + max(E.max_gen, F.max_gen)
    count = 0
    for x in range(bound):
        ein = E.contains(x)
        fin = F.contains(x)
        if fin and not ein:
            raise ValueError("F not contained in E")
        if ein and not fin:
            count += 1
    return count


def colon(E, F):
    """Colon ideal (E : F) inside the semigroup ring."""
    _same_ambient(E, F)
    H = E.ambient
    top = H.conductor + E.max_gen + H.conductor + H.multiplicity + 1
    members = [a for a in range(top) if H.contains(a)
               and all(E.contains(a + f) for f in F.gens)]
    if not members:
        raise WindowOverflow("empty colon window; malformed input")
    return ideal(H, members)


def contains_ideal(E, F):
    return all(E.contains(g) for g in F.gens)


def equals(E, F):
    return E.gens == F.gens


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
    # beyond F everything belongs; the shift must land all of K (a cofinite
    # H-relative ideal) inside H, which for the infinite tail [F+1, oo) means
    # s + F + 1 must reach the conductor
    tail = list(range(F + 1, F + 2 + H.multiplicity + H.conductor))
    for s in range(H.conductor + F + 2):
        if s + F + 1 >= H.conductor and all(H.contains(k + s) for k in K):
            return ideal(H, [k + s for k in K + tail])
    raise WindowOverflow("no canonical shift found")


def _same_ambient(E, F):
    if E.ambient is not F.ambient and E.ambient != F.ambient:
        raise ValueError("ideals live in different semigroups")
