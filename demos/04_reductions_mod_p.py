"""Reductions and colon ideals through the GF(p) Groebner engine.

Monomial combinatorics only goes so far: a generic minimal reduction has
polynomial generators.  The groebner module computes local colengths and colon
ideals over GF(32003), and we cross-check it against the exponent-grid engine
wherever both apply.  The reduction number of a monomial ideal I needs no
Groebner basis, even for a polynomial Q: I^(s+1) = Q*I^s exactly when the
products of Q's generators with the minimal generators of I^s span
I^(s+1)/m*I^(s+1), a rank mod p over the fiber cone.  Buchberger's reduction
number stays as the independent oracle it is checked against below.
"""

from idealkit import groebner as gb
from idealkit import invariants as iv
from idealkit import monomial as mo

# ---- local colength of a non-homogeneous ideal --------------------------------
ring = gb.PolyRing(2)
A = gb.GroebnerIdeal(ring, [{(2, 0): 1, (0, 1): ring.char_p - 1},
                            {(0, 2): 1, (1, 0): ring.char_p - 1}])
print(f"A = (x^2 - y, y^2 - x): reduced GB leads = "
      f"{[lt for lt, _ in A.lead_pairs]}")
print(f"global colength = 4, local colength at the origin = "
      f"{gb.local_colength(A)}")  # the point (1,1) carries the rest

# ---- sampled minimal reductions ------------------------------------------------
ctx = iv.poly_context(2)
I = mo.sum_ideals(mo.minimalize(2, [(4, 0), (0, 4)]),
                  mo.minimalize(2, [(2, 1), (1, 2)]))
rep = iv.minimal_reduction(ctx, I, seed=1)
print(f"\nnu(I) = {mo.nu(I)}, sampled minimal reduction has "
      f"red_Q(I) = {rep.reduction_number} "
      f"(certified: {rep.certified}, samples: {rep.samples_tried})")

# the degree at which nu(I^n) falls below the full binomial count certifies
# a reduction-number bound without any sampling
print(f"nu-power criterion bound: red <= {iv.nu_power_criterion(ctx, I)}")
I3 = mo.sum_ideals(mo.minimalize(3, [(7, 0, 0), (0, 7, 0), (0, 0, 7)]),
                   mo.minimalize(3, [(2, 2, 2)]))
print(f"same criterion on the d=3 cube ideal: red <= "
      f"{iv.nu_power_criterion(iv.poly_context(3), I3)}")

# ---- colon ideals cross-checked against the grid engine ------------------------
J = mo.minimalize(2, [(7, 0), (0, 7)])
h = (2, 2)
C_grid = mo.colon(J, mo.minimalize(2, [h]))
C_gb = gb.colon_poly(gb.from_monomial_ideal(J), {h: 1})
print(f"\n(J : x^2 y^2) grid engine:    {C_grid.gens}")
print(f"(J : x^2 y^2) groebner engine: "
      f"{tuple(sorted(gb.monomial_generators(C_gb)))}")

# reduction numbers agree too: the fiber-cone rank against Buchberger, on the
# sampled polynomial Q of I from above
s_rank = iv.reduction_number(ctx, rep.reduction, I)
s_gb = gb.reduction_number(rep.reduction, iv.to_groebner(ctx, I))
print(f"\nred_Q(I) for the sampled Q of I = (x^4, x^2 y, x y^2, y^4): "
      f"fiber-cone rank {s_rank}, groebner {s_gb}")
