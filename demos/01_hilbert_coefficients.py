"""Extracting Hilbert coefficients from length sequences.

The length of R/I^n eventually agrees with a polynomial of degree d.  We
tabulate the sequence exactly, fit it in the signed binomial basis and read
off e_0 (the multiplicity), e_1, ... directly as integers.
"""

from idealkit import binomfit as bf
from idealkit import invariants as iv
from idealkit import monomial as mo

ctx = iv.poly_context(2)
m = ctx.maximal_ideal()

# ---- powers of the maximal ideal in two variables --------------------------
# The classical closed form is e1(m^n) = n(n-1)/2.
print("powers of the maximal ideal, d = 2")
for n in range(1, 6):
    hil = iv.hilbert_coeffs(ctx, mo.power(m, n))
    print(f"  m^{n}: lambda(R/(m^{n})^k) fits with e = {hil.e}")

# ---- a mixed monomial ideal -------------------------------------------------
I = mo.minimalize(2, [(4, 0), (1, 2), (0, 3)])
hil = iv.hilbert_coeffs(ctx, I)
print(f"\nI = (x^4, x*y^2, y^3): e = {hil.e}, "
      f"polynomial from n = {hil.postulation}")
print(f"  raw sequence: {hil.sequence[:8]} ...")

# the fitted polynomial reproduces the tabulated values
check = [bf.eval_binomial(hil.e, n) for n in range(hil.postulation,
                                                   hil.postulation + 4)]
print(f"  refit check at n >= {hil.postulation}: {check}")

# ---- fiber coefficients ------------------------------------------------------
# nu(I^n) grows like a polynomial of degree d-1 whose leading coefficient is
# the multiplicity of the fiber cone.  A parameter ideal always has f_0 = 1.
J = mo.minimalize(2, [(3, 0), (0, 3)])
print(f"\nfiber data: f(J) = {iv.fiber_coeffs(ctx, J).f} for the parameter "
      f"J = (x^3, y^3)")
print(f"fiber data: f(m^2) = {iv.fiber_coeffs(ctx, mo.power(m, 2)).f}  "
      f"(nu((m^2)^n) = 2n+1)")
