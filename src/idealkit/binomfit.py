"""Integer sequences of polynomial type and their binomial-basis coefficients.

A tuple of values lam(1), lam(2), ... that eventually agrees with a degree-D
polynomial is fitted exactly in the signed binomial basis

    P(n) = sum_{i=0}^{D} (-1)^i c_i * C(n+D-1-i, D-i),

the convention in which Hilbert-Samuel coefficients e_0, ..., e_d and fiber
coefficients f_0, ..., f_{d-1} live; the coefficients are the tuple
(c_0, ..., c_D).  All arithmetic is exact integer.
"""


class NonPolynomial(Exception):
    """The guard window disagrees with the fitted polynomial."""


class WindowTooShort(Exception):
    """Not enough sampled values to fit and verify."""


def binom(m, k):
    """Binomial coefficient C(m, k) as a polynomial in m (m may be negative)."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= m - j
    den = 1
    for j in range(1, k + 1):
        den *= j
    q, r = divmod(num, den)
    assert r == 0
    return q


def eval_binomial(coeffs, n):
    """Exact value at n of the polynomial with coefficients c_0..c_D."""
    D = len(coeffs) - 1
    total = 0
    for i, c in enumerate(coeffs):
        sign = -1 if i % 2 else 1
        total += sign * c * binom(n + D - 1 - i, D - i)
    return total


def fit_binomial(values, dim_d):
    """(coeffs, postulation) of the values at n = 1, 2, ... at degree <= dim_d.

    The last 2*dim_d+3 values are used: dim_d+1 for interpolation and a guard
    window fixed at dim_d+2 further points for verification.  The window is a
    polynomial of degree <= dim_d exactly when its dim_d+2 differences of
    order dim_d+1 vanish; otherwise NonPolynomial is raised (caller should
    extend the sequence and retry).  The coefficients then follow from the
    differences at the window start n0 by back-substitution in

        Delta^k P(n0) = sum_{i <= D-k} (-1)^i c_i * C(n0+D-1-i, D-i-k),

    whose last term is (-1)^(D-k) c_(D-k); every step is integral.  The
    postulation is the least n from which the polynomial matches onward.
    """
    need = 2 * dim_d + 3
    if len(values) < need:
        raise WindowTooShort(f"need {need} values, have {len(values)}")
    n0 = len(values) - need + 1
    table = [values[-need:]]  # table[k]: the k-th differences from n0 on
    for _ in range(dim_d + 1):
        row = table[-1]
        table.append([b - a for a, b in zip(row, row[1:])])
    # a nonzero difference at offset j first involves the point n0+dim_d+1+j
    bad = next((j for j, v in enumerate(table[-1]) if v), None)
    if bad is not None:
        raise NonPolynomial(f"guard point n={n0 + dim_d + 1 + bad} disagrees")
    coeffs = []
    for k in range(dim_d, -1, -1):
        i = dim_d - k
        known = sum((-1) ** j * c * binom(n0 + dim_d - 1 - j, i - j)
                    for j, c in enumerate(coeffs))
        coeffs.append((-1) ** i * (table[k][0] - known))
    coeffs = tuple(coeffs)
    postulation = n0
    while postulation > 1 and eval_binomial(coeffs, postulation - 1) == values[postulation - 2]:
        postulation -= 1
    return coeffs, postulation
