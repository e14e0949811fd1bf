"""Integer sequences of polynomial type and their binomial-basis coefficients.

A length sequence n -> lam(n) that eventually agrees with a degree-D polynomial
is stored exactly and its coefficients are extracted in the signed binomial
basis

    P(n) = sum_{i=0}^{D} (-1)^i c_i * C(n+D-1-i, D-i),

the convention in which Hilbert-Samuel coefficients e_0, ..., e_d and fiber
coefficients f_0, ..., f_{d-1} live.  All arithmetic is exact integer.
"""

from dataclasses import dataclass


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


@dataclass(frozen=True)
class LengthSequence:
    """Values of an integer sequence at start_n, start_n+1, ..."""

    start_n: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("empty sequence")

    def __len__(self):
        return len(self.values)

    def at(self, n):
        return self.values[n - self.start_n]

    @property
    def end_n(self):
        return self.start_n + len(self.values) - 1


@dataclass(frozen=True)
class BinomialPolynomial:
    """Coefficients c_0..c_D in the signed binomial basis."""

    degree_d: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.degree_d + 1:
            raise ValueError("need D+1 coefficients")


@dataclass(frozen=True)
class FitReport:
    poly: BinomialPolynomial
    postulation_index: int


def eval_binomial(p, n):
    """Exact value of the binomial-basis polynomial at n."""
    D = p.degree_d
    total = 0
    for i, c in enumerate(p.coeffs):
        sign = -1 if i % 2 else 1
        total += sign * c * binom(n + D - 1 - i, D - i)
    return total


def tabulate(p, start_n, count):
    """LengthSequence of p evaluated at start_n, ..., start_n+count-1."""
    return LengthSequence(start_n, tuple(eval_binomial(p, start_n + j) for j in range(count)))


def finite_difference(seq):
    """First forward difference; start index unchanged, length shrinks by one."""
    if len(seq) < 2:
        raise WindowTooShort("need at least 2 values")
    v = seq.values
    return LengthSequence(seq.start_n, tuple(v[i + 1] - v[i] for i in range(len(v) - 1)))


def fit_binomial(seq, dim_d):
    """Fit a degree-<=dim_d signed binomial polynomial to the trailing window.

    The last 2*dim_d+3 values are used: dim_d+1 for interpolation and a guard
    window fixed at dim_d+2 further points for verification.  The window is a
    polynomial of degree <= dim_d exactly when its dim_d+2 differences of
    order dim_d+1 vanish; otherwise NonPolynomial is raised (caller should
    extend the sequence and retry).  The coefficients then follow from the
    differences at the window start n0 by back-substitution in

        Delta^k P(n0) = sum_{i <= D-k} (-1)^i c_i * C(n0+D-1-i, D-i-k),

    whose last term is (-1)^(D-k) c_(D-k); every step is integral.
    """
    need = 2 * dim_d + 3
    if len(seq) < need:
        raise WindowTooShort(f"need {need} values, have {len(seq)}")
    window_start = seq.end_n - need + 1
    table = [LengthSequence(window_start, seq.values[-need:])]
    for _ in range(dim_d + 1):
        table.append(finite_difference(table[-1]))
    # a nonzero difference at offset j first involves the point n0+dim_d+1+j
    bad = next((j for j, v in enumerate(table[-1].values) if v), None)
    if bad is not None:
        raise NonPolynomial(f"guard point n={window_start + dim_d + 1 + bad} disagrees")
    coeffs = []
    for k in range(dim_d, -1, -1):
        i = dim_d - k
        known = sum((-1) ** j * c * binom(window_start + dim_d - 1 - j, i - j)
                    for j, c in enumerate(coeffs))
        coeffs.append((-1) ** i * (table[k].values[0] - known))
    poly = BinomialPolynomial(dim_d, tuple(coeffs))
    # least n in the sampled range from which the polynomial matches onward
    postulation = window_start
    for n in range(window_start - 1, seq.start_n - 1, -1):
        if eval_binomial(poly, n) != seq.at(n):
            break
        postulation = n
    return FitReport(poly=poly, postulation_index=postulation)
