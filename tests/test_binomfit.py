"""Unit tests for the binomial-basis fitting core."""

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import binomfit as bf


def test_binom_values():
    assert bf.binom(5, 2) == 10
    assert bf.binom(0, 0) == 1
    assert bf.binom(3, 0) == 1
    assert bf.binom(2, 5) == 0  # C(2,5) has a zero factor in the product
    assert bf.binom(7, 7) == 1
    assert bf.binom(10, 1) == 10


def test_binom_negative_argument_polynomial_extension():
    # C(m, k) as a polynomial in m: C(-1, 2) = (-1)(-2)/2 = 1
    assert bf.binom(-1, 2) == 1
    assert bf.binom(-2, 3) == -4
    assert bf.binom(-1, 0) == 1
    assert bf.binom(5, -1) == 0


def test_eval_binomial_signed_convention():
    # P(n) = e0*C(n+1, 2) - e1*C(n, 1) + e2, the d=2 Hilbert shape
    assert [bf.eval_binomial((4, 1, 0), n) for n in range(1, 5)] == [3, 10, 21, 36]


def test_tabulate_round_trip_exact_coeffs():
    values = tuple(bf.eval_binomial((343, 0, 0, 0), n) for n in range(1, 13))
    assert bf.fit_binomial(values, 3) == ((343, 0, 0, 0), 1)


def test_fit_detects_transient_prefix():
    # polynomial from n=3 onward, garbage before
    tail = tuple(bf.eval_binomial((5, 2, 1), n) for n in range(3, 13))
    assert bf.fit_binomial((99, 98) + tail, 2) == ((5, 2, 1), 3)


def test_fit_raises_on_non_polynomial_window():
    with pytest.raises(bf.NonPolynomial):
        bf.fit_binomial((1, 2, 4, 8, 16, 32, 64, 128, 256), 2)


def test_fit_window_too_short():
    with pytest.raises(bf.WindowTooShort):
        bf.fit_binomial((1, 2, 3), 2)


def test_fit_rejects_fractional_coefficients():
    # values of n^2/2 rounded will not fit an integer binomial polynomial
    with pytest.raises(bf.NonPolynomial):
        bf.fit_binomial(tuple(n * n * n // 7 for n in range(1, 12)), 2)


NONZERO = st.integers(-9, 9).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_recovers_polynomial_after_garbage_prefix(data):
    D = data.draw(st.integers(0, 4), label="D")
    coeffs = tuple(data.draw(st.lists(st.integers(-500, 500), min_size=D + 1, max_size=D + 1)))
    # garbage offsets on the first values; the last one is nonzero, so the
    # polynomial holds exactly from n = 1 + len(garbage) on
    garbage = data.draw(st.lists(st.integers(-9, 9), max_size=4))
    if garbage:
        garbage[-1] = data.draw(NONZERO)
    length = len(garbage) + 2 * D + 3 + data.draw(st.integers(0, 4))
    values = [bf.eval_binomial(coeffs, n) for n in range(1, length + 1)]
    values[:len(garbage)] = [v + g for v, g in zip(values, garbage)]
    assert bf.fit_binomial(tuple(values), D) == (coeffs, 1 + len(garbage))
    guard = data.draw(st.integers(length - D - 2, length - 1), label="guard")
    values[guard] += data.draw(NONZERO)
    with pytest.raises(bf.NonPolynomial):
        bf.fit_binomial(tuple(values), D)
