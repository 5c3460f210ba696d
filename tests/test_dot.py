"""``expr.dot`` is the correctly rounded sum of products.

The reference is the exact sum of ``Fraction`` products, converted to
float once.  Random vectors of lengths 1 to 6 mix magnitudes, signs and
entry types; the hand-picked cases cancel, underflow into subnormals and
reach the end of the float range, where a sum in floats goes wrong.
"""

import math
from fractions import Fraction

import pytest

from conecut.expr import dot
from conecut.pcg64 import PCG64

TINY = 5e-324  # the smallest subnormal
BIG = 1.7976931348623157e308  # the largest float


def exact(a, b) -> float:
    return float(sum(Fraction(u) * Fraction(v) for u, v in zip(a, b, strict=True)))


def _entry(rng) -> float:
    """A float of random sign with an exponent anywhere in [-60, 60]."""
    return (rng.random() - 0.5) * 2.0 ** (rng.integers(121) - 60)


@pytest.mark.parametrize("n", range(1, 7))
def test_dot_is_the_rounded_exact_sum_for_lengths_1_to_6(n):
    rng = PCG64(n)
    for _ in range(2000):
        a = [_entry(rng) for _ in range(n)]
        b = [_entry(rng) for _ in range(n)]
        assert dot(a, b) == exact(a, b), (a, b)
        # cancellation: the last product nearly undoes the others
        b[-1] = -math.fsum(u * v for u, v in zip(a[:-1], b[:-1])) / a[-1] if n > 1 else b[-1]
        assert dot(a, b) == exact(a, b), (a, b)


def test_dot_reads_ints_and_fractions_exactly():
    rng = PCG64(7)
    for n in range(1, 7):
        for _ in range(200):
            a = [Fraction(rng.integers(2001) - 1000, rng.integers(999) + 1) for _ in range(n)]
            b = [rng.integers(21) - 10 if i % 2 else _entry(rng) for i in range(n)]
            assert dot(a, b) == exact(a, b)
    assert dot([Fraction(1, 3)], [3]) == 1.0
    assert dot([Fraction(1, 10), Fraction(2, 10)], [1, 1]) == 0.3


@pytest.mark.parametrize(
    "a, b, want",
    [
        # cancellation that a float sum loses entirely
        ([1e16, 1.0, -1e16], [1.0, 1.0, 1.0], 1.0),
        ([1.0, 1e100, 1.0, -1e100], [1.0, 1.0, 1.0, 1.0], 2.0),
        ([0.1, 0.1, 0.1, -0.3], [1.0, 1.0, 1.0, 1.0], exact([0.1, 0.1, 0.1, -0.3], [1.0] * 4)),
        ([2.0**60 + 1, -(2.0**60)], [2.0**60 - 1, 2.0**60], exact([2.0**60 + 1, -(2.0**60)], [2.0**60 - 1, 2.0**60])),
        # products that are subnormal, or below the smallest subnormal
        ([1e-160, 1e-160], [1e-160, 3e-160], 4e-320),
        ([TINY, TINY], [0.5, 0.5], TINY),
        ([TINY, -TINY, TINY], [0.75, 0.5, 0.5], TINY),
        ([1e-200, 1.0], [1e-200, -1e-300], -1e-300),
        ([2.0**-600, 2.0**-600], [2.0**-500, -(2.0**-500)], 0.0),
        # magnitudes near overflow: intermediate sums past the range
        ([BIG, BIG, -BIG], [1.0, 1.0, 1.0], BIG),
        ([1e200, 1e200], [1e200, -1e200], 0.0),
        ([1e200, 1e200, 1.5], [1e200, -1e200, 2.0], 3.0),
        ([BIG, 2.0**969], [1.0, 1.0], BIG),  # a quarter ulp above the largest float
    ],
)
def test_dot_hard_cases(a, b, want):
    assert dot(a, b) == want == exact(a, b)


@pytest.mark.parametrize(
    "a, b, want",
    [
        ([BIG, BIG], [1.0, 1.0], math.inf),
        ([BIG, -BIG], [-1.0, 1.0], -math.inf),
        ([BIG, 2.0**970], [1.0, 1.0], math.inf),  # half an ulp above: the tie goes to even, 2^1024
        ([1e300, 1e300], [1e10, -1e9], math.inf),
    ],
)
def test_dot_past_the_float_range_is_infinite(a, b, want):
    assert dot(a, b) == want
    with pytest.raises(OverflowError):
        exact(a, b)


def test_dot_signed_zeros_empty_sums_and_one_product():
    assert math.copysign(1.0, dot([-0.0], [1.0])) == -1.0
    assert math.copysign(1.0, dot([-0.0, -0.0], [1.0, 2.0])) == -1.0
    assert math.copysign(1.0, dot([-0.0, 0.0], [1.0, 1.0])) == 1.0
    assert math.copysign(1.0, dot([1.0, -1.0], [1.0, 1.0])) == 1.0
    assert dot([], []) == 0.0 and math.copysign(1.0, dot([], [])) == 1.0
    assert dot([3.0], [0.1]) == 3.0 * 0.1
    assert dot((1e308,), (10.0,)) == math.inf


def test_dot_sums_non_finite_entries_in_floats():
    assert dot([math.inf, 1.0], [1.0, 2.0]) == math.inf
    assert math.isnan(dot([math.inf, 1.0], [0.0, 2.0]))
    assert math.isnan(dot([math.nan, 1.0], [1.0, 2.0]))
    assert math.isnan(dot([math.inf, math.inf], [1.0, -1.0]))


def test_dot_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        dot([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        dot([math.inf, 1.0], [1.0])
