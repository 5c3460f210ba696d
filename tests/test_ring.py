"""Exact multivariate polynomials, the filtered Laurent model, characters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecut.errors import InvariantBreach
from conecut.expr import Var, eval_map
from conecut.ring import (
    LaurentElement,
    MultiPoly,
    char_xs,
    char_yxi,
    expr_to_poly,
    geometric_consistency,
    poly_to_expr,
    vanishing_order,
)

P, Q = 1, 2


def _vars():
    y = MultiPoly.var(P, Q, 0)
    x1 = MultiPoly.var(P, Q, 1)
    x2 = MultiPoly.var(P, Q, 2)
    return y, x1, x2


def _small_polys():
    y, x1, x2 = _vars()
    return st.sampled_from(
        [
            MultiPoly.const(P, Q, 0),
            MultiPoly.const(P, Q, Fraction(3, 2)),
            y,
            x1,
            x2,
            y * x1 + x2,
            x1 * x2 - y**2,
            x1**2 + MultiPoly.const(P, Q, 1),
        ]
    )


@given(_small_polys(), _small_polys(), _small_polys())
@settings(max_examples=60, deadline=None)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == MultiPoly.const(P, Q, 0)


def test_polynomial_evaluation_is_exact():
    y, x1, x2 = _vars()
    f = y * x1 - x2**2 + MultiPoly.const(P, Q, Fraction(1, 3))
    val = f.evaluate([Fraction(1, 2), Fraction(2, 3), Fraction(1, 5)])
    assert val == Fraction(1, 2) * Fraction(2, 3) - Fraction(1, 25) + Fraction(1, 3)


def test_vanishing_order():
    y, x1, x2 = _vars()
    assert vanishing_order(y) == 0
    assert vanishing_order(x1) == 1
    assert vanishing_order(x1 * x2 + x2**3) == 2
    assert vanishing_order(MultiPoly.const(P, Q, 0)) == float("inf")


def test_laurent_filtration_invariant():
    y, x1, x2 = _vars()
    # f at key k must vanish to order at least k in the x-block
    LaurentElement(P, Q, {1: x1, 2: x1 * x2})
    with pytest.raises(InvariantBreach):
        LaurentElement(P, Q, {1: y})
    with pytest.raises(InvariantBreach):
        LaurentElement(P, Q, {2: x1})


def test_t_element_times_inverse_weight():
    y, x1, x2 = _vars()
    t = LaurentElement.t_element(P, Q)
    f = LaurentElement.from_poly(x1 * x2, 2)
    prod = t * f
    assert prod == LaurentElement.from_poly(x1 * x2, 1)


def test_characters_are_ring_homomorphisms():
    y, x1, x2 = _vars()
    a = LaurentElement(P, Q, {1: x1, 0: y})
    b = LaurentElement(P, Q, {2: x1 * x2, -1: MultiPoly.const(P, Q, 1)})
    x_pt = [Fraction(1, 2), Fraction(2, 3), Fraction(-1, 4)]
    s = Fraction(3, 5)
    assert char_xs(a * b, x_pt, s) == char_xs(a, x_pt, s) * char_xs(
        b, x_pt, s
    )
    assert char_xs(a + b, x_pt, s) == char_xs(a, x_pt, s) + char_xs(b, x_pt, s)
    y_pt, xi_pt = [Fraction(1, 2)], [Fraction(2, 3), Fraction(-1, 4)]
    assert char_yxi(a * b, y_pt, xi_pt) == char_yxi(
        a, y_pt, xi_pt
    ) * char_yxi(b, y_pt, xi_pt)
    assert char_yxi(a + b, y_pt, xi_pt) == char_yxi(a, y_pt, xi_pt) + char_yxi(
        b, y_pt, xi_pt
    )


def test_char_xs_value():
    y, x1, x2 = _vars()
    a = LaurentElement(P, Q, {1: x1 * y})
    # f_1 * s^{-1} at (y, x1, x2) = (2, 3, 5), s = 1/2: 6 * 2 = 12
    assert char_xs(a, [2, 3, 5], Fraction(1, 2)) == 12


def test_char_yxi_keeps_leading_homogeneous_part():
    y, x1, x2 = _vars()
    # key 1 coefficient x1 + x1*x2: only the degree-1 part survives
    a = LaurentElement(P, Q, {1: x1 + x1 * x2})
    assert char_yxi(a, [Fraction(7)], [Fraction(2), Fraction(3)]) == 2
    # negative keys contribute nothing to the exceptional character
    b = LaurentElement(P, Q, {-1: y})
    assert char_yxi(b, [Fraction(7)], [Fraction(2), Fraction(3)]) == 0


def test_grading_homogeneity_exact():
    y, x1, x2 = _vars()
    elem = LaurentElement.from_poly(x1 * x2, 2)
    lam = Fraction(5, 3)
    xi = [Fraction(1, 2), Fraction(4, 7)]
    scaled = char_yxi(elem, [Fraction(0)], [lam * v for v in xi])
    assert scaled == lam**2 * char_yxi(elem, [Fraction(0)], xi)


def test_poly_expr_round_trip():
    y, x1, x2 = _vars()
    # expression constants are floats, so exact round trips need
    # dyadic rational coefficients
    f = y * x1 - x2**2 + MultiPoly.const(P, Q, Fraction(3, 8))
    m = poly_to_expr(f)
    val = eval_map(m, [0.5, 2.0, 3.0])[0]
    assert val == pytest.approx(0.5 * 2.0 - 9.0 + 3.0 / 8.0)
    back = expr_to_poly(m.body[0], P, Q)
    assert back == f


def test_expr_to_poly_from_tree():
    e = Var(0) * Var(1) + Var(2) ** 2 - 1.5
    f = expr_to_poly(e, P, Q)
    assert f.evaluate([2, 3, 4]) == Fraction(2 * 3 + 16) - Fraction(3, 2)


def test_geometric_consistency():
    y, x1, x2 = _vars()
    f = y * x1 + x2**3
    points = [([0.3], [0.7, -0.2], 0.9), ([0.1], [0.4, 0.6], 0.5)]
    report = geometric_consistency(f, points)
    assert report["ok"]
    assert report["max_residual"] <= 1e-12
