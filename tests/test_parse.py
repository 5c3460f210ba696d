"""Expression and map parsing."""

from fractions import Fraction

import numpy as np
import pytest

from conecut.errors import ArityMismatch, InvariantBreach, ParseError
from conecut.expr import eval_map, from_components
from conecut.parse import MAX_DEPTH, default_var_names, depth, parse_expr, parse_laurent, parse_map
from conecut.ring import LaurentElement, MultiPoly


def _value(text, var_names, point):
    e = parse_expr(text, var_names)
    return eval_map(from_components(len(var_names), (e,)), point)[0]


def test_precedence_and_power():
    assert _value("1 + 2*3", ["x"], [0.0]) == 7.0
    assert _value("2*x^3", ["x"], [2.0]) == 16.0
    assert _value("-x^2", ["x"], [3.0]) == -9.0  # unary binds below power
    assert _value("(1+x)^2", ["x"], [2.0]) == 9.0
    assert _value("x^-1", ["x"], [4.0]) == 0.25


def test_functions_and_norm():
    assert _value("sqrt(x) + exp(0)", ["x"], [9.0]) == pytest.approx(4.0)
    assert _value("norm(x, y)", ["x", "y"], [3.0, 4.0]) == pytest.approx(5.0)
    assert _value("sin(x)^2 + cos(x)^2", ["x"], [0.77]) == pytest.approx(1.0)


def test_variable_names():
    assert _value("y1*x1", ["y1", "x1"], [2.0, 5.0]) == 10.0
    assert default_var_names(3) == ["x1", "x2", "x3"]


def test_parse_map_components():
    m = parse_map("x1 + x2, x1*x2", 2)
    assert m.output_dim == 2
    assert np.allclose(eval_map(m, [2.0, 3.0]), [5.0, 6.0])


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + * 2", ["x"])
    assert info.value.position >= 0
    with pytest.raises(ParseError):
        parse_expr("unknown_name + 1", ["x"])
    with pytest.raises(ParseError):
        parse_expr("x^y", ["x", "y"])  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse_expr("(1 + 2", ["x"])


def test_nested_expression():
    val = _value("exp(sin(x) * (1 - x^2)) / (2 + cos(x))", ["x"], [0.4])
    expected = np.exp(np.sin(0.4) * (1 - 0.16)) / (2 + np.cos(0.4))
    assert val == pytest.approx(expected)


def test_parse_laurent_keys_coefficients_by_filtration():
    y1, x1, x2 = (MultiPoly.var(1, 2, i) for i in range(3))
    elem = parse_laurent("x1*x2/t^2 - 3*y1 + (x1 - x2)*t^-1 + t/2", 1, 2)
    expected = LaurentElement(
        1, 2, {2: x1 * x2, 0: y1 * (-3), 1: x1 - x2, -1: MultiPoly.const(1, 2, Fraction(1, 2))}
    )
    assert elem == expected
    # the filtration is checked on the whole element, not term by term
    assert parse_laurent("x1*t^-1 + y1*t^-1 - y1*t^-1", 1, 2) == parse_laurent("x1/t", 1, 2)
    with pytest.raises(InvariantBreach):
        parse_laurent("y1*t^-1", 1, 2)
    with pytest.raises(ArityMismatch):
        parse_laurent("x1/y1", 1, 2)
    with pytest.raises(ArityMismatch):
        parse_laurent("x1*(t + 1)^-1", 1, 2)


# Texts of depth d in each way the grammar nests: the tree's depth, the
# parentheses' nesting, or both.
DEEP_FORMS = {
    "sum": (lambda d: " + ".join(["x"] * (d + 1)), True),
    "right-nested sum": (lambda d: "x + (" * d + "x" + ")" * d, True),
    "parentheses": (lambda d: "(" * d + "x" + ")" * d, False),
    "signs": (lambda d: "-" * d + "x", True),
    "calls": (lambda d: "exp(" * d + "x" + ")" * d, True),
    "powers": (lambda d: "(" * d + "x" + ")^1" * d, True),
    "exponent": (lambda d: "x^" + "(" * d + "2" + ")" * d, False),
}


@pytest.mark.parametrize("form", DEEP_FORMS)
def test_parse_accepts_max_depth_and_refuses_deeper(form):
    make, tree_deep = DEEP_FORMS[form]
    e = parse_expr(make(MAX_DEPTH), ["x"])
    assert depth(e) == (MAX_DEPTH if tree_deep else int(form == "exponent"))
    assert parse_map("x, " + make(MAX_DEPTH), 1, ["x"]).output_dim == 2
    for d in (MAX_DEPTH + 1, 1500):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
            parse_expr(make(d), ["x"])


def test_depth_counts_operations():
    assert [depth(parse_expr(t, ["x"])) for t in ("x", "2", "-x", "x*x + 1", "norm(x, exp(x))")] == [0, 0, 1, 2, 2]
