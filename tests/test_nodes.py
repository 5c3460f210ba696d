"""Every pass over an expression tree goes through ``conecut.nodes.walk``.

A 4,000-deep tree, deeper than Python's recursion limit, is hashed,
compared, printed, composed, converted to exact form and reported in a
``DomainViolation``.  A tree that shares its subtrees, e <- e*e + 0
thirty times, has 91 distinct nodes on 2^30 paths: each pass over it
must visit each distinct node a bounded number of times, which the
tests count through ``nodes.children`` with a budget that stops a pass
which does not, instead of letting it run for hours.
"""

import math
import sys

import pytest

from conecut import nodes
from conecut.errors import ArityMismatch, DomainViolation
from conecut.expr import Const, Var, compose, eval_map, from_components, identity_map
from conecut.parse import depth, parse_expr
from conecut.ring import MultiPoly, expr_to_poly


def _deep(bottom=None):
    """(e + x) * 0.5 applied 2,000 times to x, or to ``bottom``: depth 4,000,
    and as a function, x itself."""
    x, half = Var(0), Const(0.5)
    e = x if bottom is None else bottom
    for _ in range(2000):
        e = (e + x) * half
    return e


def test_a_tree_deeper_than_the_recursion_limit_is_hashed_compared_printed_and_converted():
    e, twin = _deep(), _deep()
    assert depth(e) == 4000 > sys.getrecursionlimit()
    assert hash(e) == hash(twin) and e == twin and not e != twin
    # Const(-1.0) and Const(-2.0) hash alike, so only the walk tells them apart.
    low, high = _deep(Const(-1.0)), _deep(Const(-2.0))
    assert hash(low) == hash(high) and low != high and not low == high
    assert _deep(Const(0.0)) == _deep(Const(-0.0))  # the tuple rule: 0.0 == -0.0
    text = "x1"
    for _ in range(2000):
        text = f"(({text} + x1) * 0.5)"
    assert str(e) == text
    record = "Var(index=0)"
    for _ in range(2000):
        record = f"Mul(left=Add(left={record}, right=Var(index=0)), right=Const(value=0.5))"
    assert repr(e) == record
    m = from_components(1, (e,))
    assert hash(m) == hash(from_components(1, (twin,)))
    assert compose(m, identity_map(1)).body[0] == e
    assert eval_map(compose(m, from_components(1, (Var(0) * 2.0,))), [0.25]) == (0.5,)
    assert expr_to_poly(e, 0, 1) == MultiPoly.var(0, 1, 0)
    with pytest.raises(DomainViolation) as exc:
        eval_map(from_components(1, (1.0 / e,)), [0.0])
    assert str(exc.value) == f"division by zero in (1.0 / {text})"


def _shared(rounds=30):
    e = Var(0)
    for _ in range(rounds):
        e = e * e + 0
    return e


@pytest.fixture
def walked(monkeypatch):
    """A function that runs a pass, checks that it called
    ``nodes.children`` at least once and at most ``limit`` times, and
    returns its result; a pass that goes over the limit fails at once."""
    calls, limit = [0], [math.inf]
    children = nodes.children

    def counted(node):
        calls[0] += 1
        assert calls[0] <= limit[0], "the pass walks paths, not distinct nodes"
        return children(node)

    monkeypatch.setattr(nodes, "children", counted)

    def run(one_pass, most):
        calls[0], limit[0] = 0, most
        try:
            result = one_pass()
        finally:
            limit[0] = math.inf
        assert calls[0] > 0, "the pass does not go through walk"
        return result

    return run


def test_a_shared_tree_costs_its_distinct_nodes(walked):
    e, twin = _shared(), _shared()
    distinct = 1 + 3 * 30  # Var(0), then a Mul, a Const and an Add per round
    # A walk calls children at most twice per distinct node it visits.
    assert hash(e) == hash(twin)
    assert walked(lambda: e == twin, 2 * 2 * distinct) is True
    assert walked(lambda: depth(e), 2 * distinct) == 60
    assert walked(lambda: compose(from_components(1, (e,)), identity_map(1)), 2 * distinct).body[0] == e
    assert walked(lambda: expr_to_poly(e, 0, 1), 2 * 2 * distinct) == MultiPoly(0, 1, {(2**30,): 1})


@pytest.mark.parametrize(
    "text, message",
    [
        # A node that is not polynomial fails before anything below it ...
        ("sqrt(1/y)", "non-polynomial node Sqrt in conversion"),
        ("x + sin(x/(y+1))", "non-polynomial node Sin in conversion"),
        ("exp(y)^-1", "non-polynomial node Exp in conversion"),
        # ... and a division once its operands are converted, left first.
        ("(x+y)/(x-y)", "division and negative powers need a constant times a power of t"),
        ("x/(y+1) + sin(x)", "division and negative powers need a constant times a power of t"),
        ("x/0 + 1/(x+y)", "division by zero constant"),
    ],
)
def test_conversion_reports_the_failure_met_first_from_the_root(text, message):
    with pytest.raises(ArityMismatch) as exc:
        expr_to_poly(parse_expr(text, ["x", "y"]), 0, 2)
    assert str(exc.value) == message


@pytest.mark.parametrize("exponent", [True, False, 2.0])
def test_only_int_powers_are_taken(exponent):
    """A bool would print as ``(x1)^True``, text the parser refuses."""
    with pytest.raises(TypeError, match="only integer powers are supported"):
        Var(0) ** exponent
