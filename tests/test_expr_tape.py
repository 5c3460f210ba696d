"""The compiled tapes of ``conecut.expr`` against the tree-walking evaluator.

``_ev`` below is the recursive interpreter that evaluated every map before
maps were compiled into tapes, kept verbatim as the reference.  The tapes
must reproduce it bit for bit, including signed zeros, and raise the same
exception with the same message, except where the interpreter overflowed
or returned a non-finite number: there the tapes raise DomainViolation.
``in_domain`` also says False at every point with a non-finite
coordinate.  ``eval_batch`` must reproduce ``eval_map`` row by row.
"""

import math
import random
import time

import numpy as np
import pytest

from conecut.errors import ArityMismatch, DomainViolation
from conecut.expr import (
    GUARD_KINDS,
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Guard,
    Log,
    Mul,
    Norm,
    Pow,
    Sin,
    SmoothMapExpr,
    Sqrt,
    Sub,
    Var,
    eval_batch,
    eval_map,
    from_components,
    jet_eval,
)
from conecut import expr as expr_module
from conecut.verify import SUITES


def _ev(node, point: np.ndarray, grad: bool, cache: dict):
    """Evaluate ``node`` at ``point``; returns (value, gradient-or-None)."""
    key = id(node)
    hit = cache.get(key)
    if hit is not None:
        return hit
    n = point.shape[0]
    if isinstance(node, Const):
        out = (node.value, np.zeros(n) if grad else None)
    elif isinstance(node, Var):
        if node.index >= n:
            raise ArityMismatch(
                f"variable x{node.index + 1} out of range for input dimension {n}"
            )
        g = None
        if grad:
            g = np.zeros(n)
            g[node.index] = 1.0
        out = (float(point[node.index]), g)
    elif isinstance(node, Add):
        (a, ga) = _ev(node.left, point, grad, cache)
        (b, gb) = _ev(node.right, point, grad, cache)
        out = (a + b, ga + gb if grad else None)
    elif isinstance(node, Sub):
        (a, ga) = _ev(node.left, point, grad, cache)
        (b, gb) = _ev(node.right, point, grad, cache)
        out = (a - b, ga - gb if grad else None)
    elif isinstance(node, Mul):
        (a, ga) = _ev(node.left, point, grad, cache)
        (b, gb) = _ev(node.right, point, grad, cache)
        out = (a * b, ga * b + a * gb if grad else None)
    elif isinstance(node, Div):
        (a, ga) = _ev(node.left, point, grad, cache)
        (b, gb) = _ev(node.right, point, grad, cache)
        if b == 0.0:
            raise DomainViolation(f"division by zero in {node}")
        out = (a / b, (ga * b - a * gb) / (b * b) if grad else None)
    elif isinstance(node, Pow):
        (a, ga) = _ev(node.base, point, grad, cache)
        k = node.exponent
        if k < 0 and a == 0.0:
            raise DomainViolation(f"zero base with negative power in {node}")
        v = float(a**k) if (a != 0.0 or k >= 0) else 0.0
        if grad:
            if k == 0:
                g = np.zeros(len(point))
            else:
                g = k * (a ** (k - 1)) * ga
            out = (v, g)
        else:
            out = (v, None)
    elif isinstance(node, Sqrt):
        (a, ga) = _ev(node.arg, point, grad, cache)
        if a < 0.0 or (grad and a == 0.0):
            raise DomainViolation(f"sqrt of nonpositive argument in {node}")
        v = math.sqrt(a)
        out = (v, ga / (2.0 * v) if grad else None)
    elif isinstance(node, Exp):
        (a, ga) = _ev(node.arg, point, grad, cache)
        v = math.exp(a)
        out = (v, v * ga if grad else None)
    elif isinstance(node, Log):
        (a, ga) = _ev(node.arg, point, grad, cache)
        if a <= 0.0:
            raise DomainViolation(f"log of nonpositive argument in {node}")
        out = (math.log(a), ga / a if grad else None)
    elif isinstance(node, Sin):
        (a, ga) = _ev(node.arg, point, grad, cache)
        out = (math.sin(a), math.cos(a) * ga if grad else None)
    elif isinstance(node, Cos):
        (a, ga) = _ev(node.arg, point, grad, cache)
        out = (math.cos(a), -math.sin(a) * ga if grad else None)
    elif isinstance(node, Norm):
        vals = [_ev(a, point, grad, cache) for a in node.args]
        s = math.fsum(v * v for (v, _) in vals)
        v = math.sqrt(s)
        if grad:
            if v == 0.0:
                raise DomainViolation(f"norm not differentiable at zero in {node}")
            g = sum((vi / v) * gi for (vi, gi) in vals)
            out = (v, g)
        else:
            out = (v, None)
    else:
        raise TypeError(f"unknown expression node {node!r}")
    cache[key] = out
    return out


# -- the interpreter's entry points, on top of _ev ----------------------


def _check_point(m, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (m.input_dim,):
        raise ArityMismatch(f"point of shape {point.shape} for map with input_dim {m.input_dim}")
    return point


def _ref_holds(guard, point):
    v, _ = _ev(guard.expr, point, False, {})
    if guard.kind == "nonzero":
        return v != 0.0
    if guard.kind == "positive":
        return v > 0.0
    if guard.kind == "nonnegative":
        return v >= 0.0
    raise ValueError(f"unknown guard kind {guard.kind!r}")


def _ref_check_guards(m, point):
    for g in m.guards:
        if not _ref_holds(g, point):
            raise DomainViolation(f"guard {g.kind}({g.expr}) fails at {point.tolist()}")


def ref_eval_map(m, point):
    point = _check_point(m, point)
    _ref_check_guards(m, point)
    cache: dict = {}
    with np.errstate(all="ignore"):
        return np.array([_ev(e, point, False, cache)[0] for e in m.body])


def ref_jet_eval(m, point):
    point = _check_point(m, point)
    _ref_check_guards(m, point)
    cache: dict = {}
    vals = np.empty(m.output_dim)
    jac = np.empty((m.output_dim, m.input_dim))
    with np.errstate(all="ignore"):
        for i, e in enumerate(m.body):
            v, g = _ev(e, point, True, cache)
            vals[i] = v
            jac[i] = g
    return vals, jac


def ref_in_domain(m, point):
    point = _check_point(m, point)
    try:
        return all(_ref_holds(g, point) for g in m.guards)
    except DomainViolation:
        return False


# -- comparison ---------------------------------------------------------


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001  (the exception is the outcome)
        return ("raised", type(exc), str(exc))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _intended_violation(ref) -> bool:
    """The interpreter's outcomes that the tapes turn into DomainViolation:
    overflow, a math function of a non-finite number, a non-finite result."""
    if ref[0] == "raised":
        return ref[1] is OverflowError or (ref[1] is ValueError and ref[2] == "math domain error")
    arrays = ref[1] if isinstance(ref[1], tuple) else (ref[1],)
    return not all(np.isfinite(a).all() for a in arrays)


def check_against_reference(m, point) -> tuple:
    """Compare eval_map, jet_eval and in_domain with the interpreter at one
    point; returns the error messages of the tapes' eval_map and jet_eval,
    "" for a call that returned."""
    ref = _outcome(ref_eval_map, m, point)
    got = _outcome(eval_map, m, point)
    if _intended_violation(ref):
        assert got[:2] == ("raised", DomainViolation), (m, point, ref, got)
    elif ref[0] == "ok":
        assert got[0] == "ok" and _same_bits(got[1], ref[1]), (m, point, ref, got)
    else:
        assert got == ref, (m, point)

    ref_jet = _outcome(ref_jet_eval, m, point)
    got_jet = _outcome(jet_eval, m, point)
    if _intended_violation(ref_jet):
        assert got_jet[:2] == ("raised", DomainViolation), (m, point, ref_jet, got_jet)
    elif ref_jet[0] == "ok":
        assert got_jet[0] == "ok", (m, point, ref_jet, got_jet)
        assert _same_bits(got_jet[1].value, ref_jet[1][0]), (m, point)
        assert _same_bits(got_jet[1].jacobian, ref_jet[1][1]), (m, point)
    else:
        assert got_jet == ref_jet, (m, point)

    ref_dom = _outcome(ref_in_domain, m, point)
    got_dom = _outcome(m.in_domain, point)
    if _intended_violation(ref_dom) or not np.isfinite(point).all():
        assert got_dom == ("ok", False), (m, point, ref_dom, got_dom)
    else:
        assert got_dom == ref_dom, (m, point)
    return tuple(out[2] if out[0] == "raised" else "" for out in (got, got_jet))


def check_batch(m, points: list):
    """eval_batch on the rows ``points`` against eval_map on each row."""
    batch = _outcome(eval_batch, m, np.array(points).reshape(len(points), m.input_dim))
    rows = [_outcome(eval_map, m, p) for p in points]
    failed = [i for i, row in enumerate(rows) if row[0] == "raised"]
    if not failed:
        assert batch[0] == "ok", (m, points, batch)
        assert _same_bits(batch[1], np.array([row[1] for row in rows]).reshape(len(points), m.output_dim))
        return
    i = failed[0]
    kind, message = rows[i][1:]
    if kind is DomainViolation:
        message = f"row {i}: {message}"
    assert batch == ("raised", kind, message), (m, points, batch)


# -- seeded random trees --------------------------------------------------

CONSTANTS = (0.0, -0.0, 1.0, -1.0, 2.5, 0.5, 1e-170, 1e300, 3.0)
COORDINATES = (
    0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-200, 5e-324, -1e-320, 1e154,
    1e200, 1e308, -1e308, 700.0, 1000.0, math.inf, -math.inf, math.nan,
)
DOMAIN_MESSAGES = (
    "division by zero",
    "zero base with negative power",
    "sqrt of nonpositive argument",
    "log of nonpositive argument",
    "norm not differentiable at zero",
    "fails at",
    "overflow in",
    "non-finite argument",
    "is not finite",
    "out of range",
)


def random_map(rnd: random.Random) -> SmoothMapExpr:
    """A map over all 13 node kinds whose nodes are shared between
    components, guards and subtrees (each new node draws its children from
    the nodes built so far)."""
    n = rnd.randint(1, 3)
    pool = [Var(i) for i in range(n)] + [Const(rnd.choice(CONSTANTS)) for _ in range(2)]
    if rnd.random() < 0.05:
        pool.append(Var(n))  # out of range for the map

    def pick():
        return rnd.choice(pool)

    for _ in range(rnd.randint(2, 14)):
        kind = rnd.randrange(11)
        if kind < 4:
            node = (Add, Sub, Mul, Div)[kind](pick(), pick())
        elif kind == 4:
            node = Pow(pick(), rnd.choice((-3, -2, -1, 0, 1, 2, 3, 5)))
        elif kind < 10:
            node = (Sqrt, Exp, Log, Sin, Cos)[kind - 5](pick())
        else:
            node = Norm(tuple(pick() for _ in range(rnd.randint(1, 3))))
        pool.append(node)
    body = tuple(rnd.choice(pool[-6:]) for _ in range(rnd.randint(1, 3)))
    guards = tuple(Guard(rnd.choice(pool), rnd.choice(GUARD_KINDS)) for _ in range(rnd.choice((0, 0, 1, 2))))
    return SmoothMapExpr(n, len(body), body, guards)


def random_point(rnd: random.Random, n: int) -> np.ndarray:
    return np.array([rnd.choice(COORDINATES) if rnd.random() < 0.6 else rnd.uniform(-3, 3) for _ in range(n)])


def test_tapes_match_the_interpreter_on_random_trees():
    rnd = random.Random(20261018)
    messages = []
    for _ in range(600):
        m = random_map(rnd)
        points = [random_point(rnd, m.input_dim) for _ in range(8)]
        for point in points:
            messages.extend(check_against_reference(m, point))
        check_batch(m, points)
        check_batch(m, [p for p in points if _outcome(eval_map, m, p)[0] == "ok"])
    returned = sum(1 for msg in messages if not msg)
    assert returned > len(messages) // 10
    for text in DOMAIN_MESSAGES:
        assert any(text in msg for msg in messages), text


@pytest.mark.parametrize("name", ["groupoid", "dnc", "vb", "euler"])
def test_tapes_match_the_interpreter_on_suite_maps(name, monkeypatch):
    """Every map a suite evaluates, at the points the suite evaluates it at
    (up to 40 per map), and at a few boundary points."""
    seen: dict = {}
    check_coords = expr_module._check_coords
    check_points = expr_module._check_points

    def record(m, rows):
        points = seen.setdefault(id(m), (m, []))[1]
        points.extend(np.array(row) for row in rows[: 40 - len(points)])

    def recording(m, point):
        coords = check_coords(m, point)
        record(m, [coords])
        return coords

    def recording_rows(m, points):
        points = check_points(m, points)
        record(m, points)
        return points

    monkeypatch.setattr(expr_module, "_check_coords", recording)
    monkeypatch.setattr(expr_module, "_check_points", recording_rows)
    SUITES[name](samples=20, seed=3)
    monkeypatch.undo()
    assert seen
    rnd = random.Random(5)
    for m, points in seen.values():
        for point in points + [random_point(rnd, m.input_dim) for _ in range(3)]:
            check_against_reference(m, point)
        check_batch(m, points)


def test_eval_batch_shapes_and_failing_row():
    m = from_components(2, (Var(0) / Var(1), Var(0) + Var(1), Var(1)))
    assert eval_batch(m, np.empty((0, 2))).shape == (0, 3)
    out = eval_batch(m, [[1.0, 2.0], [-0.0, 4.0]])
    assert out.shape == (2, 3) and out[1, 0] == 0.0 and math.copysign(1.0, out[1, 0]) == -1.0
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(ArityMismatch, match="points of shape"):
            eval_batch(m, bad)
    with pytest.raises(DomainViolation, match=r"^row 2: division by zero in \(x1 / x2\)$"):
        eval_batch(m, [[1.0, 2.0], [3.0, 4.0], [5.0, 0.0], [1.0, 1e-320]])
    with pytest.raises(DomainViolation, match=r"^row 1: value of \(x1 / x2\) is not finite at \[1.0, 1e-320\]$"):
        eval_batch(m, [[1.0, 2.0], [1.0, 1e-320], [5.0, 0.0]])


@pytest.mark.parametrize(
    "component, at, message",
    [
        (Exp(Var(0)), 1000.0, "overflow in exp(x1)"),
        (Var(0) ** 3, 1e200, "overflow in (x1)^3"),
        (1.0 / Var(0), 1e-320, "value of (1.0 / x1) is not finite at [1e-320]"),
        (Var(0) - Var(0), math.inf, "value of (x1 - x1) is not finite at [inf]"),
    ],
)
def test_overflow_and_non_finite_results_raise_domain_violation(component, at, message):
    m = from_components(1, (component,))
    for evaluate in (eval_map, jet_eval):
        with pytest.raises(DomainViolation) as info:
            evaluate(m, [at])
        assert str(info.value) == message


def test_non_finite_partial_raises_domain_violation():
    # The value 1/x is finite at 1e-170, but its derivative -1/x^2 is not.
    m = from_components(1, (1.0 / Var(0),))
    assert eval_map(m, [1e-170])[0] == 1e170
    with pytest.raises(DomainViolation, match="derivative of"):
        jet_eval(m, [1e-170])


def test_each_distinct_node_is_evaluated_once_per_call():
    x = Var(0)
    e = x
    for _ in range(40):
        e = e * e  # both children are the same node
    m = from_components(1, (e,))
    eval_map(m, [1.0])
    jet_eval(m, [1.0])
    start = time.perf_counter()
    value = eval_map(m, [1.0])
    jet = jet_eval(m, [1.0])
    assert time.perf_counter() - start < 0.010
    assert value[0] == 1.0
    assert np.asarray(jet.jacobian)[0, 0] == 2.0**40
