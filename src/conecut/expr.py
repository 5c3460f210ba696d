"""Immutable expression trees with forward-mode automatic differentiation.

The scalar expression nodes (``Expr`` and ``Const`` … ``Norm``) are
defined in ``conecut.nodes``, so that the exact code, which only builds
and reads trees, runs without this module.  A ``SmoothMapExpr`` bundles
a tuple of scalar expressions into a map R^n -> R^m together with
explicit domain guards.  Evaluation never returns NaN or infinity: division by zero,
log/sqrt of a bad argument, a failing guard, an overflow, and a value
or partial derivative that is not finite all raise ``DomainViolation``.
``in_domain`` is False at every point with a non-finite coordinate.

A map is compiled on first use into tapes that are cached on it: flat
lists of steps, one per distinct node (shared subtrees once), children
first.  ``eval_map`` replays the value tape, which checks the guards and
then computes the body, and returns the values as a tuple of floats.
``eval_batch`` replays the same tape once per row of an (N, n) array of
points; it saves the conversions ``eval_map`` makes on each call, but
none of the arithmetic, so every row is bit-identical to ``eval_map`` at
that row.  ``jet_eval`` replays the jet tape, which checks the guards and
then carries each body node's value together with its n partial
derivatives (forward mode), and returns the values and the Jacobian rows
as tuples of floats.  Each step does its node's float arithmetic, in the
same order on both tapes, so the value component of ``jet_eval`` agrees
exactly with ``eval_map``.  Only ``eval_batch`` and ``linear_map`` use
numpy; every other function takes any flat sequence of numbers and
returns plain floats.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import chain

from .errors import ArityMismatch, DomainViolation, UnknownGuardKind
from .lazy_numpy import np
from .nodes import Add, Const, Cos, Div, Exp, Expr, Log, Mul, Norm, Pow, Sin, Sqrt, Sub, Var, as_expr
from .record import Record


# -- tapes ------------------------------------------------------------------
# A tape replays trees on a register list: the n input coordinates, then
# one register per distinct non-Var node (by id), in post-order.  A
# constant's register is filled when the list is made; every other node
# has one step that reads its children's registers, runs the node's
# domain check and writes its own register.  A jet step also writes the
# node's n partial derivatives, as a list of floats, at the same index
# of a gradient list.  Steps do the tree's arithmetic in the order the
# dual-number rules give it, with math functions on floats, so every
# value and partial is exactly the one the tree defines.
#
# Each step binds its registers as default arguments: such a function is
# cheaper both to make and to call than one that closes over them.


def _overflow(node) -> DomainViolation:
    return DomainViolation(f"overflow in {node}")


def _non_finite(node) -> DomainViolation:
    return DomainViolation(f"non-finite argument in {node}")


def _over_zero(x: float) -> float:
    """x / +0.0 as IEEE 754 defines it, where Python raises instead."""
    return math.copysign(math.inf, x) if x == x and x != 0.0 else math.nan


def _v_add(node, k, a, b):
    def step(r, k=k, a=a, b=b):
        r[k] = r[a] + r[b]

    return step


def _v_sub(node, k, a, b):
    def step(r, k=k, a=a, b=b):
        r[k] = r[a] - r[b]

    return step


def _v_mul(node, k, a, b):
    def step(r, k=k, a=a, b=b):
        r[k] = r[a] * r[b]

    return step


def _v_div(node, k, a, b):
    def step(r, k=k, a=a, b=b, node=node):
        y = r[b]
        if y == 0.0:
            raise DomainViolation(f"division by zero in {node}")
        r[k] = r[a] / y

    return step


def _v_pow(node, k, a):
    def step(r, k=k, a=a, e=node.exponent, node=node):
        x = r[a]
        if e < 0 and x == 0.0:
            raise DomainViolation(f"zero base with negative power in {node}")
        try:
            r[k] = float(x**e)
        except OverflowError:
            raise _overflow(node) from None

    return step


def _v_sqrt(node, k, a):
    def step(r, k=k, a=a, node=node):
        x = r[a]
        if x < 0.0:
            raise DomainViolation(f"sqrt of nonpositive argument in {node}")
        r[k] = math.sqrt(x)

    return step


def _v_exp(node, k, a):
    def step(r, k=k, a=a, node=node):
        try:
            r[k] = math.exp(r[a])
        except OverflowError:
            raise _overflow(node) from None

    return step


def _v_log(node, k, a):
    def step(r, k=k, a=a, node=node):
        x = r[a]
        if x <= 0.0:
            raise DomainViolation(f"log of nonpositive argument in {node}")
        r[k] = math.log(x)

    return step


def _v_sin(node, k, a):
    def step(r, k=k, a=a, node=node):
        try:
            r[k] = math.sin(r[a])
        except ValueError:
            raise _non_finite(node) from None

    return step


def _v_cos(node, k, a):
    def step(r, k=k, a=a, node=node):
        try:
            r[k] = math.cos(r[a])
        except ValueError:
            raise _non_finite(node) from None

    return step


def _norm(node, r, args) -> float:
    try:
        return math.sqrt(math.fsum([r[i] * r[i] for i in args]))
    except OverflowError:
        raise _overflow(node) from None


def _v_norm(node, k, *args):
    def step(r, k=k, args=args, node=node):
        r[k] = _norm(node, r, args)

    return step


def _j_add(node, k, a, b):
    def step(r, g, k=k, a=a, b=b):
        r[k] = r[a] + r[b]
        g[k] = list(map(operator.add, g[a], g[b]))

    return step


def _j_sub(node, k, a, b):
    def step(r, g, k=k, a=a, b=b):
        r[k] = r[a] - r[b]
        g[k] = list(map(operator.sub, g[a], g[b]))

    return step


def _j_mul(node, k, a, b):
    def step(r, g, k=k, a=a, b=b):
        x = r[a]
        y = r[b]
        r[k] = x * y
        g[k] = [u * y + x * v for u, v in zip(g[a], g[b])]

    return step


def _j_div(node, k, a, b):
    def step(r, g, k=k, a=a, b=b, node=node):
        x = r[a]
        y = r[b]
        if y == 0.0:
            raise DomainViolation(f"division by zero in {node}")
        r[k] = x / y
        yy = y * y
        if yy == 0.0:
            g[k] = [_over_zero(u * y - x * v) for u, v in zip(g[a], g[b])]
        else:
            g[k] = [(u * y - x * v) / yy for u, v in zip(g[a], g[b])]

    return step


def _j_pow(node, k, a):
    e = node.exponent
    if e == 0:

        def step(r, g, k=k, a=a, value=_v_pow(node, k, a)):
            value(r)
            g[k] = [0.0] * len(g[a])

        return step

    def step(r, g, k=k, a=a, e=e, value=_v_pow(node, k, a), node=node):
        value(r)
        try:
            c = e * (r[a] ** (e - 1))
        except OverflowError:
            raise _overflow(node) from None
        g[k] = [c * u for u in g[a]]

    return step


def _j_sqrt(node, k, a):
    def step(r, g, k=k, a=a, node=node):
        x = r[a]
        if x <= 0.0:
            raise DomainViolation(f"sqrt of nonpositive argument in {node}")
        v = r[k] = math.sqrt(x)
        d = 2.0 * v
        g[k] = [u / d for u in g[a]]

    return step


def _j_exp(node, k, a):
    def step(r, g, k=k, a=a, value=_v_exp(node, k, a)):
        value(r)
        v = r[k]
        g[k] = [v * u for u in g[a]]

    return step


def _j_log(node, k, a):
    def step(r, g, k=k, a=a, value=_v_log(node, k, a)):
        value(r)
        x = r[a]
        g[k] = [u / x for u in g[a]]

    return step


def _j_sin(node, k, a):
    def step(r, g, k=k, a=a, value=_v_sin(node, k, a)):
        value(r)
        c = math.cos(r[a])
        g[k] = [c * u for u in g[a]]

    return step


def _j_cos(node, k, a):
    def step(r, g, k=k, a=a, value=_v_cos(node, k, a)):
        value(r)
        c = -math.sin(r[a])
        g[k] = [c * u for u in g[a]]

    return step


def _j_norm(node, k, *args):
    def step(r, g, k=k, args=args, node=node):
        v = r[k] = _norm(node, r, args)
        if v == 0.0:
            raise DomainViolation(f"norm not differentiable at zero in {node}")
        total = [0.0] * len(g[args[0]])
        for i in args:
            c = r[i] / v
            total = [t + c * u for t, u in zip(total, g[i])]
        g[k] = total

    return step


_VALUE_STEPS = {
    Add: _v_add, Sub: _v_sub, Mul: _v_mul, Div: _v_div, Pow: _v_pow, Sqrt: _v_sqrt,
    Exp: _v_exp, Log: _v_log, Sin: _v_sin, Cos: _v_cos, Norm: _v_norm,
}
_JET_STEPS = {
    Add: _j_add, Sub: _j_sub, Mul: _j_mul, Div: _j_div, Pow: _j_pow, Sqrt: _j_sqrt,
    Exp: _j_exp, Log: _j_log, Sin: _j_sin, Cos: _j_cos, Norm: _j_norm,
}
_BINARY = frozenset((Add, Sub, Mul, Div))
_UNARY = frozenset((Sqrt, Exp, Log, Sin, Cos))


def _out_of_range(node: Var, n: int):
    def step(*registers, node=node, n=n):
        raise ArityMismatch(f"variable x{node.index + 1} out of range for input dimension {n}")

    return step


def _record(node, n: int, tail: list, steps: list, make: dict, seen: dict) -> int:
    """The register of ``node``.  Appends to ``steps`` the steps of the
    nodes under it that are not in ``seen``, children first, allocating
    their registers in ``tail``."""
    cls = type(node)
    if cls is Var and node.index < n:
        return node.index  # callers check this case inline, to save a call
    key = id(node)
    slot = seen.get(key)
    if slot is not None:
        return slot
    if cls is Const:
        slot = n + len(tail)
        tail.append(node.value)
    else:
        if cls in _BINARY:
            a, b = node.left, node.right
            a = a.index if type(a) is Var and a.index < n else _record(a, n, tail, steps, make, seen)
            b = b.index if type(b) is Var and b.index < n else _record(b, n, tail, steps, make, seen)
            slot = n + len(tail)
            step = make[cls](node, slot, a, b)
        elif cls in _UNARY or cls is Pow:
            a = node.base if cls is Pow else node.arg
            a = a.index if type(a) is Var and a.index < n else _record(a, n, tail, steps, make, seen)
            slot = n + len(tail)
            step = make[cls](node, slot, a)
        elif cls is Norm:
            args = [_record(e, n, tail, steps, make, seen) for e in node.args]
            slot = n + len(tail)
            step = make[cls](node, slot, *args)
        elif cls is Var:
            slot = n + len(tail)
            step = _out_of_range(node, n)
        else:
            raise TypeError(f"unknown expression node {node!r}")
        tail.append(0.0)
        steps.append(step)
    seen[key] = slot
    return slot


def _guard_step(guard, slot: int, n: int):
    def step(r, slot=slot, test=_GUARD_TESTS[guard.kind], guard=guard):
        if not test(r[slot], 0.0):
            raise DomainViolation(f"guard {guard.kind}({guard.expr}) fails at {r[:n]}")

    return step


def _picker(slots: list):
    """A function of the registers that returns those in ``slots``, in
    order, as a tuple."""
    if len(slots) == 1:
        return lambda r, slot=slots[0]: (r[slot],)
    return operator.itemgetter(*slots) if slots else lambda r: ()


def _value_tape(n: int, guards: tuple, body: tuple):
    """run(coordinates) -> the body's values, after checking every guard."""
    tail: list = []
    steps: list = []
    seen: dict = {}
    for guard in guards:
        slot = _record(guard.expr, n, tail, steps, _VALUE_STEPS, seen)
        steps.append(_guard_step(guard, slot, n))
    pick = _picker([_record(e, n, tail, steps, _VALUE_STEPS, seen) for e in body])

    def run(coords: list, tail=tail, steps=steps, pick=pick):
        r = coords + tail
        for step in steps:
            step(r)
        return pick(r)

    return run


def _jet_tape(n: int, guards: tuple, body: tuple):
    """run(coordinates) -> (values, gradients) of the body, after checking
    every guard; guards are evaluated without derivatives."""
    tail: list = []
    checks: list = []
    steps: list = []
    seen: dict = {}
    for guard in guards:
        slot = _record(guard.expr, n, tail, checks, _VALUE_STEPS, seen)
        checks.append(_guard_step(guard, slot, n))
    seen = {}  # a body node that is also in a guard needs a jet step of its own
    pick = _picker([_record(e, n, tail, steps, _JET_STEPS, seen) for e in body])
    # Var(i) has the unit gradient e_i, a constant the zero gradient; every
    # run shares these rows, so they are tuples.
    gradients = [tuple(float(i == j) for j in range(n)) for i in range(n)] + [(0.0,) * n] * len(tail)

    def run(coords: list, tail=tail, checks=checks, steps=steps, gradients=gradients, pick=pick):
        r = coords + tail
        for step in checks:
            step(r)
        g = gradients.copy()
        for step in steps:
            step(r, g)
        return pick(r), pick(g)

    return run


def substitute(node: Expr, replacements: tuple) -> Expr:
    """Replace every Var(i) by replacements[i]; used for composition."""
    cache: dict = {}

    def go(e: Expr) -> Expr:
        key = id(e)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if isinstance(e, Const):
            out = e
        elif isinstance(e, Var):
            if e.index >= len(replacements):
                raise ArityMismatch(
                    f"variable x{e.index + 1} out of range in substitution"
                )
            out = replacements[e.index]
        elif isinstance(e, (Add, Sub, Mul, Div)):
            out = type(e)(go(e.left), go(e.right))
        elif isinstance(e, Pow):
            out = Pow(go(e.base), e.exponent)
        elif isinstance(e, (Sqrt, Exp, Log, Sin, Cos)):
            out = type(e)(go(e.arg))
        elif isinstance(e, Norm):
            out = Norm(tuple(go(a) for a in e.args))
        else:
            raise TypeError(f"unknown expression node {e!r}")
        cache[key] = out
        return out

    return go(node)


# Guard kinds: the guard expression must be respectively nonzero, strictly
# positive, or nonnegative at a point for the point to be in the domain.
GUARD_KINDS = ("nonzero", "positive", "nonnegative")
_GUARD_TESTS = dict(zip(GUARD_KINDS, (operator.ne, operator.gt, operator.ge)))


class Guard(Record, frozen=True):
    def __init__(self, expr: Expr, kind: str):  # kind: one of GUARD_KINDS
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "kind", kind)
        if kind not in _GUARD_TESTS:
            raise UnknownGuardKind(f"unknown guard kind {kind!r}; expected one of {GUARD_KINDS}")

    def holds(self, coords: list) -> bool:
        """Whether the guard holds at a point given as a list of floats."""
        n = len(coords)
        run = self._tapes.get(n)
        if run is None:
            run = self._tapes[n] = _value_tape(n, (), (self.expr,))
        (v,) = run(coords)
        return _GUARD_TESTS[self.kind](v, 0.0)

    @cached_property
    def _tapes(self) -> dict:
        """The guard's value tape for each input dimension it was used at."""
        return {}


class Jet(Record, frozen=True):
    """Value and Jacobian of a smooth map at a point."""

    def __init__(self, value: tuple, jacobian: tuple):  # m floats; m rows of n floats
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "jacobian", jacobian)


class SmoothMapExpr(Record, frozen=True):
    """A smooth map R^n -> R^m as a tuple of scalar expression trees.

    ``body`` is a tuple of output_dim Exprs, ``guards`` a tuple of Guards."""

    def __init__(self, input_dim: int, output_dim: int, body: tuple, guards: tuple = ()):
        object.__setattr__(self, "input_dim", input_dim)
        object.__setattr__(self, "output_dim", output_dim)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "guards", guards)
        if len(body) != output_dim:
            raise ArityMismatch(f"{len(body)} components for declared output_dim {output_dim}")

    def in_domain(self, point) -> bool:
        """Whether every guard holds at the point.  A point with a
        non-finite coordinate, or at which a guard cannot be evaluated,
        is outside the domain."""
        coords = _check_coords(self, point)
        if not all(map(math.isfinite, coords)):
            return False
        try:
            return all(g.holds(coords) for g in self.guards)
        except DomainViolation:
            return False

    def __call__(self, point) -> tuple:
        return eval_map(self, point)

    @cached_property
    def value_tape(self):
        """run(coordinates) -> the body's values, for a list of
        ``input_dim`` floats that the caller has checked.  It raises what
        ``eval_map`` raises at that point, except where a value is not
        finite, which it returns."""
        return _value_tape(self.input_dim, self.guards, self.body)

    @cached_property
    def _jets(self):
        return _jet_tape(self.input_dim, self.guards, self.body)

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.body) + ")"


def as_floats(point) -> list:
    """A flat sequence of numbers, or a 1-D array, as a new list of Python
    floats; ArityMismatch for a scalar or a nested sequence."""
    try:
        return list(map(float, point.tolist() if hasattr(point, "tolist") else point))
    except TypeError:
        raise ArityMismatch(f"{point!r} is not a flat sequence of numbers") from None


def _check_coords(m: SmoothMapExpr, point) -> list:
    coords = as_floats(point)
    if len(coords) != m.input_dim:
        raise ArityMismatch(
            f"point of length {len(coords)} for map with input_dim {m.input_dim}"
        )
    return coords


def _check_points(m: SmoothMapExpr, points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != m.input_dim:
        raise ArityMismatch(
            f"points of shape {points.shape} for map with input_dim {m.input_dim}"
        )
    return points


def _not_finite(m: SmoothMapExpr, coords: list, vals, rows) -> DomainViolation:
    """The error for the first component whose value, or one of whose
    partial derivatives, is not finite."""
    for e, v in zip(m.body, vals):
        if not math.isfinite(v):
            return DomainViolation(f"value of {e} is not finite at {coords}")
    for e, row in zip(m.body, rows):
        if not all(map(math.isfinite, row)):
            return DomainViolation(f"derivative of {e} is not finite at {coords}")


def eval_map(m: SmoothMapExpr, point) -> tuple:
    """The map's values, as a tuple of ``output_dim`` floats, at a flat
    sequence of ``input_dim`` numbers; raises DomainViolation outside the
    domain, which includes the points where a component is not finite."""
    coords = _check_coords(m, point)
    vals = m.value_tape(coords)
    if not all(map(math.isfinite, vals)):
        raise _not_finite(m, coords, vals, ())
    return vals


def eval_batch(m: SmoothMapExpr, points) -> np.ndarray:
    """Evaluate the map at each row of an (N, n) array of points; row i
    of the (N, m) result is ``eval_map(m, points[i])``, bit for bit.
    Raises what ``eval_map`` raises at the first row where it raises,
    and a DomainViolation names that row."""
    rows = _check_points(m, points).tolist()
    run = m.value_tape
    vals: list = []
    append = vals.append
    try:
        for coords in rows:
            append(run(coords))
    except DomainViolation as exc:
        # A row before this one may already hold a non-finite value.
        raise _first_not_finite(m, rows, vals) or DomainViolation(f"row {len(vals)}: {exc}") from None
    out = np.array(vals, dtype=float).reshape(len(rows), m.output_dim)
    if not np.isfinite(out).all():
        raise _first_not_finite(m, rows, vals)
    return out


def _first_not_finite(m: SmoothMapExpr, rows: list, vals: list) -> DomainViolation | None:
    """The error for the first of the evaluated rows with a non-finite value."""
    for i, v in enumerate(vals):
        if not all(map(math.isfinite, v)):
            return DomainViolation(f"row {i}: {_not_finite(m, rows[i], v, ())}")
    return None


def jet_eval(m: SmoothMapExpr, point) -> Jet:
    """Forward-mode value + Jacobian at a flat sequence of ``input_dim``
    numbers; exact derivatives of the tree.  The value is a tuple of
    ``output_dim`` floats, the Jacobian a tuple of as many rows, each a
    tuple of ``input_dim`` floats.  Raises DomainViolation outside the
    domain and where a value or a partial derivative is not finite."""
    coords = _check_coords(m, point)
    vals, rows = m._jets(coords)
    if not (all(map(math.isfinite, vals)) and all(map(math.isfinite, chain.from_iterable(rows)))):
        raise _not_finite(m, coords, vals, rows)
    return Jet(vals, tuple(map(tuple, rows)))


def _fma_norm(coords: list) -> float:
    """The euclidean norm as the square root of s = fl(s + c*c) over the
    coordinates, one rounding per fused multiply-add: the bits of
    ``numpy.linalg.norm`` of a short vector, whose BLAS dot product
    accumulates that way."""
    if not all(map(math.isfinite, coords)):
        return math.sqrt(sum(c * c for c in coords))
    s = 0.0
    for c in coords:
        # Both denominators are powers of two, and int / int rounds correctly.
        num, den = s.as_integer_ratio()
        c_num, c_den = c.as_integer_ratio()
        c_den *= c_den
        try:
            s = (num * c_den + c_num * c_num * den) / (den * c_den)
        except OverflowError:
            return math.inf
    return math.sqrt(s)


def finite_diff_jacobian(m: SmoothMapExpr, point) -> list:
    """Central-difference Jacobian estimate, as ``output_dim`` rows of
    ``input_dim`` floats, with step 1e-6 (1 + |point|); O(step^2)
    accurate."""
    coords = _check_coords(m, point)
    step = 1e-6 * (1.0 + _fma_norm(coords))
    jac = [[0.0] * m.input_dim for _ in range(m.output_dim)]
    for j in range(m.input_dim):
        hi = coords.copy()
        lo = coords.copy()
        hi[j] += step
        lo[j] -= step
        for row, a, b in zip(jac, eval_map(m, hi), eval_map(m, lo)):
            row[j] = (a - b) / (2.0 * step)
    return jac


def compose(g: SmoothMapExpr, f: SmoothMapExpr) -> SmoothMapExpr:
    """The composite g o f as a single expression tree."""
    if f.output_dim != g.input_dim:
        raise ArityMismatch(
            f"cannot compose: inner output_dim {f.output_dim} != outer input_dim {g.input_dim}"
        )
    body = tuple(substitute(e, f.body) for e in g.body)
    guards = f.guards + tuple(
        Guard(substitute(gd.expr, f.body), gd.kind) for gd in g.guards
    )
    return SmoothMapExpr(f.input_dim, g.output_dim, body, guards)


def identity_map(n: int) -> SmoothMapExpr:
    return SmoothMapExpr(n, n, tuple(Var(i) for i in range(n)))


def linear_map(matrix) -> SmoothMapExpr:
    """The map x -> A x as an expression tree."""
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    body = []
    for i in range(m):
        e: Expr = Const(0.0)
        for j in range(n):
            if a[i, j] != 0.0:
                e = e + Const(a[i, j]) * Var(j)
        body.append(e)
    return SmoothMapExpr(n, m, tuple(body))


def from_components(n: int, components, guards=()) -> SmoothMapExpr:
    comps = tuple(as_expr(c) for c in components)
    return SmoothMapExpr(n, len(comps), comps, tuple(guards))
