"""Immutable expression trees with forward-mode automatic differentiation.

An ``Expr`` is a closed scalar expression over the primitives
{constant, coordinate projection, +, -, *, /, integer power, sqrt, exp,
log, sin, cos, euclidean norm}.  A ``SmoothMapExpr`` bundles a tuple of
scalar expressions into a map R^n -> R^m together with explicit domain
guards.  Evaluation never propagates NaN: any division by zero, log/sqrt
of a bad argument, or failing guard raises ``DomainViolation``.

Forward-mode AD evaluates each node on (value, gradient) pairs, so the
value component of ``jet_eval`` agrees exactly with plain evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DomainViolation


class Expr:
    """Base class for scalar expression nodes.  Immutable after construction."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        return Pow(self, k)

    def __neg__(self):
        return Sub(Const(0.0), self)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot coerce {value!r} to an expression")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based input coordinate

    def __str__(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} - {self.right})"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} / {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __str__(self):
        return f"({self.base})^{self.exponent}"


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr

    def __str__(self):
        return f"sqrt({self.arg})"


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr

    def __str__(self):
        return f"exp({self.arg})"


@dataclass(frozen=True)
class Log(Expr):
    arg: Expr

    def __str__(self):
        return f"log({self.arg})"


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr

    def __str__(self):
        return f"sin({self.arg})"


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr

    def __str__(self):
        return f"cos({self.arg})"


@dataclass(frozen=True)
class Norm(Expr):
    args: tuple  # tuple[Expr, ...]

    def __str__(self):
        return "norm(" + ", ".join(str(a) for a in self.args) + ")"


def _ev(node: Expr, point: np.ndarray, grad: bool, cache: dict):
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


@dataclass(frozen=True)
class Guard:
    expr: Expr
    kind: str  # one of GUARD_KINDS

    def holds(self, point: np.ndarray) -> bool:
        v, _ = _ev(self.expr, point, False, {})
        if self.kind == "nonzero":
            return v != 0.0
        if self.kind == "positive":
            return v > 0.0
        if self.kind == "nonnegative":
            return v >= 0.0
        raise ValueError(f"unknown guard kind {self.kind!r}")


@dataclass(frozen=True)
class Jet:
    """Value and Jacobian of a smooth map at a point."""

    value: np.ndarray  # shape (m,)
    jacobian: np.ndarray  # shape (m, n)


@dataclass(frozen=True)
class SmoothMapExpr:
    """A smooth map R^n -> R^m as a tuple of scalar expression trees."""

    input_dim: int
    output_dim: int
    body: tuple  # tuple[Expr, ...], length output_dim
    guards: tuple = ()  # tuple[Guard, ...]

    def __post_init__(self):
        if len(self.body) != self.output_dim:
            raise ArityMismatch(
                f"{len(self.body)} components for declared output_dim {self.output_dim}"
            )

    def in_domain(self, point) -> bool:
        point = _check_point(self, point)
        try:
            return all(g.holds(point) for g in self.guards)
        except DomainViolation:
            return False

    def __call__(self, point) -> np.ndarray:
        return eval_map(self, point)

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.body) + ")"


def _check_point(m: SmoothMapExpr, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (m.input_dim,):
        raise ArityMismatch(
            f"point of shape {point.shape} for map with input_dim {m.input_dim}"
        )
    return point


def _check_guards(m: SmoothMapExpr, point: np.ndarray):
    for g in m.guards:
        if not g.holds(point):
            raise DomainViolation(f"guard {g.kind}({g.expr}) fails at {point.tolist()}")


def eval_map(m: SmoothMapExpr, point) -> np.ndarray:
    """Evaluate the map; raises DomainViolation outside the domain."""
    point = _check_point(m, point)
    _check_guards(m, point)
    cache: dict = {}
    return np.array([_ev(e, point, False, cache)[0] for e in m.body])


def jet_eval(m: SmoothMapExpr, point) -> Jet:
    """Forward-mode value + Jacobian; exact derivatives of the tree."""
    point = _check_point(m, point)
    _check_guards(m, point)
    cache: dict = {}
    vals = np.empty(m.output_dim)
    jac = np.empty((m.output_dim, m.input_dim))
    for i, e in enumerate(m.body):
        v, g = _ev(e, point, True, cache)
        vals[i] = v
        jac[i] = g
    return Jet(vals, jac)


def finite_diff_jacobian(m: SmoothMapExpr, point) -> np.ndarray:
    """Central-difference Jacobian estimate with step 1e-6 (1 + |point|);
    O(step^2) accurate."""
    point = _check_point(m, point)
    step = 1e-6 * (1.0 + float(np.linalg.norm(point)))
    jac = np.empty((m.output_dim, m.input_dim))
    for j in range(m.input_dim):
        hi = point.copy()
        lo = point.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (eval_map(m, hi) - eval_map(m, lo)) / (2.0 * step)
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
