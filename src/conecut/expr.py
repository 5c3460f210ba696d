"""Immutable expression trees with forward-mode automatic differentiation.

The scalar expression nodes (``Expr`` and ``Const`` … ``Norm``) are
defined in ``conecut.nodes``, so that the exact code, which only builds
and reads trees, runs without this module.  A ``SmoothMapExpr`` bundles
a tuple of scalar expressions into a map R^n -> R^m together with
explicit domain guards.  Evaluation never returns NaN or infinity: division by zero,
log/sqrt of a bad argument, a failing guard, an overflow, and a value
or partial derivative that is not finite all raise ``DomainViolation``.
``in_domain`` is False at every point with a non-finite coordinate.

A map is compiled on first use into two tapes cached on it: Python
functions whose straight-line source this module writes, one statement
or short block per distinct node (shared subtrees once), children
first, and compiles once (see the comment block at ``# -- tapes``).
Each tape checks the guards, computes the body, and ends with one test
that its results are finite, so a tape raises everything evaluation
raises and is the one place that decides it.  ``eval_map`` checks a
point and runs the value tape, which returns the values as a tuple of
floats.  ``jet_eval`` checks a point and runs the jet tape, which
computes each body node's value together with its n partial
derivatives (forward mode), each in a local of its own, and returns the
values and the Jacobian rows as tuples of floats.  A node's value is the
same float arithmetic on both tapes, so the value component of
``jet_eval`` agrees exactly with ``eval_map``.  A guard compiles a tape
of its own check for ``in_domain``.  A tape's source is written by a
walk of the tree with ``conecut.nodes.walk``, whose stack is its own, so
a tree deeper than Python's recursion limit compiles and evaluates.
``compile_source`` compiles all generated code, the tapes and
``conecut.euler``'s RK4 steppers.  Every function takes any flat
sequence of numbers and returns plain floats; ``dot`` is the package's
one inner product, correctly rounded.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, partial

from .errors import ArityMismatch, DomainViolation, UnknownGuardKind
from .nodes import Add, Const, Cos, Div, Exp, Expr, Log, Mul, Norm, Pow, Sin, Sqrt, Sub, Var, as_expr, walk
from .record import Record


# -- tapes ------------------------------------------------------------------
# A tape is a function compiled from straight-line Python, once per map.
# It unpacks the n input coordinates into the locals x0 ... x{n-1}; then
# each distinct node (by id) of its trees, children first, gets one
# statement, or a short block with the node's domain check, that assigns
# the node's value to a local v<k>.  A jet tape also assigns the node's n
# partial derivatives to the locals v<k>_0 ... v<k>_{n-1}.  The statements
# do the tree's float operations in the order the dual-number rules give
# them, with math functions on floats, so every value and partial is
# exactly the one the tree defines: nothing is folded or simplified, and
# x*0.0 stays a multiply.
#
# The last statement before the return tests that every result is
# finite, and raises the error that names the first one that is not.
#
# The source holds only generated names and operators.  Constants,
# exponents, nodes (for the error messages) and guards, like the math
# functions and the numbers the rules use, are bound by name as default
# arguments of the compiled function, so each is a fast local and no
# value is ever printed into the text.


def _over_zero(x: float) -> float:
    """x / +0.0 as IEEE 754 defines it, where Python raises instead."""
    return math.copysign(math.inf, x) if x == x and x != 0.0 else math.nan


def _domain_error(what: str):
    return lambda node: DomainViolation(f"{what} in {node}")


# The names any tape may use besides its own constants, nodes and guards.
_RUNTIME = {
    "zero": 0.0, "one": 1.0, "two": 2.0, "float": float, "sqrt": math.sqrt, "exp": math.exp,
    "log": math.log, "sin": math.sin, "cos": math.cos, "fsum": math.fsum, "isfinite": math.isfinite,
    "over_zero": _over_zero,
    "div0": _domain_error("division by zero"), "pow0": _domain_error("zero base with negative power"),
    "overflow": _domain_error("overflow"), "non_finite": _domain_error("non-finite argument"),
    "sqrt_neg": _domain_error("sqrt of nonpositive argument"),
    "log_neg": _domain_error("log of nonpositive argument"),
    "norm0": _domain_error("norm not differentiable at zero"),
    "guard_fails": lambda guard, coords: DomainViolation(f"guard {guard.kind}({guard.expr}) fails at {coords}"),
}

# The statements of a node's value, over {v} (its local), {a} and {b} (its
# children's), {N} (the node) and {e} (its exponent; {e1} is e - 1).  A
# Norm's {a} is the list of its arguments' squares.
_OVERFLOW = "except OverflowError: raise overflow({N}) from None"
_VALUE = {
    Add: ("{v} = {a} + {b}",),
    Sub: ("{v} = {a} - {b}",),
    Mul: ("{v} = {a} * {b}",),
    Div: ("if {b} == zero: raise div0({N})", "{v} = {a} / {b}"),
    Pow: ("try: {v} = float({a} ** {e})", _OVERFLOW),
    Sqrt: ("if {a} < zero: raise sqrt_neg({N})", "{v} = sqrt({a})"),
    Exp: ("try: {v} = exp({a})", _OVERFLOW),
    Log: ("if {a} <= zero: raise log_neg({N})", "{v} = log({a})"),
    Sin: ("try: {v} = sin({a})", "except ValueError: raise non_finite({N}) from None"),
    Cos: ("try: {v} = cos({a})", "except ValueError: raise non_finite({N}) from None"),
    Norm: ("try: {v} = sqrt(fsum(({a})))", _OVERFLOW),
}
_JET_VALUE = {**_VALUE, Sqrt: ("if {a} <= zero: raise sqrt_neg({N})", "{v} = sqrt({a})")}
# A jet node's statements after its value's, then partial j of it over
# {da} and {db} (partial j of its children) and the scratch local w.
_JET = {
    Add: ((), "{da} + {db}"),
    Sub: ((), "{da} - {db}"),
    Mul: ((), "{da} * {b} + {a} * {db}"),
    Div: (("w = {b} * {b}",), "({da} * {b} - {a} * {db}) / w"),
    Pow: (("try: w = {e} * ({a} ** {e1})", _OVERFLOW), "w * {da}"),
    Sqrt: (("w = two * {v}",), "{da} / w"),
    Exp: ((), "{v} * {da}"),
    Log: ((), "{da} / {a}"),
    Sin: (("w = cos({a})",), "w * {da}"),
    Cos: (("w = -sin({a})",), "w * {da}"),
}


def compile_source(params: str, lines: list, bound: dict):
    """The function ``run(params)`` whose body is ``lines``.  Each name of
    ``bound`` that the lines use is bound to its object as a default
    argument."""
    body = "\n    ".join(lines)
    used = frozenset(re.findall(r"\w+", body))
    names = [name for name in bound if name in used]
    source = f"def run({params}, {''.join(f'{k}={k}, ' for k in names)}):\n    {body}\n"
    namespace = {name: bound[name] for name in names}
    exec(compile(source, "<conecut tape>", "exec"), namespace)
    return namespace["run"]


def _bind(bound: dict, prefix: str, obj) -> str:
    name = f"{prefix}{len(bound)}"
    bound[name] = obj
    return name


def _emit(code: list, bound: dict, node, args: list, n: int, jet: bool) -> tuple:
    """Append the statements of ``node``, whose children's locals are
    ``args``; return its own."""
    cls = type(node)
    zeros = ("zero",) * n
    if cls is Const:
        return _bind(bound, "c", node.value), zeros
    if cls is Var:
        i = node.index
        if i < n:
            return f"x{i}", tuple("one" if j == i else "zero" for j in range(n))
        message = f"variable x{i + 1} out of range for input dimension {n}"
        code.append(f"raise {_bind(bound, 'o', lambda: ArityMismatch(message))}()")
        return "zero", zeros
    v = f"v{len(code)}"
    (a, da), (b, db) = (args[0], args[-1]) if args else (("", ()),) * 2  # Norm(()) has none
    names = {"v": v, "a": a, "b": b, "N": _bind(bound, "n", node) if cls not in (Add, Sub, Mul) else ""}
    if cls is Pow:
        names["e"], names["e1"] = _bind(bound, "e", node.exponent), _bind(bound, "e", node.exponent - 1)
        if node.exponent < 0:
            code.append("if {a} == zero: raise pow0({N})".format(**names))
    elif cls is Norm:
        names["a"] = "".join(f"{x} * {x}, " for x, _ in args)
    code += [line.format(**names) for line in (_JET_VALUE if jet else _VALUE)[cls]]
    if not jet:
        return v, None
    partials = tuple(f"{v}_{j}" for j in range(n))
    if cls is Norm:
        code.append(f"if {v} == zero: raise norm0({names['N']})")
        for k, (x, dx) in enumerate(args):
            code.append(f"w = {x} / {v}")
            code += [f"{p} = {'zero' if k == 0 else p} + w * {u}" for p, u in zip(partials, dx)]
        return v, partials
    if cls is Pow and node.exponent == 0:
        return v, zeros
    after, partial = _JET[cls]
    code += [line.format(**names) for line in after]
    rows = [f"{p} = {partial.format(da=u, db=t, **names)}" for p, u, t in zip(partials, da, db)]
    if cls is Div and rows:
        # A partial over a zero b*b is x / +0.0, which Python refuses.
        code.append("if w == zero: " + "; ".join(
            f"{p} = over_zero({u} * {b} - {a} * {t})" for p, u, t in zip(partials, da, db)))
        code.append("else: " + "; ".join(rows))
    else:
        code += rows
    return v, partials


def _not_finite(body: tuple, coords, vals: tuple, rows: tuple) -> DomainViolation:
    """The error for the first component whose value, or one of whose
    partial derivatives, is not finite."""
    for e, v in zip(body, vals):
        if not math.isfinite(v):
            return DomainViolation(f"value of {e} is not finite at {coords}")
    for e, row in zip(body, rows):
        if not all(map(math.isfinite, row)):
            return DomainViolation(f"derivative of {e} is not finite at {coords}")


def _tape(n: int, guards: tuple, body: tuple, jet: bool):
    code = [f"[{''.join(f'x{i}, ' for i in range(n))}] = coords"]
    bound = {**_RUNTIME, "not_finite": partial(_not_finite, body)}
    seen: dict = {}
    for guard in guards:
        v, _ = walk(guard.expr, partial(_emit, code, bound, n=n, jet=False), seen)
        g = _bind(bound, "g", guard)
        code.append(f"if not {v} {_GUARD_OPS[guard.kind]} zero: raise guard_fails({g}, coords)")
    if jet:
        seen = {}  # a body node that is also in a guard needs a jet block of its own
    out = [walk(e, partial(_emit, code, bound, n=n, jet=jet), seen) for e in body]
    values = "".join(f"{v}, " for v, _ in out)
    results = [v for v, _ in out]
    rows = ""
    if jet:
        rows = "".join(f"({''.join(f'{p}, ' for p in partials)}), " for _, partials in out)
        results += [p for _, partials in out for p in partials]
    tests = [f"isfinite({v})" for v in dict.fromkeys(results) if v not in ("zero", "one")]
    if tests:
        code.append(f"if not ({' and '.join(tests)}): raise not_finite(coords, ({values}), ({rows}))")
    code.append(f"return ({values}), ({rows})" if jet else f"return ({values})")
    return compile_source("coords", code, bound)


def _value_tape(n: int, guards: tuple, body: tuple):
    """run(coordinates) -> the body's values, after checking every guard;
    DomainViolation where one is not finite."""
    return _tape(n, guards, body, False)


def _jet_tape(n: int, guards: tuple, body: tuple):
    """run(coordinates) -> (values, gradients) of the body, after checking
    every guard; guards are evaluated without derivatives.  DomainViolation
    where a value or a partial derivative is not finite."""
    return _tape(n, guards, body, True)


def substitute(node: Expr, replacements: tuple) -> Expr:
    """Replace every Var(i) by replacements[i]; used for composition."""

    def visit(e: Expr, args: list) -> Expr:
        cls = type(e)
        if cls is Var:
            if e.index >= len(replacements):
                raise ArityMismatch(f"variable x{e.index + 1} out of range in substitution")
            return replacements[e.index]
        if cls is Const:
            return e
        if cls is Pow:
            return Pow(args[0], e.exponent)
        return Norm(tuple(args)) if cls is Norm else cls(*args)

    return walk(node, visit, {})


# Guard kinds: the guard expression must be respectively nonzero, strictly
# positive, or nonnegative at a point for the point to be in the domain.
GUARD_KINDS = ("nonzero", "positive", "nonnegative")
_GUARD_OPS = dict(zip(GUARD_KINDS, ("!=", ">", ">=")))


class Guard(Record, frozen=True):
    def __init__(self, expr: Expr, kind: str):  # kind: one of GUARD_KINDS
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "kind", kind)
        if kind not in _GUARD_OPS:
            raise UnknownGuardKind(f"unknown guard kind {kind!r}; expected one of {GUARD_KINDS}")

    def holds(self, coords: list) -> bool:
        """Whether the guard holds at a point given as a list of floats;
        False also where its expression cannot be evaluated."""
        n = len(coords)
        run = self._tapes.get(n)
        if run is None:
            run = self._tapes[n] = _tape(n, (self,), (), False)
        try:
            run(coords)
        except DomainViolation:
            return False
        return True

    @cached_property
    def _tapes(self) -> dict:
        """The tape of the guard's own check for each input dimension it
        was used at."""
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
        return all(map(math.isfinite, coords)) and all(g.holds(coords) for g in self.guards)

    def __call__(self, point) -> tuple:
        return eval_map(self, point)

    @cached_property
    def value_tape(self):
        """run(coordinates) -> the body's values, for a sequence of
        ``input_dim`` floats that the caller has checked.  It raises what
        ``eval_map`` raises at that point."""
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


def max_abs_diff(a, b) -> float:
    """max |a_i - b_i| over two flat sequences of equal length, 0.0 for
    empty ones; ValueError for unequal lengths.  A difference that is not
    a number gives inf, where a bare ``max`` would drop it."""
    worst = 0.0
    for u, v in zip(a, b, strict=True):
        d = abs(u - v)
        if not d <= worst:
            worst = d if d == d else math.inf
    return worst


def dot(a, b) -> float:
    """sum a_i * b_i over two flat sequences of equal length, correctly
    rounded: the exact sum of the exact products, rounded once to the
    nearest float (Ogita, Rump & Oishi, "Accurate sum and dot product",
    SIAM J. Sci. Comput. 26(6), 2005, take the same target).  Entries may
    be floats, ints or Fractions, so the value does not depend on a BLAS
    kernel or on the order of the terms.  An exact zero is -0.0 where
    every product is -0.0, as IEEE sums give it; a sum past the float
    range is an infinity.  With a non-finite entry the products are
    summed in floats.  ValueError for unequal lengths."""
    if len(a) != len(b):
        raise ValueError(f"dot of sequences of lengths {len(a)} and {len(b)}")
    if len(a) == 1 and type(a[0]) is float and type(b[0]) is float:
        return a[0] * b[0]  # one product, rounded once
    num, den = 0, 1
    try:
        for u, v in zip(a, b):
            un, ud = u.as_integer_ratio()
            vn, vd = v.as_integer_ratio()
            d = ud * vd
            if d == den:
                num += un * vn
            else:
                num, den = num * d + un * vn * den, den * d
    except (OverflowError, ValueError):  # an infinity or a NaN
        return sum(u * v for u, v in zip(a, b))
    if num == 0:
        negative = len(a) > 0 and all(math.copysign(1.0, u * v) < 0 for u, v in zip(a, b))
        return -0.0 if negative else 0.0
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _check_coords(m: SmoothMapExpr, point) -> list:
    coords = as_floats(point)
    if len(coords) != m.input_dim:
        raise ArityMismatch(
            f"point of length {len(coords)} for map with input_dim {m.input_dim}"
        )
    return coords


def eval_map(m: SmoothMapExpr, point) -> tuple:
    """The map's values, as a tuple of ``output_dim`` floats, at a flat
    sequence of ``input_dim`` numbers; raises DomainViolation outside the
    domain, which includes the points where a component is not finite."""
    return m.value_tape(_check_coords(m, point))


def jet_eval(m: SmoothMapExpr, point) -> Jet:
    """Forward-mode value + Jacobian at a flat sequence of ``input_dim``
    numbers; exact derivatives of the tree.  The value is a tuple of
    ``output_dim`` floats, the Jacobian a tuple of as many rows, each a
    tuple of ``input_dim`` floats.  Raises DomainViolation outside the
    domain and where a value or a partial derivative is not finite."""
    return Jet(*m._jets(_check_coords(m, point)))


def finite_diff_jacobian(m: SmoothMapExpr, point) -> list:
    """Central-difference Jacobian estimate, as ``output_dim`` rows of
    ``input_dim`` floats, with step 1e-6 (1 + |point|); O(step^2)
    accurate."""
    coords = _check_coords(m, point)
    step = 1e-6 * (1.0 + math.hypot(*coords))
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
    """The map x -> A x as an expression tree, for A given as a sequence of
    rows of numbers; ArityMismatch for rows of unequal lengths."""
    rows = [as_floats(row) for row in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ArityMismatch("matrix rows of unequal lengths")
    body = []
    for row in rows:
        e: Expr = Const(0.0)
        for j, c in enumerate(row):
            if c != 0.0:
                e = e + Const(c) * Var(j)
        body.append(e)
    return SmoothMapExpr(n, len(rows), tuple(body))


def from_components(n: int, components, guards=()) -> SmoothMapExpr:
    comps = tuple(as_expr(c) for c in components)
    return SmoothMapExpr(n, len(comps), comps, tuple(guards))
