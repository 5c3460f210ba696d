"""Scalar expression nodes.

An ``Expr`` is an immutable node of a closed scalar expression over the
primitives {constant, coordinate projection, +, -, *, /, integer power,
sqrt, exp, log, sin, cos, euclidean norm}; the arithmetic operators
build new nodes, and ``as_expr`` reads a number as a constant.  The
nodes only describe an expression: ``conecut.expr`` compiles them into
tapes and evaluates them, ``conecut.parse`` reads them from text, and
``conecut.ring`` converts polynomial ones to exact form.

Every pass over a tree is a call of ``walk``: its own stack lets a tree
be deeper than Python's recursion limit, and it visits each distinct
node once, so shared subtrees cost their nodes, not their paths.  Text
is built by one walk from the format strings of ``_TEXT``, and the
record repr ``Name(field=value, ...)`` by another.  A node hashes its
field tuple once, at construction, in O(1).
"""

from __future__ import annotations

from .record import Record


class Expr:
    """Base class for scalar expression nodes.  Immutable after construction."""

    __slots__ = ()

    def _store(self, *fields):
        """Set the fields in the order of ``__init__``, and their hash."""
        for name, value in zip(self._fields, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Record equality: equal hashes, then one number for both roots from
        a table of shapes (class, ``_DATA`` fields, operands' numbers)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        shapes, done = {}, {}

        def number(node, args):
            shape = (type(node), *[getattr(node, name) for name in _DATA.get(type(node), ())], *args)
            return shapes.setdefault(shape, len(shapes))

        return self._hash == other._hash and walk(self, number, done) == walk(other, number, done)

    def __str__(self):
        return walk(self, _text, {})

    def __repr__(self):
        return walk(self, _repr, {})

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
        if isinstance(k, bool) or not isinstance(k, int):
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


class Const(Expr, Record, frozen=True):
    def __init__(self, value: float):
        self._store(value)


class Var(Expr, Record, frozen=True):
    def __init__(self, index: int):  # 0-based input coordinate
        self._store(index)


class Add(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        self._store(left, right)


class Sub(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        self._store(left, right)


class Mul(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        self._store(left, right)


class Div(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        self._store(left, right)


class Pow(Expr, Record, frozen=True):
    def __init__(self, base: Expr, exponent: int):
        self._store(base, exponent)


class Sqrt(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        self._store(arg)


class Exp(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        self._store(arg)


class Log(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        self._store(arg)


class Sin(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        self._store(arg)


class Cos(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        self._store(arg)


class Norm(Expr, Record, frozen=True):
    def __init__(self, args: tuple):  # tuple[Expr, ...]
        self._store(args)


_BINARY = (Add, Sub, Mul, Div)
_UNARY = (Sqrt, Exp, Log, Sin, Cos)
# The fields of a node that are not operands.
_DATA = {Const: ("value",), Var: ("index",), Pow: ("exponent",)}  # fields that are not operands
# A node's text over its children's ({0}, {1}) and the node itself.
_TEXT = {
    Const: "{node.value!r}", Pow: "({0})^{node.exponent}",
    Add: "({0} + {1})", Sub: "({0} - {1})", Mul: "({0} * {1})", Div: "({0} / {1})",
    Sqrt: "sqrt({0})", Exp: "exp({0})", Log: "log({0})", Sin: "sin({0})", Cos: "cos({0})",
}


def _text(node: Expr, args: list) -> str:
    cls = type(node)
    if cls is Var:
        return f"x{node.index + 1}"
    if cls is Norm:
        return f"norm({', '.join(args)})"
    return _TEXT[cls].format(*args, node=node)


def _repr(node: Expr, args: list) -> str:
    """The record repr ``Name(field=value, ...)`` of a node over its
    children's reprs."""
    cls = type(node)
    if cls is Norm:
        args = [f"({', '.join(args)}{',' * (len(args) == 1)})"]
    operands, data = iter(args), _DATA.get(cls, ())
    fields = ", ".join(
        f"{name}={repr(getattr(node, name)) if name in data else next(operands)}" for name in node._fields
    )
    return f"{cls.__qualname__}({fields})"


def children(node: Expr) -> tuple:
    """The operands of a node, left to right; () for a leaf."""
    cls = type(node)
    if cls in _BINARY:
        return node.left, node.right
    if cls in _UNARY:
        return (node.arg,)
    if cls is Pow:
        return (node.base,)
    if cls is Norm:
        return node.args
    if cls is Const or cls is Var:
        return ()
    raise TypeError(f"unknown expression node {node!r}")


def walk(root: Expr, visit, done: dict):
    """Return ``visit(root, [its children's results, in order])``.  Each
    distinct node (by id) under root is visited once, children first,
    unless ``done``, which maps visited nodes' ids to results, has it."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        args = children(node)
        todo = [a for a in args if id(a) not in done]
        if todo:
            stack += reversed(todo)
            continue
        stack.pop()
        done[id(node)] = visit(node, [done[id(a)] for a in args])
    return done[id(root)]
