"""Scalar expression nodes.

An ``Expr`` is an immutable node of a closed scalar expression over the
primitives {constant, coordinate projection, +, -, *, /, integer power,
sqrt, exp, log, sin, cos, euclidean norm}; the arithmetic operators
build new nodes, and ``as_expr`` reads a number as a constant.  The
nodes only describe an expression: ``conecut.expr`` compiles them into
tapes and evaluates them, ``conecut.parse`` reads them from text, and
``conecut.ring`` converts polynomial ones to exact form.
"""

from __future__ import annotations

from .record import Record


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


class Const(Expr, Record, frozen=True):
    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def __str__(self):
        return repr(self.value)


class Var(Expr, Record, frozen=True):
    def __init__(self, index: int):  # 0-based input coordinate
        object.__setattr__(self, "index", index)

    def __str__(self):
        return f"x{self.index + 1}"


class Add(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self):
        return f"({self.left} + {self.right})"


class Sub(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self):
        return f"({self.left} - {self.right})"


class Mul(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self):
        return f"({self.left} * {self.right})"


class Div(Expr, Record, frozen=True):
    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self):
        return f"({self.left} / {self.right})"


class Pow(Expr, Record, frozen=True):
    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __str__(self):
        return f"({self.base})^{self.exponent}"


class Sqrt(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def __str__(self):
        return f"sqrt({self.arg})"


class Exp(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def __str__(self):
        return f"exp({self.arg})"


class Log(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def __str__(self):
        return f"log({self.arg})"


class Sin(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def __str__(self):
        return f"sin({self.arg})"


class Cos(Expr, Record, frozen=True):
    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def __str__(self):
        return f"cos({self.arg})"


class Norm(Expr, Record, frozen=True):
    def __init__(self, args: tuple):  # tuple[Expr, ...]
        object.__setattr__(self, "args", args)

    def __str__(self):
        return "norm(" + ", ".join(str(a) for a in self.args) + ")"


_BINARY = (Add, Sub, Mul, Div)
_UNARY = (Sqrt, Exp, Log, Sin, Cos)


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
