"""Infix parser for the textual expression syntax.

Syntax: `+ - * / ^` with usual precedence, `^` only with integer
exponents, parentheses, function calls sqrt/exp/log/sin/cos/norm
(norm takes any number of arguments), numeric literals, and named
variables.  Variables default to `x1..xn`; callers may supply their own
name list (e.g. `x, y` for plane curves).  Errors carry the position.
Elements of the exact Laurent model parse the same way, with `t` as one
more variable.
"""

from __future__ import annotations

from .errors import ParseError
from .expr import (
    Const,
    Cos,
    Exp,
    Expr,
    Log,
    Norm,
    Pow,
    Sin,
    SmoothMapExpr,
    Sqrt,
    Var,
)
from .ring import LaurentElement, expr_to_laurent

_FUNCTIONS = {"sqrt": Sqrt, "exp": Exp, "log": Log, "sin": Sin, "cos": Cos}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._run()
        self.index = 0

    def _run(self):
        text = self.text
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                if j < len(text) and text[j] in "eE":
                    k = j + 1
                    if k < len(text) and text[k] in "+-":
                        k += 1
                    if k < len(text) and text[k].isdigit():
                        while k < len(text) and text[k].isdigit():
                            k += 1
                        j = k
                self.tokens.append(("num", text[i:j], i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
            elif c in "+-*/^(),":
                self.tokens.append((c, c, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {c!r} at position {i}", i)
        self.tokens.append(("end", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok[1] or 'end of input'!r} at position {tok[2]}",
                tok[2],
            )
        return tok


class _Parser:
    def __init__(self, text: str, var_names: list[str]):
        self.toks = _Tokenizer(text)
        self.var_index = {name: i for i, name in enumerate(var_names)}

    def parse_expr_list(self) -> list[Expr]:
        exprs = [self.expr()]
        while self.toks.peek()[0] == ",":
            self.toks.next()
            exprs.append(self.expr())
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError(
                f"unexpected {tok[1]!r} at position {tok[2]}", tok[2]
            )
        return exprs

    def expr(self) -> Expr:
        node = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            rhs = self.unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def unary(self) -> Expr:
        tok = self.toks.peek()
        if tok[0] == "-":
            self.toks.next()
            return Const(0.0) - self.unary()
        if tok[0] == "+":
            self.toks.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            exponent = self._integer()
            return Pow(base, exponent)
        return base

    def _integer(self) -> int:
        sign = 1
        tok = self.toks.peek()
        if tok[0] in ("-", "+"):
            self.toks.next()
            if tok[0] == "-":
                sign = -1
            tok = self.toks.peek()
        if tok[0] == "(":
            self.toks.next()
            value = self._integer()
            self.toks.expect(")")
            return sign * value
        tok = self.toks.expect("num")
        if "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
            raise ParseError(
                f"exponent must be an integer, got {tok[1]!r} at position {tok[2]}",
                tok[2],
            )
        return sign * int(tok[1])

    def atom(self) -> Expr:
        tok = self.toks.next()
        if tok[0] == "num":
            return Const(float(tok[1]))
        if tok[0] == "(":
            node = self.expr()
            self.toks.expect(")")
            return node
        if tok[0] == "name":
            name = tok[1]
            if self.toks.peek()[0] == "(":
                self.toks.next()
                args = [self.expr()]
                while self.toks.peek()[0] == ",":
                    self.toks.next()
                    args.append(self.expr())
                self.toks.expect(")")
                if name == "norm":
                    return Norm(tuple(args))
                if name in _FUNCTIONS:
                    if len(args) != 1:
                        raise ParseError(
                            f"{name} takes one argument (position {tok[2]})", tok[2]
                        )
                    return _FUNCTIONS[name](args[0])
                raise ParseError(f"unknown function {name!r} at position {tok[2]}", tok[2])
            if name in self.var_index:
                return Var(self.var_index[name])
            raise ParseError(f"unknown variable {name!r} at position {tok[2]}", tok[2])
        raise ParseError(
            f"unexpected {tok[1] or 'end of input'!r} at position {tok[2]}", tok[2]
        )


def default_var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def pair_var_names(p: int, q: int) -> list[str]:
    """Adapted-coordinate names y1..yp followed by x1..xq."""
    return [f"y{i + 1}" for i in range(p)] + [f"x{i + 1}" for i in range(q)]


def parse_expr(text: str, var_names: list[str]) -> Expr:
    """Parse a single scalar expression."""
    exprs = _Parser(text, var_names).parse_expr_list()
    if len(exprs) != 1:
        raise ParseError("expected a single expression, found a list")
    return exprs[0]


def parse_map(text: str, input_dim: int, var_names: list[str] | None = None) -> SmoothMapExpr:
    """Parse a comma-separated component list into a SmoothMapExpr."""
    if var_names is None:
        var_names = default_var_names(input_dim)
    exprs = _Parser(text, var_names).parse_expr_list()
    return SmoothMapExpr(input_dim, len(exprs), tuple(exprs))


def parse_laurent(text: str, p: int, q: int) -> LaurentElement:
    """Parse an element of the exact Laurent model: a polynomial in
    y1..yp, x1..xq and t with integer powers of t."""
    e = parse_expr(text, pair_var_names(p, q) + ["t"])
    return LaurentElement(p, q, expr_to_laurent(e, p, q, t_index=p + q))
