"""Infix parser for the textual expression syntax.

Syntax: `+ - * / ^` with usual precedence, `^` only with integer
exponents, parentheses, function calls sqrt/exp/log/sin/cos/norm
(norm takes any number of arguments), numeric literals, and named
variables.  Variables default to `x1..xn`; callers may supply their own
name list (e.g. `x, y` for plane curves).  Errors carry the position.
An expression deeper than MAX_DEPTH operations, or whose parentheses
nest deeper than that, is refused with a ParseError.
Elements of the exact Laurent model parse the same way, with `t` as one
more variable.
"""

from __future__ import annotations

from .errors import ParseError
from .nodes import Const, Cos, Exp, Expr, Log, Norm, Pow, Sin, Sqrt, Var, walk

# The deepest expression the parser accepts, in operations from the root
# to a leaf and in nested parentheses: the largest depth that every
# subcommand handled before the parser and the tapes bounded it, when
# deeper text failed with a RecursionError.
MAX_DEPTH = 196

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
    """Recursive descent over the tokens: a sum of products (``expr``) of
    signed powers (``factor``) of atoms.  Only a parenthesis or a call
    recurses, three frames deep, and ``nesting`` counts how deep."""

    def __init__(self, text: str, var_names: list[str]):
        self.toks = _Tokenizer(text)
        self.var_index = {name: i for i, name in enumerate(var_names)}
        self.nesting = 0

    def parse_expr_list(self) -> list[Expr]:
        exprs = [self.checked_expr()]
        while self.toks.peek()[0] == ",":
            self.toks.next()
            exprs.append(self.checked_expr())
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError(
                f"unexpected {tok[1]!r} at position {tok[2]}", tok[2]
            )
        return exprs

    def checked_expr(self) -> Expr:
        """An expression no deeper than MAX_DEPTH."""
        position = self.toks.peek()[2]
        node = self.expr()
        if depth(node) > MAX_DEPTH:
            raise ParseError(
                f"expression at position {position} is deeper than {MAX_DEPTH} operations", position
            )
        return node

    def expr(self) -> Expr:
        """Products joined by + and -, then factors by * and /, each left
        to right."""
        node = None
        op = "+"
        while True:
            term = self.factor()
            while self.toks.peek()[0] in ("*", "/"):
                mul = self.toks.next()[0]
                rhs = self.factor()
                term = term * rhs if mul == "*" else term / rhs
            node = term if node is None else node + term if op == "+" else node - term
            if self.toks.peek()[0] not in ("+", "-"):
                return node
            op = self.toks.next()[0]

    def factor(self) -> Expr:
        """Signs, then an atom with an optional integer power: a sign
        binds below the power, so -x^2 is 0 - x^2."""
        signs = []
        while self.toks.peek()[0] in ("-", "+"):
            signs.append(self.toks.next()[0])
        node = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            node = Pow(node, self._integer())
        for sign in reversed(signs):
            if sign == "-":
                node = Const(0.0) - node
        return node

    def _nest(self, tok) -> None:
        """Enter the parenthesis or call that opens at ``tok``."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} at position {tok[2]}", tok[2])

    def _integer(self) -> int:
        """A literal, or an integer in parentheses, after an optional sign."""
        sign, opened = 1, 0
        while True:
            if self.toks.peek()[0] in ("-", "+"):
                sign = -sign if self.toks.next()[0] == "-" else sign
            if self.toks.peek()[0] != "(":
                break
            self._nest(self.toks.next())
            opened += 1
        tok = self.toks.expect("num")
        if "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
            raise ParseError(
                f"exponent must be an integer, got {tok[1]!r} at position {tok[2]}",
                tok[2],
            )
        for _ in range(opened):
            self.toks.expect(")")
            self.nesting -= 1
        return sign * int(tok[1])

    def atom(self) -> Expr:
        tok = self.toks.next()
        if tok[0] == "num":
            return Const(float(tok[1]))
        if tok[0] == "(":
            self._nest(tok)
            node = self.expr()
            self.toks.expect(")")
            self.nesting -= 1
            return node
        if tok[0] == "name":
            name = tok[1]
            if self.toks.peek()[0] == "(":
                self._nest(self.toks.next())
                args = [self.expr()]
                while self.toks.peek()[0] == ",":
                    self.toks.next()
                    args.append(self.expr())
                self.toks.expect(")")
                self.nesting -= 1
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


def depth(e: Expr) -> int:
    """The number of operations on the longest path from e down to a
    leaf (0 for a constant or a variable)."""
    return walk(e, lambda node, args: 1 + max(args) if args else 0, {})


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
    from .expr import SmoothMapExpr

    if var_names is None:
        var_names = default_var_names(input_dim)
    exprs = _Parser(text, var_names).parse_expr_list()
    return SmoothMapExpr(input_dim, len(exprs), tuple(exprs))


def parse_laurent(text: str, p: int, q: int) -> LaurentElement:
    """Parse an element of the exact Laurent model: a polynomial in
    y1..yp, x1..xq and t with integer powers of t."""
    from .ring import LaurentElement, check_blocks, expr_to_laurent

    p, q = check_blocks(p, q)
    e = parse_expr(text, pair_var_names(p, q) + ["t"])
    return LaurentElement(p, q, expr_to_laurent(e, p, q, t_index=p + q))
