"""Exact Laurent model of the deformation ring for polynomial functions.

Coefficients are multivariate polynomials over exact rationals in a
y-block (p variables) and an x-block (q variables).  A Laurent element
sum_k f_k t^{-k} must satisfy the filtration constraint: for k >= 1
every monomial of f_k has x-block total degree >= k.  Two character
families evaluate elements at body points (x, s) with s != 0 and at
normal vectors (y, xi); both are exact ring homomorphisms.

Evaluation splits the point once into integer numerators and
denominators, accumulates each sum as an unreduced integer pair
(num, den) and builds a single Fraction per result.  Internal +, - and
* build results through ``MultiPoly._trusted``, which relies on the
invariant every MultiPoly keeps: exponent tuples of length p + q with
nonnegative ints, and exact nonzero coefficients.  Only the public
constructors validate every term, coerce and merge; plain ints and
Fractions pass unconverted, and an all-int point is its own numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational
from operator import add

from .errors import ArityMismatch, DomainViolation, InvariantBreach
from .expr import Add, Const, Div, Expr, Mul, Pow, SmoothMapExpr, Sub, Var

_INTS = frozenset((int,))  # _INTS.issuperset(map(type, v)): all plain ints
_SCALARS = (float, Rational)  # the scalars _frac reads; ints are Rational


def _frac(value) -> Fraction:
    """``value`` as a Fraction whose numerator and denominator are ints."""
    if type(value) is Fraction:
        num, den = value.as_integer_ratio()
        if type(num) is int and type(den) is int:
            return value
    elif isinstance(value, int):
        return Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ArityMismatch(f"non-finite coefficient or operand {value!r}")
        return Fraction(value)
    # numpy integers, and Fractions of them, whose own products would wrap
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def _exponents(values) -> tuple:
    """``values`` as a tuple of ints; ArityMismatch unless each int(v) == v."""
    try:
        if (ints := tuple(map(int, values))) == tuple(values):
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    raise ArityMismatch(f"non-integer exponent or power of t in {values!r}")


def _split(point, n: int):
    """Integer numerators and denominators of an exact point of length n."""
    point = list(point)
    if len(point) != n:
        raise ArityMismatch("evaluation point has the wrong length")
    if _INTS.issuperset(map(type, point)):
        return point, [1] * n
    return tuple(zip(*(_frac(v).as_integer_ratio() for v in point)))


def _eval_pair(terms, nums, dens, num: int, den: int):
    """Add the (exponents, coefficient) ``terms`` at the point nums/dens to
    num/den; returns the sum as an unreduced integer pair."""
    for exps, coeff in terms:
        n, d = coeff.as_integer_ratio()
        for vn, vd, e in zip(nums, dens, exps):
            if e == 1:
                n *= vn
                d *= vd
            elif e:
                n *= vn**e
                d *= vd**e
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return num, den


class MultiPoly:
    """A multivariate polynomial with Fraction coefficients.

    Variables are split into a y-block of size p followed by an x-block
    of size q; monomial keys are exponent tuples of length p + q.
    Values are immutable: ``terms`` is never changed after construction.
    """

    __slots__ = ("p", "q", "terms", "_order")

    def __init__(self, p: int, q: int, terms=None):
        self.p = p
        self.q = q
        self._order = None
        clean: dict = {}
        for exps, coeff in (terms or {}).items():
            if type(exps) is not tuple or not _INTS.issuperset(map(type, exps)):
                exps = _exponents(exps)
            if len(exps) != p + q or exps and min(exps) < 0:
                raise ArityMismatch(f"bad monomial {exps} for {p}+{q} variables")
            coeff = _frac(coeff)
            if exps in clean:
                coeff += clean.pop(exps)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, p: int, q: int, terms: dict) -> "MultiPoly":
        """Wrap ``terms`` that already keep the class invariant; the
        result owns the dict."""
        self = object.__new__(cls)
        self.p = p
        self.q = q
        self.terms = terms
        self._order = None
        return self

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(p: int, q: int, value) -> "MultiPoly":
        value = _frac(value)
        return MultiPoly._trusted(p, q, {(0,) * (p + q): value} if value else {})

    @staticmethod
    def var(p: int, q: int, index: int) -> "MultiPoly":
        exps = [0] * (p + q)
        exps[index] = 1
        return MultiPoly(p, q, {tuple(exps): Fraction(1)})

    # -- ring structure ----------------------------------------------
    def _check_like(self, other: "MultiPoly"):
        if (self.p, self.q) != (other.p, other.q):
            raise ArityMismatch("polynomials over different variable splits")

    def _const(self, value):
        """A scalar ``_frac`` reads, as a constant over this split; None
        for any other value."""
        return MultiPoly.const(self.p, self.q, value) if isinstance(value, _SCALARS) else None

    def __add__(self, other):
        if not isinstance(other, MultiPoly) and (other := self._const(other)) is None:
            return NotImplemented
        self._check_like(other)
        terms = self.terms.copy()
        for e, c in other.terms.items():
            if e in terms:
                c += terms[e]
                if c:
                    terms[e] = c
                else:
                    del terms[e]
            else:
                terms[e] = c
        return MultiPoly._trusted(self.p, self.q, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.p, self.q, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly) and (other := self._const(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = _frac(other)
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return MultiPoly._trusted(self.p, self.q, terms)
        self._check_like(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                terms[key] = terms[key] + c1 * c2 if key in terms else c1 * c2
        return MultiPoly._trusted(
            self.p, self.q, {e: c for e, c in terms.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ArityMismatch("negative polynomial powers are not defined")
        out = MultiPoly.const(self.p, self.q, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly) and (other := self._const(other)) is None:
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.q, frozenset(self.terms.items())))

    # -- queries ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> Fraction:
        nums, dens = _split(point, self.p + self.q)
        num, den = _eval_pair(self.terms.items(), nums, dens, 0, 1)
        return Fraction(num) if den == 1 else Fraction(num, den)

    def substitute(self, replacements) -> "MultiPoly":
        """Substitute one polynomial per variable; result in their variables."""
        replacements = list(replacements)
        if len(replacements) != self.p + self.q:
            raise ArityMismatch("need one replacement per variable")
        if not replacements:
            raise ArityMismatch("substitution needs at least one variable")
        model = replacements[0]
        out = MultiPoly(model.p, model.q, {})
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(model.p, model.q, coeff)
            for repl, e in zip(replacements, exps):
                term = term * repl**e
            out = out + term
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        names = [f"y{i + 1}" for i in range(self.p)] + [
            f"x{i + 1}" for i in range(self.q)
        ]
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(coeff) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def vanishing_order(f: MultiPoly):
    """Minimum x-block total degree over monomials; inf for the zero polynomial.

    Computed once per polynomial, which never changes."""
    if f._order is None:
        p = f.p
        f._order = min(sum(e[p:]) for e in f.terms) if f.terms else float("inf")
    return f._order


class LaurentElement:
    """An element sum_k f_k t^{-k} with f_k vanishing to order k for k >= 1."""

    __slots__ = ("p", "q", "coeffs")

    def __init__(self, p: int, q: int, coeffs=None):
        self.p = p
        self.q = q
        clean = {}
        for k, poly in (coeffs or {}).items():
            if not poly.terms:
                continue
            if (poly.p, poly.q) != (p, q):
                raise ArityMismatch("coefficient over the wrong variable split")
            if type(k) is not int:
                (k,) = _exponents((k,))
            if k >= 1 and vanishing_order(poly) < k:
                raise InvariantBreach(
                    f"coefficient of t^-{k} vanishes only to order {vanishing_order(poly)}"
                )
            clean[k] = poly
        self.coeffs = clean

    @staticmethod
    def from_poly(f: MultiPoly, k: int = 0) -> "LaurentElement":
        return LaurentElement(f.p, f.q, {k: f})

    @staticmethod
    def t_element(p: int, q: int) -> "LaurentElement":
        """The element t (i.e. t^{+1})."""
        return LaurentElement(p, q, {-1: MultiPoly.const(p, q, 1)})

    def _check_like(self, other: "LaurentElement"):
        if (self.p, self.q) != (other.p, other.q):
            raise ArityMismatch("Laurent elements over different variable splits")

    def __add__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._check_like(other)
        coeffs = dict(self.coeffs)
        for k, poly in other.coeffs.items():
            coeffs[k] = coeffs[k] + poly if k in coeffs else poly
        return LaurentElement(self.p, self.q, coeffs)

    def __mul__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._check_like(other)
        coeffs: dict = {}
        for k1, f1 in self.coeffs.items():
            for k2, f2 in other.coeffs.items():
                k = k1 + k2
                prod = f1 * f2
                coeffs[k] = coeffs[k] + prod if k in coeffs else prod
        return LaurentElement(self.p, self.q, coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            poly = self.coeffs[k]
            if k == 0:
                parts.append(f"({poly})")
            else:
                parts.append(f"({poly})*t^{-k}")
        return " + ".join(parts)

    __repr__ = __str__


def char_xs(a: LaurentElement, x, s) -> Fraction:
    """Evaluation at a body point: sum_k f_k(x) s^{-k}; needs s != 0."""
    nums, dens = _split(x, a.p + a.q)
    sn, sd = _frac(s).as_integer_ratio()
    if sn == 0:
        raise ArityMismatch("body characters need s != 0")
    num, den = 0, 1
    for k, poly in a.coeffs.items():
        n, d = _eval_pair(poly.terms.items(), nums, dens, 0, 1)
        if k > 0:
            n, d = n * sd**k, d * sn**k
        elif k < 0:
            n, d = n * sn**-k, d * sd**-k
        num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
    return Fraction(num) if den == 1 else Fraction(num, den)


def char_yxi(a: LaurentElement, y, xi) -> Fraction:
    """Evaluation at a normal vector: the degree-k x-homogeneous part of
    f_k at (y, xi), summed over k >= 0; positive powers of t evaluate to 0.
    ``y`` has the p slice coordinates and ``xi`` the q normal ones."""
    p = a.p
    if len(y) != p:
        raise ArityMismatch(f"slice block of length {len(y)} for p = {p}")
    nums, dens = _split([*y, *xi], p + a.q)  # checks the length of xi
    num, den = 0, 1
    for k, poly in a.coeffs.items():
        if k >= 0:
            part = [(e, c) for e, c in poly.terms.items() if sum(e[p:]) == k]
            num, den = _eval_pair(part, nums, dens, num, den)
    return Fraction(num) if den == 1 else Fraction(num, den)


# -- exact univariate polynomials --------------------------------------
# A univariate polynomial is a list of Fraction coefficients, lowest
# degree first, with no trailing zero; [] is the zero polynomial.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_univariate(a: list, b: list):
    """Quotient and remainder of a by the nonzero polynomial b."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, bj in enumerate(b):
            rem[i + j] -= c * bj
    return _trim(quot), _trim(rem[: len(b) - 1])


def _derivative_univariate(a: list) -> list:
    return _trim([i * c for i, c in enumerate(a)][1:])


def univariate_gcd(a: list, b: list) -> list:
    """Monic greatest common divisor by the Euclidean algorithm; [] when
    both are zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod_univariate(a, b)[1]
    return [c / a[-1] for c in a]


def squarefree_factors(f: list) -> list:
    """Yun's square-free decomposition of a nonzero polynomial.

    Returns monic, square-free, pairwise coprime [a_1, a_2, ...] with
    f = c * a_1 * a_2^2 * a_3^3 * ..., so the roots of a_i are exactly
    the roots of f of multiplicity i; [] for a constant f."""
    f = _trim([Fraction(c) for c in f])
    if not f:
        raise ArityMismatch("the zero polynomial has no square-free decomposition")
    df = _derivative_univariate(f)
    g = univariate_gcd(f, df)
    b = _divmod_univariate(f, g)[0]
    d = _derivative_univariate(b)
    c = _divmod_univariate(df, g)[0]
    factors = []
    while len(b) > 1:
        d = _trim([ci - di for ci, di in zip_longest(c, d, fillvalue=0)])
        a = univariate_gcd(b, d)
        b = _divmod_univariate(b, a)[0]
        c = _divmod_univariate(d, a)[0]
        d = _derivative_univariate(b)
        factors.append(a)
    return factors


# -- real roots of a square-free polynomial ------------------------------
# Here polynomials have integer coefficients, lowest degree first, and
# points are dyadic, num / den with den a power of two, so the sign of a
# polynomial at a point is one integer Horner.  Every Sturm term is kept
# as a positive multiple of itself, which has the same signs.


def _horner(c: list, num: int, den: int) -> int:
    """den**d * c(num / den) for c of degree d: for den > 0, it has the
    sign of c at num / den."""
    acc, scale = 0, 1
    for ci in reversed(c):
        acc = acc * num + ci * scale
        scale *= den
    return acc


def _negated_remainder(a: list, b: list) -> list:
    """A positive multiple of -(a mod b), divided by its content."""
    r, lead = list(a), b[-1]
    scale, sign = abs(lead), 1 if lead > 0 else -1
    for i in range(len(a) - len(b), -1, -1):
        q = sign * r[i + len(b) - 1]
        r = [scale * x for x in r]
        for j, bj in enumerate(b):
            r[i + j] -= q * bj
    r = _trim(r[: len(b) - 1])
    content = math.gcd(*r) or 1
    return [-x // content for x in r]


def _sturm_at(sturm: list, num: int, den: int):
    """The sign changes of the Sturm sequence at num / den, zeros
    skipped, and whether its first term vanishes there."""
    values = [_horner(c, num, den) for c in sturm]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:])), not values[0]


def _rounded(num: int, den: int) -> float:
    """num / den correctly rounded (ties to even); past the float range,
    infinity with its sign, as IEEE rounding gives."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def real_roots(f: list) -> list:
    """The real roots of a square-free polynomial, ascending, each as the
    float nearest to it (ties to even).

    ``f`` lists rational coefficients, lowest degree first, as
    ``squarefree_factors`` returns them.  A Sturm sequence over the
    integers counts the roots in each interval, and exact bisection at
    dyadic points, from Fujiwara's root bound, goes on until an interval
    that holds roots either holds one, at its upper end, or has two ends
    that round to the same float, which is then each of its roots.  No
    float is made before that, and no tolerance is involved.  So two
    roots closer together than the float spacing come back as two equal
    floats, and a root that rounds past the float range raises
    ``DomainViolation``."""
    f = _trim(list(f))
    if len(f) < 2:
        return []
    scale = math.lcm(*(c.denominator for c in f))
    f = [c.numerator * (scale // c.denominator) for c in f]
    sturm = [f, _trim([i * c for i, c in enumerate(f)][1:])]
    while len(sturm[-1]) > 1:
        sturm.append(_negated_remainder(sturm[-2], sturm[-1]))
    # |root| < 2 max_j |f[d-j] / f[d]|**(1/j), and |f[i] / f[d]| < 2**(bits(f[i]) - lead + 1)
    d, lead = len(f) - 1, abs(f[-1]).bit_length()
    e = max(
        [0] + [1 - (lead - abs(c).bit_length() - 1) // (d - i) for i, c in enumerate(f[:-1]) if c]
    )
    roots = []
    # (lo, hi, den, sign changes at lo and at hi, whether hi is a root)
    bound = 1 << e
    todo = [(-bound, bound, 1, _sturm_at(sturm, -bound, 1)[0], _sturm_at(sturm, bound, 1)[0], False)]
    while todo:
        lo, hi, den, v_lo, v_hi, hi_is_root = todo.pop()
        if v_lo == v_hi:
            continue
        x = _rounded(hi, den)
        if (lo > 0 or hi < 0) and _rounded(lo, den) == x or hi_is_root and v_lo - v_hi == 1:
            roots += [x] * (v_lo - v_hi)  # every real in [lo, hi] rounds to x, signed zero too
        else:
            lo, hi, den, mid = 2 * lo, 2 * hi, 2 * den, lo + hi
            v_mid, mid_is_root = _sturm_at(sturm, mid, den)
            todo.append((mid, hi, den, v_mid, v_hi, hi_is_root))
            todo.append((lo, mid, den, v_lo, v_mid, mid_is_root))  # popped first: roots ascend
    if any(map(math.isinf, roots)):
        raise DomainViolation("a real root lies past the float range")
    return roots


def poly_to_expr(f: MultiPoly) -> SmoothMapExpr:
    """Float expression tree for the geometric boundary; DomainViolation
    for a coefficient past the float range."""
    e: Expr = Const(0.0)
    for exps, coeff in sorted(f.terms.items()):
        try:
            term: Expr = Const(float(coeff))
        except OverflowError:
            raise DomainViolation("a coefficient lies past the float range") from None
        for i, k in enumerate(exps):
            if k:
                term = Mul(term, Pow(Var(i), k))
        e = Add(e, term)
    return SmoothMapExpr(f.p + f.q, 1, (e,))


def expr_to_laurent(e: Expr, p: int, q: int, t_index: int | None = None) -> dict:
    """Convert a polynomial expression tree in y, x and t to exact form.

    Returns the filtration-keyed coefficients {k: f_k} of sum_k f_k t^{-k},
    where t is Var(t_index).  Division and negative powers are allowed
    only for a nonzero constant times a power of t; other primitives
    raise.  The filtration is left to the LaurentElement constructor."""

    def add(a: dict, b: dict) -> dict:
        out = dict(a)
        for k, f in b.items():
            out[k] = out[k] + f if k in out else f
        return out

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for k1, f1 in a.items():
            for k2, f2 in b.items():
                k, prod = k1 + k2, f1 * f2
                out[k] = out[k] + prod if k in out else prod
        return out

    def monomial_power(a: dict, exponent: int) -> dict:
        nonzero = [(k, f) for k, f in a.items() if not f.is_zero()]
        if not nonzero:
            raise ArityMismatch("division by zero constant")
        const_key = (0,) * (p + q)
        (k, f), *rest = nonzero
        if rest or set(f.terms) != {const_key}:
            raise ArityMismatch(
                "division and negative powers need a constant times a power of t"
            )
        return {k * exponent: MultiPoly.const(p, q, f.terms[const_key] ** exponent)}

    def go(e: Expr) -> dict:
        if isinstance(e, Const):
            return {0: MultiPoly.const(p, q, e.value)}
        if isinstance(e, Var):
            if e.index == t_index:
                return {-1: MultiPoly.const(p, q, 1)}
            return {0: MultiPoly.var(p, q, e.index)}
        if isinstance(e, Add):
            return add(go(e.left), go(e.right))
        if isinstance(e, Sub):
            return add(go(e.left), {k: -f for k, f in go(e.right).items()})
        if isinstance(e, Mul):
            return mul(go(e.left), go(e.right))
        if isinstance(e, Div):
            return mul(go(e.left), monomial_power(go(e.right), -1))
        if isinstance(e, Pow):
            base = go(e.base)
            if e.exponent < 0:
                return monomial_power(base, e.exponent)
            out = {0: MultiPoly.const(p, q, 1)}
            for _ in range(e.exponent):
                out = mul(out, base)
            return out
        raise ArityMismatch(f"non-polynomial node {type(e).__name__} in conversion")

    return go(e)


def expr_to_poly(e: Expr, p: int, q: int) -> MultiPoly:
    """Convert a polynomial expression tree without t to exact form."""
    return expr_to_laurent(e, p, q).get(0, MultiPoly(p, q))


def geometric_consistency(f: MultiPoly, points) -> dict:
    """Cross-check t^{-1} f against the geometric quotient function.

    ``points`` is an iterable of (y, x, s) triples with s != 0 given as
    floats; for each, char_xs of f t^{-1} must match the geometric
    evaluation f(y, s * (x/s)) / s, and for order-exactly-1 f the normal
    character must match the chart normal derivative contracted with xi;
    ``ok`` means the worst residual is at most 1e-12.
    """
    from .dnc import DncPoint, eval_function_class
    from .pairs import PairDims

    order = vanishing_order(f)
    if not (isinstance(order, int) and order >= 1):
        raise ArityMismatch("geometric consistency needs vanishing order >= 1")
    elem = LaurentElement.from_poly(f, 1)
    fexpr = poly_to_expr(f)
    dims = PairDims(f.p + f.q, f.p)
    worst = 0.0
    for y, x, s in points:
        y = list(y)
        x = list(x)
        exact = char_xs(elem, [Fraction(v) for v in y] + [Fraction(v) for v in x], Fraction(s))
        z = DncPoint.of(y, [v / s for v in x], s)
        geo = eval_function_class("dnc_f1", fexpr, dims, z, check=False)
        worst = max(worst, abs(float(exact) - geo))
        if order == 1:
            z0 = DncPoint.of(y, [v / s for v in x], 0.0)
            geo0 = eval_function_class("dnc_f1", fexpr, dims, z0, check=False)
            exact0 = char_yxi(
                elem, [Fraction(v) for v in y], [Fraction(v / s) for v in x]
            )
            worst = max(worst, abs(float(exact0) - geo0))
    return {"max_residual": worst, "ok": worst <= 1e-12}
