"""Exact Laurent model of the deformation ring for polynomial functions.

Coefficients are multivariate polynomials over exact rationals in a
y-block (p variables) and an x-block (q variables).  A Laurent element
sum_k f_k t^{-k} must satisfy the filtration constraint: for k >= 1
every monomial of f_k has x-block total degree >= k.  Two character
families evaluate elements at body points (x, s) with s != 0 and at
normal vectors (y, xi); both are exact ring homomorphisms.

A MultiPoly runs on Python ints: integer numerators over one positive
common denominator, with gcd(den, every numerator) = 1, so ``==`` and
``hash`` are structural; a constant also equals its scalar value, and
hashes like it.  Its +, - and * work on the numerators and
reduce each result with one ``math.gcd``, skipped when den = 1 (after
Knuth, TAOCP vol. 2, 4.5.1).  ``terms`` is the exact view, a new dict
from exponent tuple to Fraction.  Internal results are built by
``MultiPoly._trusted``, which relies on the invariant every MultiPoly
keeps: exponent tuples of length p + q with nonnegative ints, and
nonzero int numerators.  Only the public constructors validate every
term, coerce and merge; a plain int coefficient is taken as it is.

A LaurentElement is one such table, not one polynomial per power of t:
its exponent tuples carry k, the power of t^-1, as one more entry,
which may be negative.  So its * is one double loop that adds exponent
tuples, its + one merge, each with one gcd and a filtration check, and
``coeffs`` is the exact view {k: f_k}.  ``LaurentElement(p, q, {k: f_k})``
and ``LaurentElement.from_terms`` validate through the same path.

Evaluation reads the point once into integer numerators and
denominators and accumulates each sum as an unreduced integer pair
(num, den).  ``char_xs_pairs`` and ``char_yxi_pairs`` evaluate several
elements at one point, one loop over each table, and return the pairs;
``char_xs``, ``char_yxi`` and ``MultiPoly.evaluate`` build a single
Fraction from one.  A point that is not a flat sequence of numbers
raises ArityMismatch.

Also here, on exact univariate polynomials: square-free factors, real
roots each correctly rounded by one Sturm bisection, and with them the
strict transform of a plane curve through the origin in one blow-up
chart, with the roots of its restriction to the exceptional divisor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational
from operator import add

from .errors import ArityMismatch, DegenerateCurve, DomainViolation, InvariantBreach, OutsideChart
from .nodes import Add, Const, Div, Expr, Mul, Pow, Sub, Var, walk

_INTS = frozenset((int,))  # _INTS.issuperset(map(type, v)): all plain ints
_SCALARS = (float, Rational)  # the scalars _ratio reads; ints are Rational


def _ratio(value) -> tuple:
    """``value`` as an int pair (num, den) in lowest terms with den > 0;
    ArityMismatch for a value that is not a finite real number."""
    if type(value) is Fraction:
        num, den = value.as_integer_ratio()
        if type(num) is int and type(den) is int:
            return num, den
    elif isinstance(value, int):
        return int(value), 1
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ArityMismatch(f"non-finite coefficient or operand {value!r}")
        return value.as_integer_ratio()
    # numpy integers, and Fractions of them, whose own products would wrap
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator)).as_integer_ratio()
    raise ArityMismatch(f"{value!r} is not a number")


def _lowest(nums: dict, den: int) -> tuple:
    """Int numerators over den > 0 with gcd(den, *nums) divided out."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            return {e: c // g for e, c in nums.items()}, den // g
    return nums, den


def _exponents(values) -> tuple:
    """``values`` as a tuple of ints; ArityMismatch unless each int(v) == v."""
    try:
        if (ints := tuple(map(int, values))) == tuple(values):
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    raise ArityMismatch(f"non-integer exponent or power of t in {values!r}")


def _table(items, p: int, q: int, t: int) -> tuple:
    """Validate, coerce and merge (exponents, coefficient) ``items`` into
    nonzero int numerators over one denominator > 0, in lowest terms.
    An exponent tuple holds p + q ints >= 0, then t more ints (t = 1 for
    the power k of t^-1 in a Laurent term), which may be negative.  A
    plain int coefficient is taken as it is, any other read by ``_ratio``."""
    n = p + q
    nums: dict = {}
    den = 1  # the lcm of the denominators so far
    merged = False  # without a merge, that lcm leaves gcd(den, *nums) = 1
    for exps, coeff in items:
        if type(exps) is not tuple or not _INTS.issuperset(map(type, exps)):
            exps = _exponents(exps)
        if len(exps) != n + t or n and min(exps[:n]) < 0:
            raise ArityMismatch(f"bad monomial {exps} for {p}+{q} variables" + " and t" * t)
        if type(coeff) is int:
            coeff *= den
        else:
            coeff, d = _ratio(coeff)
            if den % d:
                scale = d // math.gcd(den, d)
                if nums:
                    nums = {e: c * scale for e, c in nums.items()}
                den *= scale
            coeff *= den // d
        if exps in nums:
            coeff += nums.pop(exps)
            merged = True
        if coeff:
            nums[exps] = coeff
    return _lowest(nums, den) if merged else (nums, den)


def _merge(nums1: dict, den1: int, nums2: dict, den2: int) -> tuple:
    """The sum of two numerator tables over their denominators, as a new
    table over den1 (when den2 = den1) or den1 * den2; cancelled keys go."""
    den, scale = den1, 1
    if den2 == den1:
        nums = nums1.copy()
    else:
        nums = {e: c * den2 for e, c in nums1.items()}
        den, scale = den1 * den2, den1
    for e, c in nums2.items():
        c *= scale
        if e in nums:
            c += nums[e]
            if c:
                nums[e] = c
            else:
                del nums[e]
        else:
            nums[e] = c
    return nums, den


def _product(nums1: dict, nums2: dict) -> dict:
    """The numerators of the product of two tables, over the product of
    their denominators: exponent tuples add entrywise; cancelled keys go."""
    nums: dict = {}
    for e1, c1 in nums1.items():
        for e2, c2 in nums2.items():
            key = tuple(map(add, e1, e2))
            nums[key] = nums[key] + c1 * c2 if key in nums else c1 * c2
    return {e: c for e, c in nums.items() if c}


def _power(base, k: int, one, mul):
    """base ** k for an int k >= 0 by square-and-multiply: about 2 log2(k)
    products under ``mul`` instead of k."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def check_blocks(p: int, q: int) -> tuple:
    """The block sizes (p, q) as ints, read by the rule of exponents;
    ArityMismatch for one that is not an integer or is negative."""
    if type(p) is not int or type(q) is not int:
        try:
            p, q = _exponents((p, q))
        except ArityMismatch:
            raise ArityMismatch(f"non-integer block size in {(p, q)!r}") from None
    if p < 0 or q < 0:
        raise ArityMismatch(f"negative block size in a {p}+{q} variable split")
    return p, q


def _coords(point) -> list:
    """The coordinates of an exact point, read once, as a new list;
    ArityMismatch for a scalar."""
    try:
        return list(point)
    except TypeError:
        raise ArityMismatch(f"evaluation point {point!r} is not a sequence") from None


def _split(coords: list, n: int) -> tuple:
    """Integer numerators and denominators of the coordinates of an exact
    point of length n; ArityMismatch for a coordinate that is not a
    number, a nested sequence among them."""
    if len(coords) != n:
        raise ArityMismatch("evaluation point has the wrong length")
    if _INTS.issuperset(map(type, coords)):
        return coords, (1,) * n
    return tuple(zip(*map(_ratio, coords)))


def _eval_pairs(tables, nums, dens) -> list:
    """Sum each numerator table of ``tables``, given as (terms, den) with
    terms the (exponents, int numerator) pairs, at the point nums/dens;
    returns the sums as unreduced integer pairs.  Exponents past the
    point's length are ignored, and an exponent may be negative."""
    out = []
    for terms, scale in tables:
        num, den = 0, 1
        for exps, n in terms:
            d = 1
            for vn, vd, e in zip(nums, dens, exps):
                if e == 1:
                    n *= vn
                    d *= vd
                elif e > 0:
                    n *= vn**e
                    d *= vd**e
                elif e:
                    n *= vd**-e
                    d *= vn**-e
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        out.append((num, den * scale))
    return out


class MultiPoly:
    """A multivariate polynomial with exact rational coefficients.

    Variables are split into a y-block of size p followed by an x-block
    of size q; monomial keys are exponent tuples of length p + q.  The
    coefficients are the int numerators ``nums`` over the common
    denominator ``den`` > 0, in lowest terms: gcd(den, *nums) = 1, and
    den = 1 for the zero polynomial.  Values are immutable: ``nums`` is
    never changed after construction.
    """

    __slots__ = ("p", "q", "nums", "den", "_order")

    def __init__(self, p: int, q: int, terms=None):
        p, q = check_blocks(p, q)
        self.p = p
        self.q = q
        self._order = None
        self.nums, self.den = _table((terms or {}).items(), p, q, 0)

    @classmethod
    def _trusted(cls, p: int, q: int, nums: dict, den: int) -> "MultiPoly":
        """Wrap nonzero int numerators over ``den`` > 0 whose exponents
        keep the class invariant, dividing out gcd(den, *nums); the result
        owns the dict."""
        self = object.__new__(cls)
        self.p = p
        self.q = q
        self.nums, self.den = _lowest(nums, den)
        self._order = None
        return self

    @property
    def terms(self) -> dict:
        """The exact view: a new dict from exponent tuple to Fraction."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(p: int, q: int, value) -> "MultiPoly":
        p, q = check_blocks(p, q)
        num, den = _ratio(value)
        return MultiPoly._trusted(p, q, {(0,) * (p + q): num} if num else {}, den)

    @staticmethod
    def var(p: int, q: int, index: int) -> "MultiPoly":
        p, q = check_blocks(p, q)
        if not 0 <= index < p + q:
            raise ArityMismatch(f"variable {index} out of range for {p}+{q} variables")
        exps = [0] * (p + q)
        exps[index] = 1
        return MultiPoly(p, q, {tuple(exps): 1})

    # -- ring structure ----------------------------------------------
    def _check_like(self, other: "MultiPoly"):
        if (self.p, self.q) != (other.p, other.q):
            raise ArityMismatch("polynomials over different variable splits")

    def _const(self, value):
        """A scalar ``_ratio`` reads, as a constant over this split; None
        for any other value."""
        return MultiPoly.const(self.p, self.q, value) if isinstance(value, _SCALARS) else None

    def __add__(self, other):
        if not isinstance(other, MultiPoly) and (other := self._const(other)) is None:
            return NotImplemented
        self._check_like(other)
        return MultiPoly._trusted(self.p, self.q, *_merge(self.nums, self.den, other.nums, other.den))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.p, self.q, {e: -c for e, c in self.nums.items()}, self.den)

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
            num, den = _ratio(other)
            nums = {e: c * num for e, c in self.nums.items()} if num else {}
            return MultiPoly._trusted(self.p, self.q, nums, self.den * den)
        self._check_like(other)
        return MultiPoly._trusted(self.p, self.q, _product(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        (k,) = _exponents((k,))
        if k < 0:
            raise ArityMismatch("negative polynomial powers are not defined")
        return _power(self, k, MultiPoly.const(self.p, self.q, 1), MultiPoly.__mul__)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly) and (other := self._const(other)) is None:
            return NotImplemented
        return (self.p, self.q, self.den) == (other.p, other.q, other.den) and self.nums == other.nums

    def __hash__(self):
        # A constant equals its scalar value, so it hashes like that value.
        one = (0,) * (self.p + self.q)
        if self.nums.keys() <= {one}:
            return hash(Fraction(self.nums.get(one, 0), self.den))
        return hash((self.p, self.q, self.den, frozenset(self.nums.items())))

    # -- queries ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def evaluate(self, point) -> Fraction:
        nums, dens = _split(_coords(point), self.p + self.q)
        [pair] = _eval_pairs([(self.nums.items(), self.den)], nums, dens)
        return Fraction(*pair)

    def substitute(self, replacements) -> "MultiPoly":
        """Substitute one polynomial per variable; result in their variables."""
        replacements = list(replacements)
        if len(replacements) != self.p + self.q:
            raise ArityMismatch("need one replacement per variable")
        if not replacements:
            raise ArityMismatch("substitution needs at least one variable")
        model = replacements[0]
        out = MultiPoly(model.p, model.q, {})
        for exps, coeff in self.nums.items():
            term = MultiPoly.const(model.p, model.q, coeff)
            for repl, e in zip(replacements, exps):
                term = term * repl**e
            out = out + term
        return out * Fraction(1, self.den)

    def __str__(self):
        if not self.nums:
            return "0"
        names = [f"y{i + 1}" for i in range(self.p)] + [
            f"x{i + 1}" for i in range(self.q)
        ]
        terms = self.terms
        parts = []
        for exps in sorted(terms, key=lambda e: (sum(e), e)):
            coeff = terms[exps]
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
        f._order = min(sum(e[p:]) for e in f.nums) if f.nums else float("inf")
    return f._order


def _check_filtration(p: int, nums: dict) -> None:
    """InvariantBreach unless each Laurent term (y-exponents, x-exponents,
    k) with k >= 1 has x-degree >= k, i.e. vanishing_order(f_k) >= k."""
    for key in nums:
        k = key[-1]
        if k > 0 and sum(key[p:-1]) < k:
            order = min(sum(e[p:-1]) for e in nums if e[-1] == k)
            raise InvariantBreach(f"coefficient of t^-{k} vanishes only to order {order}")


def _coefficients(p: int, q: int, coeffs: dict) -> list:
    """The (k, f_k) items of {k: f_k}; ArityMismatch for a coefficient
    that is not a MultiPoly over the split (p, q)."""
    for k, poly in coeffs.items():
        if not isinstance(poly, MultiPoly):
            raise ArityMismatch(f"coefficient {poly!r} of t^-{k} is not a MultiPoly")
        if (poly.p, poly.q) != (p, q):
            raise ArityMismatch("coefficient over the wrong variable split")
    return list(coeffs.items())


class LaurentElement:
    """An element sum_k f_k t^{-k} with f_k vanishing to order k for k >= 1.

    One term table holds every coefficient: ``nums`` maps (y-exponents,
    x-exponents, k) to a nonzero int numerator over one denominator
    ``den`` > 0, in lowest terms, so ``==`` is structural.  ``coeffs`` is
    the exact view {k: f_k}.  Values are immutable.
    """

    __slots__ = ("p", "q", "nums", "den")

    def __init__(self, p: int, q: int, coeffs=None):
        p, q = check_blocks(p, q)
        polys = _coefficients(p, q, coeffs or {})
        den = math.lcm(*(f.den for _, f in polys))  # every numerator is an int over it
        nums, _ = _table((((*e, k), c * (den // f.den)) for k, f in polys for e, c in f.nums.items()), p, q, 1)
        self._fill(p, q, *_lowest(nums, den))

    @classmethod
    def from_terms(cls, p: int, q: int, terms: dict) -> "LaurentElement":
        """The element with coefficient c at y^a x^b t^-k for each item
        ((*a, *b, k), c) of ``terms``; validated, coerced and merged as
        the constructor does."""
        p, q = check_blocks(p, q)
        return cls._trusted(p, q, *_table(terms.items(), p, q, 1))

    @classmethod
    def _trusted(cls, p: int, q: int, nums: dict, den: int) -> "LaurentElement":
        """Wrap a table that keeps the class invariant but for the common
        factors, dividing out gcd(den, *nums); re-asserts the filtration."""
        self = object.__new__(cls)
        self._fill(p, q, *_lowest(nums, den))
        return self

    def _fill(self, p: int, q: int, nums: dict, den: int) -> None:
        _check_filtration(p, nums)
        self.p = p
        self.q = q
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> dict:
        """The exact view: a new dict {k: f_k}, each f_k a MultiPoly in
        lowest terms, keyed in the order of the table."""
        parts: dict = {}
        for key, c in self.nums.items():
            parts.setdefault(key[-1], {})[key[:-1]] = c
        return {k: MultiPoly._trusted(self.p, self.q, nums, self.den) for k, nums in parts.items()}

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
        return LaurentElement._trusted(self.p, self.q, *_merge(self.nums, self.den, other.nums, other.den))

    def __mul__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._check_like(other)
        return LaurentElement._trusted(self.p, self.q, _product(self.nums, other.nums), self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return (self.p, self.q, self.den) == (other.p, other.q, other.den) and self.nums == other.nums

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        return " + ".join(f"({coeffs[k]})" if k == 0 else f"({coeffs[k]})*t^{-k}" for k in sorted(coeffs))

    __repr__ = __str__


def _split_of(elements) -> tuple:
    """The variable split (p, q) that a nonempty sequence of elements shares."""
    if not elements:
        raise ArityMismatch("characters need at least one element")
    p, q = elements[0].p, elements[0].q
    for a in elements:
        if a.p != p or a.q != q:
            raise ArityMismatch("characters of Laurent elements over different variable splits")
    return p, q


def char_xs_pairs(elements, x, s) -> list:
    """``char_xs`` of each of a sequence of elements at one body point,
    read once, as unreduced integer pairs (num, den) with den != 0.

    The power k of t^-1 is the last exponent of a term, so each element
    is one sum over its table at the point (x, 1/s)."""
    p, q = _split_of(elements)
    nums, dens = _split(_coords(x), p + q)
    sn, sd = _ratio(s)
    if sn == 0:
        raise ArityMismatch("body characters need s != 0")
    nums, dens = [*nums, sd], [*dens, sn]
    return _eval_pairs([(a.nums.items(), a.den) for a in elements], nums, dens)


def char_xs(a: LaurentElement, x, s) -> Fraction:
    """Evaluation at a body point: sum_k f_k(x) s^{-k}; needs s != 0."""
    return Fraction(*char_xs_pairs((a,), x, s)[0])


def char_yxi_pairs(elements, y, xi) -> list:
    """``char_yxi`` of each of a sequence of elements at one normal vector,
    read once, as unreduced integer pairs (num, den) with den > 0.

    Each element is one sum over its table that picks the terms whose
    x-degree is k: under the filtration, the degree-k parts of the f_k
    with k >= 0, as no x-degree is negative."""
    p, q = _split_of(elements)
    y = _coords(y)
    if len(y) != p:
        raise ArityMismatch(f"slice block of length {len(y)} for p = {p}")
    nums, dens = _split(y + _coords(xi), p + q)  # checks the length of xi
    out = []
    for a in elements:
        num, den = 0, 1
        for key, n in a.nums.items():
            if sum(key[p:-1]) != key[-1]:
                continue
            d = 1
            for vn, vd, e in zip(nums, dens, key):  # stops before k
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
        out.append((num, den * a.den))
    return out


def char_yxi(a: LaurentElement, y, xi) -> Fraction:
    """Evaluation at a normal vector: the degree-k x-homogeneous part of
    f_k at (y, xi), summed over k >= 0; positive powers of t evaluate to 0.
    ``y`` has the p slice coordinates and ``xi`` the q normal ones."""
    return Fraction(*char_yxi_pairs((a,), y, xi)[0])


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


# -- strict transform of plane curves ---------------------------------


def strict_transform_curve(g: MultiPoly, chart: int = 1):
    """Resolve a plane curve through the origin in one blow-up chart.

    ``g`` is a polynomial in (x, y) as a MultiPoly with p = 0, q = 2.
    Chart 1 has coordinates (u, s) with x = u, y = u s and exceptional
    coordinate u; chart 2 has (u, s) with x = u s, y = s and exceptional
    coordinate s.  The total transform is divided by the maximal power of the
    exceptional coordinate.

    Returns the strict transform and the real roots of its restriction
    to the exceptional divisor, as ascending (root, multiplicity) pairs.
    The restriction is split exactly into square-free factors, and
    ``real_roots`` bisects each one exactly, so each root is the
    float nearest to it (ties to even) and no tolerance is involved.  A
    root that rounds past the float range raises ``DomainViolation``.
    """
    if g.is_zero():
        raise DegenerateCurve("the zero polynomial has no strict transform")
    if (g.p, g.q) != (0, 2):
        raise ArityMismatch("plane curves use two x-block variables")
    if g.evaluate([0, 0]) != 0:
        raise DegenerateCurve("the curve must pass through the origin")
    if chart not in (1, 2):
        raise OutsideChart("plane-curve charts are 1 and 2")
    u = MultiPoly.var(0, 2, 0)
    s = MultiPoly.var(0, 2, 1)
    if chart == 1:
        # (x, y) -> (u, u*s): exceptional coordinate is u (variable 0).
        total = g.substitute([u, u * s])
        exc_index = 0
    else:
        # (x, y) -> (u*s, s): exceptional coordinate is s (variable 1).
        total = g.substitute([u * s, s])
        exc_index = 1
    m = min(e[exc_index] for e in total.nums)
    strict = MultiPoly._trusted(
        0,
        2,
        {
            tuple(e - m if i == exc_index else e for i, e in enumerate(exps)): c
            for exps, c in total.nums.items()
        },
        total.den,
    )
    # Restriction to the exceptional divisor {exceptional coordinate = 0},
    # a univariate polynomial in the remaining coordinate.  It is split
    # exactly into square-free factors, which are pairwise coprime, so
    # each factor has simple roots, no two factors share one, and its
    # index in the decomposition is their multiplicity.
    other = 1 - exc_index
    # The numerators: the common denominator moves no root.
    restricted = {exps[other]: c for exps, c in strict.nums.items() if exps[exc_index] == 0}
    degree = max(restricted)
    if degree == 0:
        return strict, []
    coeffs = [restricted.get(k, 0) for k in range(degree + 1)]
    return strict, sorted(
        (root, multiplicity)
        for multiplicity, factor in enumerate(squarefree_factors(coeffs), start=1)
        for root in real_roots(factor)
    )


def poly_to_expr(f: MultiPoly) -> SmoothMapExpr:
    """Float expression tree for the geometric boundary; DomainViolation
    for a coefficient past the float range."""
    from .expr import SmoothMapExpr

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
        if rest or set(f.nums) != {const_key}:
            raise ArityMismatch(
                "division and negative powers need a constant times a power of t"
            )
        return {k * exponent: MultiPoly.const(p, q, Fraction(f.nums[const_key], f.den) ** exponent)}

    # Failures are results and the root's is raised: a non-polynomial node
    # fails before all below it, any other after its operands (the leftmost
    # failed one first), and no node converts after a failure.
    done, failed = {}, False

    def refuse(node: Expr, args: list):
        if type(node) not in (Const, Var, Add, Sub, Mul, Div, Pow):
            done[id(node)] = ArityMismatch(f"non-polynomial node {type(node).__name__} in conversion")

    walk(e, refuse, {})

    def visit(e: Expr, args: list):
        nonlocal failed
        failure = next((a for a in args if not isinstance(a, dict)), None)
        if failure is not None or failed:
            return failure
        cls = type(e)
        try:
            if cls is Const:
                return {0: MultiPoly.const(p, q, e.value)}
            if cls is Var:
                if e.index == t_index:
                    return {-1: MultiPoly.const(p, q, 1)}
                return {0: MultiPoly.var(p, q, e.index)}
            if cls is Add or cls is Sub:
                return add(args[0], args[1] if cls is Add else {k: -f for k, f in args[1].items()})
            if cls is Mul or cls is Div:
                return mul(args[0], args[1] if cls is Mul else monomial_power(args[1], -1))
            if e.exponent < 0:
                return monomial_power(args[0], e.exponent)
            return _power(args[0], e.exponent, {0: MultiPoly.const(p, q, 1)}, mul)
        except ArityMismatch as exc:
            failed = True
            return exc

    out = walk(e, visit, done)
    if isinstance(out, ArityMismatch):
        raise out
    return out


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
