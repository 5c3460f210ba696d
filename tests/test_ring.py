"""Exact multivariate polynomials, the filtered Laurent model, characters."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecut.errors import ArityMismatch, DomainViolation, InvariantBreach
from conecut.expr import Const, Mul, Var, eval_map
from conecut.parse import parse_laurent
from conecut.ring import (
    LaurentElement,
    MultiPoly,
    char_xs,
    char_xs_pairs,
    char_yxi,
    char_yxi_pairs,
    expr_to_laurent,
    expr_to_poly,
    geometric_consistency,
    poly_to_expr,
    real_roots,
    squarefree_factors,
    univariate_gcd,
    vanishing_order,
)

P, Q = 1, 2


def _vars():
    y = MultiPoly.var(P, Q, 0)
    x1 = MultiPoly.var(P, Q, 1)
    x2 = MultiPoly.var(P, Q, 2)
    return y, x1, x2


def _small_polys():
    y, x1, x2 = _vars()
    return st.sampled_from(
        [
            MultiPoly.const(P, Q, 0),
            MultiPoly.const(P, Q, Fraction(3, 2)),
            y,
            x1,
            x2,
            y * x1 + x2,
            x1 * x2 - y**2,
            x1**2 + MultiPoly.const(P, Q, 1),
        ]
    )


@given(_small_polys(), _small_polys(), _small_polys())
@settings(max_examples=60, deadline=None)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == MultiPoly.const(P, Q, 0)


def test_polynomial_evaluation_is_exact():
    y, x1, x2 = _vars()
    f = y * x1 - x2**2 + MultiPoly.const(P, Q, Fraction(1, 3))
    val = f.evaluate([Fraction(1, 2), Fraction(2, 3), Fraction(1, 5)])
    assert val == Fraction(1, 2) * Fraction(2, 3) - Fraction(1, 25) + Fraction(1, 3)


def test_vanishing_order():
    y, x1, x2 = _vars()
    assert vanishing_order(y) == 0
    assert vanishing_order(x1) == 1
    assert vanishing_order(x1 * x2 + x2**3) == 2
    assert vanishing_order(MultiPoly.const(P, Q, 0)) == float("inf")


def test_laurent_filtration_invariant():
    y, x1, x2 = _vars()
    # f at key k must vanish to order at least k in the x-block
    LaurentElement(P, Q, {1: x1, 2: x1 * x2})
    with pytest.raises(InvariantBreach):
        LaurentElement(P, Q, {1: y})
    with pytest.raises(InvariantBreach):
        LaurentElement(P, Q, {2: x1})


def test_t_element_times_inverse_weight():
    y, x1, x2 = _vars()
    t = LaurentElement.t_element(P, Q)
    f = LaurentElement.from_poly(x1 * x2, 2)
    prod = t * f
    assert prod == LaurentElement.from_poly(x1 * x2, 1)


def test_characters_are_ring_homomorphisms():
    y, x1, x2 = _vars()
    a = LaurentElement(P, Q, {1: x1, 0: y})
    b = LaurentElement(P, Q, {2: x1 * x2, -1: MultiPoly.const(P, Q, 1)})
    x_pt = [Fraction(1, 2), Fraction(2, 3), Fraction(-1, 4)]
    s = Fraction(3, 5)
    assert char_xs(a * b, x_pt, s) == char_xs(a, x_pt, s) * char_xs(
        b, x_pt, s
    )
    assert char_xs(a + b, x_pt, s) == char_xs(a, x_pt, s) + char_xs(b, x_pt, s)
    y_pt, xi_pt = [Fraction(1, 2)], [Fraction(2, 3), Fraction(-1, 4)]
    assert char_yxi(a * b, y_pt, xi_pt) == char_yxi(
        a, y_pt, xi_pt
    ) * char_yxi(b, y_pt, xi_pt)
    assert char_yxi(a + b, y_pt, xi_pt) == char_yxi(a, y_pt, xi_pt) + char_yxi(
        b, y_pt, xi_pt
    )


def test_char_xs_value():
    y, x1, x2 = _vars()
    a = LaurentElement(P, Q, {1: x1 * y})
    # f_1 * s^{-1} at (y, x1, x2) = (2, 3, 5), s = 1/2: 6 * 2 = 12
    assert char_xs(a, [2, 3, 5], Fraction(1, 2)) == 12


def test_char_yxi_keeps_leading_homogeneous_part():
    y, x1, x2 = _vars()
    # key 1 coefficient x1 + x1*x2: only the degree-1 part survives
    a = LaurentElement(P, Q, {1: x1 + x1 * x2})
    assert char_yxi(a, [Fraction(7)], [Fraction(2), Fraction(3)]) == 2
    # negative keys contribute nothing to the exceptional character
    b = LaurentElement(P, Q, {-1: y})
    assert char_yxi(b, [Fraction(7)], [Fraction(2), Fraction(3)]) == 0


@pytest.mark.parametrize("y, xi", [([1, 2], [3]), ([], [1, 2, 3])])
def test_char_yxi_rejects_a_wrong_block_split(y, xi):
    a = LaurentElement(P, Q, {0: _vars()[0]})
    with pytest.raises(ArityMismatch):
        char_yxi(a, y, xi)


def test_grading_homogeneity_exact():
    y, x1, x2 = _vars()
    elem = LaurentElement.from_poly(x1 * x2, 2)
    lam = Fraction(5, 3)
    xi = [Fraction(1, 2), Fraction(4, 7)]
    scaled = char_yxi(elem, [Fraction(0)], [lam * v for v in xi])
    assert scaled == lam**2 * char_yxi(elem, [Fraction(0)], xi)


def test_poly_expr_round_trip():
    y, x1, x2 = _vars()
    # expression constants are floats, so exact round trips need
    # dyadic rational coefficients
    f = y * x1 - x2**2 + MultiPoly.const(P, Q, Fraction(3, 8))
    m = poly_to_expr(f)
    val = eval_map(m, [0.5, 2.0, 3.0])[0]
    assert val == pytest.approx(0.5 * 2.0 - 9.0 + 3.0 / 8.0)
    back = expr_to_poly(m.body[0], P, Q)
    assert back == f


def test_expr_to_poly_from_tree():
    e = Var(0) * Var(1) + Var(2) ** 2 - 1.5
    f = expr_to_poly(e, P, Q)
    assert f.evaluate([2, 3, 4]) == Fraction(2 * 3 + 16) - Fraction(3, 2)


def test_geometric_consistency():
    y, x1, x2 = _vars()
    f = y * x1 + x2**3
    points = [([0.3], [0.7, -0.2], 0.9), ([0.1], [0.4, 0.6], 0.5)]
    report = geometric_consistency(f, points)
    assert report["ok"]
    assert report["max_residual"] <= 1e-12


def test_coefficient_past_the_float_range_is_a_domain_violation():
    y, x1, x2 = _vars()
    huge = MultiPoly(0, 1, {(1,): 10**400})
    with pytest.raises(DomainViolation, match="coefficient lies past the float range"):
        poly_to_expr(huge)
    f = y * x1 + x2**3 * 10**400
    with pytest.raises(DomainViolation, match="coefficient lies past the float range"):
        geometric_consistency(f, [([0.3], [0.7, -0.2], 0.9)])


# -- the integer-pair kernel against a naive Fraction oracle -----------


def _naive_value(f, point):
    total = Fraction(0)
    for exps, coeff in f.terms.items():
        term = Fraction(coeff)
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def _naive_xs(a, x, s):
    return sum(
        (_naive_value(f, x) * Fraction(s) ** -k for k, f in a.coeffs.items()),
        Fraction(0),
    )


def _naive_yxi(a, y, xi):
    total = Fraction(0)
    for k, f in a.coeffs.items():
        if k >= 0:
            part = {e: c for e, c in f.terms.items() if sum(e[P:]) == k}
            total += _naive_value(MultiPoly(P, Q, part), list(y) + list(xi))
    return total


def _seeded_element(rnd):
    coeffs = {}
    for k in rnd.sample([-1, 0, 1, 2], rnd.randint(0, 3)):
        terms = {}
        for _ in range(rnd.randint(0, 3)):
            x_exps = [0, 0]
            for _ in range(max(k, 0) + rnd.randint(0, 2)):
                x_exps[rnd.randint(0, 1)] += 1
            exps = (rnd.randint(0, 2), *x_exps)
            terms[exps] = Fraction(rnd.randint(-6, 6), rnd.randint(1, 5))
        coeffs[k] = MultiPoly(P, Q, terms)
    return LaurentElement(P, Q, coeffs)


def _seeded_rational(rnd):
    return Fraction(rnd.randint(-7, 7), rnd.randint(1, 6))


def test_integer_pair_kernel_matches_naive_fraction_sums():
    rnd = random.Random(2021)
    zero = LaurentElement(P, Q, {0: MultiPoly(P, Q)})
    assert zero.coeffs == {}
    for i in range(300):
        a = zero if i == 0 else _seeded_element(rnd)
        b = _seeded_element(rnd)
        x = [_seeded_rational(rnd) for _ in range(P + Q)]
        s = _seeded_rational(rnd) or Fraction(-2, 3)
        y, xi = [_seeded_rational(rnd)], [_seeded_rational(rnd) for _ in range(Q)]
        for e in (a, b, a * b, a + b):
            assert char_xs(e, x, s) == _naive_xs(e, x, s)
            assert char_yxi(e, y, xi) == _naive_yxi(e, y, xi)
            for f in e.coeffs.values():
                assert f.evaluate(x) == _naive_value(f, x)
    assert MultiPoly(P, Q).evaluate([1, 2, 3]) == 0
    # k = -1 at s = -1/2, x = (1/3, -2, 5/7), on int and float points too
    t = LaurentElement.t_element(P, Q)
    assert char_xs(t, [Fraction(1, 3), -2, 0.5], Fraction(-1, 2)) == Fraction(-1, 2)
    assert char_yxi(t, [Fraction(1, 3)], [-2, 0.5]) == 0


def test_a_constant_polynomial_hashes_like_its_value():
    """A constant equals its scalar (``MultiPoly.const(0, 1, 2) == 2``),
    so it hashes like it, and a set or dict key holds the two as one."""
    two, half = MultiPoly.const(0, 1, 2), MultiPoly.const(P, Q, Fraction(1, 2))
    assert two == 2 and hash(two) == hash(2) and len({two, 2}) == 1
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2)) == hash(0.5)
    assert len({half, Fraction(1, 2), 0.5}) == 1
    assert MultiPoly(P, Q) == 0 and hash(MultiPoly(P, Q)) == hash(0)


def test_cancelled_terms_are_not_stored():
    y, x1, x2 = _vars()
    one = MultiPoly.const(P, Q, 1)
    diff = x1 - x1
    assert diff.terms == {}
    assert diff == MultiPoly(P, Q) and hash(diff) == hash(MultiPoly(P, Q))
    prod = (x1 + one) * (x1 - one)
    direct = MultiPoly(P, Q, {(0, 2, 0): 1, (0, 0, 0): -1})
    assert prod.terms == direct.terms
    assert prod == direct and hash(prod) == hash(direct)
    assert 0 not in prod.terms.values()
    assert (x1 * 0).terms == {} and (y * x2 + 2 * y - y * x2).terms == {(1, 0, 0): 2}
    elem = LaurentElement(P, Q, {1: x1, 0: y}) + LaurentElement(P, Q, {1: -x1})
    assert elem.coeffs == {0: y}


def test_public_constructors_still_validate():
    with pytest.raises(ArityMismatch):
        MultiPoly(P, Q, {(0, 1): 1})
    with pytest.raises(ArityMismatch):
        MultiPoly(P, Q, {(0, -1, 2): 1})
    # exponents become ints, coefficients Fractions, zero terms go
    coerced = MultiPoly(P, Q, {(0.0, 1.0, 0.0): 0.5, (0, 0, 1): 0})
    [(exps, coeff)] = coerced.terms.items()
    assert exps == (0, 1, 0) and all(type(e) is int for e in exps)
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)
    y, x1, _ = _vars()
    assert vanishing_order(y) == 0  # cached before the element sees it
    with pytest.raises(InvariantBreach):
        LaurentElement(P, Q, {1: y})
    with pytest.raises(InvariantBreach):
        LaurentElement(P, Q, {2: x1 + y * x1})
    with pytest.raises(ArityMismatch):
        char_xs(LaurentElement.from_poly(y), [1, 2], 1)
    with pytest.raises(ArityMismatch):
        char_xs(LaurentElement.from_poly(y), [1, 2, 3], 0)


def test_squarefree_factors_give_multiplicities():
    # (s + 1)^2 (s - 3) = s^3 - s^2 - 5s - 3, lowest degree first
    assert squarefree_factors([-3, -5, -1, 1]) == [[-3, 1], [1, 1]]
    # (s^2 - 16)^2: no simple roots, a square-free double factor
    assert squarefree_factors([256, 0, -32, 0, 1]) == [[1], [-16, 0, 1]]
    assert squarefree_factors([0, 0, 2]) == [[1], [0, 1]]
    assert squarefree_factors([5]) == []
    assert univariate_gcd([-1, 0, 1], [1, 2, 1]) == [1, 1]
    assert univariate_gcd([Fraction(2)], []) == [1]


# -- real roots, each the nearest float ---------------------------------


def _with_roots(*roots) -> list:
    """The coefficients of prod(s - r), lowest degree first."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def test_real_roots_of_s_squared_minus_two_are_the_rounded_square_roots():
    assert real_roots([-2, 0, 1]) == [-math.sqrt(2), math.sqrt(2)]
    assert real_roots([Fraction(-4), 0, Fraction(2)]) == [-math.sqrt(2), math.sqrt(2)]
    # the cube root of 3: the reals that round to c lie strictly between
    # the points halfway to its float neighbours
    (c,) = real_roots([-3, 0, 0, 1])
    below, above = ((Fraction(c) + Fraction(math.nextafter(c, to))) / 2 for to in (-math.inf, math.inf))
    assert below**3 < 3 < above**3


def test_real_roots_find_no_root_of_a_cone_that_misses_the_axis():
    # s^2 - 2s + 1 + 10^-20 = (s - 1)^2 + 10^-20
    assert real_roots([1 + Fraction(1, 10**20), -2, 1]) == []
    assert real_roots([1, 0, 1]) == []


def test_real_roots_separate_roots_10_to_the_minus_13_apart():
    r = 1 + Fraction(1, 10**13)
    assert real_roots(_with_roots(1, r)) == [1.0, float(r)]
    assert float(r) != 1.0


def test_real_roots_round_a_tie_to_even():
    # 1 + 3 * 2^-53 lies halfway between 1 + 2^-52 and 1 + 2^-51.
    tie = 1 + Fraction(3, 2**53)
    assert real_roots(_with_roots(-5, tie)) == [-5.0, 1 + 2**-51] == [-5.0, float(tie)]
    assert real_roots(_with_roots(-5, 1 + Fraction(1, 2**53))) == [-5.0, 1.0]


def test_real_roots_closer_than_the_float_spacing_come_back_equal():
    assert real_roots(_with_roots(1, 1 + Fraction(1, 2**60), 2)) == [1.0, 1.0, 2.0]


def test_real_roots_round_a_subnormal_root_once():
    # sqrt(3) * 2^-1050 is subnormal: a multiple of 2^-1074, rounded once.
    n = math.isqrt(3 << 48)
    n += (2 * n + 1) ** 2 < 12 << 48
    assert real_roots([Fraction(-3, 2**2100), 0, 1]) == [-math.ldexp(n, -1074), math.ldexp(n, -1074)]


def test_real_roots_of_coefficients_past_the_float_range():
    # (s - 1)(s - 2) * 10^400: no coefficient is ever made a float
    assert real_roots([2 * 10**400, -3 * 10**400, 10**400]) == [1.0, 2.0]


def test_real_roots_past_the_float_range_raise_domain_violation():
    with pytest.raises(DomainViolation, match="past the float range"):
        real_roots([-(10**700), 0, 1])
    with pytest.raises(DomainViolation, match="past the float range"):
        real_roots([-(10**400), 1])
    # the largest float is a root; halfway to 2^1024 rounds to infinity (ties to even)
    big = 2**1024 - 2**971
    assert real_roots([-big, 1]) == [float(big)] == [1.7976931348623157e308]
    assert real_roots([-(big + 2**970) + 1, 1]) == [float(big)]
    with pytest.raises(DomainViolation):
        real_roots([-(big + 2**970), 1])


@pytest.mark.parametrize(
    "root",
    [
        Fraction(3),
        Fraction(-7, 3),
        Fraction(1, 10),
        1 + Fraction(3, 2**53),  # a tie, rounded to even
        1 + Fraction(1, 2**53),  # a tie, rounded down to even
        Fraction(5, 2**1076),  # subnormal
        Fraction(-1, 3 * 2**1074),  # rounds to -0.0
        Fraction(17 * 10**307),  # near the top of the float range
    ],
    ids=str,
)
def test_real_roots_of_a_linear_factor_are_the_rounded_fraction(root):
    (x,) = real_roots([-root, 1])
    assert x.hex() == float(root).hex()
    (x,) = real_roots([-3 * root, 3])
    assert x.hex() == float(root).hex()


def test_real_roots_match_a_seeded_rational_oracle():
    rnd = random.Random(3)
    for _ in range(200):
        roots = set()
        for _ in range(rnd.randint(1, 5)):
            r = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**4))
            roots.add(r)
            if rnd.random() < 0.3:
                roots.add(r + Fraction(rnd.choice((1, -1)), 10**13))
        coeffs = _with_roots(*roots)
        if rnd.random() < 0.5:  # times s^2 + c, which has no real root
            c = Fraction(rnd.randint(1, 100), rnd.randint(1, 100))
            coeffs = [c * a + b for a, b in zip(coeffs + [0, 0], [0, 0] + coeffs)]
        assert real_roots(coeffs) == sorted(float(r) for r in roots)


# -- the constructors' and kernels' fast paths ------------------------


def test_non_integer_exponents_and_powers_of_t_are_rejected():
    x1 = _vars()[1]
    with pytest.raises(ArityMismatch, match="non-integer"):
        MultiPoly(1, 2, {(0.5, 0, 1): 1})  # int(0.5) would drop y^0.5, leaving x2
    with pytest.raises(ArityMismatch, match="non-integer"):
        LaurentElement(1, 2, {1.5: x1})  # int(1.5) would give (x1)*t^-1
    for bad in (float("nan"), float("inf"), Fraction(1, 2), "1"):
        with pytest.raises(ArityMismatch):
            MultiPoly(P, Q, {(0, bad, 0): 1})
        with pytest.raises(ArityMismatch):
            LaurentElement(P, Q, {bad: x1})
    # integers, numpy integers and integral floats keep working, as ints
    for one in (1, np.int64(1), np.uint8(1), 1.0, np.float64(1.0), True, Fraction(1)):
        f = MultiPoly(P, Q, {(0, one, 0): 1})
        assert f == x1 and all(type(e) is int for exps in f.terms for e in exps)
        elem = LaurentElement(P, Q, {one: x1})
        assert elem == LaurentElement.from_poly(x1, 1) and all(type(k) is int for k in elem.coeffs)


class _Pairs(list):
    """Terms as (key, value) pairs, so that a key can repeat."""

    def items(self):
        return iter(self)


def test_constructors_still_merge_drop_and_check_the_filtration():
    y, x1, x2 = _vars()
    merged = MultiPoly(
        P,
        Q,
        _Pairs(
            [((0, 1, 0), 2), ((1, 0, 0), 1), ((0, 1, 0), Fraction(1, 2)), ((1, 0, 0), -1), ((0, 0, 1), 0)]
        ),
    )
    assert merged.terms == {(0, 1, 0): Fraction(5, 2)}
    again = MultiPoly(P, Q, _Pairs([((0, 1, 0), 1), ((0, 1, 0), -1), ((0, 1, 0), 3)]))
    assert again.terms == {(0, 1, 0): 3}
    assert LaurentElement(P, Q, {0: y - y, 1: x1, 2: MultiPoly(P, Q)}).coeffs == {1: x1}
    for k, f in ((1, y + x1), (np.int64(2), x1), (2.0, x1 * x2 + x2)):
        with pytest.raises(InvariantBreach):
            LaurentElement(P, Q, {k: f})


def _exact(v) -> Fraction:
    """``v`` as a Fraction of Python ints, also when ``v`` is a numpy
    integer or a Fraction of them."""
    v = Fraction(int(v)) if isinstance(v, np.integer) else Fraction(v)
    return Fraction(int(v.numerator), int(v.denominator))


def _forms(point, sized=False):
    """The forms a point can take: list, tuple, object ndarray, an int64
    ndarray when every entry is an integer, and (unless ``sized``) a generator."""
    forms = [list(point), tuple(point), np.array(point, dtype=object)]
    if all(isinstance(v, (int, np.integer)) for v in point):
        forms.append(np.array([int(v) for v in point], dtype=np.int64))
    return forms if sized else forms + [(v for v in point)]


_ELEMENT = LaurentElement(
    P,
    Q,
    {
        -1: MultiPoly(P, Q, {(2, 0, 0): 3, (0, 1, 1): Fraction(-1, 2)}),
        0: MultiPoly(P, Q, {(0, 0, 0): 1, (1, 1, 0): -2}),
        1: MultiPoly(P, Q, {(0, 1, 0): Fraction(5, 3), (1, 1, 1): 1}),
        2: MultiPoly(P, Q, {(0, 1, 1): 4, (0, 3, 0): -1}),
    },
)


@pytest.mark.parametrize(
    "point",
    [
        [2, -3, 5],
        [Fraction(1, 3), Fraction(-7, 2), Fraction(5)],
        [np.int64(2), np.int32(-3), np.uint8(5)],
        [True, False, True],
        [Fraction(1, 3), np.int64(-2), True],
        [0.5, -3.0, np.float64(2.25)],
    ],
    ids=["int", "Fraction", "numpy int", "bool", "mixed", "float"],
)
def test_fast_paths_agree_on_every_point_form(point):
    exact = [_exact(v) for v in point]
    s = Fraction(-2, 3)
    want_xs, want_yxi = _naive_xs(_ELEMENT, exact, s), _naive_yxi(_ELEMENT, exact[:P], exact[P:])
    f = _ELEMENT.coeffs[1]
    for x in _forms(point):
        assert char_xs(_ELEMENT, x, s) == want_xs
    for x in _forms(point):
        assert f.evaluate(x) == _naive_value(f, exact)
    for y in _forms(point[:P], sized=True):
        for xi in _forms(point[P:]):
            got = char_yxi(_ELEMENT, y, xi)
            assert got == want_yxi and type(got) is Fraction
    for s_form in (s, -2, np.int64(-2), True, 0.25):
        assert char_xs(_ELEMENT, point, s_form) == _naive_xs(_ELEMENT, exact, _exact(s_form))


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_entries = st.one_of(
    st.integers(-4, 4), _rationals, st.integers(-4, 4).map(np.int64), st.booleans()
)


@st.composite
def _elements(draw):
    coeffs = {}
    for k in draw(st.lists(st.integers(-2, 3), unique=True, max_size=3)):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            x1 = draw(st.integers(0, 3) | st.integers(40, 45))
            x2 = draw(st.integers(max(k - x1, 0), max(k - x1, 0) + 2))
            terms[(draw(st.integers(0, 3)), x1, x2)] = draw(_rationals)
        coeffs[k] = MultiPoly(P, Q, terms)
    return LaurentElement(P, Q, coeffs)


# Counterexamples found against numpy integers read as numpy values: int64
# products wrapped silently (the first) or overflowed on mixing with ints.
@example(LaurentElement(P, Q, {0: MultiPoly(P, Q, {(0, 40, 0): 1})}), [0, np.int64(3), 0], 1, 0)
@example(LaurentElement(P, Q, {1: MultiPoly(P, Q, {(0, 40, 0): 1})}), [0, 3, 0], np.int64(-1), 0)
@example(
    LaurentElement(P, Q, {0: MultiPoly(P, Q, {(1, 40, 0): 1})}), [np.int64(0), Fraction(1, 3), 0], 1, 0
)
# A Fraction keeps a numpy numerator as it is, so it wrapped the same way.
@example(LaurentElement(P, Q, {0: MultiPoly(P, Q, {(0, 41, 0): 1})}), [0, Fraction(np.int64(3)), 0], 1, 0)
@example(
    LaurentElement(P, Q, {2: MultiPoly(P, Q, {(0, 2, 0): 1})}), [0, 1, 0], Fraction(np.int64(3) ** 20), 0
)
@given(
    _elements(),
    st.lists(_entries, min_size=P + Q, max_size=P + Q),
    _entries.filter(bool),
    st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_characters_match_a_direct_fraction_evaluation(a, point, s, form):
    exact = [_exact(v) for v in point]

    def pick(forms):
        return forms[min(form, len(forms) - 1)]

    assert char_xs(a, pick(_forms(point)), s) == _naive_xs(a, exact, _exact(s))
    y, xi = pick(_forms(point[:P], sized=True)), pick(_forms(point[P:]))
    assert char_yxi(a, y, xi) == _naive_yxi(a, exact[:P], exact[P:])
    for f in a.coeffs.values():
        assert f.evaluate(pick(_forms(point))) == _naive_value(f, exact)


_SCALARS = [2, np.int64(2), 2.5, np.float64(0.5), Fraction(-1, 3), Fraction(np.int64(7)), True]


@pytest.mark.parametrize("scalar", _SCALARS, ids=[repr(v) for v in _SCALARS])
def test_scalar_operands_work_on_either_side(scalar):
    y, x1, x2 = _vars()
    f = y + x1 * x2
    c = MultiPoly.const(P, Q, _exact(scalar))
    results = {
        "f + s": (f + scalar, f + c),
        "s + f": (scalar + f, f + c),
        "f - s": (f - scalar, f - c),
        "s - f": (scalar - f, c - f),
        "f * s": (f * scalar, f * c),
        "s * f": (scalar * f, f * c),
    }
    for name, (got, want) in results.items():
        assert type(got) is MultiPoly and got == want, name
        assert all(type(v) is Fraction and type(v.numerator) is int for v in got.terms.values()), name
    assert c == scalar and scalar == c
    assert f != scalar and scalar != f


@pytest.mark.parametrize("other", ["2", None, [1], LaurentElement.t_element(P, Q)], ids=repr)
def test_other_operands_are_not_implemented(other):
    f = _vars()[1]
    for op in ("+", "-", "*"):
        with pytest.raises(TypeError):
            eval(f"f {op} other")
        with pytest.raises(TypeError):
            eval(f"other {op} f")
    assert f != other


@pytest.mark.parametrize("other", [2, np.int64(2), 2.5, Fraction(1, 2), _vars()[0]], ids=repr)
def test_laurent_elements_take_no_scalar_or_polynomial_operand(other):
    t = LaurentElement.t_element(P, Q)
    for op in ("+", "*"):
        with pytest.raises(TypeError):
            eval(f"t {op} other")
        with pytest.raises(TypeError):
            eval(f"other {op} t")


_NON_FINITE = [float("nan"), float("inf"), -float("inf"), np.float64("nan")]
_NON_FINITE_USES = {
    "f + v": lambda f, v: f + v,
    "v + f": lambda f, v: v + f,
    "f - v": lambda f, v: f - v,
    "v - f": lambda f, v: v - f,
    "f * v": lambda f, v: f * v,
    "v * f": lambda f, v: v * f,
    "f == v": lambda f, v: f == v,
    "coefficient": lambda f, v: MultiPoly(0, 1, {(1,): v}),
    "constant": lambda f, v: MultiPoly.const(0, 1, v),
    "point": lambda f, v: f.evaluate([v]),
    "tree constant": lambda f, v: expr_to_poly(Mul(Const(v), Var(0)), 0, 1),
}


@pytest.mark.parametrize("use", list(_NON_FINITE_USES))
@pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
def test_non_finite_floats_raise_arity_mismatch(use, value):
    with pytest.raises(ArityMismatch, match="non-finite"):
        _NON_FINITE_USES[use](MultiPoly.var(0, 1, 0), value)


_NON_NUMBER_USES = {
    "coefficient": lambda v: MultiPoly(0, 1, {(1,): v}),
    "constant": lambda v: MultiPoly.const(0, 1, v),
    "laurent term": lambda v: LaurentElement.from_terms(1, 2, {(0, 1, 0, 1): v}),
    "point": lambda v: MultiPoly.var(0, 1, 0).evaluate([v]),
    "body parameter": lambda v: char_xs(LaurentElement.t_element(1, 2), [1, 2, 3], v),
}


@pytest.mark.parametrize("use", list(_NON_NUMBER_USES))
@pytest.mark.parametrize("value", ["a", None, 1j, [1, 2]], ids=repr)
def test_a_coefficient_that_is_not_a_number_raises_arity_mismatch_as_a_point_does(use, value):
    with pytest.raises(ArityMismatch, match="is not a number"):
        _NON_NUMBER_USES[use](value)


def test_negative_block_sizes_are_rejected():
    for p, q in ((-1, 2), (1, -1), (-1, -1)):
        with pytest.raises(ArityMismatch, match="negative block size"):
            MultiPoly(p, q)
        with pytest.raises(ArityMismatch, match="negative block size"):
            MultiPoly.const(p, q, 1)
        with pytest.raises(ArityMismatch, match="negative block size"):
            MultiPoly.var(p, q, 0)
        with pytest.raises(ArityMismatch, match="negative block size"):
            LaurentElement(p, q, {})
    for index in (-1, 3):
        with pytest.raises(ArityMismatch, match="out of range"):
            MultiPoly.var(1, 2, index)
    assert MultiPoly(0, 0).is_zero() and str(LaurentElement(0, 0, {0: MultiPoly.const(0, 0, 2)})) == "(2)"


def test_non_integer_block_sizes_are_rejected():
    for p, q in ((1.5, 2), (0.5, 1), (0.5, 0.5), (1, float("nan")), (1, "2")):
        for make in (lambda: MultiPoly(p, q), lambda: MultiPoly.const(p, q, 1), lambda: MultiPoly.var(p, q, 0),
                     lambda: LaurentElement(p, q, {})):
            with pytest.raises(ArityMismatch, match="non-integer block size"):
                make()
        with pytest.raises(ArityMismatch, match="non-integer block size"):
            parse_laurent("t", p, q)
    # An integral float reads as its int, as an integral exponent does.
    for poly in (MultiPoly(2.0, 1), MultiPoly.const(2.0, 1.0, 3), MultiPoly.var(np.int64(2), 1, 0)):
        assert (poly.p, poly.q) == (2, 1) and type(poly.p) is int and type(poly.q) is int
    assert LaurentElement(1.0, 2.0, {}).p == 1 and MultiPoly(2.0, 1) == MultiPoly(2, 1)


# -- the integer form: numerators over one denominator ------------------


def _oracle_poly(rnd, n_terms):
    """A dict of Fraction coefficients on random monomials, some of them
    repeated, and the pairs it is built from."""
    pairs = []
    for _ in range(n_terms):
        exps = (rnd.randint(0, 2), rnd.randint(0, 2), rnd.randint(0, 1))
        pairs.append((exps, Fraction(rnd.randint(-9, 9), rnd.choice((1, 2, 3, 4, 6, 9, 10)))))
    terms: dict = {}
    for exps, c in pairs:
        terms[exps] = terms.get(exps, 0) + c
    return {e: c for e, c in terms.items() if c}, pairs


def _oracle_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_canonical(f: MultiPoly, want: dict):
    assert f.terms == want and all(type(c) is Fraction for c in f.terms.values())
    assert all(type(n) is int and n for n in f.nums.values()) and type(f.den) is int and f.den > 0
    assert math.gcd(f.den, *f.nums.values()) == 1
    assert f == MultiPoly(P, Q, want) and hash(f) == hash(MultiPoly(P, Q, want))


def test_integer_form_matches_a_fraction_dict_oracle():
    rnd = random.Random(22)
    for _ in range(300):
        (ta, pairs_a), (tb, _) = _oracle_poly(rnd, rnd.randint(0, 4)), _oracle_poly(rnd, rnd.randint(0, 4))
        a, b = MultiPoly(P, Q, _Pairs(pairs_a)), MultiPoly(P, Q, tb)
        _assert_canonical(a, ta)
        _assert_canonical(a + b, _oracle_add(ta, tb))
        _assert_canonical(a - b, _oracle_add(ta, tb, -1))
        _assert_canonical(a * b, _oracle_mul(ta, tb))
        c = Fraction(rnd.randint(-4, 4), rnd.randint(1, 6))
        _assert_canonical(a * c, {e: v * c for e, v in ta.items() if v * c})
        _assert_canonical(c * b - b * c, {})
        point = [Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(P + Q)]
        assert a.evaluate(point) == _naive_value(MultiPoly(P, Q, ta), point)
    # one value from several routes: the same numerators, denominator and hash
    f = MultiPoly(P, Q, {(0, 1, 0): Fraction(1, 2), (1, 0, 0): Fraction(2, 3)})
    routes = [
        (f * Fraction(1, 3)) * 3,
        (f + f) * Fraction(1, 2),
        f * 6 * Fraction(1, 6),
        MultiPoly(P, Q, {(1, 0, 0): Fraction(4, 6), (0, 1, 0): 0.5}),
        MultiPoly(P, Q, _Pairs([((0, 1, 0), 1), ((1, 0, 0), Fraction(2, 3)), ((0, 1, 0), Fraction(-1, 2))])),
        MultiPoly.var(P, Q, 1) * Fraction(1, 2) + MultiPoly.const(P, Q, Fraction(2, 3)) * MultiPoly.var(P, Q, 0),
        (f * f - f * f) + f,
    ]
    for g in routes:
        assert (g.nums, g.den) == ({(0, 1, 0): 3, (1, 0, 0): 4}, 6)
        assert g == f and hash(g) == hash(f)
    half = MultiPoly.var(P, Q, 1) * Fraction(1, 2)
    assert half + half == MultiPoly.var(P, Q, 1) and (half + half).den == 1
    assert (f - f).nums == {} and (f - f).den == 1 and f - f == MultiPoly(P, Q)


def test_pair_cores_give_the_public_characters():
    rnd = random.Random(11)
    for _ in range(200):
        a = _seeded_element(rnd)
        x = [_seeded_rational(rnd) for _ in range(P + Q)]
        s = _seeded_rational(rnd) or Fraction(3, 2)
        y, xi = x[:P], x[P:]
        [(num, den)] = char_xs_pairs([a], x, s)
        assert type(num) is int and type(den) is int and den != 0
        assert Fraction(num, den) == char_xs(a, x, s) == _naive_xs(a, x, s)
        [(num, den)] = char_yxi_pairs([a], y, xi)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == char_yxi(a, y, xi) == _naive_yxi(a, y, xi)


def test_pair_cores_evaluate_a_product_and_a_sum_with_their_factors():
    """The suite's calls: both cores on (a, b, a*b, a+b) at one point, for
    elements that include zero, t (k = -1) and monomials that a and b
    share, so a + b merges or cancels them and a * b repeats them."""
    rnd = random.Random(32)
    zero = LaurentElement(P, Q, {})
    t = LaurentElement.t_element(P, Q)
    cases = 0
    for i in range(300):
        a = _seeded_element(rnd)
        pick = i % 5
        if pick == 0:
            b = _seeded_element(rnd)
        elif pick == 1:
            b = a  # every monomial repeated
        elif pick == 2:
            b = a * LaurentElement.from_poly(MultiPoly.const(P, Q, -1)) + t  # a + b cancels to t
        elif pick == 3:
            b = zero
        else:
            a, b = t, a + t * _seeded_element(rnd)
        x = [_seeded_rational(rnd) for _ in range(P + Q)]
        if i % 3 == 0:
            x[P] = 0  # a zero coordinate, whose zero power is 1
        s = _seeded_rational(rnd) or Fraction(-4, 5)
        y, xi = x[:P], [_seeded_rational(rnd) for _ in range(Q)]
        elements = (a, b, a * b, a + b)
        for e, pair in zip(elements, char_xs_pairs(elements, x, s), strict=True):
            assert Fraction(*pair) == _naive_xs(e, x, s)
        for e, pair in zip(elements, char_yxi_pairs(elements, y, xi), strict=True):
            assert pair[1] > 0 and Fraction(*pair) == _naive_yxi(e, y, xi)
        cases += any(k < 0 for e in elements for k in e.coeffs) and not (a + b).coeffs.keys() - {-1}
    assert cases  # some sums cancel down to t alone


def test_ring_suite_notices_a_character_that_is_wrong_on_products(monkeypatch):
    from conecut import ring, verify

    assert verify.SUITES["ring"](samples=40, seed=0).details["homomorphism_exact"]
    products = []
    multiply, core = ring.LaurentElement.__mul__, ring.char_xs_pairs

    def recorded(a, b):
        products.append(multiply(a, b))
        return products[-1]

    def off_by_one(elements, x, s):
        return [
            (num + den, den) if any(a is p for p in products) else (num, den)
            for a, (num, den) in zip(elements, core(elements, x, s))
        ]

    monkeypatch.setattr(ring.LaurentElement, "__mul__", recorded)
    monkeypatch.setattr(ring, "char_xs_pairs", off_by_one)
    result = verify.SUITES["ring"](samples=40, seed=0)
    assert products and not result.ok
    assert result.details == {"homomorphism_exact": False, "grading_exact": True}


@pytest.mark.parametrize("seed", range(30))
def test_ring_suite_passes_at_every_seed(seed):
    from conecut.verify import SUITES

    result = SUITES["ring"](samples=150, seed=seed)
    assert result.ok and result.details == {"homomorphism_exact": True, "grading_exact": True}
    assert result.max_residual <= result.tol


def test_polynomial_powers_follow_the_rule_of_exponents():
    y, x1, _ = _vars()
    f = x1 + y
    for two in (2, 2.0, np.int64(2), np.float64(2.0), Fraction(2)):
        assert f**two == f * f
    assert f**0 == MultiPoly.const(P, Q, 1)
    for bad in (2.5, float("nan"), Fraction(1, 2), "2"):
        with pytest.raises(ArityMismatch, match="non-integer"):
            f**bad
    with pytest.raises(ArityMismatch, match="negative"):
        f**-1


def test_square_and_multiply_powers_equal_repeated_products():
    """MultiPoly ** k and the Pow node of expr_to_laurent square and
    multiply; exact arithmetic gives the k-fold product for k = 0 .. 12."""
    y, x1, x2 = _vars()
    f = Fraction(1, 3) * y - x1 * x2 + 2
    e = Var(1) * Var(0) + Const(0.5) * Var(3) - Var(2)  # Var(3) is t
    repeated, tree = MultiPoly.const(P, Q, 1), Const(1.0)
    for k in range(13):
        assert f**k == repeated
        assert expr_to_laurent(e**k, P, Q, t_index=3) == expr_to_laurent(tree, P, Q, t_index=3)
        repeated, tree = repeated * f, Mul(tree, e)


# -- the Laurent term table against the former dict of polynomials ------
# _ref_* are the former LaurentElement arithmetic and characters, on a
# dict {k: MultiPoly} with no zero coefficient, kept as the oracle.


def _ref_clean(coeffs: dict) -> dict:
    return {k: f for k, f in coeffs.items() if not f.is_zero()}


def _ref_add(a: dict, b: dict) -> dict:
    coeffs = dict(a)
    for k, f in b.items():
        coeffs[k] = coeffs[k] + f if k in coeffs else f
    return _ref_clean(coeffs)


def _ref_mul(a: dict, b: dict) -> dict:
    coeffs: dict = {}
    for k1, f1 in a.items():
        for k2, f2 in b.items():
            k, prod = k1 + k2, f1 * f2
            coeffs[k] = coeffs[k] + prod if k in coeffs else prod
    return _ref_clean(coeffs)


def _ref_xs(a: dict, x, s) -> Fraction:
    return sum((_naive_value(f, x) * Fraction(s) ** -k for k, f in a.items()), Fraction(0))


def _ref_yxi(a: dict, p, q, y, xi) -> Fraction:
    total = Fraction(0)
    for k, f in a.items():
        if k >= 0:
            part = {e: c for e, c in f.terms.items() if sum(e[p:]) == k}
            total += _naive_value(MultiPoly(p, q, part), [*y, *xi])
    return total


def _ref_str(a: dict) -> str:
    if not a:
        return "0"
    return " + ".join(f"({a[k]})" if k == 0 else f"({a[k]})*t^{-k}" for k in sorted(a))


def _ref_coeffs(rnd, p, q) -> dict:
    """{k: f_k} with Fraction coefficients, k from -2 to 2 (k <= 0 when
    q = 0) and the filtration kept."""
    coeffs = {}
    for k in rnd.sample(range(-2, 3 if q else 1), rnd.randint(0, 3)):
        terms = {}
        for _ in range(rnd.randint(1, 3)):
            x_exps = [0] * q
            for _ in range(max(k, 0) + rnd.randint(0, 1) if q else 0):
                x_exps[rnd.randrange(q)] += 1
            y_exps = [rnd.randint(0, 2) for _ in range(p)]
            terms[(*y_exps, *x_exps)] = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        coeffs[k] = MultiPoly(p, q, terms)
    return _ref_clean(coeffs)


def _assert_matches_reference(elem, ref: dict):
    assert elem.coeffs == ref and str(elem) == _ref_str(ref)
    built = LaurentElement(elem.p, elem.q, ref)
    assert elem == built and list(built.coeffs) == list(ref)  # the constructor keeps the order of k
    terms = {(*e, k): c for k, f in ref.items() for e, c in f.terms.items()}
    assert elem == LaurentElement.from_terms(elem.p, elem.q, terms)


@pytest.mark.parametrize("p, q", [(1, 2), (0, 2), (2, 1), (1, 0), (0, 0)])
def test_term_table_matches_the_dict_of_polynomials(p, q):
    rnd = random.Random(25 + 10 * p + q)
    for i in range(150):
        ra = _ref_coeffs(rnd, p, q)
        if i % 5 == 0:  # cancellation: b negates some of a's coefficients
            rb = _ref_add(_ref_coeffs(rnd, p, q), {k: -f for k, f in ra.items() if rnd.random() < 0.7})
        else:
            rb = _ref_coeffs(rnd, p, q)
        a, b = LaurentElement(p, q, ra), LaurentElement(p, q, rb)
        x = [_seeded_rational(rnd) for _ in range(p + q)]
        s = _seeded_rational(rnd) or Fraction(5, 2)
        y, xi = x[:p], [_seeded_rational(rnd) for _ in range(q)]
        pairs = [(a, ra), (b, rb), (a * b, _ref_mul(ra, rb)), (a + b, _ref_add(ra, rb))]
        assert list((a * b).coeffs) == list(pairs[2][1])  # a product keys its k as the dicts did
        for elem, ref in pairs:
            _assert_matches_reference(elem, ref)
            assert char_xs(elem, x, s) == _ref_xs(ref, x, s)
            assert char_yxi(elem, y, xi) == _ref_yxi(ref, p, q, y, xi)
        elems, refs = zip(*pairs)
        want = [_ref_xs(ref, x, s) for ref in refs]
        assert [Fraction(*v) for v in char_xs_pairs(elems, x, s)] == want
        want = [_ref_yxi(ref, p, q, y, xi) for ref in refs]
        assert [Fraction(*v) for v in char_yxi_pairs(elems, y, xi)] == want
    # a sum that cancels to zero, and a product whose cross terms cancel
    y, x1 = MultiPoly.var(1, 1, 0), MultiPoly.var(1, 1, 1)
    a = LaurentElement(1, 1, {1: x1 * Fraction(1, 3), 0: y})
    assert a + LaurentElement(1, 1, {1: x1 * Fraction(-1, 3), 0: -y}) == LaurentElement(1, 1, {})
    prod = a * LaurentElement(1, 1, {1: x1 * Fraction(1, 3), 0: -y})
    _assert_matches_reference(prod, {2: x1 * x1 * Fraction(1, 9), 0: -y * y})


_BAD_POINTS = {
    "xs at a scalar": lambda a, f: char_xs(a, 3, 1),
    "xs at a nested point": lambda a, f: char_xs(a, [1, [2], 3], 1),
    "xs at a 2-D array": lambda a, f: char_xs(a, np.zeros((3, 1), dtype=np.int64), 1),
    "xs at a string coordinate": lambda a, f: char_xs(a, [1, "2", 3], 1),
    "xs at a string s": lambda a, f: char_xs(a, [1, 2, 3], "2"),
    "yxi at a scalar y": lambda a, f: char_yxi(a, 1, [1, 2]),
    "yxi at a scalar xi": lambda a, f: char_yxi(a, [1], 2),
    "yxi at a None coordinate": lambda a, f: char_yxi(a, [None], [1, 2]),
    "yxi at a nested xi": lambda a, f: char_yxi_pairs([a], [1], [[1, 2]]),
    "evaluate at a None coordinate": lambda a, f: f.evaluate([None, 1, 2]),
    "evaluate at a scalar": lambda a, f: f.evaluate(Fraction(1, 2)),
    "evaluate at a complex coordinate": lambda a, f: f.evaluate([1j, 1, 2]),
    "pairs of no element": lambda a, f: char_xs_pairs([], [1, 2, 3], 1),
    "pairs over two splits": lambda a, f: char_yxi_pairs([a, LaurentElement(2, 1, {})], [1], [1, 2]),
}


@pytest.mark.parametrize("use", list(_BAD_POINTS))
def test_points_that_are_not_flat_sequences_of_numbers_raise_arity_mismatch(use):
    with pytest.raises(ArityMismatch):
        _BAD_POINTS[use](_ELEMENT, _ELEMENT.coeffs[1])


def test_the_slice_block_is_read_once():
    want = char_yxi(_ELEMENT, [Fraction(1, 2)], [1, 2])
    assert char_yxi(_ELEMENT, (v for v in [Fraction(1, 2)]), iter([1, 2])) == want
    assert char_xs(_ELEMENT, iter([1, 2, 3]), 2) == char_xs(_ELEMENT, [1, 2, 3], 2)


@pytest.mark.parametrize("coefficient", [3, Fraction(1, 2), "x1", None, LaurentElement.t_element(P, Q)], ids=repr)
def test_a_coefficient_that_is_not_a_polynomial_is_named(coefficient):
    with pytest.raises(ArityMismatch, match="is not a MultiPoly") as info:
        LaurentElement(1, 2, {0: coefficient})
    assert repr(coefficient) in str(info.value)


def test_the_coeffs_view_cannot_change_an_element():
    y, x1, _ = _vars()
    a = LaurentElement(P, Q, {0: x1, 1: x1 * Fraction(1, 2)})
    view = a.coeffs
    view[5] = x1  # (x1)*t^-5 breaks the filtration
    view[0] = y
    del view[1]
    view = a.coeffs
    view[1].nums[(1, 0, 0)] = 7
    assert a.coeffs is not a.coeffs and a.coeffs == {0: x1, 1: x1 * Fraction(1, 2)}
    assert str(a) == "(x1) + (1/2*x1)*t^-1" and a == LaurentElement(P, Q, {0: x1, 1: x1 * Fraction(1, 2)})
    # each coefficient in lowest terms, though the table has one denominator
    assert (a.nums, a.den) == ({(0, 1, 0, 0): 2, (0, 1, 0, 1): 1}, 2)
    assert [(f.nums, f.den) for f in a.coeffs.values()] == [({(0, 1, 0): 1}, 1), ({(0, 1, 0): 1}, 2)]


def test_the_ring_suite_builds_no_polynomial_per_sample(monkeypatch):
    from conecut import verify

    init, trusted = MultiPoly.__init__, MultiPoly._trusted.__func__

    def constructions(samples) -> int:
        count = 0

        def counted_init(self, *args):
            nonlocal count
            count += 1
            init(self, *args)

        def counted_trusted(cls, *args):
            nonlocal count
            count += 1
            return trusted(cls, *args)

        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "__init__", counted_init)
            patch.setattr(MultiPoly, "_trusted", classmethod(counted_trusted))
            assert verify.SUITES["ring"](samples=samples, seed=3).ok
        return count

    assert constructions(50) == constructions(500) > 0
