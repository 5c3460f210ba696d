"""Blow-up models, charts, induced maps, products, curves, the sphere."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from conecut.blowup import (
    AlgebraicPoint,
    Body,
    Exceptional,
    SphereBody,
    SphereExceptional,
    algebraic_relations_residual,
    blowdown,
    blowup_map,
    canonical_direction,
    canonical_polar,
    canonicalize,
    chart_phi,
    chart_phi_inv,
    dnc_as_open_subset,
    from_algebraic,
    from_ambient,
    from_polar,
    polar_map,
    product_join,
    product_split,
    sphere_chart,
    sphere_chart_inv,
    sphere_local_expression,
    sphere_local_expression_direct,
    sphere_rp2_inv,
    sphere_rp2_map,
    strict_transform_curve,
    to_algebraic,
    to_polar,
    transition,
)
from conecut.dnc import DncPoint
from conecut.groupoid import rotate_blowup_point
from conecut import blowup, pairs
from conecut.errors import CenterPoint, DomainViolation, NotAdapted, NotImmersive, OutsideBlupF, OutsideChart
from conecut.expr import Var, from_components
from conecut.pairs import MapOfPairs, PairDims
from conecut.ring import MultiPoly

DIMS31 = PairDims(3, 1)
DIMS20 = PairDims(2, 0)


def test_canonical_direction_normalizes():
    d = canonical_direction([3.0, 4.0])
    assert np.allclose(d, [0.6, 0.8])
    # first nonzero component is made positive
    d = canonical_direction([-3.0, 4.0])
    assert np.allclose(d, [0.6, -0.8])
    d = canonical_direction([0.0, -2.0])
    assert np.allclose(d, [0.0, 1.0])


def test_canonicalize_body_and_exceptional():
    z = canonicalize([], [1.0, 1.0], 2.0, DIMS20)
    assert isinstance(z, Body)
    assert np.allclose(z.x, [2.0, 2.0])
    z0 = canonicalize([], [2.0, 0.0], 0.0, DIMS20)
    assert isinstance(z0, Exceptional)
    assert np.allclose(z0.xi_dir, [1.0, 0.0])
    with pytest.raises(CenterPoint):
        canonicalize([], [0.0, 0.0], 1.0, DIMS20)


def test_canonicalize_is_scale_invariant():
    a = canonicalize([0.5], [2.0, -1.0], 0.5, DIMS31)
    b = canonicalize([0.5], [4.0, -2.0], 0.25, DIMS31)
    assert np.allclose(a.x, b.x)


def test_blowdown():
    body = from_ambient([0.5, 1.0, 2.0], DIMS31)
    assert np.allclose(blowdown(body), [0.5, 1.0, 2.0])
    exc = Exceptional(np.array([0.5]), np.array([1.0, 0.0]), DIMS31)
    down = blowdown(exc)
    assert np.allclose(down, [0.5, 0.0, 0.0])


def test_chart_round_trip_body():
    z = from_ambient([0.5, 1.0, 2.0], DIMS31)
    for i in (1, 2):
        w = chart_phi(i, z)
        back = chart_phi_inv(i, w, DIMS31)
        assert isinstance(back, Body)
        assert np.allclose(back.x, z.x, atol=1e-12)


def test_chart_values_by_hand():
    # x = (y, x1, x2) = (0.5, 1.0, 2.0); chart 1: (y, x1 at slot 1, x2/x1)
    z = from_ambient([0.5, 1.0, 2.0], DIMS31)
    w1 = chart_phi(1, z)
    assert np.allclose(w1, [0.5, 1.0, 2.0])
    w2 = chart_phi(2, z)
    assert np.allclose(w2, [0.5, 0.5, 2.0])


def test_chart_exceptional_slot_zero():
    exc = Exceptional(np.array([0.5]), canonical_direction([1.0, 2.0]), DIMS31)
    w = chart_phi(1, exc)
    assert w[1] == 0.0  # the slot coordinate vanishes on the divisor
    assert w[2] == pytest.approx(2.0)
    back = chart_phi_inv(1, w, DIMS31)
    assert isinstance(back, Exceptional)
    assert np.allclose(back.xi_dir, exc.xi_dir, atol=1e-12)


def test_chart_requires_nonzero_direction_component():
    exc = Exceptional(np.array([0.5]), np.array([0.0, 1.0]), DIMS31)
    with pytest.raises(OutsideChart):
        chart_phi(1, exc)


def test_transitions_compose_to_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.uniform(0.2, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        back = transition(2, 1, transition(1, 2, w, DIMS31), DIMS31)
        assert np.allclose(back, w, atol=1e-10)


@given(st.floats(0.1, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_algebraic_model_round_trip(x1, x2, scale):
    z = canonicalize([], [x1, x2], scale, DIMS20)
    a = to_algebraic(z)
    assert algebraic_relations_residual(a) <= 1e-12
    back = from_algebraic(a, DIMS20)
    assert np.allclose(back.x, z.x, atol=1e-12)


def test_algebraic_exceptional_round_trip():
    z = Exceptional(np.zeros(0), canonical_direction([1.0, -1.0]), DIMS20)
    a = to_algebraic(z)
    assert np.allclose(a.x, 0.0)
    back = from_algebraic(a, DIMS20)
    assert isinstance(back, Exceptional)
    assert np.allclose(back.xi_dir, z.xi_dir)


def test_polar_model_round_trip():
    z = canonicalize([0.5], [1.0, 2.0], -0.5, DIMS31)
    pp = to_polar(z)
    # representative has first nonzero theta component positive
    first = pp.theta[np.nonzero(pp.theta)[0][0]]
    assert first > 0
    back = from_polar(pp, DIMS31)
    assert np.allclose(back.x, z.x, atol=1e-12)


def test_polar_exceptional_round_trip():
    z = Exceptional(np.array([0.5]), canonical_direction([3.0, 4.0]), DIMS31)
    pp = to_polar(z)
    assert pp.t == 0.0
    back = from_polar(pp, DIMS31)
    assert isinstance(back, Exceptional)
    assert np.allclose(back.xi_dir, z.xi_dir, atol=1e-12)


def _diffeo_pair():
    # (y, x1, x2) -> (y, x1 + y*x2, x2): adapted, fiberwise invertible
    y, x1, x2 = Var(0), Var(1), Var(2)
    return MapOfPairs(
        from_components(3, (y, x1 + y * x2, x2)), DIMS31, DIMS31
    )


def test_blowup_map_body_and_exceptional():
    f = _diffeo_pair()
    body = from_ambient([0.5, 1.0, 2.0], DIMS31)
    out = blowup_map(f, body)
    assert np.allclose(out.x, [0.5, 2.0, 2.0])
    exc = Exceptional(np.array([0.5]), canonical_direction([1.0, 2.0]), DIMS31)
    out_exc = blowup_map(f, exc)
    assert isinstance(out_exc, Exceptional)
    assert np.allclose(out_exc.xi_dir, canonical_direction([2.0, 2.0]), atol=1e-12)


def test_blowup_map_commutes_with_blowdown():
    f = _diffeo_pair()
    body = from_ambient([0.5, 1.0, 2.0], DIMS31)
    assert np.allclose(blowdown(blowup_map(f, body)), f.f(blowdown(body)), atol=1e-12)


def test_blowup_map_excluded_locus():
    # the fold (y, x1, x2) -> (y, x1*x1... ) needs an adapted map whose
    # body image hits the target slice: (y, x1*x2, x2*x2) kills x-block
    # nowhere off-center except when x = 0, so use a projection instead
    y, x1, x2 = Var(0), Var(1), Var(2)
    proj = MapOfPairs(
        from_components(3, (y, x1, x2 * 0.0)), DIMS31, DIMS31
    )
    body_on_slice = from_ambient([0.5, 0.0, 2.0], DIMS31)
    with pytest.raises(OutsideBlupF):
        blowup_map(proj, body_on_slice)
    exc = Exceptional(np.array([0.5]), np.array([0.0, 1.0]), DIMS31)
    with pytest.raises(OutsideBlupF):
        blowup_map(proj, exc)


def test_blowup_map_checks_adaptedness_once_per_map(monkeypatch):
    calls = []
    original = pairs.check_adapted

    def spy(m, *args, **kwargs):
        calls.append(m)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(pairs, "check_adapted", spy)
    f = _diffeo_pair()
    body = from_ambient([0.5, 1.0, 2.0], DIMS31)
    for _ in range(100):
        blowup_map(f, body)
    assert len(calls) == 1
    # a map that is not adapted still raises on its first call
    y, x1, x2 = Var(0), Var(1), Var(2)
    shifted = MapOfPairs(from_components(3, (y, x1 + 1.0, x2)), DIMS31, DIMS31)
    with pytest.raises(NotAdapted):
        blowup_map(shifted, body)
    with pytest.raises(NotAdapted):
        polar_map(shifted, to_polar(body))


def test_polar_map_rejects_a_normal_derivative_with_kernel():
    y, x1, x2 = Var(0), Var(1), Var(2)
    fold = MapOfPairs(from_components(3, (y, x1 + x2, x1 + x2)), DIMS31, DIMS31)
    z = to_polar(from_ambient([0.5, 1.0, 2.0], DIMS31))
    for _ in range(2):
        with pytest.raises(NotImmersive):
            polar_map(fold, z)


def test_polar_map_rejects_a_normal_derivative_that_numeric_rank_calls_singular():
    # d_N = diag(1, 1e-10): its singular values are 1e-10 apart, below RANK_RTOL
    y, x1, x2 = Var(0), Var(1), Var(2)
    squash = MapOfPairs(from_components(3, (y, x1, 1e-10 * x2)), DIMS31, DIMS31)
    with pytest.raises(NotImmersive):
        polar_map(squash, to_polar(from_ambient([0.5, 1.0, 2.0], DIMS31)))


def test_polar_map_matches_quotient_map():
    f = _diffeo_pair()
    z = canonicalize([0.5], [1.0, 2.0], 0.5, DIMS31)
    via_polar = polar_map(f, to_polar(z))
    direct = to_polar(blowup_map(f, z))
    assert np.allclose(via_polar.x, direct.x, atol=1e-10)
    assert np.allclose(via_polar.theta, direct.theta, atol=1e-10)
    assert via_polar.t == pytest.approx(direct.t, abs=1e-10)


def test_product_split_join_round_trip():
    # (X x M, Y x M) with X = (R^3, R^1), M = R^2
    dims_prod = PairDims(5, 3)
    body = Body(np.array([0.5, 7.0, 8.0, 1.0, 2.0]), dims_prod)
    z, m = product_split(body, DIMS31, 2)
    assert np.allclose(m, [7.0, 8.0])
    assert np.allclose(z.x, [0.5, 1.0, 2.0])
    back = product_join(z, m, DIMS31)
    assert np.allclose(back.x, body.x)
    exc = Exceptional(np.array([0.5, 7.0, 8.0]), canonical_direction([1.0, 2.0]), dims_prod)
    z, m = product_split(exc, DIMS31, 2)
    assert isinstance(z, Exceptional)
    back = product_join(z, m, DIMS31)
    assert np.allclose(back.y, exc.y)


def test_dnc_as_open_subset():
    z = DncPoint.of([0.5], [2.0], 0.25)
    w = dnc_as_open_subset(z)
    assert isinstance(w, Body)
    assert np.allclose(w.x, [0.5, 0.5, 0.25])
    z0 = DncPoint.of([0.5], [2.0], 0.0)
    w0 = dnc_as_open_subset(z0)
    assert isinstance(w0, Exceptional)
    assert np.allclose(w0.xi_dir, canonical_direction([2.0, 1.0]), atol=1e-12)


# -- strict transforms -------------------------------------------------


def _xy():
    return MultiPoly.var(0, 2, 0), MultiPoly.var(0, 2, 1)


def test_nodal_cubic_strict_transform():
    x, y = _xy()
    strict, roots = strict_transform_curve(y**2 - x**2 * (x + 1), 1)
    assert strict == MultiPoly.var(0, 2, 1) ** 2 - x - MultiPoly.const(0, 2, 1)
    assert roots == [(-1.0, 1), (1.0, 1)]


def test_cusp_strict_transform():
    x, y = _xy()
    strict, roots = strict_transform_curve(y**2 - x**3, 1)
    assert strict == MultiPoly.var(0, 2, 1) ** 2 - x
    assert roots == [(0.0, 2)]


def test_line_strict_transform():
    _, y = _xy()
    strict, roots = strict_transform_curve(y, 1)
    assert strict == MultiPoly.var(0, 2, 1)
    assert roots == [(0.0, 1)]


def test_strict_transform_second_chart():
    x, y = _xy()
    # x = u*s, y = s: y^2 - x^3 = s^2 - u^3 s^3 = s^2 (1 - u^3 s)
    strict, _ = strict_transform_curve(y**2 - x**3, 2)
    u, s = _xy()
    assert strict == MultiPoly.const(0, 2, 1) - u**3 * s


def _curve(*factors, extra):
    """prod(y - r*x) over the factors plus the monomial extra = (c, a, b)."""
    x, y = _xy()
    g = MultiPoly.const(0, 2, 1)
    for r in factors:
        g = g * (y - r * x)
    c, a, b = extra
    return g + c * x**a * y**b


@pytest.mark.parametrize(
    "g, roots",
    [
        # (y+x)^2 (y-3x) + x^4: a double root used to vanish
        (_curve(-1, -1, 3, extra=(1, 4, 0)), [(-1.0, 2), (3.0, 1)]),
        # (y+x)^3 (y-x) + x^5: a triple root used to come out as -0.999997
        (_curve(-1, -1, -1, 1, extra=(1, 5, 0)), [(-1.0, 3), (1.0, 1)]),
        # (y+4x)^2 (y-4x)^2 + x^5: both double roots used to vanish
        (_curve(-4, -4, 4, 4, extra=(1, 5, 0)), [(-4.0, 2), (4.0, 2)]),
    ],
)
def test_repeated_tangent_directions_keep_their_multiplicity(g, roots):
    assert strict_transform_curve(g, 1)[1] == roots


def test_a_cone_just_off_a_double_line_has_no_root():
    x, y = _xy()
    # restriction s^2 - 2s + 1 + 10^-20: no real root, however close
    g = (y - x) ** 2 + Fraction(1, 10**20) * x**2 + x**3
    assert strict_transform_curve(g, 1)[1] == []


def test_tangent_directions_10_to_the_minus_13_apart_stay_two_simple_roots():
    x, y = _xy()
    r = 1 + Fraction(1, 10**13)
    g = (y - x) * (y - r * x) + x**3
    assert strict_transform_curve(g, 1)[1] == [(1.0, 1), (float(r), 1)]
    assert float(r) == 1.0000000000001


def test_irrational_tangent_directions_are_the_rounded_square_roots():
    x, y = _xy()
    assert strict_transform_curve(y**2 - 2 * x**2 + x**3, 1)[1] == [(-math.sqrt(2), 1), (math.sqrt(2), 1)]


def test_strict_transform_matches_cones_with_known_rational_roots():
    rnd = random.Random(13)
    x, y = _xy()
    for _ in range(150):
        want, g = {}, MultiPoly.const(0, 2, 1)
        for _ in range(rnd.randint(1, 4)):
            r = Fraction(rnd.randint(-500, 500), rnd.randint(1, 50))
            close = [r, r + Fraction(rnd.choice((1, -1)), 10**13)] if rnd.random() < 0.3 else [r]
            for root in close:
                if root not in want:
                    want[root] = rnd.randint(1, 3)
                    g = g * (y - root * x) ** want[root]
        if rnd.random() < 0.5:  # a definite quadratic factor: no real direction
            g = g * (y**2 + rnd.randint(1, 9) * x**2)
        degree = max(sum(e) for e in g.terms)
        g = g + rnd.choice((-2, -1, 1, 2)) * x ** (degree + 1)
        assert strict_transform_curve(g, 1)[1] == sorted((float(r), m) for r, m in want.items())


# The point kernels and the helpers they call compute on Python floats.
NUMPY_FREE = (
    "strict_transform_curve", "canonicalize", "from_ambient", "chart_phi", "chart_phi_inv",
    "transition", "blowdown", "canonical_direction", "canonical_polar", "to_polar", "from_polar",
    "product_split", "product_join", "_rounded", "_unit", "_direction", "_body", "_leading_is_negative",
)


def test_strict_transform_curve_uses_no_numpy():
    source = Path(blowup.__file__).read_text()
    functions = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    for name in NUMPY_FREE:
        assert "np" not in {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}, name


# -- the blown-up sphere ----------------------------------------------


def test_sphere_map_round_trip_body():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if min(abs(v[0]), abs(v[1]), abs(1 - v[2]), abs(1 + v[2])) < 1e-2:
            continue
        back = sphere_rp2_inv(sphere_rp2_map(SphereBody(v)))
        assert np.allclose(back.x, v, atol=1e-10)


def test_sphere_map_exceptional_goes_to_line_at_infinity():
    a = sphere_rp2_map(SphereExceptional(np.array([0.6, 0.8])))
    assert a[2] == 0.0
    back = sphere_rp2_inv(a)
    assert isinstance(back, SphereExceptional)


def test_sphere_chart_round_trips():
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if min(abs(v[0]), abs(v[1]), abs(1 - v[2]), abs(1 + v[2])) < 5e-2:
            continue
        for which in (1, 2, 3, 4):
            w = sphere_chart(which, SphereBody(v))
            back = sphere_chart_inv(which, w)
            assert np.allclose(back.x, v, atol=1e-10)


def test_sphere_local_expressions_match_direct_composition():
    rng = np.random.default_rng(13)
    for _ in range(40):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if min(abs(v[0]), abs(v[1]), abs(1 - v[2]), abs(1 + v[2])) < 5e-2:
            continue
        for which in (1, 2, 3, 4):
            w = sphere_chart(which, SphereBody(v))
            assert np.allclose(
                sphere_local_expression(which, w),
                sphere_local_expression_direct(which, w),
                atol=1e-10,
            )


def test_sphere_local_expression_closed_forms():
    # the four polynomial charts: (a(b^2+1), b), (a, b(a^2+1)), (a, ab), (ab, b)
    a, b = 0.37, -0.81
    assert np.allclose(sphere_local_expression(1, [a, b]), [a * (b * b + 1), b])
    assert np.allclose(sphere_local_expression(2, [a, b]), [a, b * (a * a + 1)])
    assert np.allclose(sphere_local_expression(3, [a, b]), [a, a * b])
    assert np.allclose(sphere_local_expression(4, [a, b]), [a * b, b])


def test_representatives_never_carry_negative_zero():
    # raw rounding would keep the sign bits of cos(pi) * 0 and of the
    # t = 0 that the sign flip of theta negates
    rotated = rotate_blowup_point(np.pi, Body(np.array([0.0, 1.0]), DIMS20))
    assert not np.any(np.signbit(rotated.x[:1]))
    assert rotated.x[1] == -1.0
    assert not np.signbit(canonical_polar([], [-1.0, 0.0], 0.0).t)
    assert not np.signbit(canonical_polar([], [1.0, 0.0], -0.0).t)


# -- rounding and normalisation at the ends of the float range -----------


def _reference_round(a):
    """The numpy rounding that _rounded replaced, kept as its oracle."""
    return np.round(np.asarray(a, dtype=float), 14) + 0.0


def _rounded_array(a):
    """blowup._rounded on the entries of a scalar or an array, as an array
    of its shape."""
    a = np.asarray(a, dtype=float)
    got = blowup._rounded(a.ravel().tolist())
    assert all(type(c) is float for c in got)
    return np.array(got).reshape(a.shape)[()]


def _same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).shape == np.asarray(want).shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_round_matches_numpy_round_bit_for_bit():
    rng = np.random.default_rng(2024)
    for exponent in range(-20, 291, 5):
        a = rng.normal(size=4000) * 10.0**exponent
        with np.errstate(over="ignore"):
            want = _reference_round(a)
        finite = np.isfinite(want)
        _same_bits(_rounded_array(a[finite]), want[finite])
    halves = (np.arange(-50, 50) + 0.5) * 1e-14
    for a in (halves, [2.5e-14, -2.5e-14, 0.5, 1.5, -2.5, 1e-15], [0.0, -0.0, -1e-16, 1e-300]):
        _same_bits(_rounded_array(a), _reference_round(a))
    for a in (2.5e-14, -0.0, 0.3, np.float64(-1e-15), np.array(7.125), np.zeros(0), np.zeros((0, 3))):
        _same_bits(_rounded_array(a), _reference_round(a))
    assert not np.signbit(blowup._rounded([-0.0])[0])


def test_round_keeps_coordinates_too_large_to_scale():
    with np.errstate(over="ignore"):
        got = blowup._rounded([1e300, -1e295, 0.1 + 1e-16])
    assert got == (1e300, -1e295, 0.1)
    with np.errstate(over="ignore"):
        assert blowup._rounded([-1e300]) == (-1e300,)
        assert from_ambient([1e300, 1.0], PairDims(2, 1)).x == (1e300, 1.0)
        assert canonicalize([1e295], [1.0], 1.0, PairDims(2, 1)).x == (1e295, 1.0)
        assert canonical_polar([1e300], [1.0], 2.0).x == (1e300,)


def test_round_rejects_non_finite_coordinates():
    for a in ([0.1, np.nan], [np.inf], -np.inf):
        with pytest.raises(DomainViolation):
            _rounded_array(a)
    with pytest.raises(DomainViolation):
        canonicalize([0.1], [np.nan], 1.0, PairDims(2, 1))
    with pytest.raises(DomainViolation):
        chart_phi_inv(1, [np.nan, 1.0], PairDims(2, 1))


def test_directions_survive_norm_overflow_and_underflow():
    with np.errstate(over="ignore", under="ignore"):
        _same_bits(canonical_direction([1e200, 1e200]), canonical_direction([1.0, 1.0]))
        _same_bits(canonical_direction([-1e200, 1e200]), canonical_direction([-1.0, 1.0]))
        assert canonical_direction([1e-320, 0.0]) == (1.0, 0.0)
        # a norm whose square is subnormal has lost digits
        assert canonical_direction([1e-160, 0.0]) == (1.0, 0.0)
        assert canonical_direction([3e-160, -4e-160]) == (0.6, -0.8)
        pp = canonical_polar([0.1], [1e200, -1e200], -1.0)
        assert pp.theta == canonical_direction([1.0, -1.0])
        assert pp.t == pytest.approx(-1e200 * np.sqrt(2.0), rel=1e-15)
        pp = to_polar(from_ambient([0.5, -1e300], PairDims(2, 1)))
        assert (pp.x, pp.theta, pp.t) == ((0.5,), (1.0,), -1e300)
        # math.hypot returns inf once the norm itself exceeds DBL_MAX
        _same_bits(canonical_direction([1.5e308, 1.5e308]), canonical_direction([1.0, 1.0]))
        _same_bits(canonical_direction([-1.5e308, 1e308, 1e308]), canonical_direction([-1.5, 1.0, 1.0]))
        with pytest.raises(DomainViolation):
            canonical_polar([0.1], [1.5e308, 1.5e308], 1.0)  # t = |theta| is not finite
        # and a subnormal one has lost digits: the direction of (1, 3)
        tiny = 2.0**-1074
        got = canonical_direction([2024 * tiny, -6072 * tiny])
        assert np.abs(got - np.array([1.0, -3.0]) / np.sqrt(10.0)).max() <= 1e-14
    with pytest.raises(CenterPoint, match="zero vector"):
        canonical_direction([0.0, -0.0])
    with pytest.raises(CenterPoint, match="polar direction"):
        canonical_polar([0.1], [0.0], 1.0)


def test_non_finite_directions_are_rejected():
    for xi in ([np.inf, 1.0], [np.nan, 0.0], [-np.inf, np.inf]):
        with pytest.raises(DomainViolation):
            canonical_direction(xi)
    with pytest.raises(DomainViolation):
        canonical_polar([0.1], [np.inf], 1.0)
    with pytest.raises(DomainViolation):
        canonical_polar([0.1], [1.0], np.inf)


# An x-block below half of 10^-14 rounds to zero: such a point is not an
# off-center representative, so it raises instead of becoming a Body on
# the center.  One x-coordinate that survives rounding keeps it off.


def test_from_ambient_rejects_a_point_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint, match="ambient point lies on the center"):
        from_ambient([0.5, 1e-15], PairDims(2, 1))
    assert from_ambient([0.5, 1e-15, 1e-13], PairDims(3, 1)).x == (0.5, 0.0, 1e-13)


def test_canonicalize_rejects_an_orbit_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint, match="orbit meets the center"):
        canonicalize([0.5], [1e-15], 1.0, PairDims(2, 1))
    assert canonicalize([0.5], [1e-15], 10.0, PairDims(2, 1)).x == (0.5, 1e-14)


def test_chart_phi_inv_rejects_a_chart_point_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint, match="rounds onto the center"):
        chart_phi_inv(1, [0.5, 1e-15], PairDims(2, 1))
    assert chart_phi_inv(1, [0.5, 1e-14], PairDims(2, 1)).x == (0.5, 1e-14)


# Every other way of naming an orbit goes through canonicalize or
# from_ambient, so the same orbit raises there too instead of coming
# back as a Body on the center.


def test_from_polar_rejects_an_orbit_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint):
        from_polar(blowup.PolarPoint(np.array([0.5]), np.array([1.0]), 1e-15), PairDims(2, 1))


def test_dnc_as_open_subset_rejects_an_orbit_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint):
        dnc_as_open_subset(DncPoint.of([0.5], [1.0], 1e-15))


def test_from_algebraic_rejects_a_point_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint):
        from_algebraic(AlgebraicPoint(np.array([1e-15, 0.0]), np.array([1.0, 0.0])), DIMS20)


def test_canonical_polar_rejects_a_nonzero_t_that_rounds_to_zero():
    # the same orbit as in canonicalize above: off the divisor, but its
    # t would round onto it
    with pytest.raises(CenterPoint, match="rounds onto the center"):
        canonical_polar([0.5], [1.0], 1e-15)
    with pytest.raises(CenterPoint):
        canonical_polar([0.5], [-3.0, 4.0], 1e-16)  # t = -5e-16 after the norm and the flip
    with pytest.raises(CenterPoint):
        canonicalize([0.5], [1.0], 1e-15, PairDims(2, 1))
    assert canonical_polar([0.5], [1.0], 1e-14).t == 1e-14
    assert canonical_polar([0.5], [-1.0], 0.0).t == 0.0


def test_polar_and_quotient_models_refuse_the_same_orbit():
    # each t*xi_i = 4e-15 rounds to 0, though t*|xi| = 5.7e-15 rounds up to 1e-14
    with pytest.raises(CenterPoint):
        canonicalize([0.5], [1.0, 1.0], 4e-15, PairDims(3, 1))
    with pytest.raises(CenterPoint, match="rounds onto the center"):
        canonical_polar([0.5], [1.0, 1.0], 4e-15)
    # t*xi_i = 5.1e-15 rounds up, but the result's r*theta_i = 1e-14 * 0.5 rounds to 0
    with pytest.raises(CenterPoint):
        canonical_polar([0.5], [1.0] * 4, 5.1e-15)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_every_polar_point_maps_back_through_from_polar(q):
    rng = np.random.default_rng(q)
    dims, refused = PairDims(q + 1, 1), 0
    for _ in range(2000):
        xi = rng.integers(-3, 4, q).astype(float)
        if not xi.any():
            continue
        t = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.5, -13.5))
        try:
            pp = canonical_polar([0.5], xi, t)
        except CenterPoint:
            refused += 1
            continue
        assert pp.t != 0.0
        assert isinstance(from_polar(pp, dims), Body)
        assert isinstance(canonicalize([0.5], xi, t, dims), Body)
    assert 0 < refused < 2000


def test_polar_map_rejects_a_body_image_that_rounds_onto_the_divisor():
    y, x = Var(0), Var(1)
    squash = MapOfPairs(from_components(2, (y, x * 1e-15)), PairDims(2, 1), PairDims(2, 1))
    z = canonical_polar([0.5], [1.0], 0.5)
    with pytest.raises(CenterPoint):
        polar_map(squash, z)  # h2 = 5e-16 rounds to t = 0
    assert polar_map(squash, canonical_polar([0.5], [1.0], 20.0)).t == 2e-14
    assert polar_map(squash, canonical_polar([0.5], [1.0], 0.0)).t == 0.0


def test_rotate_blowup_point_rejects_a_point_that_rounds_onto_the_center():
    with pytest.raises(CenterPoint):
        rotate_blowup_point(0.3, Body(np.array([1e-15, 0.0]), DIMS20))
