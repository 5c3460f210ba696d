"""Blow-up points built by ``canonicalize`` against the formulas they replaced.

Each ``old_*`` function below is the hand-built construction that a
model conversion, the open inclusion of the deformation space, the
rotation action, a polar arrow, the blown-up sphere's charts or a
vector-bundle chart used before it was routed through ``canonicalize``,
``from_ambient``, ``to_polar`` or ``chart_phi``, kept verbatim as the
reference.  Off the center the new code must return the same points bit
for bit (``tobytes()`` of every array), and raise the same exception
type where the old code raised.

Each ``np_*`` function is a numpy point kernel as it was before the
kernels moved to lists of Python floats, kept verbatim.  The kernels
that take no norm (the charts, their inverses and transitions on body
points, ``from_polar`` off the exceptional divisor) must match them bit
for bit.  The kernels that take a norm now take it from ``math.hypot``,
which is correctly rounded, where ``np.linalg.norm`` could be 1 ulp off.
A polar arrow must equal, bit for bit, the old formula evaluated at a
norm within 1 ulp of ``np.linalg.norm``'s; a direction must agree with
the numpy kernel to within ``norm_gap_bound``.

The rotation and the inverse stereographic charts once took their
products from numpy's ``@``, whose bits depend on the BLAS kernel.  They
now take them from ``conecut.expr.dot``, the correctly rounded sum of
products, so their references below replay each product with
``exact_dot``: the exact sum in Fractions, rounded once.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conecut.blowup import (
    CHART_TOL,
    ROUND_DECIMALS,
    AlgebraicPoint,
    Body,
    Exceptional,
    PolarPoint,
    SphereBody,
    SphereExceptional,
    canonical_direction,
    canonical_polar,
    canonicalize,
    chart_phi,
    chart_phi_inv,
    dnc_as_open_subset,
    from_algebraic,
    from_polar,
    sphere_chart,
    sphere_chart_inv,
    to_algebraic,
    to_polar,
    transition,
)
from conecut.dnc import DncPoint
from conecut.errors import ArityMismatch, CenterPoint, ConecutError, DomainViolation, OutsideChart
from conecut.groupoid import _polar_of_pair_arrow, polar_mult, rotate_blowup_point
from conecut.pairs import PairDims
from conecut.vb import VbBody, VbExceptional, trivial_model, vb_chart

SEED = 20261018


# -- the replaced constructions, verbatim ------------------------------


def np_split(dims: PairDims, point):
    """The blocks (y, x) of a point, as views of one array."""
    point = np.asarray(point, dtype=float)
    return point[: dims.p], point[dims.p :]


def old_from_polar(pp: PolarPoint, dims: PairDims):
    if pp.t == 0.0:
        return Exceptional(np_round(pp.x), canonical_direction(pp.theta), dims)
    return Body(np_round(np.concatenate([pp.x, pp.t * np.asarray(pp.theta)])), dims)


def old_dnc_as_open_subset(z: DncPoint):
    dims = PairDims(z.dims.n + 1, z.dims.p)
    if z.t == 0.0:
        return Exceptional(
            np_round(z.y), canonical_direction(np.append(z.xi, 1.0)), dims
        )
    return Body(np_round(np.concatenate([z.y, z.t * np.asarray(z.xi), [z.t]])), dims)


def old_from_algebraic(a: AlgebraicPoint, dims: PairDims):
    if float(np.linalg.norm(a.x)) == 0.0:
        return Exceptional(np.zeros(0), canonical_direction(a.line), dims)
    return Body(np_round(np.asarray(a.x, dtype=float)), dims)


def exact_dot(a, b) -> float:
    """sum a_i * b_i, summed exactly in Fractions and rounded once; -0.0
    where every float product is -0.0, as an IEEE sum of them gives."""
    total = sum(Fraction(u) * Fraction(v) for u, v in zip(a, b, strict=True))
    if total == 0 and len(a) and all(math.copysign(1.0, u * v) < 0 for u, v in zip(a, b)):
        return -0.0
    return float(total)


def old_rotate_blowup_point(angle: float, z):
    c, s = np.cos(angle), np.sin(angle)
    rot = [[c, -s], [s, c]]
    if isinstance(z, Body):
        return Body(np_round(np.array([exact_dot(row, z.x) for row in rot])), z.dims)
    return Exceptional(z.y, canonical_direction(np.array([exact_dot(row, z.xi_dir) for row in rot])), z.dims)


def old_polar_of_pair_arrow(a: float, b: float):
    v = np.array([a, b])
    r = float(np.linalg.norm(v))
    return canonical_polar(np.zeros(0), v / r, r)


def old_polar_of_pair_arrow_at(a: float, b: float, r: float):
    """old_polar_of_pair_arrow with the norm r in place of np.linalg.norm's."""
    v = np.array([a, b])
    return canonical_polar(np.zeros(0), v / r, r)


def _stereo_south(x: np.ndarray) -> np.ndarray:
    return np.array([x[0], x[1]]) / (1.0 + x[2])


def _stereo_north(x: np.ndarray) -> np.ndarray:
    return np.array([x[0], x[1]]) / (1.0 - x[2])


def _stereo_south_inv(u: np.ndarray) -> np.ndarray:
    r2 = exact_dot(u, u)
    return np.array([2 * u[0], 2 * u[1], 1.0 - r2]) / (1.0 + r2)


def _stereo_north_inv(u: np.ndarray) -> np.ndarray:
    r2 = exact_dot(u, u)
    return np.array([2 * u[0], 2 * u[1], r2 - 1.0]) / (1.0 + r2)


def old_sphere_chart(which: int, z) -> np.ndarray:
    if which in (1, 2):
        if isinstance(z, SphereExceptional):
            xi0, xi1 = z.xi
            if which == 1:
                if xi0 == 0.0:
                    raise OutsideChart("tangent direction has xi0 = 0")
                return np.array([0.0, xi1 / xi0])
            if xi1 == 0.0:
                raise OutsideChart("tangent direction has xi1 = 0")
            return np.array([xi0 / xi1, 0.0])
        x = z.x
        if x[2] == -1.0:
            raise OutsideChart("south pole outside the south-stereographic chart")
        u = _stereo_south(x)
        if which == 1:
            if u[0] == 0.0:
                raise OutsideChart("body point has first chart coordinate 0")
            return np.array([u[0], u[1] / u[0]])
        if u[1] == 0.0:
            raise OutsideChart("body point has second chart coordinate 0")
        return np.array([u[0] / u[1], u[1]])
    if which in (3, 4):
        if isinstance(z, SphereExceptional):
            raise OutsideChart("the north pole is outside the north-stereographic chart")
        x = z.x
        if x[2] == 1.0:
            raise OutsideChart("north pole outside the north-stereographic chart")
        u = _stereo_north(x)
        if which == 3:
            if u[0] == 0.0:
                raise OutsideChart("body point has first chart coordinate 0")
            return np.array([u[0], u[1] / u[0]])
        if u[1] == 0.0:
            raise OutsideChart("body point has second chart coordinate 0")
        return np.array([u[0] / u[1], u[1]])
    raise OutsideChart(f"sphere chart index {which} out of range 1..4")


def old_sphere_chart_inv(which: int, w):
    w = np.asarray(w, dtype=float)
    a, b = float(w[0]), float(w[1])
    if which == 1:
        if a == 0.0:
            return SphereExceptional(np.array([1.0, b]))
        return SphereBody(_stereo_south_inv(np.array([a, a * b])))
    if which == 2:
        if b == 0.0:
            return SphereExceptional(np.array([a, 1.0]))
        return SphereBody(_stereo_south_inv(np.array([a * b, b])))
    if which == 3:
        return SphereBody(_stereo_north_inv(np.array([a, a * b])))
    if which == 4:
        return SphereBody(_stereo_north_inv(np.array([a * b, b])))
    raise OutsideChart(f"sphere chart index {which} out of range 1..4")


def old_vb_chart(model, r: int, z) -> np.ndarray:
    dims = model.base
    if not 1 <= r <= dims.q:
        raise OutsideChart(f"chart index {r} out of range 1..{dims.q}")
    k = r - 1
    if isinstance(z, VbBody):
        y, xb = np_split(dims, z.u)
        if xb[k] == 0.0:
            raise OutsideChart(f"base point has x-component {r} = 0")
        base_coords = chart_phi(r, Body(np.asarray(z.u, float), dims))
        fe = np.asarray(model.frame_value(z.u, z.upsilon))
        f_part = fe[: model.rank_f]
        e_part = fe[model.rank_f :] / xb[k]
        return np.concatenate([base_coords, f_part, e_part])
    if abs(z.xi[k]) <= CHART_TOL:
        raise OutsideChart(f"exceptional direction has component {r} ~ 0")
    base_coords = chart_phi(r, Exceptional(z.y, z.xi, dims))
    return np.concatenate([base_coords, z.phi, np.asarray(z.eps) / z.xi[k]])


# -- the numpy point kernels, verbatim ---------------------------------


_SCALE = 10.0**ROUND_DECIMALS


def np_round(a):
    """Round a scalar or array to ROUND_DECIMALS; -0.0 becomes +0.0.

    This computes what np.round(a, ROUND_DECIMALS) does (scale, round
    half to even, unscale) without numpy's wrapper layers.  A coordinate
    too large for the scaled value to be finite (above about 1.8e294)
    has no digits below 10^-ROUND_DECIMALS and is kept as it is.  A
    coordinate that is not finite raises DomainViolation."""
    a = np.asarray(a, dtype=float)
    r = np.rint(a * _SCALE) / _SCALE + 0.0
    if all(map(math.isfinite, r.ravel().tolist())):
        return r
    if not np.isfinite(a).all():
        raise DomainViolation(f"representative has a non-finite coordinate: {a.tolist()}")
    return np.where(np.isfinite(r), r, a)[()]


def _leading_is_negative(u) -> bool:
    """Whether the first component above 10^-ROUND_DECIMALS is negative."""
    for v in u:
        if abs(v) > 10.0**-ROUND_DECIMALS:
            return v < 0
    return False


# Below this norm the sum of squares that np.linalg.norm takes the root
# of is subnormal, and has lost digits.
_TINY_NORM = 2.0**-511


def np_unit(v: np.ndarray, zero_message: str):
    """(v / |v|, |v|).  Where np.linalg.norm overflows or underflows, v is
    first divided by its largest |entry|.  A zero vector raises
    CenterPoint with ``zero_message``, a non-finite one DomainViolation."""
    norm = float(np.linalg.norm(v))
    if _TINY_NORM <= norm < math.inf:
        return v / norm, norm
    if not np.isfinite(v).all():
        raise DomainViolation(f"direction {v.tolist()} is not finite")
    big = float(np.max(np.abs(v), initial=0.0))
    if big == 0.0:
        raise CenterPoint(zero_message)
    v = v / big
    norm = float(np.linalg.norm(v))
    return v / norm, big * norm


def np_canonical_direction(xi) -> np.ndarray:
    """Unit vector with first nonzero component positive, rounded."""
    u, _ = np_unit(np.asarray(xi, dtype=float), "zero vector has no direction")
    if _leading_is_negative(u):
        u = -u
    return np_round(u)


def np_canonicalize(y, xi, t, dims: PairDims):
    """Canonical representative of the scaling orbit of (y, xi, t)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t = float(t)
    if y.shape != (dims.p,) or xi.shape != (dims.q,):
        raise ArityMismatch("block shapes do not match the pair dimensions")
    if t == 0.0:
        return Exceptional(np_round(y), np_canonical_direction(xi), dims)
    return np_body(np.concatenate([y, t * xi]), dims, "orbit meets the center: t != 0 with t*xi = 0")


def np_body(x: np.ndarray, dims: PairDims, center_message: str) -> Body:
    """The Body point at x, rounded; CenterPoint with ``center_message``
    if the rounded x-block is zero, so a representative never lies on
    the center."""
    r = np_round(x)
    if not any(r.tolist()[dims.p :]):
        raise CenterPoint(center_message)
    return Body(r, dims)


def np_chart_phi(i: int, z) -> np.ndarray:
    """The i-th projective chart (1-based i in 1..q)."""
    dims = z.dims
    if not 1 <= i <= dims.q:
        raise OutsideChart(f"chart index {i} out of range 1..{dims.q}")
    k = i - 1
    if isinstance(z, Exceptional):
        xi = np.asarray(z.xi_dir)
        if abs(xi[k]) <= CHART_TOL:
            raise OutsideChart(f"exceptional direction has component {i} ~ 0")
        w = xi / xi[k]
        w[k] = 0.0
        return np.concatenate([z.y, w])
    if isinstance(z, Body):
        y, xb = np_split(dims, z.x)
        if xb[k] == 0.0:
            raise OutsideChart(f"body point has x-component {i} = 0")
        w = xb / xb[k]
        w[k] = xb[k]
        return np.concatenate([y, w])
    raise TypeError(f"not a blow-up point: {z!r}")


def np_chart_phi_inv(i: int, w, dims: PairDims):
    """Inverse of the i-th chart on its image."""
    if not 1 <= i <= dims.q:
        raise OutsideChart(f"chart index {i} out of range 1..{dims.q}")
    w = np.asarray(w, dtype=float)
    if w.shape != (dims.n,):
        raise ArityMismatch(f"chart point of shape {w.shape} for ambient dim {dims.n}")
    k = i - 1
    y, s = np_split(dims, w)
    if s[k] == 0.0:
        xi = s.copy()
        xi[k] = 1.0
        return np_canonicalize(y, xi, 0.0, dims)
    xb = s[k] * s
    xb[k] = s[k]
    return np_body(np.concatenate([y, xb]), dims, "chart point rounds onto the center")


def np_transition(i: int, j: int, w, dims: PairDims) -> np.ndarray:
    """Chart transition: the i-th chart of the point with j-th chart value w."""
    return np_chart_phi(i, np_chart_phi_inv(j, w, dims))


# -- comparison helpers -------------------------------------------------


def _bits(value):
    """A hashable picture of a point: its class and the bytes of every
    field.  A tuple of floats is pictured as the array of its floats."""
    if isinstance(value, tuple):
        value = np.array(value, dtype=float)
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, PairDims):
        return ("dims", value.n, value.p)
    fields = vars(value)
    return (type(value).__name__,) + tuple((k, _bits(fields[k])) for k in sorted(fields))


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except ConecutError as exc:
        return ("raises", type(exc).__name__)


def assert_same(new_fn, old_fn, *args):
    assert _outcome(new_fn, *args) == _outcome(old_fn, *args), args


def assert_same_as_old_arrow_at_a_nearby_norm(outcome, a: float, b: float):
    """``outcome`` is, bit for bit, the old polar formula for the plane
    point (a, b) evaluated at np.linalg.norm's norm r or at one of the two
    doubles next to r.  np.linalg.norm can be 1 ulp from the correctly
    rounded norm that math.hypot returns; this admits that 1-ulp change of
    the norm, carried through the 14-decimal rounding, and no other gap."""
    r = float(np.linalg.norm([a, b]))
    near = [r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf)]
    assert outcome in [_outcome(old_polar_of_pair_arrow_at, a, b, s) for s in near], (a, b)


def norm_gap_bound(old: float) -> float:
    """The largest gap allowed between a unit-vector coordinate computed
    with the correctly rounded norm and the same coordinate computed with
    np.linalg.norm: max(2 ulp, one step of the 10^-ROUND_DECIMALS grid)."""
    return max(2 * math.ulp(old), 10.0**-ROUND_DECIMALS)


def _coords(value):
    """The kind of an outcome (class and field shapes, or the exception
    type) and its coordinates, field by field."""
    if isinstance(value, (tuple, np.ndarray)):
        value = np.asarray(value, dtype=float)
        return ("array", value.shape), value.tolist()
    fields = vars(value)
    arrays = [np.atleast_1d(fields[k]) for k in sorted(fields) if not isinstance(fields[k], PairDims)]
    kind = (type(value).__name__,) + tuple(a.shape for a in arrays)
    return kind, np.concatenate(arrays).tolist() if arrays else []


def assert_close(new_fn, old_fn, *args):
    """The same kind of outcome, every coordinate within norm_gap_bound."""
    outcomes = []
    for fn in (new_fn, old_fn):
        try:
            outcomes.append(_coords(fn(*args)))
        except ConecutError as exc:
            outcomes.append((("raises", type(exc).__name__), []))
    (new_kind, new), (old_kind, old) = outcomes
    assert new_kind == old_kind, args
    for u, v in zip(new, old):
        assert abs(u - v) <= norm_gap_bound(v), (args, u, v)


def _signed_zeros(v):
    """v, and v with each zero coordinate made -0.0."""
    return [v, np.where(v == 0.0, -0.0, v)]


# -- the models, the open inclusion, rotations and polar arrows ---------


def test_from_polar_matches_the_old_formula():
    rng = np.random.default_rng(SEED)
    for dims in (PairDims(2, 0), PairDims(3, 1), PairDims(4, 2)):
        for _ in range(400):
            t = 0.0 if rng.random() < 0.3 else float(rng.uniform(-2.0, 2.0))
            z = canonicalize(rng.uniform(-2.0, 2.0, dims.p), rng.normal(size=dims.q), t, dims)
            pp = to_polar(z)
            assert_same(from_polar, old_from_polar, pp, dims)
            raw = PolarPoint(rng.uniform(-2, 2, dims.p), rng.normal(size=dims.q), t * 10.0 ** rng.integers(-6, 4))
            assert_same(from_polar, old_from_polar, raw, dims)


def test_dnc_as_open_subset_matches_the_old_formula():
    rng = np.random.default_rng(SEED + 1)
    for p, q in ((0, 2), (1, 1), (2, 3)):
        for _ in range(400):
            t = 0.0 if rng.random() < 0.3 else float(rng.uniform(-2.0, 2.0) * 10.0 ** rng.integers(-8, 3))
            xi = rng.normal(size=q)
            if rng.random() < 0.2:
                xi[0] = 0.0
            z = DncPoint.of(rng.uniform(-2.0, 2.0, p), xi, t)
            assert_same(dnc_as_open_subset, old_dnc_as_open_subset, z)


def test_from_algebraic_matches_the_old_formula():
    rng = np.random.default_rng(SEED + 2)
    for n in (2, 3):
        dims = PairDims(n, 0)
        for _ in range(400):
            t = 0.0 if rng.random() < 0.3 else float(rng.uniform(-2.0, 2.0))
            z = canonicalize(np.zeros(0), rng.normal(size=n), t, dims)
            assert_same(from_algebraic, old_from_algebraic, to_algebraic(z), dims)
        for x in _signed_zeros(np.zeros(n)):
            assert_same(from_algebraic, old_from_algebraic, AlgebraicPoint(x, canonical_direction(rng.normal(size=n))), dims)


def test_rotate_blowup_point_matches_the_old_formula():
    rng = np.random.default_rng(SEED + 3)
    dims = PairDims(2, 0)
    for _ in range(1000):
        angle = float(rng.uniform(0.0, 2 * np.pi))
        assert_same(rotate_blowup_point, old_rotate_blowup_point, angle, Body(rng.uniform(-2.0, 2.0, 2), dims))
        exc = canonicalize(np.zeros(0), rng.normal(size=2), 0.0, dims)
        assert_same(rotate_blowup_point, old_rotate_blowup_point, angle, exc)
    for angle in (0.0, np.pi / 2, np.pi, -np.pi):
        for x in ([0.0, 1.0], [1.0, 0.0], [-1.0, -0.0]):
            assert_same(rotate_blowup_point, old_rotate_blowup_point, angle, Body(np.array(x), dims))


def test_polar_arrows_match_the_old_formula():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(1000):
        a, b = (float(v) for v in rng.uniform(-2.0, 2.0, 2) * 10.0 ** rng.integers(-5, 5))
        assert_same_as_old_arrow_at_a_nearby_norm(_outcome(_polar_of_pair_arrow, a, b), a, b)
        g = (float(rng.uniform(-2, 2)), canonical_direction(rng.normal(size=2)))
        h = (float(rng.uniform(-2, 2)), canonical_direction(rng.normal(size=2)))
        # the old product was the old arrow at (t_g theta_g[0], t_h theta_h[1])
        assert_same_as_old_arrow_at_a_nearby_norm(_outcome(polar_mult, g, h), g[0] * g[1][0], h[0] * h[1][1])
    for a, b in ((1.0, 0.0), (0.0, -1.0), (-0.0, 2.0)):
        assert_same(_polar_of_pair_arrow, old_polar_of_pair_arrow, a, b)


# -- the blown-up sphere through the plane's atlas ----------------------


def _sphere_points(rng, count):
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    exact = [
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [-0.0, -1.0, 0.0], [0.6, 0.0, 0.8], [0.0, -0.6, -0.8], [0.6, 0.8, 0.0],
        [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0],
    ]
    return list(v) + [np.array(x) for x in exact]


def test_sphere_chart_matches_the_stereographic_formulas():
    rng = np.random.default_rng(SEED + 5)
    points = _sphere_points(rng, 1200)
    for v in points:
        for which in (0, 1, 2, 3, 4, 5):
            assert_same(sphere_chart, old_sphere_chart, which, SphereBody(v))
    # both poles and zero chart coordinates are among them, and raise
    for which, v in (
        (1, [0.0, 0.0, -1.0]), (2, [0.0, -0.0, -1.0]), (3, [0.0, 0.0, 1.0]), (4, [-0.0, 0.0, 1.0]),
        (1, [0.0, 1.0, 0.0]), (3, [-0.0, -1.0, 0.0]), (2, [1.0, 0.0, 0.0]), (4, [0.6, 0.0, 0.8]),
    ):
        with pytest.raises(OutsideChart):
            sphere_chart(which, SphereBody(np.array(v)))


def test_sphere_chart_matches_on_exceptional_directions():
    rng = np.random.default_rng(SEED + 6)
    angles = rng.uniform(0.0, 2 * np.pi, 1000)
    directions = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    directions += [np.array(x) for x in ([1.0, 0.0], [0.0, 1.0], [-0.0, 2.0], [3.0, -0.0], [-1.0, 1.0])]
    for xi in directions:
        for which in (1, 2, 3, 4, 7):
            assert_same(sphere_chart, old_sphere_chart, which, SphereExceptional(xi))


def test_sphere_chart_now_refuses_a_nearly_tangent_direction_as_the_plane_does():
    """A direction component within CHART_TOL of zero is outside the
    chart, as in ``chart_phi``; the old formula divided by it."""
    z = SphereExceptional(np.array([1e-13, 1.0]))
    with pytest.raises(OutsideChart):
        sphere_chart(1, z)
    assert old_sphere_chart(1, z).tolist() == [0.0, 1e13]
    assert np.asarray(sphere_chart(2, z)).tobytes() == old_sphere_chart(2, z).tobytes()


def test_sphere_chart_inv_matches_the_stereographic_formulas():
    rng = np.random.default_rng(SEED + 7)
    ws = list(rng.uniform(-3.0, 3.0, size=(1000, 2)))
    ws += [np.array(w) for w in ([0.0, 0.5], [-0.0, 0.5], [0.5, 0.0], [0.5, -0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0])]
    for w in ws:
        for which in (0, 1, 2, 3, 4, 5):
            assert_same(sphere_chart_inv, old_sphere_chart_inv, which, w)


# -- vector-bundle charts read through chart_phi ------------------------


def test_vb_chart_matches_the_old_formula():
    rng = np.random.default_rng(SEED + 8)
    base = PairDims(3, 1)
    model = trivial_model(base, 1, 2)
    for _ in range(300):
        u = rng.uniform(-2.0, 2.0, 3)
        if rng.random() < 0.2:
            u[1 + rng.integers(2)] = 0.0
        body = VbBody(u, rng.uniform(-2.0, 2.0, 3))
        xi = np.array(canonical_direction(rng.normal(size=2)))
        if rng.random() < 0.2:
            xi[rng.integers(2)] = 1e-13
        exc = VbExceptional(rng.uniform(-2.0, 2.0, 1), xi, rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 2))
        for r in (0, 1, 2, 3):
            assert_same(vb_chart, old_vb_chart, model, r, body)
            assert_same(vb_chart, old_vb_chart, model, r, exc)


# -- the plain-float point kernels against the numpy ones ---------------


def _chart_point(rng, n):
    """A point of R^n with coordinates of mixed sign and scale, some of
    them signed zeros or small enough to round to zero."""
    w = rng.normal(size=n) * 10.0 ** rng.integers(-16, 3, size=n)
    for k in range(n):
        if rng.random() < 0.15:
            w[k] = rng.choice([0.0, -0.0, 1e-15, -4e-15])
    return w


def test_body_chart_kernels_match_the_numpy_kernels_bit_for_bit():
    rng = np.random.default_rng(SEED + 9)
    for dims in (PairDims(2, 0), PairDims(3, 1), PairDims(4, 2), PairDims(6, 1)):
        for _ in range(150):
            w = _chart_point(rng, dims.n)
            for j in range(dims.q + 2):  # 0 and q + 1 are out of range
                if 1 <= j <= dims.q and w[dims.p + j - 1] == 0.0:
                    continue  # an exceptional point, whose direction takes a norm
                assert_same(chart_phi_inv, np_chart_phi_inv, j, w, dims)
                for i in range(dims.q + 2):
                    assert_same(transition, np_transition, i, j, w, dims)
            x = _chart_point(rng, dims.n)
            xi = canonical_direction(_chart_point(rng, dims.q) + 1e-300)
            exc = Exceptional(rng.uniform(-2.0, 2.0, dims.p), xi, dims)
            for i in range(dims.q + 2):
                assert_same(chart_phi, np_chart_phi, i, Body(x, dims))
                assert_same(chart_phi, np_chart_phi, i, exc)
    with np.errstate(over="ignore"):
        for w in ([0.5, np.nan], [np.inf, 1.0], [1e300, 2.0], [0.5, 1e-15]):
            assert_same(chart_phi_inv, np_chart_phi_inv, 1, np.array(w), PairDims(2, 1))
    for w in ([1.0, 2.0], [[1.0, 2.0]], 1.0):
        assert_same(chart_phi_inv, np_chart_phi_inv, 1, w, PairDims(3, 1))


def test_from_polar_off_the_divisor_matches_the_numpy_kernel_bit_for_bit():
    rng = np.random.default_rng(SEED + 10)

    def np_from_polar(pp, dims):
        return np_canonicalize(pp.x, pp.theta, pp.t, dims)

    for dims in (PairDims(2, 0), PairDims(3, 1), PairDims(5, 2)):
        for _ in range(600):
            t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) * 10.0 ** rng.integers(-16, 4))
            theta = _chart_point(rng, dims.q)
            pp = PolarPoint(rng.uniform(-2.0, 2.0, dims.p), theta, t)
            assert_same(from_polar, np_from_polar, pp, dims)
    assert_same(from_polar, np_from_polar, PolarPoint(np.array([0.5]), np.array([1.0]), 1e-15), PairDims(2, 1))
    assert_same(from_polar, np_from_polar, PolarPoint(np.array([np.nan]), np.array([1.0]), 1.0), PairDims(2, 1))


def test_directions_match_the_numpy_kernel_to_rounding():
    rng = np.random.default_rng(SEED + 11)
    for _ in range(3000):
        n = int(rng.integers(1, 7))
        xi = _chart_point(rng, n) * 10.0 ** float(rng.integers(-300, 300))
        with np.errstate(over="ignore"):
            assert_close(canonical_direction, np_canonical_direction, xi)
    with np.errstate(over="ignore"):
        for xi in (
            [0.0, -0.0], [np.nan, 1.0], [np.inf, 0.0], [1e-320, 0.0], [1e-320, 3e-320], [2.5e-323, -5e-324, 1e-322],
            [3e-160, -4e-160], [1e200, -1e200], [1.5e308, -1.5e308],
        ):
            assert_close(canonical_direction, np_canonical_direction, np.array(xi))

