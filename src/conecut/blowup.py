"""The blow-up of a pair in three interchangeable models.

Quotient model: canonical representatives of scaling orbits — an
Exceptional point [y, xi] carries a unit direction with its first
nonzero component positive, a Body point carries the ambient point x
(the t = 1 representative).  Algebraic model: the incidence submanifold
{x_i y_j = y_i x_j} of R^n x RP^{n-1}.  Polar model: the double cover
R^p x S^{q-1} x R modulo (x, theta, t) ~ (x, -theta, -t).

Representatives are made by ``canonicalize`` from an orbit (y, xi, t)
and by ``from_ambient`` from an off-center ambient point, never on the
center.  Chart inverses, models, induced maps and the deformation space
call them; the Body branch of ``chart_phi_inv`` calls their ``_body``.
The point kernels take any flat sequences of numbers, compute on Python
floats, and return tuples of floats: every field of a point and every
chart value is a tuple, so two representatives of one orbit are ``==``
and hash alike.  Every vector norm comes from the correctly rounded
``math.hypot``, so no representative depends on the BLAS build.

Also here: the q projective charts with their transitions, the
blow-down, induced maps of blow-ups, strict transforms of plane curves,
product splitting, the open inclusion of the deformation space into a
one-higher blow-up, and the identification of the blown-up two-sphere
with the projective plane.  The sphere's four charts are the plane's
two projective charts read through the two stereographic charts.
"""

from __future__ import annotations

import math

from .errors import (
    ArityMismatch,
    CenterPoint,
    DegenerateCurve,
    DomainViolation,
    NotImmersive,
    OutsideBlupF,
    OutsideChart,
)
from .expr import as_floats
from .lazy_numpy import np
from .pairs import MapOfPairs, PairDims, normal_derivative, require_adapted, singular_values
from .record import Record
from .ring import MultiPoly, real_roots, squarefree_factors

# Representatives are rounded at this many decimals so that orbit
# equality becomes bitwise equality.
ROUND_DECIMALS = 14
CHART_TOL = 1e-12
BLUP_F_RTOL = 1e-10
_SCALE = 10.0**ROUND_DECIMALS


def _rounded(v) -> tuple:
    """Each float of v rounded to ROUND_DECIMALS, half to even, bit for bit
    as np.round(c, ROUND_DECIMALS) + 0.0.  A coordinate above about 1.8e294
    (scaled, not finite) has no digits below 10^-ROUND_DECIMALS and is
    kept; a non-finite one raises DomainViolation."""
    try:
        return tuple([round(c * _SCALE) / _SCALE + 0.0 for c in v])
    except (OverflowError, ValueError):
        if not all(map(math.isfinite, v)):
            raise DomainViolation(f"representative has a non-finite coordinate: {v}") from None
        return tuple([c if abs(c * _SCALE) == math.inf else round(c * _SCALE) / _SCALE + 0.0 for c in v])


def _leading_is_negative(u) -> bool:
    """Whether the first component above 10^-ROUND_DECIMALS is negative."""
    for v in u:
        if abs(v) > 10.0**-ROUND_DECIMALS:
            return v < 0
    return False


def _unit(v, zero_message: str):
    """(v / |v|, |v|) with |v| = math.hypot(*v).  Where |v| is not a normal
    double (inf past DBL_MAX, a subnormal with lost digits below DBL_MIN =
    2^-1022), v is first divided by its largest |entry|.  A zero vector
    raises CenterPoint with ``zero_message``, a non-finite one DomainViolation."""
    norm = math.hypot(*v)
    if 2.0**-1022 <= norm < math.inf:
        return [c / norm for c in v], norm
    if not all(map(math.isfinite, v)):
        raise DomainViolation(f"direction {v} is not finite")
    if norm == 0.0:
        raise CenterPoint(zero_message)
    big = max(map(abs, v))
    u, norm = _unit([c / big for c in v], zero_message)
    return u, big * norm


def _direction(xi) -> tuple:
    u, _ = _unit(xi, "zero vector has no direction")
    return _rounded([-c for c in u] if _leading_is_negative(u) else u)


def canonical_direction(xi) -> tuple:
    """Unit vector with first nonzero component positive, rounded."""
    return _direction(as_floats(xi))


class Exceptional(Record, frozen=True):
    """A point [y, xi] of the exceptional divisor, canonical direction."""

    def __init__(self, y: tuple, xi_dir: tuple, dims: PairDims):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xi_dir", xi_dir)
        object.__setattr__(self, "dims", dims)


class Body(Record, frozen=True):
    """An off-center ambient point, the t = 1 orbit representative."""

    def __init__(self, x: tuple, dims: PairDims):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "dims", dims)


class PolarPoint(Record, frozen=True):
    """Canonical representative (x, theta, t) of the polar double quotient."""

    def __init__(self, x: tuple, theta: tuple, t: float):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "t", t)


class AlgebraicPoint(Record, frozen=True):
    """A point (x, [line]) of the incidence submanifold, center a point."""

    def __init__(self, x: tuple, line: tuple):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "line", line)


def canonicalize(y, xi, t, dims: PairDims):
    """Canonical representative of the scaling orbit of (y, xi, t)."""
    coords, t = dims.join(y, xi), float(t)
    y, xi = coords[: dims.p], coords[dims.p :]
    if t == 0.0:
        return Exceptional(_rounded(y), _direction(xi), dims)
    return _body(y + [t * c for c in xi], dims, "orbit meets the center: t != 0 with t*xi = 0")


def point_dist(z, w) -> float:
    """Max-norm distance of two points of one kind; inf across kinds."""
    if isinstance(z, Body) and isinstance(w, Body):
        a, b = z.x, w.x
    elif isinstance(z, Exceptional) and isinstance(w, Exceptional):
        a, b = (*z.y, *z.xi_dir), (*w.y, *w.xi_dir)
    else:
        return float("inf")
    return max([abs(u - v) for u, v in zip(a, b, strict=True)], default=0.0)


def from_ambient(x, dims: PairDims) -> Body:
    """The body point over an off-center ambient point."""
    y, x = dims.split(x)
    return _body(y + x, dims, "ambient point lies on the center")


def _body(x: list, dims: PairDims, center_message: str) -> Body:
    """The Body point at x, rounded; CenterPoint with ``center_message``
    if the rounded x-block is zero, so a representative never lies on
    the center."""
    r = _rounded(x)
    if not any(r[dims.p :]):
        raise CenterPoint(center_message)
    return Body(r, dims)


def blowdown(z) -> tuple:
    """Body points map to themselves, exceptional points down to the center."""
    if isinstance(z, Body):
        return z.x
    if isinstance(z, Exceptional):
        return (*z.y, *[0.0] * z.dims.q)
    raise TypeError(f"not a blow-up point: {z!r}")


def chart_phi(i: int, z) -> tuple:
    """The i-th projective chart (1-based i in 1..q)."""
    dims = z.dims
    if not 1 <= i <= dims.q:
        raise OutsideChart(f"chart index {i} out of range 1..{dims.q}")
    k = i - 1
    if isinstance(z, Exceptional):
        y, s, slot = z.y, z.xi_dir, 0.0
        if abs(s[k]) <= CHART_TOL:
            raise OutsideChart(f"exceptional direction has component {i} ~ 0")
    elif isinstance(z, Body):
        y, s = dims.split(z.x)
        if s[k] == 0.0:
            raise OutsideChart(f"body point has x-component {i} = 0")
        slot = s[k]
    else:
        raise TypeError(f"not a blow-up point: {z!r}")
    w = [c / s[k] for c in s]
    w[k] = slot
    return (*y, *w)


def chart_phi_inv(i: int, w, dims: PairDims):
    """Inverse of the i-th chart on its image."""
    if not 1 <= i <= dims.q:
        raise OutsideChart(f"chart index {i} out of range 1..{dims.q}")
    (y, s), k = dims.split(w), i - 1
    if s[k] == 0.0:
        s[k] = 1.0
        return canonicalize(y, s, 0.0, dims)
    xb = [s[k] * c for c in s]
    xb[k] = s[k]
    return _body(y + xb, dims, "chart point rounds onto the center")


def transition(i: int, j: int, w, dims: PairDims) -> tuple:
    """Chart transition: the i-th chart of the point with j-th chart value w."""
    return chart_phi(i, chart_phi_inv(j, w, dims))


def blowup_map(f: MapOfPairs, z):
    """The induced map of blow-ups, defined away from the excluded locus."""
    require_adapted(f)
    if isinstance(z, Body):
        value = f(z.x)
        _, x2 = f.target.split(value)
        if math.hypot(*x2) <= BLUP_F_RTOL * (1.0 + math.hypot(*value)):
            raise OutsideBlupF("body point maps into the target submanifold")
        return from_ambient(value, f.target)
    if isinstance(z, Exceptional):
        dn = normal_derivative(f, z.y)
        image = np.array(dn) @ z.xi_dir
        scale = singular_values(dn)[0] * math.hypot(*z.xi_dir)
        if math.hypot(*image.tolist()) <= BLUP_F_RTOL * max(scale, 1e-300):
            raise OutsideBlupF("normal derivative kills the exceptional direction")
        return canonicalize(f.slice_image(z.y), image, 0.0, f.target)
    raise TypeError(f"not a blow-up point: {z!r}")


# -- algebraic model (center a point) ---------------------------------


def to_algebraic(z) -> AlgebraicPoint:
    """Embedding into R^n x RP^{n-1} for the pair (R^n, {0})."""
    if z.dims.p != 0:
        raise ArityMismatch("the algebraic model is for a point center")
    if isinstance(z, Body):
        return AlgebraicPoint(z.x, canonical_direction(z.x))
    return AlgebraicPoint((0.0,) * z.dims.n, z.xi_dir)


def from_algebraic(a: AlgebraicPoint, dims: PairDims):
    if dims.p != 0:
        raise ArityMismatch("the algebraic model is for a point center")
    if not any(as_floats(a.x)):
        return canonicalize([], a.line, 0.0, dims)
    return from_ambient(a.x, dims)


def algebraic_relations_residual(a: AlgebraicPoint) -> float:
    """Max violation of the incidence relations x_i l_j = l_i x_j."""
    x, line = as_floats(a.x), as_floats(a.line)
    if len(line) != len(x):
        raise ArityMismatch(f"a line of length {len(line)} through a point of length {len(x)}")
    pairs = list(zip(x, line))
    return max([abs(xi * lj - li * xj) for xi, li in pairs for xj, lj in pairs], default=0.0)


# -- polar model -------------------------------------------------------


def canonical_polar(x, theta, t) -> PolarPoint:
    """Canonical representative under (x, theta, t) ~ (x, -theta, -t).
    CenterPoint if t != 0 but the rounded block t*theta is zero, as
    ``canonicalize`` of the same orbit raises, or the rounded block r*theta
    of the result is zero, as ``from_polar`` of it would raise.  Either
    needs r^2 < 4e-28 q, since some |theta_i| >= 1/sqrt(q)."""
    given = as_floats(theta)
    theta, norm = _unit(given, "polar direction must be nonzero")
    sign = -1.0 if _leading_is_negative(theta) else 1.0
    x, theta = _rounded(as_floats(x)), _rounded([sign * c for c in theta])
    t = float(t)
    (r,) = _rounded([sign * t * norm])
    if t != 0.0 and r * r < 4e-28 * len(theta):
        if not any(_rounded([t * c for c in given])) or not any(_rounded([r * c for c in theta])):
            raise CenterPoint("polar point rounds onto the center: t*theta rounds to 0")
    return PolarPoint(x, theta, r)


def to_polar(z) -> PolarPoint:
    """Quotient-model to polar-model conversion in the identity chart."""
    if isinstance(z, Exceptional):
        return canonical_polar(z.y, z.xi_dir, 0.0)
    if isinstance(z, Body):
        y, x = z.dims.split(z.x)
        theta, r = _unit(x, "body point lies on the center")
        return canonical_polar(y, theta, r)
    raise TypeError(f"not a blow-up point: {z!r}")


def from_polar(pp: PolarPoint, dims: PairDims):
    return canonicalize(pp.x, pp.theta, pp.t, dims)


def polar_map(h: MapOfPairs, z: PolarPoint) -> PolarPoint:
    """The induced map on the polar model (two-branch formula)."""
    require_adapted(h)
    if not h.normal_derivative_injective:
        raise NotImmersive("normal derivative has a kernel on the slice")
    if z.t == 0.0:
        image = np.array(normal_derivative(h, z.x)) @ z.theta
        norm = math.hypot(*image.tolist())
        if norm == 0.0:
            raise NotImmersive("normal derivative kills the polar direction")
        return canonical_polar(h.slice_image(z.x), image / norm, 0.0)
    value = h(h.source.join(z.x, [z.t * c for c in z.theta]))
    y2, h2 = h.target.split(value)
    norm = math.hypot(*h2)
    if norm == 0.0:
        raise OutsideChart("image lies on the target submanifold")
    sign = 1.0 if z.t > 0 else -1.0
    return canonical_polar(y2, [sign * c / norm for c in h2], sign * norm)


# -- products and the deformation space as an open subset --------------


def product_split(z, factor_dims: PairDims, m_dim: int):
    """Split a blow-up point of (X x M, Y x M) into (point of Blup(X, Y), m).

    Adapted coordinates of the product are ((y, m), x): the M-block sits
    at the end of the y-block, the normal block is unchanged.
    """
    dims = z.dims
    if dims.p != factor_dims.p + m_dim or dims.q != factor_dims.q:
        raise ArityMismatch("product dimensions do not match")
    if isinstance(z, Exceptional):
        return Exceptional(tuple(z.y[: factor_dims.p]), z.xi_dir, factor_dims), tuple(z.y[factor_dims.p :])
    if isinstance(z, Body):
        x = z.x
        return Body((*x[: factor_dims.p], *x[dims.p :]), factor_dims), tuple(x[factor_dims.p : dims.p])
    raise TypeError(f"not a blow-up point: {z!r}")


def product_join(z, m, factor_dims: PairDims):
    """Inverse of product_split; m is a flat sequence of numbers."""
    m = _rounded(as_floats(m))
    dims = PairDims(factor_dims.n + len(m), factor_dims.p + len(m))
    if isinstance(z, Exceptional):
        return Exceptional((*z.y, *m), z.xi_dir, dims)
    if isinstance(z, Body):
        p = z.dims.p
        return Body((*z.x[:p], *m, *z.x[p:]), dims)
    raise TypeError(f"not a blow-up point: {z!r}")


def dnc_as_open_subset(z):
    """Open inclusion of the deformation space into Blup(X x R, Y x {0}).

    The target pair has ambient (y, x, t) and submanifold {(x, t) = 0};
    the chart point z = (y, xi, t) of a DncPoint is the orbit of
    (y, (xi, 1), t): at t = 0 it lands on the exceptional divisor with
    direction (xi, 1), otherwise at ((y, t xi), t)."""
    return canonicalize(z.y, (*z.xi, 1.0), z.t, PairDims(z.dims.n + 1, z.dims.p))


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
    ``ring.real_roots`` bisects each one exactly, so each root is the
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
    m = min(e[exc_index] for e in total.terms)
    strict = MultiPoly(
        0,
        2,
        {
            tuple(e - m if i == exc_index else e for i, e in enumerate(exps)): c
            for exps, c in total.terms.items()
        },
    )
    # Restriction to the exceptional divisor {exceptional coordinate = 0},
    # a univariate polynomial in the remaining coordinate.  It is split
    # exactly into square-free factors, which are pairwise coprime, so
    # each factor has simple roots, no two factors share one, and its
    # index in the decomposition is their multiplicity.
    other = 1 - exc_index
    restricted = {exps[other]: c for exps, c in strict.terms.items() if exps[exc_index] == 0}
    degree = max(restricted)
    if degree == 0:
        return strict, []
    coeffs = [restricted.get(k, 0) for k in range(degree + 1)]
    return strict, sorted(
        (root, multiplicity)
        for multiplicity, factor in enumerate(squarefree_factors(coeffs), start=1)
        for root in real_roots(factor)
    )


# -- the blown-up two-sphere and the projective plane ------------------


# Stereographic chart from the pole (0, 0, pole), pole = -1 (south) or +1
# (north).  1 - pole*x2 and pole*r2 - pole equal 1 + x2 and 1 - r2 at -1,
# 1 - x2 and r2 - 1 at +1, bit for bit and with the same signed zeros.


def _stereo(x, pole: float) -> tuple:
    d = 1.0 - pole * x[2]
    return (x[0] / d, x[1] / d)


def _stereo_inv(u, pole: float) -> tuple:
    # |u|^2 is numpy's dot product, whose BLAS kernel may fuse a multiply-add
    # that a plain sum of squares would round twice.
    a = np.array(u, dtype=float)
    r2 = float(a @ a)
    d = 1.0 + r2
    return (2 * u[0] / d, 2 * u[1] / d, (pole * r2 - pole) / d)


class SphereBody(Record, frozen=True):
    """A sphere point away from the north pole +1 = (0, 0, 1)."""

    def __init__(self, x: tuple):
        object.__setattr__(self, "x", x)


class SphereExceptional(Record, frozen=True):
    """A tangent direction (xi0, xi1, 0) at the north pole."""

    def __init__(self, xi: tuple):  # length 2: the (xi0, xi1) components
        object.__setattr__(self, "xi", xi)


def sphere_rp2_map(z) -> tuple:
    """The diffeomorphism onto the projective plane, as canonical
    homogeneous coordinates [a0 : a1 : a2]."""
    if isinstance(z, SphereExceptional):
        return canonical_direction((z.xi[0], z.xi[1], 0.0))
    if isinstance(z, SphereBody):
        x = z.x
        return canonical_direction((x[0], x[1], 1.0 - x[2]))
    raise TypeError(f"not a blown-up sphere point: {z!r}")


def sphere_rp2_inv(a) -> "SphereBody | SphereExceptional":
    """Inverse of sphere_rp2_map on canonical homogeneous coordinates."""
    a = as_floats(a)
    if a[2] == 0.0:
        return SphereExceptional((a[0], a[1]))
    return SphereBody(_stereo_inv([a[0] / a[2], a[1] / a[2]], 1.0))


# The four chart presentations: (source chart map, local expression,
# target affine chart of the projective plane).


def _rp2_affine(a, i: int, j: int, k: int) -> tuple:
    """The affine chart a_i != 0 of the projective plane: (a_j/a_i, a_k/a_i)."""
    if a[i] == 0.0:
        raise OutsideChart(f"projective point has a{i} = 0")
    return (a[j] / a[i], a[k] / a[i])


# Sphere chart -> (projective chart of the blown-up plane, pole of the
# stereographic chart it is read through).
_SPHERE_CHARTS = {1: (1, -1.0), 2: (2, -1.0), 3: (1, 1.0), 4: (2, 1.0)}
_PLANE = PairDims(2, 0)


def _plane_chart_and_pole(which: int):
    if which not in _SPHERE_CHARTS:
        raise OutsideChart(f"sphere chart index {which} out of range 1..4")
    return _SPHERE_CHARTS[which]


def sphere_chart(which: int, z) -> tuple:
    """Blow-up charts of the blown-up sphere, in order of presentation:
    ``chart_phi`` of the plane's blow-up at the stereographic image.

    1: south-stereographic chart 1 — body (x0/(1+x2), x1/x0), exceptional (0, xi1/xi0)
    2: south-stereographic chart 2 — body (x0/x1, x1/(1+x2)), exceptional (xi0/xi1, 0)
    3: north-stereographic chart 1 — body (x0/(1-x2), x1/x0)
    4: north-stereographic chart 2 — body (x0/x1, x1/(1-x2))
    """
    i, pole = _plane_chart_and_pole(which)
    if isinstance(z, SphereExceptional):
        if pole > 0:
            raise OutsideChart("the north pole is outside the north-stereographic chart")
        return chart_phi(i, Exceptional((), z.xi, _PLANE))
    if z.x[2] == pole:
        raise OutsideChart(f"the pole (0, 0, {pole:g}) is outside its stereographic chart")
    return chart_phi(i, Body(_stereo(z.x, pole), _PLANE))


def sphere_chart_inv(which: int, w) -> "SphereBody | SphereExceptional":
    """Inverse of sphere_chart: the plane's chart inverse, unrounded, then
    the inverse stereographic chart."""
    i, pole = _plane_chart_and_pole(which)
    s = as_floats(w)
    k = i - 1
    if pole < 0 and s[k] == 0.0:
        s[k] = 1.0
        return SphereExceptional(tuple(s))
    u = [s[k] * c for c in s]
    u[k] = s[k]
    return SphereBody(_stereo_inv(u, pole))


# The target affine chart of each presentation, as (i, j, k) for _rp2_affine.
_RP2_CHARTS = {1: (0, 2, 1), 2: (1, 0, 2), 3: (2, 0, 1), 4: (2, 0, 1)}


def sphere_local_expression(which: int, w) -> tuple:
    """The stated closed forms of the map in the four chart presentations."""
    a, b = float(w[0]), float(w[1])
    if which == 1:
        return (a * (b * b + 1.0), b)
    if which == 2:
        return (a, b * (a * a + 1.0))
    if which == 3:
        return (a, a * b)
    if which == 4:
        return (a * b, b)
    raise OutsideChart(f"sphere chart index {which} out of range 1..4")


def sphere_local_expression_direct(which: int, w) -> tuple:
    """The same map computed by brute composition chart -> point -> image
    -> target affine chart; oracle for the closed forms."""
    z = sphere_chart_inv(which, w)
    return _rp2_affine(sphere_rp2_map(z), *_RP2_CHARTS[which])
