"""Chart-level blow-up of a pair of vector bundles.

The total space is a trivialized bundle over a local pair (R^n, R^p):
fiber coordinates upsilon in R^{k+l} together with a frame map
(u, upsilon) -> (f, e) that is linear in upsilon and invertible on each
fiber.  The sub-bundle sits over the slice and is cut out by
(x, e) = 0.  Exceptional fiber elements are stored directly by their
adapted-chart coordinates (phi, eps) = (f-value, e-derivative value);
this chart-block splitting is the convention for the implicit
complement choice.  The r-th induced chart divides the e-block by the
r-th normal coordinate (body) or its derivative along the direction
(exceptional), and is fiberwise linear.
"""

from __future__ import annotations


from .errors import ArityMismatch, NotAdapted, OutsideChart
from .expr import SmoothMapExpr, as_floats, compose, eval_map, from_components, max_abs_diff
from .lazy_numpy import np
from .nodes import Var
from .pairs import MapOfPairs, PairDims, check_adapted, normal_image, numeric_rank
from .record import Record
from .blowup import CHART_TOL, Body, Exceptional, chart_phi


class VbPairModel(Record, frozen=True):
    """A trivialized vector-bundle pair over a local base pair.

    frame: (u, upsilon) in R^{n + k + l} -> (f, e) in R^{k + l}, linear
    in upsilon.  The sub-bundle is {x(u) = 0, e(u, upsilon) = 0}.
    """

    def __init__(self, base: PairDims, rank_f: int, rank_e: int, frame: SmoothMapExpr):
        # rank_f = k: rank of the sub-bundle's fiber; rank_e = l: rank of the complement block
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rank_f", rank_f)
        object.__setattr__(self, "rank_e", rank_e)
        object.__setattr__(self, "frame", frame)
        total = rank_f + rank_e
        if frame.input_dim != base.n + total or frame.output_dim != total:
            raise ArityMismatch("frame arity does not match base and fiber ranks")

    @property
    def fiber_rank(self) -> int:
        return self.rank_f + self.rank_e

    def frame_value(self, u, upsilon) -> tuple:
        """(f, e) at the bundle point (u, upsilon)."""
        return eval_map(self.frame, [*u, *upsilon])

    def f_of(self, u, upsilon) -> tuple:
        return self.frame_value(u, upsilon)[: self.rank_f]


def trivial_model(base: PairDims, rank_f: int, rank_e: int) -> VbPairModel:
    """Constant frame: (f, e) = upsilon split into its two blocks."""
    total = rank_f + rank_e
    body = tuple(Var(base.n + i) for i in range(total))
    return VbPairModel(base, rank_f, rank_e, SmoothMapExpr(base.n + total, total, body))


class VbBody(Record, frozen=True):
    """A bundle element over an off-center base point."""

    def __init__(self, u: tuple, upsilon: tuple):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "upsilon", upsilon)


class VbExceptional(Record, frozen=True):
    """An exceptional fiber element over [y, xi].

    phi is the f-block value of the underlying sub-bundle point, eps is
    the e-derivative value along the (lift of the) direction xi; the
    pair (phi, eps) are exactly the fiber coordinates of the normal
    bundle of the bundle pair in the adapted chart.
    """

    def __init__(self, y: tuple, xi: tuple, phi: tuple, eps: tuple):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "eps", eps)


def vb_chart(model: VbPairModel, r: int, z) -> tuple:
    """The r-th induced vector-bundle chart (y, x~_r, f, e~_r)."""
    dims = model.base
    if isinstance(z, VbBody):
        # chart_phi raises OutsideChart off the chart, and keeps x_r in slot r
        base_coords = chart_phi(r, Body(z.u, dims))
        fe = model.frame_value(z.u, z.upsilon)
        x_r = base_coords[dims.p + r - 1]
        return (*base_coords, *fe[: model.rank_f], *[c / x_r for c in fe[model.rank_f :]])
    if isinstance(z, VbExceptional):
        base_coords = chart_phi(r, Exceptional(z.y, z.xi, dims))
        xi_r = z.xi[r - 1]
        return (*base_coords, *z.phi, *[c / xi_r for c in z.eps])
    raise TypeError(f"not a vector-bundle blow-up point: {z!r}")


class LinearityReport(Record, frozen=True):
    def __init__(self, max_violation: float, ok: bool):
        object.__setattr__(self, "max_violation", max_violation)
        object.__setattr__(self, "ok", ok)


def fiber_linearity_check(
    model: VbPairModel,
    r: int,
    base_point,
    samples: int = 32,
    seed: int = 0,
) -> LinearityReport:
    """Additivity and homogeneity of the fiber part of the r-th chart.

    ``base_point`` is either a Body/Exceptional of the base blow-up; the
    fiber is sampled accordingly.  ``ok`` means the worst violation is
    at most 1e-11."""
    rng = np.random.default_rng(seed)
    total = model.fiber_rank
    worst = 0.0

    for _ in range(samples):
        if isinstance(base_point, Body):
            a = rng.uniform(-1.0, 1.0, size=total).tolist()
            b = rng.uniform(-1.0, 1.0, size=total).tolist()
            lam = rng.uniform(-2.0, 2.0)
            points = [VbBody(base_point.x, v) for v in _sum_and_scale(a, b, lam)]
        elif isinstance(base_point, Exceptional):
            pa, pb = rng.uniform(-1.0, 1.0, size=(2, model.rank_f)).tolist()
            ea, eb = rng.uniform(-1.0, 1.0, size=(2, model.rank_e)).tolist()
            lam = rng.uniform(-2.0, 2.0)
            points = [
                VbExceptional(base_point.y, base_point.xi_dir, p, e)
                for p, e in zip(_sum_and_scale(pa, pb, lam), _sum_and_scale(ea, eb, lam))
            ]
        else:
            raise TypeError(f"not a blow-up base point: {base_point!r}")
        fa, fb, fsum, fscale = [vb_chart(model, r, z)[model.base.n :] for z in points]
        worst = max(
            worst,
            max_abs_diff([s - c for s, c in zip(fsum, fa)], fb),
            max_abs_diff(fscale, [lam * c for c in fa]),
        )
    return LinearityReport(worst, worst <= 1e-11)


def _sum_and_scale(a: list, b: list, lam: float) -> tuple:
    """The fiber vectors a, b, a + b and lam * a, as tuples."""
    return tuple(a), tuple(b), tuple([u + v for u, v in zip(a, b)]), tuple([lam * u for u in a])


def section_blowup(model: VbPairModel, alpha: SmoothMapExpr, z):
    """Blow up a section with values in the sub-bundle along the slice.

    alpha: u in R^n -> upsilon in R^{k+l} in trivialization coordinates.
    Body points carry the section value; at an exceptional point [y, xi]
    the f-coordinate is the f-value at (y, 0) and the e-coordinate is
    the normal derivative of u -> e(u, alpha(u)) contracted with xi.
    """
    dims = model.base
    if alpha.input_dim != dims.n or alpha.output_dim != model.fiber_rank:
        raise ArityMismatch("section arity does not match the model")
    id_and_alpha = from_components(
        dims.n, tuple(Var(i) for i in range(dims.n)) + alpha.body, alpha.guards
    )
    e_along = compose(
        from_components(
            model.frame.input_dim,
            model.frame.body[model.rank_f :],
            model.frame.guards,
        ),
        id_and_alpha,
    )
    # adapted: u -> e(u, alpha(u)) is a map of pairs (R^n, R^p) -> (R^l, {0}).
    e_pair = MapOfPairs(e_along, dims, PairDims(model.rank_e, 0))
    report = check_adapted(e_pair, samples=64)
    if not report.ok:
        raise NotAdapted(
            f"section does not take sub-bundle values on the slice "
            f"(worst violation {report.worst_violation:.3e})"
        )
    if isinstance(z, Body):
        return VbBody(z.x, eval_map(alpha, z.x))
    if isinstance(z, Exceptional):
        slice_point = dims.join(z.y, [0.0] * dims.q)
        phi = model.f_of(slice_point, eval_map(alpha, slice_point))
        return VbExceptional(z.y, z.xi_dir, phi, normal_image(e_pair, z.y, z.xi_dir))
    raise TypeError(f"not a blow-up point: {z!r}")


def tangent_anchor(z: Exceptional, eta, chart_i: int) -> tuple:
    """Push a normal-bundle tangent vector down to the blow-up chart.

    For the pair (R^n, {0}) an exceptional point [xi] has tangent
    representatives eta in R^n; the image in the i-th projective chart
    is the derivative of the quotient projection,
    d(xi_j/xi_i) = eta_j/xi_i - xi_j eta_i/xi_i^2, with slot i zero.
    The kernel is exactly the radial line through xi."""
    dims = z.dims
    if dims.p != 0:
        raise ArityMismatch("the anchor example uses a point center")
    eta = as_floats(eta)
    if len(eta) != dims.q:
        raise ArityMismatch("tangent representative has the wrong dimension")
    if not 1 <= chart_i <= dims.q:
        raise OutsideChart(f"chart index {chart_i} out of range 1..{dims.q}")
    k = chart_i - 1
    xi = z.xi_dir
    if abs(xi[k]) <= CHART_TOL:
        raise OutsideChart(f"exceptional direction has component {chart_i} ~ 0")
    s = eta[k] / (xi[k] * xi[k])
    out = [e / xi[k] - c * s for e, c in zip(eta, xi)]
    out[k] = 0.0
    return tuple(out)


def tangent_anchor_rank(z: Exceptional, chart_i: int) -> int:
    """Numeric rank of the anchor at a fixed exceptional point."""
    q = z.dims.q
    cols = [tangent_anchor(z, [float(i == j) for i in range(q)], chart_i) for j in range(q)]
    return numeric_rank(list(zip(*cols)))
