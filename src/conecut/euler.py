"""Euler-like vector fields, the deformation-space flow, and tubular maps.

A vector field sigma on the local pair (R^n, R^p) is Euler-like when it
vanishes on the slice and its normal-block linearization there is the
identity.  The associated field on the deformation space is
W = (1/t) sigma + d/dt; it is integrated directly from this ODE by RK4
(the time component is exact since tdot = 1).  The stepper evaluates
each stage on sigma's value tape, checks its domain and finiteness with
the errors of ``expr.eval_map``, and does its own arithmetic on Python
floats, bit-identical to the same steps on numpy arrays.  The time-1
slice map chi built from the flow, extrapolated from small starting
parameters, is the tubular-neighborhood embedding: chi restricted to
the slice is the identity, its normal derivative is the identity, and
it carries the fiberwise scaling generator to sigma.
"""

from __future__ import annotations

import math

from .errors import ArityMismatch, DomainViolation, NonConvergence, SamplingFailure, SliceCrossing
from .expr import SmoothMapExpr, Var, as_floats, eval_map, from_components, jet_eval
from .lazy_numpy import np
from .pairs import PairDims, sample_slice_points
from .record import Record


class VectorField(Record, frozen=True):
    """Components of a vector field on the ambient chart (n -> n)."""

    def __init__(self, components: SmoothMapExpr, dims: PairDims):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "dims", dims)
        if components.input_dim != dims.n or components.output_dim != dims.n:
            raise DomainViolation("vector field must map the chart to itself")

    def __call__(self, x) -> tuple:
        return eval_map(self.components, x)


def euler_field(dims: PairDims) -> VectorField:
    """The fiberwise scaling generator: zero on the y-block, x on the x-block."""
    body = tuple(Var(i) * 0.0 for i in range(dims.p)) + tuple(
        Var(dims.p + i) for i in range(dims.q)
    )
    return VectorField(from_components(dims.n, body), dims)


class EulerLikeReport(Record, frozen=True):
    def __init__(self, vanishes_on_Y: bool, normal_block_is_identity: bool, max_violation: float):
        object.__setattr__(self, "vanishes_on_Y", vanishes_on_Y)
        object.__setattr__(self, "normal_block_is_identity", normal_block_is_identity)
        object.__setattr__(self, "max_violation", max_violation)

    @property
    def ok(self) -> bool:
        return self.vanishes_on_Y and self.normal_block_is_identity


def is_euler_like(sigma: VectorField) -> EulerLikeReport:
    """Local criterion: sigma(y, 0) = 0 and the x-block of d(sigma_x) at
    (y, 0) equals the identity, within 1e-10 on those of 64 seeded slice
    points in sigma's domain; SamplingFailure if there are none."""
    dims = sigma.dims
    worst_vanish = 0.0
    worst_lin = 0.0
    points = [x for x in sample_slice_points(dims, 64, 0) if sigma.components.in_domain(x)]
    if not points:
        raise SamplingFailure("no sampled slice point lies in the vector field's domain")
    for point in points:
        jet = jet_eval(sigma.components, point)
        worst_vanish = max(worst_vanish, float(np.max(np.abs(jet.value), initial=0.0)))
        block = np.array(jet.jacobian)[dims.p :, dims.p :]
        worst_lin = max(
            worst_lin, float(np.max(np.abs(block - np.eye(dims.q)), initial=0.0))
        )
    return EulerLikeReport(
        worst_vanish <= 1e-10, worst_lin <= 1e-10, max(worst_vanish, worst_lin)
    )


def _rk4(sigma: VectorField, x, grid) -> tuple:
    """Classical RK4 for xdot = sigma(x)/t along a time grid of one sign,
    best given as a list of floats.

    Each stage evaluates sigma and does, on Python floats, the IEEE
    operations of the array form in the same order: k = sigma(x)/t,
    the stage points x + (h/2) k and x + h k, and the update
    x + (h/6) (((k1 + 2 k2) + 2 k3) + k4).  It raises DomainViolation
    if the trajectory leaves the chart or sigma is not finite on it.

    Only the start point is checked as ``eval_map`` checks a point; the
    stage points it builds are lists of n floats, which go straight to
    sigma's value tape.  A stage whose values are not finite goes
    through ``eval_map``, which raises its error."""
    f = sigma.components
    x = as_floats(x)
    if len(x) != f.input_dim:
        raise ArityMismatch(f"start point of length {len(x)} for a field on R^{f.input_dim}")
    run = f.value_tape

    def value(point: list) -> tuple:
        vals = run(point)
        return vals if all(map(math.isfinite, vals)) else eval_map(f, point)

    for t, t_next in zip(grid[:-1], grid[1:]):
        h = t_next - t
        half = 0.5 * h
        mid = t + half
        end = t + h
        k1 = [v / t for v in value(x)]
        k2 = [v / mid for v in value([a + half * k for a, k in zip(x, k1)])]
        k3 = [v / mid for v in value([a + half * k for a, k in zip(x, k2)])]
        k4 = [v / end for v in value([a + h * k for a, k in zip(x, k3)])]
        sixth = h / 6.0
        x = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    return tuple(x)


def w_sigma_flow(sigma: VectorField, x, s: float, tau: float):
    """Flow of W = (1/t) sigma + d/dt from (x, s) for time tau by RK4.

    Integrates xdot = sigma(x)/t with t(tau') = s + tau' exact on a
    uniform grid whose step is at most 1/20 of the smaller of |s| and
    |s + tau|; the sign of t may not change along the way."""
    x = tuple(as_floats(x))
    s = float(s)
    tau = float(tau)
    if s == 0.0:
        raise SliceCrossing("the flow must start off the t = 0 slice")
    s_end = s + tau
    if s_end == 0.0 or (s > 0) != (s_end > 0):
        raise SliceCrossing("the requested time crosses the t = 0 slice")
    if tau == 0.0:
        return x, s
    step = min(abs(s), abs(s_end)) / 20.0
    nsteps = max(1, math.ceil(abs(tau) / step))
    return _rk4(sigma, x, np.linspace(s, s_end, nsteps + 1).tolist()), s_end


def _geometric_grid(t_start: float, t_end: float) -> list:
    """Times from t_start up to t_end (same sign), 120 steps per decade.

    Near t = 0 the ODE is stiff in wall-clock time but perfectly tame on
    a grid whose spacing shrinks with t."""
    ratio = 10.0 ** (1.0 / 120)
    grid = [float(t_start)]
    while grid[-1] < t_end:
        grid.append(min(grid[-1] * ratio, t_end))
    return grid


EPS_SCHEDULE = (1e-2, 1e-3, 1e-4)


def tubular_from_euler(sigma: VectorField, y, xi) -> tuple:
    """The tubular embedding chi(y, xi): flow W from ((y, eps*xi), eps)
    to t = 1 for each eps in EPS_SCHEDULE and extrapolate eps -> 0 with
    a first-order model; raises NonConvergence when the last two
    extrapolants differ by more than 1e-4."""
    dims = sigma.dims
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if float(np.linalg.norm(xi)) == 0.0:
        return tuple(dims.join(y, [0.0] * dims.q))
    flows = [
        (eps, np.array(_rk4(sigma, dims.join(y, eps * xi), _geometric_grid(eps, 1.0))))
        for eps in EPS_SCHEDULE
    ]
    extrapolants = [
        (e1 * v2 - e2 * v1) / (e1 - e2) for (e1, v1), (e2, v2) in zip(flows, flows[1:])
    ]
    drift = float(np.max(np.abs(extrapolants[-1] - extrapolants[-2])))
    if drift > 1e-4:
        raise NonConvergence(f"extrapolants differ by {drift:.3e} > 1.0e-04")
    return tuple(extrapolants[-1].tolist())


def normal_derivative_of_chi(sigma: VectorField, y) -> np.ndarray:
    """Central finite difference of chi in the xi directions at xi = 0,
    with step 1e-3."""
    h = 1e-3
    dims = sigma.dims
    out = np.empty((dims.q, dims.q))
    for j in range(dims.q):
        e = np.zeros(dims.q)
        e[j] = h
        hi = np.array(tubular_from_euler(sigma, y, e))
        lo = np.array(tubular_from_euler(sigma, y, -e))
        out[:, j] = (hi - lo)[dims.p :] / (2.0 * h)
    return out


def chi_relatedness_residual(sigma: VectorField, y, xi) -> float:
    """Residual of sigma(chi(y, xi)) = d(chi)(y, xi) . E(y, xi) where E is
    the fiberwise scaling generator (0, xi); d(chi) by central FD with
    relative step 1e-4."""
    h = 1e-4
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    chi = tubular_from_euler(sigma, y, xi)
    lhs = np.array(sigma(chi))
    # directional derivative of chi along (0, xi) at (y, xi)
    hi = np.array(tubular_from_euler(sigma, y, xi * (1.0 + h)))
    lo = np.array(tubular_from_euler(sigma, y, xi * (1.0 - h)))
    rhs = (hi - lo) / (2.0 * h)
    return float(np.max(np.abs(lhs - rhs)))
