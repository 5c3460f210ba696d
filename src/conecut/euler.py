"""Euler-like vector fields, the deformation-space flow, and tubular maps.

A vector field sigma on the local pair (R^n, R^p) is Euler-like when it
vanishes on the slice and its normal-block linearization there is the
identity.  The associated field on the deformation space is
W = (1/t) sigma + d/dt; it is integrated directly from this ODE by RK4
(the time component is exact since tdot = 1).  Each VectorField
compiles its own RK4 stepper on first use, with ``expr.compile_source``:
one loop over the time grid whose stage arithmetic is unrolled into a
scalar local per component, so each stage is one call of sigma's value
tape and n float operations per step of the array form, in the same
order and bit-identical to the same steps on numpy arrays.  The value
tape itself raises ``eval_map``'s error at a stage whose values are not
finite.  The flow refuses a non-finite time and a grid finer than
MAX_FLOW_STEPS steps before it builds one.  The time-1
slice map chi built from the flow, extrapolated from small starting
parameters, is the tubular-neighborhood embedding: chi restricted to
the slice is the identity, its normal derivative is the identity, and
it carries the fiberwise scaling generator to sigma.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import ArityMismatch, DomainViolation, NonConvergence, SamplingFailure, SliceCrossing
from .expr import SmoothMapExpr, as_floats, compile_source, eval_map, from_components, jet_eval, max_abs_diff
from .nodes import Var
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

    @cached_property
    def stepper(self):
        """run(x, grid): ``_rk4`` from a checked start point x, a list
        of n floats; compiled on first use."""
        return _stepper(self.components)


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
    identity = [float(i == j) for i in range(dims.q) for j in range(dims.q)]
    for point in points:
        jet = jet_eval(sigma.components, point)
        worst_vanish = max(worst_vanish, max_abs_diff(jet.value, [0.0] * dims.n))
        block = [c for row in jet.jacobian[dims.p :] for c in row[dims.p :]]
        worst_lin = max(worst_lin, max_abs_diff(block, identity))
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
    sigma's value tape, which raises ``eval_map``'s error."""
    f = sigma.components
    x = as_floats(x)
    if len(x) != f.input_dim:
        raise ArityMismatch(f"start point of length {len(x)} for a field on R^{f.input_dim}")
    return sigma.stepper(x, grid)


def _stepper(f: SmoothMapExpr):
    """run(x, grid): the loop of ``_rk4`` for the field f, compiled with
    its n components unrolled into scalar locals."""
    n = f.input_dim
    xs = [f"x{i}" for i in range(n)]
    values = f"[{''.join(f'f{i}, ' for i in range(n))}]"
    loop = ["h = t_next - t", "half = one_half * h", "mid = t + half", "end = t + h"]
    for k, (point, t) in enumerate(
        ((xs, "t"), ([f"x{i} + half * k1_{i}" for i in range(n)], "mid"),
         ([f"x{i} + half * k2_{i}" for i in range(n)], "mid"), ([f"x{i} + h * k3_{i}" for i in range(n)], "end")),
        start=1,
    ):
        loop += [f"p = [{', '.join(point)}]", f"{values} = run(p)"]
        loop += [f"k{k}_{i} = f{i} / {t}" for i in range(n)]
    loop.append("sixth = h / six")
    loop += [f"x{i} = x{i} + sixth * (((k1_{i} + two * k2_{i}) + two * k3_{i}) + k4_{i})" for i in range(n)]
    lines = [f"[{''.join(x + ', ' for x in xs)}] = x", "for t, t_next in zip(grid[:-1], grid[1:]):"]
    lines += ["    " + line for line in loop] + [f"return ({''.join(x + ', ' for x in xs)})"]
    bound = {"run": f.value_tape, "one_half": 0.5, "two": 2.0, "six": 6.0}
    return compile_source("x, grid", lines, bound)


# Most RK4 steps w_sigma_flow takes: its uniform grid gets finer as the
# flow starts or ends nearer t = 0.
MAX_FLOW_STEPS = 10**6


def w_sigma_flow(sigma: VectorField, x, s: float, tau: float):
    """Flow of W = (1/t) sigma + d/dt from (x, s) for time tau by RK4.

    Integrates xdot = sigma(x)/t with t(tau') = s + tau' exact on a
    uniform grid whose step is at most 1/20 of the smaller of |s| and
    |s + tau|; the sign of t may not change along the way.  Raises
    DomainViolation unless s, tau and s + tau are finite, and
    NonConvergence when the grid would need more than MAX_FLOW_STEPS
    steps."""
    x = tuple(as_floats(x))
    s = float(s)
    tau = float(tau)
    s_end = s + tau
    if not (math.isfinite(s) and math.isfinite(tau) and math.isfinite(s_end)):
        raise DomainViolation(f"the flow needs a finite start time and duration, not s = {s}, tau = {tau}")
    if s == 0.0:
        raise SliceCrossing("the flow must start off the t = 0 slice")
    if s_end == 0.0 or (s > 0) != (s_end > 0):
        raise SliceCrossing("the requested time crosses the t = 0 slice")
    if tau == 0.0:
        return x, s
    step = min(abs(s), abs(s_end)) / 20.0
    if step == 0.0 or not abs(tau) / step <= MAX_FLOW_STEPS:
        raise NonConvergence(
            f"the flow from t = {s} to {s_end} needs more than {MAX_FLOW_STEPS} steps of at most {step:.3e}"
        )
    nsteps = max(1, math.ceil(abs(tau) / step))
    # The grid numpy's linspace builds: s + i * dt, and s_end itself last.
    dt = (s_end - s) / nsteps
    return _rk4(sigma, x, [s + i * dt for i in range(nsteps)] + [s_end]), s_end


def _geometric_grid(t_start: float, t_end: float) -> list:
    """Times from t_start > 0 up to t_end, 120 steps per decade.

    Near t = 0 the ODE is stiff in wall-clock time but perfectly tame on
    a grid whose spacing shrinks with t."""
    if not t_start > 0.0:
        raise DomainViolation(f"a geometric grid starts at a positive time, not {t_start}")
    ratio = 10.0 ** (1.0 / 120)
    grid = [float(t_start)]
    while grid[-1] < t_end:
        grid.append(min(grid[-1] * ratio, t_end))
    return grid


EPS_SCHEDULE = (1e-2, 1e-3, 1e-4)
_GRIDS = tuple(tuple(_geometric_grid(eps, 1.0)) for eps in EPS_SCHEDULE)  # built once per process


def tubular_from_euler(sigma: VectorField, y, xi) -> tuple:
    """The tubular embedding chi(y, xi): flow W from ((y, eps*xi), eps)
    to t = 1 for each eps in EPS_SCHEDULE and extrapolate eps -> 0 with
    a first-order model; raises NonConvergence when the last two
    extrapolants differ by more than 1e-4."""
    dims = sigma.dims
    y, xi = as_floats(y), as_floats(xi)
    if not any(xi):
        return tuple(dims.join(y, [0.0] * dims.q))
    flows = [
        (eps, _rk4(sigma, dims.join(y, [eps * c for c in xi]), grid)) for eps, grid in zip(EPS_SCHEDULE, _GRIDS)
    ]
    extrapolants = [
        [(e1 * b - e2 * a) / (e1 - e2) for a, b in zip(v1, v2)]
        for (e1, v1), (e2, v2) in zip(flows, flows[1:])
    ]
    drift = max_abs_diff(extrapolants[-1], extrapolants[-2])
    if drift > 1e-4:
        raise NonConvergence(f"extrapolants differ by {drift:.3e} > 1.0e-04")
    return tuple(extrapolants[-1])


def normal_derivative_of_chi(sigma: VectorField, y) -> list:
    """Central finite difference of chi in the xi directions at xi = 0,
    with step 1e-3, as q rows of q floats."""
    h = 1e-3
    p, q = sigma.dims.p, sigma.dims.q
    cols = []
    for j in range(q):
        e = [h if i == j else 0.0 for i in range(q)]
        hi = tubular_from_euler(sigma, y, e)
        lo = tubular_from_euler(sigma, y, [-c for c in e])
        cols.append([(a - b) / (2.0 * h) for a, b in zip(hi[p:], lo[p:])])
    return [list(row) for row in zip(*cols)]


def chi_relatedness_residual(sigma: VectorField, y, xi) -> float:
    """Residual of sigma(chi(y, xi)) = d(chi)(y, xi) . E(y, xi) where E is
    the fiberwise scaling generator (0, xi); d(chi) by central FD with
    relative step 1e-4."""
    h = 1e-4
    xi = as_floats(xi)
    chi = tubular_from_euler(sigma, y, xi)
    # directional derivative of chi along (0, xi) at (y, xi)
    hi = tubular_from_euler(sigma, y, [c * (1.0 + h) for c in xi])
    lo = tubular_from_euler(sigma, y, [c * (1.0 - h) for c in xi])
    return max_abs_diff(sigma(chi), [(a - b) / (2.0 * h) for a, b in zip(hi, lo)])
