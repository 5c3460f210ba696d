"""The float-list RK4 stepper against the numpy stepper it replaced.

``ref_rk4`` and ``ref_w_sigma_flow`` below are the stepper and the flow
as they were when every stage went through ``VectorField.__call__`` on
numpy arrays, kept verbatim as the reference.  The stepper must give
the same bytes on every trajectory, and raise the same error, with the
same message, where the trajectory leaves the field's domain or
overflows.
"""

import math

import numpy as np
import pytest

from conecut import euler
from conecut.errors import ArityMismatch, ConecutError
from conecut.euler import EPS_SCHEDULE, VectorField, _geometric_grid, _rk4, euler_field, w_sigma_flow
from conecut.expr import Guard, Var, from_components
from conecut.nodes import Norm, Sqrt
from conecut.pairs import PairDims

DIMS = PairDims(2, 1)


def ref_rk4(sigma, x, grid) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()

    def rhs(xv, tv):
        return np.asarray(sigma(xv)) / tv

    for t, t_next in zip(grid[:-1], grid[1:]):
        h = t_next - t
        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def ref_w_sigma_flow(sigma, x, s, tau):
    x = np.asarray(x, dtype=float).copy()
    s = float(s)
    tau = float(tau)
    s_end = s + tau
    step = min(abs(s), abs(s_end)) / 20.0
    nsteps = max(1, math.ceil(abs(tau) / step))
    return ref_rk4(sigma, x, np.linspace(s, s_end, nsteps + 1)), s_end


def _outcome(fn, *args):
    """The result's bytes (for a flow, its point's bytes and its end
    time), or the error's type and message."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except ConecutError as exc:
            return type(exc), str(exc)
    if fn in (w_sigma_flow, ref_w_sigma_flow):
        return np.asarray(out[0]).tobytes(), out[1]
    return np.asarray(out).tobytes()


def _quadratic_field():
    x = Var(1)
    return VectorField(from_components(2, (Var(0) * 0.0, x + x**2)), DIMS)


def _mixed_field():
    # Euler-like, q = 2 on n = 3, with y.x cross terms in every component
    y, x1, x2 = Var(0), Var(1), Var(2)
    body = (
        0.3 * y * x1 - 0.2 * x2 * x2,
        x1 + 0.5 * y * x1 * x2 + 0.25 * x1 * x2,
        x2 - 0.4 * y * x1**2 + 0.1 * x1**2,
    )
    return VectorField(from_components(3, body), PairDims(3, 1))


def _start_points(dims, seed, count=4):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-1.0, 1.0, dims.p), rng.uniform(-0.6, 0.6, dims.q)) for _ in range(count)]


@pytest.mark.parametrize(
    "field", [euler_field(DIMS), _quadratic_field(), _mixed_field()], ids=["scaling", "quadratic", "mixed"]
)
@pytest.mark.parametrize("eps", EPS_SCHEDULE)
def test_stepper_matches_numpy_on_the_geometric_grids(field, eps):
    grid = _geometric_grid(eps, 1.0)
    for y, xi in _start_points(field.dims, seed=7):
        x0 = field.dims.join(y, eps * xi)
        expected = _outcome(ref_rk4, field, x0, grid)
        assert isinstance(expected, bytes)
        assert _outcome(_rk4, field, x0, grid) == expected


@pytest.mark.parametrize("field", [_quadratic_field(), _mixed_field()], ids=["quadratic", "mixed"])
@pytest.mark.parametrize(
    "s, tau", [(0.5, 0.8), (1.3, -0.8), (-0.5, -0.8), (-1.3, 0.9)], ids=["forward", "backward", "negative", "negative-back"]
)
def test_flow_matches_numpy_on_the_linspace_grids(field, s, tau):
    for y, xi in _start_points(field.dims, seed=11):
        x0 = field.dims.join(y, xi)
        expected = _outcome(ref_w_sigma_flow, field, x0, s, tau)
        assert isinstance(expected[0], bytes)
        assert _outcome(w_sigma_flow, field, x0, s, tau) == expected


def test_tubular_map_matches_numpy(monkeypatch):
    field = _mixed_field()
    for y, xi in _start_points(field.dims, seed=3, count=2):
        new = euler.tubular_from_euler(field, y, xi)
        with monkeypatch.context() as patch:
            patch.setattr(euler, "_rk4", ref_rk4)
            old = euler.tubular_from_euler(field, y, xi)
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


def test_leaving_a_guarded_domain_raises_what_numpy_raised():
    x = Var(1)
    guarded = VectorField(
        from_components(2, (Var(0) * 0.0, x + x**2), guards=[Guard(0.5 - x, "positive")]), DIMS
    )
    grid = _geometric_grid(1e-2, 1.0)
    inside = _outcome(ref_rk4, guarded, [0.2, 1e-2 * 0.2], grid)
    assert isinstance(inside, bytes)
    assert _outcome(_rk4, guarded, [0.2, 1e-2 * 0.2], grid) == inside
    # chi(xi) = xi / (1 - xi) passes 0.5 before t = 1 for xi = 0.6
    expected = _outcome(ref_rk4, guarded, [0.2, 1e-2 * 0.6], grid)
    assert expected[1].startswith("guard positive(")
    assert _outcome(_rk4, guarded, [0.2, 1e-2 * 0.6], grid) == expected


def _guarded_3d_field():
    # Div, Sqrt and Norm in the components; the domain is |x| < 1/2
    y, x1, x2 = Var(0), Var(1), Var(2)
    r = Norm((x1, x2))
    body = (y * 0.0, x1 + x1 * x2 / Sqrt(1.0 + y * y), x2 + r * x2 / (2.0 - y))
    return VectorField(from_components(3, body, guards=[Guard(0.5 - r, "positive")]), PairDims(3, 1))


def test_guarded_3d_field_leaving_its_domain_mid_grid_raises_what_numpy_raised():
    field = _guarded_3d_field()
    grid = _geometric_grid(1e-2, 1.0)
    inside = [0.3, 1e-2 * 0.1, 1e-2 * 0.1]
    expected = _outcome(ref_rk4, field, inside, grid)
    assert isinstance(expected, bytes)
    assert _outcome(_rk4, field, inside, grid) == expected
    # From xi = (0.5, 0.6) the trajectory crosses |x| = 1/2 at step 203 of 240.
    leaving = [0.3, 1e-2 * 0.5, 1e-2 * 0.6]
    assert field.components.in_domain(leaving)
    first = grid[:201]
    expected = _outcome(ref_rk4, field, leaving, first)
    assert isinstance(expected, bytes)
    assert _outcome(_rk4, field, leaving, first) == expected
    expected = _outcome(ref_rk4, field, leaving, grid)
    assert expected[1].startswith("guard positive((0.5 - norm(x2, x3))) fails at [0.3, ")
    assert _outcome(_rk4, field, leaving, grid) == expected


def test_overflowing_trajectories_raise_what_numpy_raised():
    # x^3 raises on the overflowing power; x*x*x multiplies up to inf
    x = Var(1)
    grid = _geometric_grid(1e-2, 1.0)
    messages = set()
    for cube in (x**3, x * x * x):
        cubic = VectorField(from_components(2, (Var(0) * 0.0, cube)), DIMS)
        for xi in (30.0, 1e3, 1e50, 1e100, 1e150, 1e200, 1e300):
            expected = _outcome(ref_rk4, cubic, [0.0, 1e-2 * xi], grid)
            assert _outcome(_rk4, cubic, [0.0, 1e-2 * xi], grid) == expected
            messages.add(expected[1].split(" ")[0] if isinstance(expected, tuple) else "returned")
    assert messages == {"returned", "overflow", "value"}


def test_start_point_arity_is_checked():
    with pytest.raises(ArityMismatch):
        _rk4(_quadratic_field(), [0.0, 0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ArityMismatch):
        _rk4(_quadratic_field(), [0.0, 0.1, 0.2], [1.0])
