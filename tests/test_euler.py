"""Euler-like vector fields, the deformation flow, tubular embeddings."""

import numpy as np
import pytest

from conecut import euler
from conecut.errors import DomainViolation, NonConvergence, SamplingFailure, SliceCrossing
from conecut.euler import (
    EPS_SCHEDULE,
    MAX_FLOW_STEPS,
    VectorField,
    _geometric_grid,
    chi_relatedness_residual,
    euler_field,
    is_euler_like,
    normal_derivative_of_chi,
    tubular_from_euler,
    w_sigma_flow,
)
from conecut.expr import Guard, Var, from_components
from conecut.pairs import PairDims

DIMS = PairDims(2, 1)


def _perturbed_field():
    # sigma = (0, x + x^2): Euler-like with a quadratic correction
    x = Var(1)
    return VectorField(from_components(2, (Var(0) * 0.0, x + x**2)), DIMS)


def test_euler_field_is_euler_like():
    assert is_euler_like(euler_field(DIMS)).ok
    assert is_euler_like(_perturbed_field()).ok


def test_non_euler_like_fields_are_detected():
    x = Var(1)
    # does not vanish on the slice
    bad1 = VectorField(from_components(2, (Var(0) * 0.0, x + 1.0)), DIMS)
    rep1 = is_euler_like(bad1)
    assert not rep1.ok and not rep1.vanishes_on_Y
    # vanishes but the normal linearization is 2, not 1
    bad2 = VectorField(from_components(2, (Var(0) * 0.0, 2.0 * x)), DIMS)
    rep2 = is_euler_like(bad2)
    assert not rep2.ok and not rep2.normal_block_is_identity


def test_flow_matches_log1p_exponent_not_printed_form():
    """For the scaling field the flow multiplies the normal block by
    (s + tau)/s = exp(log1p(tau/s)); the sign makes this differ from
    exp(-log(1 - tau/s)) and the integrator decides which one is true."""
    sigma = euler_field(DIMS)
    x0 = np.array([0.3, 1.0])
    s, tau = 1.0, 0.5
    out, t_end = w_sigma_flow(sigma, x0, s, tau)
    assert t_end == s + tau
    factor_log1p = np.exp(np.log1p(tau / s))  # = 1.5
    factor_other = np.exp(-np.log(1.0 - tau / s))  # = 2, the sign-flipped form
    assert out[1] == pytest.approx(x0[1] * factor_log1p, rel=1e-9)
    assert not np.isclose(out[1], x0[1] * factor_other)
    assert out[0] == pytest.approx(0.3, abs=1e-12)


def test_flow_refuses_to_cross_the_slice():
    sigma = euler_field(DIMS)
    with pytest.raises(SliceCrossing):
        w_sigma_flow(sigma, [0.0, 1.0], 0.5, -0.5)
    with pytest.raises(SliceCrossing):
        w_sigma_flow(sigma, [0.0, 1.0], 0.5, -1.0)
    with pytest.raises(SliceCrossing):
        w_sigma_flow(sigma, [0.0, 1.0], 0.0, 1.0)


def test_flow_refuses_non_finite_times():
    sigma = _perturbed_field()
    for s, tau in ((float("nan"), 0.5), (0.5, float("inf")), (0.5, float("nan")), (float("-inf"), 1.0), (1e308, 1e308)):
        with pytest.raises(DomainViolation, match="finite start time and duration"):
            w_sigma_flow(sigma, [0.0, 0.1], s, tau)


def test_flow_refuses_a_grid_too_fine_before_building_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", refuse)
    sigma = _perturbed_field()
    # 20 steps per |s| over a unit of time: about 2e301 steps at s = 1e-300;
    # the third flow ends at t = -2^-54
    for s, tau in ((1e-300, 0.5), (5e-324, 1.0), (-0.5, 0.5 - 2.0**-54), (1.0, 20.0 * MAX_FLOW_STEPS)):
        with pytest.raises(NonConvergence, match=f"more than {MAX_FLOW_STEPS} steps"):
            w_sigma_flow(sigma, [0.0, 0.1], s, tau)


def test_geometric_grid_needs_a_positive_start():
    for start in (0.0, -0.0, -1e-2, float("nan")):
        with pytest.raises(DomainViolation, match="positive time"):
            _geometric_grid(start, 1.0)
    grid = _geometric_grid(1e-2, 1.0)
    assert grid[0] == 1e-2 and grid[-1] == 1.0 and len(grid) == 241


def test_tubular_embedding_builds_no_grid_per_call(monkeypatch):
    """The grids of EPS_SCHEDULE are built once, as the module loads."""
    sigma = _perturbed_field()
    first = tubular_from_euler(sigma, [0.3], [0.5])
    built = []
    monkeypatch.setattr(euler, "_geometric_grid", lambda *args: built.append(args))
    assert tubular_from_euler(sigma, [0.3], [0.5]) == first
    tubular_from_euler(sigma, [0.2], [-0.25])
    assert built == []
    assert [list(grid) for grid in euler._GRIDS] == [_geometric_grid(eps, 1.0) for eps in EPS_SCHEDULE]


def test_flow_is_reversible():
    sigma = _perturbed_field()
    x0 = np.array([0.2, 0.4])
    out, t1 = w_sigma_flow(sigma, x0, 0.5, 0.8)
    back, t0 = w_sigma_flow(sigma, out, t1, -0.8)
    assert t0 == pytest.approx(0.5)
    assert np.allclose(back, x0, atol=1e-10)


def test_tubular_identity_for_scaling_field():
    sigma = euler_field(DIMS)
    for xi in (0.25, -0.6, 1.1):
        chi = tubular_from_euler(sigma, [0.3], [xi])
        assert np.allclose(chi, [0.3, xi], atol=1e-10)


def test_tubular_closed_form_for_perturbed_field():
    sigma = _perturbed_field()
    for xi in (0.1, 0.2, 0.3):
        chi = tubular_from_euler(sigma, [0.0], [xi])
        assert chi[1] == pytest.approx(xi / (1.0 - xi), abs=1e-4)


def test_tubular_map_keeps_a_normal_vector_whose_norm_underflows():
    """|xi|^2 underflows to 0 for xi = 1e-200, but xi is not zero, so the
    scaling field carries it to itself rather than onto the slice."""
    chi = tubular_from_euler(euler_field(PairDims(2, 1)), [0.3], [1e-200])
    assert chi == pytest.approx((0.3, 1e-200), rel=1e-12, abs=0.0)


def test_tubular_fixes_the_slice():
    sigma = _perturbed_field()
    chi = tubular_from_euler(sigma, [0.7], [0.0])
    assert np.allclose(chi, [0.7, 0.0], atol=1e-12)


def test_normal_derivative_of_chi_is_identity():
    dn = normal_derivative_of_chi(_perturbed_field(), [0.0])
    assert np.allclose(dn, np.eye(1), atol=1e-4)


def test_chi_intertwines_scaling_generator_and_sigma():
    res = chi_relatedness_residual(_perturbed_field(), [0.0], [0.2])
    assert res < 1e-4


def test_is_euler_like_needs_a_slice_point_in_the_domain():
    """A guard that excludes the whole slice leaves nothing checked, so
    the field (5, 3x), which fails both conditions, must not pass."""
    x = Var(1)
    sigma = VectorField(from_components(2, (Var(0) * 0.0 + 5.0, 3.0 * x), (Guard(x, "nonzero"),)), DIMS)
    with pytest.raises(SamplingFailure):
        is_euler_like(sigma)
