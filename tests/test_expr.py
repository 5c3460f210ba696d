"""Forward-mode differentiation of expression trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecut.errors import ArityMismatch, DomainViolation, UnknownGuardKind
from conecut.expr import (
    Cos,
    Exp,
    Guard,
    Log,
    Norm,
    Sin,
    Sqrt,
    SmoothMapExpr,
    Var,
    compose,
    eval_map,
    finite_diff_jacobian,
    from_components,
    identity_map,
    jet_eval,
    linear_map,
    substitute,
)


def _poly_map():
    x, y = Var(0), Var(1)
    return from_components(2, (x * y + x**3, Sin(x) * Exp(y), x / (1.0 + y**2)))


def test_value_and_jacobian_shapes():
    m = _poly_map()
    jet = jet_eval(m, [0.5, -0.3])
    assert np.shape(jet.value) == (3,)
    assert np.shape(jet.jacobian) == (3, 2)
    # values, Jacobians and their rows are tuples of floats at every output_dim
    for output_dim in (0, 1, 2, 3):
        part = from_components(2, m.body[:output_dim])
        value, jet = eval_map(part, (0.5, -0.3)), jet_eval(part, np.array([0.5, -0.3]))
        assert type(value) is tuple and type(jet.value) is tuple and jet.value == value
        assert type(jet.jacobian) is tuple and len(jet.jacobian) == len(value) == output_dim
        assert all(type(row) is tuple and len(row) == 2 for row in jet.jacobian)
        assert all(type(c) is float for c in value + sum(jet.jacobian, ()))


def test_jacobian_matches_hand_derivative():
    x, y = Var(0), Var(1)
    m = from_components(2, (x * y + x**3,))
    jet = jet_eval(m, [2.0, 3.0])
    jac = np.asarray(jet.jacobian)
    assert jet.value[0] == pytest.approx(2.0 * 3.0 + 8.0)
    assert jac[0, 0] == pytest.approx(3.0 + 3 * 4.0)
    assert jac[0, 1] == pytest.approx(2.0)


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
)
@settings(max_examples=50, deadline=None)
def test_ad_matches_finite_differences(point):
    m = _poly_map()
    jac_ad = np.asarray(jet_eval(m, point).jacobian)
    jac_fd = finite_diff_jacobian(m, point)
    assert np.max(np.abs(jac_ad - jac_fd)) < 1e-6 * (1 + np.max(np.abs(jac_ad)))


def test_transcendental_derivatives():
    x = Var(0)
    m = from_components(1, (Sqrt(x), Log(x), Cos(x)))
    jac = np.asarray(jet_eval(m, [0.49]).jacobian)
    assert jac[0, 0] == pytest.approx(0.5 / 0.7)
    assert jac[1, 0] == pytest.approx(1.0 / 0.49)
    assert jac[2, 0] == pytest.approx(-np.sin(0.49))


def test_norm_value_and_gradient():
    m = from_components(3, (Norm((Var(0), Var(1), Var(2))),))
    point = np.array([3.0, 0.0, 4.0])
    jet = jet_eval(m, point)
    assert jet.value[0] == pytest.approx(5.0)
    assert np.allclose(jet.jacobian[0], point / 5.0)


def test_division_by_zero_raises_never_nan():
    m = from_components(1, (1.0 / Var(0),))
    with pytest.raises(DomainViolation):
        eval_map(m, [0.0])


def test_log_and_sqrt_domain_violations():
    with pytest.raises(DomainViolation):
        eval_map(from_components(1, (Log(Var(0)),)), [-1.0])
    with pytest.raises(DomainViolation):
        eval_map(from_components(1, (Sqrt(Var(0)),)), [-0.5])
    # derivative of sqrt at 0 is unbounded
    with pytest.raises(DomainViolation):
        jet_eval(from_components(1, (Sqrt(Var(0)),)), [0.0])


def test_norm_gradient_at_origin_raises():
    m = from_components(2, (Norm((Var(0), Var(1))),))
    assert eval_map(m, [0.0, 0.0])[0] == 0.0
    with pytest.raises(DomainViolation):
        jet_eval(m, [0.0, 0.0])


def test_guards_restrict_domain():
    m = SmoothMapExpr(1, 1, (Var(0),), (Guard(Var(0), "positive"),))
    assert m.in_domain([0.5])
    assert not m.in_domain([-0.5])
    with pytest.raises(DomainViolation):
        eval_map(m, [-0.5])


@pytest.mark.parametrize("kind", ["nonzero", "positive", "nonnegative"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_no_point_with_a_non_finite_coordinate_is_in_the_domain(kind, bad):
    # NaN compares unequal to zero, so a nonzero guard alone would pass it.
    guarded = SmoothMapExpr(1, 1, (Var(0),), (Guard(Var(0), kind),))
    assert not guarded.in_domain([bad])
    with pytest.raises(DomainViolation):
        eval_map(guarded, [bad])
    assert not identity_map(2).in_domain([1.0, bad])


def test_unknown_guard_kind_is_rejected_at_construction():
    with pytest.raises(UnknownGuardKind, match="unknown guard kind 'bogus'"):
        Guard(Var(0), "bogus")


def test_compose_chain_rule():
    f = _poly_map()  # 2 -> 3
    a, b, c = Var(0), Var(1), Var(2)
    g = from_components(3, (a * b + c, Sin(c)))  # 3 -> 2
    gf = compose(g, f)
    point = np.array([0.4, -0.7])
    jet_f = jet_eval(f, point)
    jet_g = jet_eval(g, jet_f.value)
    jet_gf = jet_eval(gf, point)
    assert np.allclose(jet_gf.value, jet_g.value, atol=1e-12)
    assert np.allclose(jet_gf.jacobian, np.asarray(jet_g.jacobian) @ np.asarray(jet_f.jacobian), atol=1e-10)


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compose(_poly_map(), _poly_map())


def test_substitute_is_structural():
    x, y = Var(0), Var(1)
    e = x * y + Sin(x)
    swapped = substitute(e, (y, x))
    m = from_components(2, (swapped,))
    val = eval_map(m, [0.3, 0.8])
    assert val[0] == pytest.approx(0.8 * 0.3 + np.sin(0.8))


def test_identity_and_linear_maps():
    ident = identity_map(3)
    point = np.array([1.0, -2.0, 0.5])
    assert np.allclose(eval_map(ident, point), point)
    mat = np.array([[1.0, 2.0], [0.0, -1.0]])
    lin = linear_map(mat)
    v = np.array([0.7, 0.3])
    assert np.allclose(eval_map(lin, v), mat @ v, atol=1e-14)
    assert np.allclose(jet_eval(lin, v).jacobian, mat, atol=1e-14)


def test_wrong_input_dimension_raises():
    with pytest.raises(ArityMismatch):
        eval_map(_poly_map(), [1.0, 2.0, 3.0])


def test_shared_subtrees_evaluate_consistently():
    x = Var(0)
    shared = Sin(x) * Sin(x)
    m = from_components(1, (shared + shared, shared))
    val = eval_map(m, [0.9])
    assert val[0] == pytest.approx(2 * val[1])
