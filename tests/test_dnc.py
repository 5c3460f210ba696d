"""Deformation-space charts, induced maps, scaling action, function classes."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecut.dnc import (
    Body,
    DncMap,
    DncPoint,
    NormalSlice,
    check_vanishes_on_slice,
    eval_function_class,
    psi,
    psi_inv,
    rx_action,
)
from conecut import expr as expr_module
from conecut.errors import ArityMismatch, DomainViolation, NotAdapted, NotVanishing, SamplingFailure
from conecut.expr import Exp, Guard, SmoothMapExpr, Var, from_components
from conecut.pairs import MapOfPairs, PairDims


def _h():
    y, x = Var(0), Var(1)
    return MapOfPairs(
        from_components(2, (y + x**2, x * Exp(y))), PairDims(2, 1), PairDims(2, 1)
    )


def test_psi_two_branches():
    z = DncPoint.of([1.0], [2.0], 0.5)
    image = psi(z)
    assert isinstance(image, Body)
    assert np.allclose(image.x, [1.0, 1.0])
    assert image.t == 0.5
    z0 = DncPoint.of([1.0], [2.0], 0.0)
    image0 = psi(z0)
    assert isinstance(image0, NormalSlice)
    assert np.allclose(image0.xi, [2.0])


def test_dnc_point_of_reads_numbers_and_flat_sequences():
    for block in (0.5, np.float64(0.5), np.array(0.5), [0.5], (0.5,), np.array([0.5])):
        z = DncPoint.of(block, block, np.float64(2.0))
        assert z == DncPoint((0.5,), (0.5,), 2.0) and type(z.t) is float
        assert all(type(c) is float for c in z.y + z.xi)
    assert DncPoint.of([], [1, 2], 0).dims == PairDims(2, 0)
    with pytest.raises(ArityMismatch):
        DncPoint.of([[0.5]], [1.0], 0.0)


def test_psi_round_trip():
    z = DncPoint.of([0.3], [-1.2], 0.25)
    back = psi_inv(psi(z), PairDims(2, 1))
    assert back.close_to(z, 1e-14)


def test_psi_inv_rejects_overflowing_quotient():
    # 0.5 / 5e-324 overflows; an infinite xi must not be returned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation):
            psi_inv(Body(np.array([0.3, 0.5]), 5e-324), PairDims(2, 1))


def test_dnc_map_rejects_non_adapted():
    y, x = Var(0), Var(1)
    bad = MapOfPairs(
        from_components(2, (y, x + 1.0)), PairDims(2, 1), PairDims(2, 1)
    )
    with pytest.raises(NotAdapted):
        DncMap(bad)


def test_dnc_map_body_branch():
    dm = DncMap(_h())
    z = DncPoint.of([0.5], [2.0], 0.1)
    out = dm(z)
    # h(0.5, 0.2) = (0.5 + 0.04, 0.2*exp(0.5)); xi' = x'/t
    assert out.y[0] == pytest.approx(0.54)
    assert out.xi[0] == pytest.approx(2.0 * np.exp(0.5))
    assert out.t == 0.1


def test_dnc_map_zero_slice_branch_is_normal_derivative():
    dm = DncMap(_h())
    out = dm(DncPoint.of([0.5], [2.0], 0.0))
    assert out.t == 0.0
    assert out.y[0] == pytest.approx(0.5)
    assert out.xi[0] == pytest.approx(2.0 * np.exp(0.5))


def test_dnc_map_continuous_at_zero():
    dm = DncMap(_h())
    limit = dm(DncPoint.of([0.5], [2.0], 0.0))
    for t in (1e-3, 1e-5, 1e-7):
        near = dm(DncPoint.of([0.5], [2.0], t))
        assert abs(near.xi[0] - limit.xi[0]) < 10 * t
        assert abs(near.y[0] - limit.y[0]) < 10 * t


@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-1.5, 1.5),
    st.floats(0.2, 2.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
@example(y=0, xi=1, t=5e-324, lam_mag=1.5, lam_neg=False)
@example(y=0, xi=0.5, t=5e-324, lam_mag=0.5, lam_neg=False)
def test_equivariance_property(y, xi, t, lam_mag, lam_neg):
    lam = -lam_mag if lam_neg else lam_mag
    dm = DncMap(_h(), check=False)
    z = DncPoint.of([y], [xi], t)
    lhs = dm(rx_action(lam, z))
    rhs = rx_action(lam, dm(z))
    assert lhs.close_to(rhs, 1e-9 * (1 + abs(y) + abs(xi)))


def test_near_slice_sweep_matches_closed_forms():
    """t = +-10^-k down to the subnormal range: h~(y, xi, t) is
    (y + t^2 xi^2, xi e^y, t) and the dnc_f1 quotient of x e^y is xi e^y."""
    dims = PairDims(2, 1)
    dm = DncMap(_h())
    f = from_components(2, (Var(1) * Exp(Var(0)),))
    y, xi = 0.3, 0.7
    for k in range(324):
        for t in (10.0**-k, -(10.0**-k)):
            z = DncPoint.of([y], [xi], t)
            out = dm(z)
            assert out.y[0] == pytest.approx(y + t * t * xi * xi, rel=1e-12), t
            assert out.xi[0] == pytest.approx(xi * np.exp(y), rel=1e-12), t
            assert out.t == t
            quotient = eval_function_class("dnc_f1", f, dims, z, check=False)
            assert quotient == pytest.approx(xi * np.exp(y), rel=1e-12), t
            for lam in (0.5, 1.5, -2.0):
                lhs = dm(rx_action(lam, z))
                rhs = rx_action(lam, out)
                assert lhs.close_to(rhs, 1e-12), (t, lam)


def test_scaling_action_is_an_action():
    z = DncPoint.of([0.1], [3.0], 0.7)
    a = rx_action(2.0, rx_action(3.0, z))
    b = rx_action(6.0, z)
    assert a.close_to(b, 1e-14)
    assert rx_action(1.0, z).close_to(z, 0.0)


def test_hat_t_is_equivariant_weight_one():
    z = DncPoint.of([0.1], [3.0], 0.7)
    assert rx_action(2.0, z).t == pytest.approx(2.0 * z.t)


def test_function_class_hat_f0():
    dims = PairDims(2, 1)
    f = from_components(2, (Var(0) * Var(1),))
    z = DncPoint.of([3.0], [2.0], 0.5)
    # f(y, t*xi) = 3 * 1.0
    assert eval_function_class("hat_f0", f, dims, z) == pytest.approx(3.0)


def test_function_class_dnc_f1_both_branches():
    dims = PairDims(2, 1)
    f = from_components(2, (Var(0) * Var(1) + Var(1) ** 2,))
    z = DncPoint.of([3.0], [2.0], 0.5)
    # f(3, 1)/0.5 = (3 + 1)/0.5 = 8
    assert eval_function_class("dnc_f1", f, dims, z) == pytest.approx(8.0)
    z0 = DncPoint.of([3.0], [2.0], 0.0)
    # dN f(y) xi = y * xi = 6
    assert eval_function_class("dnc_f1", f, dims, z0) == pytest.approx(6.0)


def test_dnc_f1_compiles_its_quotient_map_once(monkeypatch):
    """Repeated dnc_f1 calls with one f compile only f's own value tape
    and jet tape, once each, and give bit for bit the xi-component of the
    induced map of (y, x) -> (y, f(y, x)), the pair (R^2, R) -> (R^2, R)."""
    dims = PairDims(2, 1)
    f = from_components(2, (Var(1) * Exp(Var(0)),))
    points = [DncPoint.of([0.3], [0.7], t) for t in (0.5, -1e-3, 1e-320, 0.0)] * 3
    compiled = []
    for name in ("_value_tape", "_jet_tape"):
        original = getattr(expr_module, name)
        monkeypatch.setattr(
            expr_module, name, lambda *a, name=name, original=original: compiled.append(name) or original(*a)
        )
    got = [eval_function_class("dnc_f1", f, dims, z, check=False) for z in points]
    monkeypatch.undo()
    assert sorted(compiled) == ["_jet_tape", "_value_tape"]
    for z, value in zip(points, got):
        fresh = MapOfPairs(
            SmoothMapExpr(2, 2, (Var(0), f.body[0]), f.guards), dims, PairDims(2, 1)
        )
        expected = DncMap(fresh, check=False)(z).xi[0]
        assert np.float64(value).tobytes() == np.float64(expected).tobytes(), z


def test_dnc_f1_check_needs_a_slice_point_in_the_domain():
    """A guard that excludes the whole slice leaves nothing to check."""
    dims = PairDims(2, 1)
    f = from_components(2, (Var(1),), (Guard(Var(1), "nonzero"),))
    with pytest.raises(SamplingFailure):
        check_vanishes_on_slice(f, dims)
    with pytest.raises(SamplingFailure):
        eval_function_class("dnc_f1", f, dims, DncPoint.of([0.0], [1.0], 0.5))


def test_function_class_dnc_f1_requires_vanishing():
    dims = PairDims(2, 1)
    f = from_components(2, (Var(0) + 1.0,))
    with pytest.raises(NotVanishing):
        eval_function_class("dnc_f1", f, dims, DncPoint.of([0.0], [1.0], 0.0))


def test_function_class_hat_t():
    dims = PairDims(2, 1)
    f = from_components(2, (Var(0),))
    assert eval_function_class("hat_t", f, dims, DncPoint.of([1.0], [1.0], 0.25)) == 0.25
