"""Vector-bundle blow-up charts, sections, and the tangent anchor."""

import numpy as np
import pytest

from conecut.blowup import Body, Exceptional, canonical_direction, from_ambient
from conecut.errors import NotAdapted, OutsideChart
from conecut.expr import SmoothMapExpr, Var, compose, from_components, jet_eval
from conecut.pairs import MapOfPairs, PairDims, check_adapted
from conecut.vb import (
    VbBody,
    VbExceptional,
    VbPairModel,
    fiber_linearity_check,
    section_blowup,
    tangent_anchor,
    tangent_anchor_rank,
    trivial_model,
    vb_chart,
)

BASE = PairDims(3, 1)


def _mixing_model():
    # frame linear in the fiber, coefficients depending on the base
    u0, x1, x2 = Var(0), Var(1), Var(2)
    v1, v2, v3 = Var(3), Var(4), Var(5)
    frame = SmoothMapExpr(
        6, 3, (v1 + x1 * v2, v2 + (x2 + u0 * x1) * v3, v3 + x1 * x2 * v1)
    )
    return VbPairModel(BASE, 1, 2, frame)


def test_trivial_model_chart_divides_e_block():
    model = trivial_model(BASE, 1, 2)
    z = VbBody(np.array([0.5, 2.0, 3.0]), np.array([7.0, 4.0, 6.0]))
    w = vb_chart(model, 1, z)
    # base chart 1 of (0.5, 2, 3): (0.5, 2, 1.5); f = 7; e/x1 = (2, 3)
    assert np.allclose(w, [0.5, 2.0, 1.5, 7.0, 2.0, 3.0])


def test_chart_exceptional_divides_by_direction_component():
    model = trivial_model(BASE, 1, 2)
    xi = canonical_direction([1.0, 1.0])
    z = VbExceptional(np.array([0.5]), xi, np.array([7.0]), np.array([2.0, 4.0]))
    w = vb_chart(model, 1, z)
    assert w[1] == 0.0
    assert np.allclose(w[3:], [7.0, 2.0 / xi[0], 4.0 / xi[0]])
    with pytest.raises(OutsideChart):
        vb_chart(
            model, 1, VbExceptional(np.array([0.5]), np.array([0.0, 1.0]), np.array([7.0]), np.array([2.0, 4.0]))
        )


def test_fiber_linearity_trivial_and_mixing():
    for model in (trivial_model(BASE, 1, 2), _mixing_model()):
        body = from_ambient([0.5, 1.0, 2.0], BASE)
        rep = fiber_linearity_check(model, 1, body, samples=16, seed=3)
        assert rep.ok, rep.max_violation
        exc = Exceptional(np.array([0.5]), canonical_direction([1.0, 2.0]), BASE)
        rep = fiber_linearity_check(model, 1, exc, samples=16, seed=3)
        assert rep.ok, rep.max_violation


def test_section_blowup_body_and_exceptional():
    model = trivial_model(BASE, 1, 2)
    # section alpha(u) = (u0, x1, x1 + x2): e-part vanishes on the slice
    u0, x1, x2 = Var(0), Var(1), Var(2)
    alpha = from_components(3, (u0, x1, x1 + x2))
    body = from_ambient([0.5, 1.0, 2.0], BASE)
    out = section_blowup(model, alpha, body)
    assert isinstance(out, VbBody)
    assert np.allclose(out.upsilon, [0.5, 1.0, 3.0])
    exc = Exceptional(np.array([0.5]), canonical_direction([1.0, 2.0]), BASE)
    out_exc = section_blowup(model, alpha, exc)
    assert isinstance(out_exc, VbExceptional)
    assert np.allclose(out_exc.phi, [0.5])
    # eps = normal derivative of (x1, x1 + x2) contracted with xi
    xi = exc.xi_dir
    assert np.allclose(out_exc.eps, [xi[0], xi[0] + xi[1]], atol=1e-12)


def test_section_blowup_rejects_non_subbundle_section():
    model = trivial_model(BASE, 1, 2)
    alpha = from_components(3, (Var(0), Var(1) + 1.0, Var(2)))
    exc = Exceptional(np.array([0.5]), canonical_direction([1.0, 2.0]), BASE)
    with pytest.raises(NotAdapted):
        section_blowup(model, alpha, exc)


def _wrapper_section_eps(model, alpha, z):
    """Oracle: eps as the section blow-up used to compute it, from the
    wrapper map u -> (y, e(u, alpha(u))) and the x-columns of the Jacobian
    of u -> e(u, alpha(u))."""
    dims = model.base
    id_and_alpha = from_components(
        dims.n, tuple(Var(i) for i in range(dims.n)) + alpha.body, alpha.guards
    )
    e_along = compose(
        from_components(model.frame.input_dim, model.frame.body[model.rank_f :], model.frame.guards),
        id_and_alpha,
    )
    e_pair = MapOfPairs(
        from_components(dims.n, tuple(Var(i) for i in range(dims.p)) + e_along.body, e_along.guards),
        dims,
        PairDims(dims.p + model.rank_e, dims.p),
    )
    report = check_adapted(e_pair, samples=64)
    if not report.ok:
        raise NotAdapted(
            f"section does not take sub-bundle values on the slice "
            f"(worst violation {report.worst_violation:.3e})"
        )
    jac = np.asarray(jet_eval(e_along, dims.join(z.y, np.zeros(dims.q))).jacobian)
    return jac[:, dims.p :] @ np.asarray(z.xi_dir)


def test_section_blowup_matches_the_wrapper_construction():
    u0, x1, x2 = Var(0), Var(1), Var(2)
    sections = [
        from_components(3, (u0, x1, x1 + x2)),
        from_components(3, (u0 * u0, x1 * u0 + x2 * x2, x2 - 3.0 * x1 * u0)),
        from_components(3, (u0 * 0.0, u0 * 0.0, x1)),
        from_components(3, (u0, x1 + 1.0, x2)),
        from_components(3, (u0, u0 * x1, x2 + u0)),
    ]
    points = [
        Exceptional(np.array([y]), canonical_direction(d), BASE)
        for y in (0.5, -0.7, 0.0)
        for d in ([1.0, 2.0], [-3.0, 0.25], [0.0, 1.0])
    ]
    outcomes = []
    for model in (trivial_model(BASE, 1, 2), _mixing_model()):
        for alpha in sections:
            for z in points:
                try:
                    expected = _wrapper_section_eps(model, alpha, z)
                except NotAdapted as exc:
                    with pytest.raises(NotAdapted) as got:
                        section_blowup(model, alpha, z)
                    assert str(got.value) == str(exc)
                    outcomes.append("rejected")
                    continue
                eps = section_blowup(model, alpha, z).eps
                assert np.asarray(eps).tobytes() == expected.tobytes(), (alpha, z)
                outcomes.append("blown up")
    assert outcomes.count("rejected") == 36 and outcomes.count("blown up") == 54


def test_coordinate_section_frame_identity():
    """A section x^r * (i-th frame vector) blows up with chart value
    (0, e_i) in the fiber of chart r."""
    model = trivial_model(BASE, 1, 2)
    r = 1
    for i in range(model.rank_e):
        comps = [Var(0) * 0.0] * model.fiber_rank
        comps[model.rank_f + i] = Var(BASE.p + r - 1)  # x^r
        alpha = from_components(3, tuple(comps))
        exc = Exceptional(np.array([0.5]), canonical_direction([2.0, 3.0]), BASE)
        out = section_blowup(model, alpha, exc)
        w = vb_chart(model, r, out)
        fiber = w[BASE.n :]
        expected = np.zeros(model.fiber_rank)
        expected[model.rank_f + i] = 1.0
        assert np.allclose(fiber, expected, atol=1e-12)


def test_tangent_anchor_kernel_is_radial():
    dims = PairDims(3, 0)
    xi = canonical_direction([1.0, 2.0, -0.5])
    z = Exceptional(np.zeros(0), xi, dims)
    i = int(np.argmax(np.abs(xi))) + 1
    assert np.allclose(tangent_anchor(z, 3.7 * np.asarray(xi), i), 0.0, atol=1e-14)


def test_tangent_anchor_rank_is_q_minus_one():
    dims = PairDims(4, 0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        xi = canonical_direction(rng.normal(size=4))
        i = int(np.argmax(np.abs(xi))) + 1
        z = Exceptional(np.zeros(0), xi, dims)
        assert tangent_anchor_rank(z, i) == 3


def test_tangent_anchor_formula():
    dims = PairDims(2, 0)
    xi = np.array([0.6, 0.8])
    z = Exceptional(np.zeros(0), xi, dims)
    eta = np.array([1.0, 0.0])
    out = tangent_anchor(z, eta, 1)
    # d(xi2/xi1) along eta: eta2/xi1 - xi2*eta1/xi1^2 = -0.8/0.36
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-0.8 / 0.36)
