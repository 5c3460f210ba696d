"""Groupoid structure maps, axioms, isotropy, the rotation action."""

import numpy as np
import pytest

from conecut.blowup import Body, Exceptional, blowdown, canonical_direction
from conecut.errors import SamplingFailure
from conecut.expr import SmoothMapExpr, Var, from_components
from conecut.groupoid import (
    GroupoidSpec,
    action_groupoid_rx,
    check_axioms,
    isotropy_orbit_report,
    pair_groupoid,
    polar_arrow_to_action,
    polar_groupoid_check,
    polar_source,
    polar_target,
    rotate_blowup_point,
    saturated_action_blowup,
)
from conecut.pairs import PairDims


def test_pair_groupoid_axioms():
    rep = check_axioms(pair_groupoid(2), samples=100, seed=0)
    assert rep.max_violation() <= 1e-12


def test_action_groupoid_axioms():
    rep = check_axioms(action_groupoid_rx(), samples=200, seed=0)
    assert rep.max_violation() <= 1e-9


def test_broken_structure_is_detected():
    spec = pair_groupoid(1)
    broken = GroupoidSpec(
        spec.arrow_dim,
        spec.base_dim,
        spec.source,
        spec.target,
        # wrong product: (a, c) -> (a, c + 0.1); composability is relaxed
        # so the defect shows up in the axiom report, not as a sampling error
        from_components(4, (Var(0), Var(3) + 0.1)),
        spec.inv,
        spec.unit,
        tol=1.0,
        composable_partner=spec.composable_partner,
    )
    rep = check_axioms(broken, samples=50, seed=0)
    assert rep.max_violation() > 1e-9


def test_composability_is_enforced():
    spec = pair_groupoid(1)
    g = np.array([1.0, 2.0])
    h = np.array([5.0, 3.0])  # target 5 != source 2 of g
    with pytest.raises(SamplingFailure):
        spec.m(g, h)


def test_action_groupoid_structure_values():
    spec = action_groupoid_rx()
    g = np.array([2.0, 3.0])  # lambda = 2 acting at a = 3
    assert spec.s(g)[0] == 3.0
    assert spec.t(g)[0] == 6.0
    h = np.array([4.0, 0.75])  # target 3 = source of g
    assert np.allclose(spec.m(g, h), [8.0, 0.75])
    assert np.allclose(spec.i(g), [0.5, 6.0])
    assert np.allclose(spec.u(3.0), [1.0, 3.0])


def test_isotropy_and_orbit_dimensions():
    spec = action_groupoid_rx()
    away = isotropy_orbit_report(spec, [1.0])
    assert (away.isotropy_dim, away.orbit_dim) == (0, 1)
    at_origin = isotropy_orbit_report(spec, [0.0])
    assert (at_origin.isotropy_dim, at_origin.orbit_dim) == (1, 0)


def test_polar_presentation_structure_maps():
    theta = np.array([0.6, 0.8])
    t = 1.5
    assert polar_source(theta, t) == pytest.approx(1.5 * 0.8)
    assert polar_target(theta, t) == pytest.approx(1.5 * 0.6)
    g = polar_arrow_to_action(theta, t)
    assert g[0] == pytest.approx(0.6 / 0.8)
    assert g[1] == pytest.approx(1.5 * 0.8)
    # the two-fold representative gives the same action arrow
    g2 = polar_arrow_to_action(-theta, -t)
    assert np.allclose(g, g2)


def test_polar_presentation_intertwines_structure():
    rep = polar_groupoid_check(samples=300, seed=1)
    assert rep.samples == 300
    assert rep.max_structure_violation <= 1e-9


def test_rotation_action_on_blowup():
    rep = saturated_action_blowup(samples=200, seed=2)
    assert rep.identity_violation <= 1e-9
    assert rep.composition_violation <= 1e-9
    assert rep.blowdown_violation <= 1e-9


def test_rotation_action_covers_blowdown():
    dims = PairDims(2, 0)
    z = Body(np.array([1.0, 2.0]), dims)
    ang = 0.7
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    out = rotate_blowup_point(ang, z)
    assert np.allclose(blowdown(out), rot @ blowdown(z), atol=1e-12)
    exc = Exceptional(np.zeros(0), canonical_direction([1.0, 1.0]), dims)
    out_exc = rotate_blowup_point(ang, exc)
    assert isinstance(out_exc, Exceptional)
    assert np.allclose(
        out_exc.xi_dir, canonical_direction(rot @ exc.xi_dir), atol=1e-12
    )
