"""The groupoid checks against the per-sample reference loops.

``ref_check_axioms``, ``ref_sample_arrows`` and ``ref_polar_groupoid_check``
below are the loops that checked the groupoid axioms one sampled arrow at
a time, through the single-point structure maps ``GroupoidSpec.s/t/m/i/u``,
kept verbatim as the reference, except that they subtract with
``np.subtract`` the tuples the polar conversion and the structure maps
return.  The checks, which run the structure maps' value tapes on lists
of floats, must report exactly the same numbers for the same seed.
"""

import numpy as np
import pytest

from conecut import groupoid
from conecut.errors import ArityMismatch, DomainViolation, SamplingFailure
from conecut.expr import Guard, SmoothMapExpr, Var, eval_map
from conecut.groupoid import (
    AxiomReport,
    GroupoidSpec,
    PolarCheckReport,
    _polar_of_pair_arrow,
    _sample_arrows,
    action_groupoid_rx,
    check_axioms,
    pair_groupoid,
    polar_arrow_to_action,
    polar_groupoid_check,
    polar_mult,
    polar_source,
    polar_target,
)


def ref_sample_arrows(spec, rng, count: int):
    if spec.arrow_sampler is not None:
        return [np.asarray(a, dtype=float) for a in spec.arrow_sampler(rng, count)]
    out = []
    for _ in range(count * 10):
        if len(out) >= count:
            break
        g = rng.uniform(-2.0, 2.0, size=spec.arrow_dim)
        if spec.source.in_domain(g) and spec.target.in_domain(g):
            out.append(g)
    if not out:
        raise SamplingFailure("no valid arrows found")
    return out


def ref_check_axioms(spec, samples: int, seed: int) -> AxiomReport:
    rng = np.random.default_rng(seed)
    rep = AxiomReport()
    arrows = ref_sample_arrows(spec, rng, samples)
    partner = spec.composable_partner
    for g in arrows:
        h = np.asarray(partner(rng, g), dtype=float)
        k = np.asarray(partner(rng, h), dtype=float)
        gh = spec.m(g, h)
        hk = spec.m(h, k)
        rep.source_of_product = max(
            rep.source_of_product, float(np.max(np.abs(np.asarray(spec.s(gh)) - spec.s(h))))
        )
        rep.target_of_product = max(
            rep.target_of_product, float(np.max(np.abs(np.asarray(spec.t(gh)) - spec.t(g))))
        )
        rep.associativity = max(
            rep.associativity,
            float(np.max(np.abs(np.asarray(spec.m(gh, k)) - spec.m(g, hk)))),
        )
        rep.unit_laws = max(
            rep.unit_laws,
            float(np.max(np.abs(np.asarray(spec.m(g, spec.u(spec.s(g)))) - g))),
            float(np.max(np.abs(np.asarray(spec.m(spec.u(spec.t(g)), g)) - g))),
        )
        rep.inverse_laws = max(
            rep.inverse_laws,
            float(np.max(np.abs(np.asarray(spec.m(g, spec.i(g))) - spec.u(spec.t(g))))),
            float(np.max(np.abs(np.asarray(spec.m(spec.i(g), g)) - spec.u(spec.s(g))))),
            float(np.max(np.abs(np.asarray(spec.s(spec.i(g))) - spec.t(g)))),
        )
        rep.samples += 1
    return rep


def ref_polar_groupoid_check(samples: int, seed: int) -> PolarCheckReport:
    rng = np.random.default_rng(seed)
    spec = action_groupoid_rx()
    worst = 0.0
    done = 0
    while done < samples:
        ang = rng.uniform(0.0, 2 * np.pi)
        theta = np.array([np.cos(ang), np.sin(ang)])
        t = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        if abs(theta[0]) < 1e-2 or abs(theta[1]) < 1e-2:
            continue
        # flip to the other fundamental-domain representative at random
        if rng.random() < 0.5:
            theta, t = -theta, -t
        g = polar_arrow_to_action(theta, t)
        worst = max(worst, abs(polar_source(theta, t) - float(spec.s(g)[0])))
        worst = max(worst, abs(polar_target(theta, t) - float(spec.t(g)[0])))
        # composable polar partner: target of h must equal source of g = t*theta2
        ang2 = rng.uniform(0.0, 2 * np.pi)
        theta2 = np.array([np.cos(ang2), np.sin(ang2)])
        if abs(theta2[0]) < 1e-2 or abs(theta2[1]) < 1e-2:
            continue
        t2 = t * theta[1] / theta2[0]
        h = polar_arrow_to_action(theta2, t2)
        prod = polar_mult((t, theta), (t2, theta2))
        if float(np.min(np.abs(prod.theta))) < 1e-2:
            # near a coordinate axis the conversion ratio theta1/theta2
            # amplifies representative rounding; resample
            continue
        prod_action = polar_arrow_to_action(prod.theta, prod.t)
        worst = max(worst, float(np.max(np.abs(np.subtract(prod_action, spec.m(g, h))))))
        # inversion: the pair-groupoid flip (a, b) -> (b, a)
        inv_polar = _polar_of_pair_arrow(t * theta[1], t * theta[0])
        inv_action = polar_arrow_to_action(inv_polar.theta, inv_polar.t)
        worst = max(worst, float(np.max(np.abs(np.subtract(inv_action, spec.i(g))))))
        done += 1
    return PolarCheckReport(worst, done)


SPECS = {"pair1": lambda: pair_groupoid(1), "pair2": lambda: pair_groupoid(2), "action": action_groupoid_rx}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_check_axioms_matches_the_per_sample_loop(name, seed):
    spec = SPECS[name]()
    assert check_axioms(spec, samples=200, seed=seed) == ref_check_axioms(spec, 200, seed)


@pytest.mark.parametrize("seed", range(10))
def test_polar_groupoid_check_matches_the_per_sample_loop(seed):
    assert polar_groupoid_check(samples=200, seed=seed) == ref_polar_groupoid_check(200, seed)


def test_polar_check_counts_the_arrows_of_rejected_samples(monkeypatch):
    """The per-sample loop compares the source and target of each
    converted arrow g before it may reject the sample.  With the polar
    target made 1 too large at exactly the rejected arrows, the check
    must report that error, as the loop does."""
    seen = []
    monkeypatch.setattr(GroupoidSpec, "s", lambda self, g: seen.append(np.asarray(g).tobytes()) or eval_map(self.source, g))
    ref_polar_groupoid_check(200, 0)
    monkeypatch.undo()
    # An accepted g comes right back for the composability test of g . h.
    rejected, i = set(), 0
    while i < len(seen):
        accepted = i + 1 < len(seen) and seen[i + 1] == seen[i]
        if not accepted:
            rejected.add(seen[i])
        i += 2 if accepted else 1
    assert rejected

    def off_at_rejected(theta, t, target=polar_target):
        off = np.asarray(polar_arrow_to_action(theta, t)).tobytes() in rejected
        return target(theta, t) + (1.0 if off else 0.0)

    monkeypatch.setattr(groupoid, "polar_target", off_at_rejected)
    got = polar_groupoid_check(samples=200, seed=0)
    monkeypatch.setitem(globals(), "polar_target", off_at_rejected)
    assert got == ref_polar_groupoid_check(200, 0)
    assert got.max_structure_violation > 0.5


def _guarded_pair(guard_expr) -> GroupoidSpec:
    """The pair groupoid of the line, with a guard on its source."""
    spec = pair_groupoid(1)
    guards = (Guard(guard_expr, "positive"),)
    source = SmoothMapExpr(2, 1, spec.source.body, guards)
    return GroupoidSpec(2, 1, source, spec.target, spec.mult, spec.inv, spec.unit, spec.composable_partner)


@pytest.mark.parametrize(
    "guard_expr",
    [Var(1), Var(1) - 1.9],  # half the draws fail; so many fail that the 10x cap binds
)
def test_sampled_arrows_and_generator_state_match_the_per_arrow_draws(guard_expr):
    spec = _guarded_pair(guard_expr)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = _sample_arrows(spec, rng, 50)
    ref = ref_sample_arrows(spec, ref_rng, 50)
    assert np.array(got).shape == (len(ref), 2) and np.array(got).tobytes() == np.array(ref).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_no_valid_arrow_raises_sampling_failure():
    with pytest.raises(SamplingFailure, match="no valid arrows"):
        _sample_arrows(_guarded_pair(Var(1) - 3.0), np.random.default_rng(0), 20)


def test_non_composable_partner_raises_sampling_failure():
    spec = pair_groupoid(1)
    skewed = GroupoidSpec(
        2, 1, spec.source, spec.target, spec.mult, spec.inv, spec.unit,
        composable_partner=lambda rng, g: np.add(spec.composable_partner(rng, g), [1e-9, 0.0]),
    )
    with pytest.raises(SamplingFailure, match="not composable"):
        check_axioms(skewed, samples=20, seed=0)


def test_malformed_maps_and_partners_raise_arity_mismatch():
    """The axiom loop runs the value tapes without eval_map's point
    checks, so it checks each structure map's dimensions once and each
    partner's length as it reads it."""
    spec = pair_groupoid(1)
    wrong_mult = GroupoidSpec(2, 1, spec.source, spec.target, spec.inv, spec.inv, spec.unit, spec.composable_partner)
    with pytest.raises(ArityMismatch, match="goes R\\^2 -> R\\^2, not R\\^4 -> R\\^2"):
        check_axioms(wrong_mult, samples=20, seed=0)
    short = GroupoidSpec(
        2, 1, spec.source, spec.target, spec.mult, spec.inv, spec.unit, composable_partner=lambda rng, g: g[1:]
    )
    with pytest.raises(ArityMismatch, match="arrow of length 1 for arrow_dim 2"):
        check_axioms(short, samples=20, seed=0)


def test_out_of_domain_arrow_raises_domain_violation():
    spec = action_groupoid_rx()

    def with_a_zero_scale(rng, count):
        arrows = spec.arrow_sampler(rng, count)
        arrows[count // 2, 0] = 0.0
        return arrows

    broken = GroupoidSpec(
        2, 1, spec.source, spec.target, spec.mult, spec.inv, spec.unit,
        composable_partner=spec.composable_partner, arrow_sampler=with_a_zero_scale,
    )
    with pytest.raises(DomainViolation, match=r"^guard nonzero\(x1\) fails at \[0.0, "):
        check_axioms(broken, samples=20, seed=0)
