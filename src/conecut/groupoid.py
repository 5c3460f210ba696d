"""Numeric groupoid harness.

Structure maps are smooth expressions; the five axioms (source/target
of products, associativity, unit laws, inverse laws) are checked on
seeded samples of composable tuples.  Built-in instances: the pair
groupoid, the scaling action groupoid on the line, the blow-up of the
pair groupoid of the plane at the origin (in both the action-groupoid
coordinates (lambda, a) and the polar presentation), and the induced
rotation action on the blown-up plane.

Isotropy statements are certified at the level of dimensions plus
sampled closure under multiplication and inversion; the identification
of the isotropy group at the origin with the multiplicative group is a
documented fact, not a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SamplingFailure
from .expr import Guard, SmoothMapExpr, Var, eval_map, from_components, jet_eval
from .pairs import RANK_RTOL, numeric_rank
from .blowup import (
    Body,
    Exceptional,
    PairDims,
    _round,
    blowdown,
    canonical_direction,
    canonical_polar,
    point_dist,
)

COMPOSABILITY_TOL = 1e-10


@dataclass(frozen=True)
class GroupoidSpec:
    """Structure maps of a groupoid in a single arrow chart.

    mult takes the concatenation (g, h) of two composable arrows (the
    product means "apply h first"); it is only evaluated on pairs with
    ||source(g) - target(h)|| below the composability tolerance.
    composable_partner(rng, g) yields an arrow h composable with g on
    the right; arrow_sampler(rng, count) yields valid arrows, and
    without one arrows are drawn uniformly from [-2, 2]^arrow_dim and
    kept where source and target are defined.
    """

    arrow_dim: int
    base_dim: int
    source: SmoothMapExpr
    target: SmoothMapExpr
    mult: SmoothMapExpr
    inv: SmoothMapExpr
    unit: SmoothMapExpr
    composable_partner: Callable
    tol: float = COMPOSABILITY_TOL
    arrow_sampler: Callable | None = None

    def s(self, g):
        return eval_map(self.source, g)

    def t(self, g):
        return eval_map(self.target, g)

    def m(self, g, h):
        if float(np.linalg.norm(self.s(g) - self.t(h))) > self.tol:
            raise SamplingFailure("arrows are not composable")
        return eval_map(self.mult, np.concatenate([g, h]))

    def i(self, g):
        return eval_map(self.inv, g)

    def u(self, x):
        return eval_map(self.unit, np.atleast_1d(np.asarray(x, dtype=float)))


def _sample_arrows(spec: GroupoidSpec, rng, count: int):
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


@dataclass
class AxiomReport:
    source_of_product: float = 0.0
    target_of_product: float = 0.0
    associativity: float = 0.0
    unit_laws: float = 0.0
    inverse_laws: float = 0.0
    samples: int = 0

    def max_violation(self) -> float:
        return max(
            self.source_of_product,
            self.target_of_product,
            self.associativity,
            self.unit_laws,
            self.inverse_laws,
        )

    def as_dict(self) -> dict:
        return {
            "source_of_product": self.source_of_product,
            "target_of_product": self.target_of_product,
            "associativity": self.associativity,
            "unit_laws": self.unit_laws,
            "inverse_laws": self.inverse_laws,
            "samples": self.samples,
        }


def check_axioms(spec: GroupoidSpec, samples: int = 200, seed: int = 0) -> AxiomReport:
    """Sampled verification of the five groupoid axioms."""
    rng = np.random.default_rng(seed)
    rep = AxiomReport()
    arrows = _sample_arrows(spec, rng, samples)
    partner = spec.composable_partner
    for g in arrows:
        h = np.asarray(partner(rng, g), dtype=float)
        k = np.asarray(partner(rng, h), dtype=float)
        gh = spec.m(g, h)
        hk = spec.m(h, k)
        rep.source_of_product = max(
            rep.source_of_product, float(np.max(np.abs(spec.s(gh) - spec.s(h))))
        )
        rep.target_of_product = max(
            rep.target_of_product, float(np.max(np.abs(spec.t(gh) - spec.t(g))))
        )
        rep.associativity = max(
            rep.associativity,
            float(np.max(np.abs(spec.m(gh, k) - spec.m(g, hk)))),
        )
        rep.unit_laws = max(
            rep.unit_laws,
            float(np.max(np.abs(spec.m(g, spec.u(spec.s(g))) - g))),
            float(np.max(np.abs(spec.m(spec.u(spec.t(g)), g) - g))),
        )
        rep.inverse_laws = max(
            rep.inverse_laws,
            float(np.max(np.abs(spec.m(g, spec.i(g)) - spec.u(spec.t(g))))),
            float(np.max(np.abs(spec.m(spec.i(g), g) - spec.u(spec.s(g))))),
            float(np.max(np.abs(spec.s(spec.i(g)) - spec.t(g)))),
        )
        rep.samples += 1
    return rep


def pair_groupoid(base_dim: int = 1) -> GroupoidSpec:
    """Arrows (a, b) with target a and source b; product concatenates."""
    d = base_dim
    source = from_components(2 * d, tuple(Var(d + i) for i in range(d)))
    target = from_components(2 * d, tuple(Var(i) for i in range(d)))
    # mult((a, b), (b, c)) = (a, c): inputs g = vars 0..2d-1, h = vars 2d..4d-1
    mult = from_components(
        4 * d, tuple(Var(i) for i in range(d)) + tuple(Var(3 * d + i) for i in range(d))
    )
    inv = from_components(2 * d, tuple(Var(d + i) for i in range(d)) + tuple(Var(i) for i in range(d)))
    unit = from_components(d, tuple(Var(i) for i in range(d)) * 2)

    def partner(rng, g):
        c = rng.uniform(-2.0, 2.0, size=d)
        return np.concatenate([g[d:], c])

    return GroupoidSpec(2 * d, d, source, target, mult, inv, unit, composable_partner=partner)


def action_groupoid_rx() -> GroupoidSpec:
    """The scaling-action groupoid on the line: arrows (lambda, a) with
    lambda != 0, source a, target lambda*a, product (mu, lambda a) .
    (lambda, a) = (mu lambda, a).

    This is also the blow-up of the pair groupoid of the plane at the
    origin: the diffeomorphism sending the class of (lambda, mu, t) to
    (lambda/mu, mu t) carries its structure maps exactly onto these."""
    lam, a = Var(0), Var(1)
    nz = (Guard(lam, "nonzero"),)
    source = SmoothMapExpr(2, 1, (a,), nz)
    target = SmoothMapExpr(2, 1, (lam * a,), nz)
    mult = SmoothMapExpr(4, 2, (Var(0) * Var(2), Var(3)), (Guard(Var(0), "nonzero"), Guard(Var(2), "nonzero")))
    inv = SmoothMapExpr(2, 2, (1.0 / lam, lam * a), nz)
    unit = SmoothMapExpr(1, 2, (Var(0) * 0.0 + 1.0, Var(0)))

    def sampler(rng, count):
        lams = rng.uniform(0.2, 2.0, size=count) * rng.choice([-1.0, 1.0], size=count)
        aas = rng.uniform(-2.0, 2.0, size=count)
        return np.column_stack([lams, aas])

    def partner(rng, g):
        lam2 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        return np.array([lam2, g[1] / lam2])

    return GroupoidSpec(
        2, 1, source, target, mult, inv, unit, arrow_sampler=sampler, composable_partner=partner
    )


def polar_arrow_to_action(theta, t) -> np.ndarray:
    """Convert a polar arrow [theta, t] to (lambda, a) = (theta1/theta2, t*theta2)."""
    theta = np.asarray(theta, dtype=float)
    if theta[1] == 0.0:
        raise SamplingFailure("conversion needs theta2 != 0")
    return np.array([theta[0] / theta[1], t * theta[1]])


def polar_source(theta, t) -> float:
    return float(t * np.asarray(theta, dtype=float)[1])


def polar_target(theta, t) -> float:
    return float(t * np.asarray(theta, dtype=float)[0])


def _polar_of_pair_arrow(a: float, b: float):
    """Polar representative of the plane point (a, b) off the origin."""
    v = np.array([a, b])
    r = float(np.linalg.norm(v))
    return canonical_polar(np.zeros(0), v / r, r)


def polar_mult(g, h):
    """Product of off-exceptional polar arrows via the pair groupoid."""
    (tg, thg) = g
    (th, thh) = h
    a = tg * thg[0]
    c = th * thh[1]
    return _polar_of_pair_arrow(a, c)


@dataclass
class PolarCheckReport:
    max_structure_violation: float
    samples: int


def polar_groupoid_check(samples: int = 500, seed: int = 0) -> PolarCheckReport:
    """The conversion to (lambda, a) intertwines all structure maps."""
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
        worst = max(worst, float(np.max(np.abs(prod_action - spec.m(g, h)))))
        # inversion: the pair-groupoid flip (a, b) -> (b, a)
        inv_polar = _polar_of_pair_arrow(t * theta[1], t * theta[0])
        inv_action = polar_arrow_to_action(inv_polar.theta, inv_polar.t)
        worst = max(worst, float(np.max(np.abs(inv_action - spec.i(g)))))
        done += 1
    return PolarCheckReport(worst, done)


@dataclass
class IsotropyReport:
    isotropy_dim: int
    orbit_dim: int


def isotropy_orbit_report(spec: GroupoidSpec, base_point) -> IsotropyReport:
    """Dimension counts at a base point, from ranks at the unit arrow.

    The isotropy dimension is the corank of the combined constraint
    (source, target) = const at the unit arrow; the orbit dimension is
    the rank of the target differential restricted to the source fiber."""
    x0 = np.atleast_1d(np.asarray(base_point, dtype=float))
    g0 = spec.u(x0)
    js = jet_eval(spec.source, g0).jacobian
    jt = jet_eval(spec.target, g0).jacobian
    stacked = np.vstack([js, jt])
    isotropy_dim = spec.arrow_dim - numeric_rank(stacked)
    # source-fiber tangent: kernel of js
    _, svals, vt = np.linalg.svd(js)
    rank_s = int(np.sum(svals > RANK_RTOL * (svals[0] if svals.size else 1.0)))
    kernel = vt[rank_s:].T  # columns span ker d(source)
    orbit_dim = numeric_rank(jt @ kernel) if kernel.size else 0
    return IsotropyReport(isotropy_dim, orbit_dim)


@dataclass
class ActionReport:
    identity_violation: float
    composition_violation: float
    blowdown_violation: float
    samples: int


def rotate_blowup_point(angle: float, z):
    """Induced rotation action on the blown-up plane."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    if isinstance(z, Body):
        return Body(_round(rot @ z.x), z.dims)
    if isinstance(z, Exceptional):
        return Exceptional(z.y, canonical_direction(rot @ z.xi_dir), z.dims)
    raise TypeError(f"not a blow-up point: {z!r}")


def saturated_action_blowup(samples: int = 500, seed: int = 0) -> ActionReport:
    """Rotations of the plane fix the origin, so they lift to the blow-up:
    rotate body points, rotate exceptional directions with canonical
    renormalization.  Verifies the action axioms and blow-down
    equivariance on samples."""
    rng = np.random.default_rng(seed)
    dims = PairDims(2, 0)
    id_v = 0.0
    comp_v = 0.0
    bd_v = 0.0
    for _ in range(samples):
        if rng.random() < 0.5:
            x = rng.uniform(-2.0, 2.0, size=2)
            if np.linalg.norm(x) < 1e-6:
                continue
            z = Body(x, dims)
        else:
            ang0 = rng.uniform(0.0, 2 * np.pi)
            z = Exceptional(np.zeros(0), canonical_direction(np.array([np.cos(ang0), np.sin(ang0)])), dims)
        a1 = float(rng.uniform(0.0, 2 * np.pi))
        a2 = float(rng.uniform(0.0, 2 * np.pi))
        id_v = max(id_v, point_dist(rotate_blowup_point(0.0, z), z))
        twice = rotate_blowup_point(a1, rotate_blowup_point(a2, z))
        comp_v = max(comp_v, point_dist(twice, rotate_blowup_point(a1 + a2, z)))
        c, s = np.cos(a1), np.sin(a1)
        rot = np.array([[c, -s], [s, c]])
        bd_direct = rot @ blowdown(z)
        bd_lifted = blowdown(rotate_blowup_point(a1, z))
        if isinstance(z, Exceptional):
            # the center is fixed, so both sides are the origin
            bd_v = max(bd_v, float(np.max(np.abs(bd_lifted))), float(np.max(np.abs(bd_direct))))
        else:
            bd_v = max(bd_v, float(np.max(np.abs(bd_direct - bd_lifted))))
    return ActionReport(id_v, comp_v, bd_v, samples)
