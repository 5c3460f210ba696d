"""Numeric groupoid harness.

Structure maps are smooth expressions; the five axioms (source/target
of products, associativity, unit laws, inverse laws) are checked on
seeded samples of composable tuples, arrow by arrow: each arrow is a
list of floats, each structure map runs its value tape on it, and each
axiom keeps the largest ``max_abs_diff`` over the samples.  Built-in
instances: the pair groupoid, the scaling action groupoid on the line,
the blow-up of the pair groupoid of the plane at the origin (in both the
action-groupoid coordinates (lambda, a) and the polar presentation), and
the induced rotation action on the blown-up plane.

Isotropy statements are certified at the level of dimensions plus
sampled closure under multiplication and inversion; the identification
of the isotropy group at the origin with the multiplicative group is a
documented fact, not a test.
"""

from __future__ import annotations

import math
from functools import partial
from numbers import Real
from typing import Callable

from .errors import ArityMismatch, SamplingFailure
from .expr import Guard, SmoothMapExpr, as_floats, dot, eval_map, from_components, jet_eval, max_abs_diff
from .nodes import Var
from .pairs import numeric_ranks
from .pcg64 import PCG64
from .record import Record
from .blowup import (
    Body,
    Exceptional,
    PairDims,
    blowdown,
    canonicalize,
    from_ambient,
    point_dist,
    to_polar,
)

COMPOSABILITY_TOL = 1e-10


def random_sign(rng) -> float:
    """-1.0 or 1.0 from a ``PCG64``: one bounded 32-bit draw, which is what
    numpy's ``choice([-1.0, 1.0])`` draws, and n of them are what
    ``choice([-1.0, 1.0], size=n)`` draws."""
    return (-1.0, 1.0)[rng.integers(2)]


def _unit_circle(rng) -> tuple:
    """(cos a, sin a) at an angle a drawn uniformly from [0, 2 pi)."""
    angle = rng.uniform(0.0, 2 * math.pi)
    return (math.cos(angle), math.sin(angle))


class GroupoidSpec(Record, frozen=True):
    """Structure maps of a groupoid in a single arrow chart.

    mult takes the concatenation (g, h) of two composable arrows (the
    product means "apply h first"); it is only evaluated on pairs with
    ||source(g) - target(h)|| below the composability tolerance.
    composable_partner(rng, g) yields an arrow h composable with g on
    the right; arrow_sampler(rng, count) yields valid arrows, and
    without one arrows are drawn uniformly from [-2, 2]^arrow_dim and
    kept where source and target are defined.  The checks call both
    with their ``conecut.pcg64.PCG64`` as rng, whose sized draws are
    lists of floats, and the partner with g as a list of floats.
    """

    def __init__(
        self,
        arrow_dim: int,
        base_dim: int,
        source: SmoothMapExpr,
        target: SmoothMapExpr,
        mult: SmoothMapExpr,
        inv: SmoothMapExpr,
        unit: SmoothMapExpr,
        composable_partner: Callable,
        tol: float = COMPOSABILITY_TOL,
        arrow_sampler: Callable | None = None,
    ):
        object.__setattr__(self, "arrow_dim", arrow_dim)
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "composable_partner", composable_partner)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "arrow_sampler", arrow_sampler)

    def s(self, g):
        return eval_map(self.source, g)

    def t(self, g):
        return eval_map(self.target, g)

    def m(self, g, h):
        return _product(self, partial(eval_map, self.mult), g, h, self.s(g), self.t(h))

    def i(self, g):
        return eval_map(self.inv, g)

    def u(self, x):
        """The unit arrow at a base point: a flat sequence, or one number."""
        return eval_map(self.unit, [x] if isinstance(x, Real) else x)


def _product(spec: GroupoidSpec, run, g, h, source_g, target_h) -> tuple:
    """run([*g, *h]), the product of g and h by the multiplication ``run``,
    given the source of g and the target of h; SamplingFailure unless
    those are within the composability tolerance of each other."""
    if math.dist(source_g, target_h) > spec.tol:
        raise SamplingFailure("arrows are not composable")
    return run([*g, *h])


def _value_tapes(spec: GroupoidSpec) -> tuple:
    """The value tapes of source, target, mult, inv and unit; ArityMismatch
    unless each map has the dimensions its role gives it."""
    a, b = spec.arrow_dim, spec.base_dim
    maps = (spec.source, spec.target, spec.mult, spec.inv, spec.unit)
    for m, (n_in, n_out) in zip(maps, ((a, b), (a, b), (2 * a, a), (a, a), (b, a))):
        if (m.input_dim, m.output_dim) != (n_in, n_out):
            raise ArityMismatch(
                f"structure map {m} goes R^{m.input_dim} -> R^{m.output_dim}, not R^{n_in} -> R^{n_out}"
            )
    return tuple(m.value_tape for m in maps)


def _arrow(spec: GroupoidSpec, a) -> list:
    """An arrow as a list of ``arrow_dim`` floats; ArityMismatch otherwise."""
    g = as_floats(a)
    if len(g) != spec.arrow_dim:
        raise ArityMismatch(f"arrow of length {len(g)} for arrow_dim {spec.arrow_dim}")
    return g


def _sample_arrows(spec: GroupoidSpec, rng, count: int) -> list:
    """Up to ``count`` arrows, each a list of floats.  Uniform draws come
    in blocks of the number still missing, so the generator yields the
    same arrows and ends in the same state as drawing them one at a
    time, and at most 10 * count are drawn."""
    if spec.arrow_sampler is not None:
        return [_arrow(spec, a) for a in spec.arrow_sampler(rng, count)]
    arrows: list = []
    drawn = 0
    while len(arrows) < count and drawn < count * 10:
        block = rng.uniform(-2.0, 2.0, size=(min(count - len(arrows), count * 10 - drawn), spec.arrow_dim))
        drawn += len(block)
        arrows += [g for g in block if spec.source.in_domain(g) and spec.target.in_domain(g)]
    if not arrows:
        raise SamplingFailure("no valid arrows found")
    return arrows


class AxiomReport(Record, frozen=False):
    def __init__(
        self,
        source_of_product: float = 0.0,
        target_of_product: float = 0.0,
        associativity: float = 0.0,
        unit_laws: float = 0.0,
        inverse_laws: float = 0.0,
        samples: int = 0,
    ):
        self.source_of_product = source_of_product
        self.target_of_product = target_of_product
        self.associativity = associativity
        self.unit_laws = unit_laws
        self.inverse_laws = inverse_laws
        self.samples = samples

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
    """Sampled verification of the five groupoid axioms.

    The arrows g are sampled first.  Then, arrow by arrow, a partner h
    composable with g and a partner k composable with h are drawn, each
    read once as a list of floats, and the structure maps' value tapes
    are run on them.  Every pair is tested for composability right
    before its product is evaluated, and each axiom's violation is the
    largest ``max_abs_diff`` over all samples."""
    rng = PCG64(seed)
    arrows = _sample_arrows(spec, rng, samples)
    s, t, mult, inv, unit = _value_tapes(spec)
    m = partial(_product, spec, mult)

    src = tgt = assoc = units = invs = 0.0
    for g in arrows:
        h = _arrow(spec, spec.composable_partner(rng, g))
        k = _arrow(spec, spec.composable_partner(rng, h))
        sg, tg, sh, tk = s(g), t(g), s(h), t(k)
        gh = m(g, h, sg, t(h))
        hk = m(h, k, sh, tk)
        sgh = s(gh)
        us, ut, ig = unit(sg), unit(tg), inv(g)
        sig = s(ig)
        src = max(src, max_abs_diff(sgh, sh))
        tgt = max(tgt, max_abs_diff(t(gh), tg))
        assoc = max(assoc, max_abs_diff(m(gh, k, sgh, tk), m(g, hk, sg, t(hk))))
        units = max(units, max_abs_diff((*m(g, us, sg, t(us)), *m(ut, g, s(ut), tg)), (*g, *g)))
        invs = max(invs, max_abs_diff((*m(g, ig, sg, t(ig)), *m(ig, g, sig, tg), *sig), (*ut, *us, *tg)))
    return AxiomReport(src, tgt, assoc, units, invs, len(arrows))


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
        return (*g[d:], *rng.uniform(-2.0, 2.0, size=d))

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
        lams = rng.uniform(0.2, 2.0, size=count)
        signs = [random_sign(rng) for _ in range(count)]
        aas = rng.uniform(-2.0, 2.0, size=count)
        return [(lam * sign, a) for lam, sign, a in zip(lams, signs, aas)]

    def partner(rng, g):
        lam2 = rng.uniform(0.2, 2.0) * random_sign(rng)
        return (lam2, g[1] / lam2)

    return GroupoidSpec(
        2, 1, source, target, mult, inv, unit, arrow_sampler=sampler, composable_partner=partner
    )


def polar_arrow_to_action(theta, t) -> tuple:
    """Convert a polar arrow [theta, t] to (lambda, a) = (theta1/theta2, t*theta2)."""
    theta1, theta2 = float(theta[0]), float(theta[1])
    if theta2 == 0.0:
        raise SamplingFailure("conversion needs theta2 != 0")
    return (theta1 / theta2, float(t) * theta2)


def polar_source(theta, t) -> float:
    return float(t) * float(theta[1])


def polar_target(theta, t) -> float:
    return float(t) * float(theta[0])


def _polar_of_pair_arrow(a: float, b: float):
    """Polar representative of the plane point (a, b) off the origin."""
    return to_polar(Body((a, b), PairDims(2, 0)))


def polar_mult(g, h):
    """Product of off-exceptional polar arrows (t, theta) via the pair
    groupoid: the arrow from the source of h to the target of g."""
    return _polar_of_pair_arrow(polar_target(g[1], g[0]), polar_source(h[1], h[0]))


class PolarCheckReport(Record, frozen=False):
    def __init__(self, max_structure_violation: float, samples: int):
        self.max_structure_violation = max_structure_violation
        self.samples = samples


def polar_groupoid_check(samples: int = 500, seed: int = 0) -> PolarCheckReport:
    """The conversion to (lambda, a) intertwines all structure maps.

    Each sample converts a polar arrow g and compares the polar side with
    the action side, whose structure maps run their value tapes: the
    source and target of every converted g, also of those whose partner
    or product is then rejected, and the product and the inverse of
    every accepted sample."""
    rng = PCG64(seed)
    spec = action_groupoid_rx()
    source, target, mult, inv, _ = _value_tapes(spec)
    worst = 0.0
    done = 0
    while done < samples:
        theta = _unit_circle(rng)
        t = rng.uniform(0.2, 2.0) * random_sign(rng)
        if abs(theta[0]) < 1e-2 or abs(theta[1]) < 1e-2:
            continue
        # flip to the other fundamental-domain representative at random
        if rng.random() < 0.5:
            theta, t = (-theta[0], -theta[1]), -t
        g = polar_arrow_to_action(theta, t)
        sg = source(g)
        worst = max(worst, max_abs_diff((polar_source(theta, t), polar_target(theta, t)), (*sg, *target(g))))
        # composable polar partner: target of h must equal source of g = t*theta2
        theta2 = _unit_circle(rng)
        if abs(theta2[0]) < 1e-2 or abs(theta2[1]) < 1e-2:
            continue
        t2 = t * theta[1] / theta2[0]
        h = polar_arrow_to_action(theta2, t2)
        prod = polar_mult((t, theta), (t2, theta2))
        if min(map(abs, prod.theta)) < 1e-2:
            # near a coordinate axis the conversion ratio theta1/theta2
            # amplifies representative rounding; resample
            continue
        prod_action = _product(spec, mult, g, h, sg, target(h))
        worst = max(worst, max_abs_diff(polar_arrow_to_action(prod.theta, prod.t), prod_action))
        # inversion: the pair-groupoid flip (a, b) -> (b, a)
        inv_polar = _polar_of_pair_arrow(t * theta[1], t * theta[0])
        worst = max(worst, max_abs_diff(polar_arrow_to_action(inv_polar.theta, inv_polar.t), inv(g)))
        done += 1
    return PolarCheckReport(worst, done)


class IsotropyReport(Record, frozen=False):
    def __init__(self, isotropy_dim: int, orbit_dim: int):
        self.isotropy_dim = isotropy_dim
        self.orbit_dim = orbit_dim


def isotropy_orbit_report(spec: GroupoidSpec, base_point) -> IsotropyReport:
    """Dimension counts at a base point, from ranks at the unit arrow.

    The isotropy dimension is the corank of the combined constraint
    (source, target) = const at the unit arrow; the orbit dimension is
    the rank of the target differential restricted to the source fiber,
    which by rank-nullity is rank [d source; d target] - rank d source."""
    g0 = spec.u(base_point)
    js = jet_eval(spec.source, g0).jacobian
    jt = jet_eval(spec.target, g0).jacobian
    rank_s, rank_st = numeric_ranks([js, js + jt])
    return IsotropyReport(spec.arrow_dim - rank_st, rank_st - rank_s)


class ActionReport(Record, frozen=False):
    def __init__(
        self,
        identity_violation: float,
        composition_violation: float,
        blowdown_violation: float,
        samples: int,
    ):
        self.identity_violation = identity_violation
        self.composition_violation = composition_violation
        self.blowdown_violation = blowdown_violation
        self.samples = samples


def _rotate(angle: float, v) -> tuple:
    """The plane vector v rotated by angle: each coordinate the correctly
    rounded ``dot`` of a row of the rotation matrix with v."""
    c, s = math.cos(angle), math.sin(angle)
    return (dot((c, -s), v), dot((s, c), v))


def rotate_blowup_point(angle: float, z):
    """Induced rotation action on the blown-up plane."""
    if isinstance(z, Body):
        return from_ambient(_rotate(angle, z.x), z.dims)
    if isinstance(z, Exceptional):
        return canonicalize(z.y, _rotate(angle, z.xi_dir), 0.0, z.dims)
    raise TypeError(f"not a blow-up point: {z!r}")


def saturated_action_blowup(samples: int = 500, seed: int = 0) -> ActionReport:
    """Rotations of the plane fix the origin, so they lift to the blow-up:
    rotate body points, rotate exceptional directions with canonical
    renormalization.  Verifies the action axioms and blow-down
    equivariance on samples."""
    rng = PCG64(seed)
    dims = PairDims(2, 0)
    id_v = 0.0
    comp_v = 0.0
    bd_v = 0.0
    for _ in range(samples):
        if rng.random() < 0.5:
            x = rng.uniform(-2.0, 2.0, size=2)
            if math.hypot(*x) < 1e-6:
                continue
            z = Body(tuple(x), dims)
        else:
            z = canonicalize((), _unit_circle(rng), 0.0, dims)
        a1 = rng.uniform(0.0, 2 * math.pi)
        a2 = rng.uniform(0.0, 2 * math.pi)
        id_v = max(id_v, point_dist(rotate_blowup_point(0.0, z), z))
        twice = rotate_blowup_point(a1, rotate_blowup_point(a2, z))
        comp_v = max(comp_v, point_dist(twice, rotate_blowup_point(a1 + a2, z)))
        bd_v = max(bd_v, max_abs_diff(_rotate(a1, blowdown(z)), blowdown(rotate_blowup_point(a1, z))))
    return ActionReport(id_v, comp_v, bd_v, samples)
