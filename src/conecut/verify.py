"""Executable verification suites.

Each suite exercises one family of invariants at desk scale and reports
its worst residual.  The CLI `verify` subcommand and the acceptance
tests both call these functions, so they cannot drift apart.  Suites
are registered in SUITES in report order.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import product

from . import blowup as bl
from . import dnc as dn
from . import euler as eu
from . import groupoid as gr
from . import ring as rg
from . import vb
from .errors import OutsideChart
from .expr import SmoothMapExpr, compose, dot, finite_diff_jacobian, from_components, jet_eval, max_abs_diff
from .nodes import Exp, Sin, Var
from .pairs import MapOfPairs, PairDims, normal_derivative
from .pcg64 import PCG64
from .record import Record


class SuiteResult(Record, frozen=False):
    def __init__(
        self,
        name: str,
        ok: bool,
        max_residual: float,
        tol: float,
        runtime: float,
        details: dict | None = None,
    ):
        self.name = name
        self.ok = ok
        self.max_residual = max_residual
        self.tol = tol
        self.runtime = runtime
        self.details = {} if details is None else details

    def as_dict(self) -> dict:
        # runtime is deliberately not serialized: identical invocations
        # must produce identical bytes
        return {
            "name": self.name,
            "ok": self.ok,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "details": self.details,
        }


SUITES: dict = {}
DEFAULT_SUITE_SAMPLES: dict = {}


def _suite(name: str, samples: int, tol: float):
    """Register a suite under ``name`` with its default sample count and
    tolerance.

    The decorated body takes (samples, seed, tol) and returns
    (ok, max_residual, details).  The registered function defaults to
    these samples and seed 42, reads tol=None as this tolerance, and
    times the body into the result's runtime."""
    default_samples, default_tol = samples, tol

    def register(body):
        def suite(
            samples: int = default_samples, seed: int = 42, tol: float | None = None
        ) -> SuiteResult:
            tol = default_tol if tol is None else tol
            start = time.perf_counter()
            ok, worst, details = body(samples, seed, tol)
            return SuiteResult(name, ok, worst, tol, time.perf_counter() - start, details)

        suite.__name__ = suite.__qualname__ = body.__name__
        SUITES[name] = suite
        DEFAULT_SUITE_SAMPLES[name] = default_samples
        return suite

    return register


# -- suite maps shared by the dnc and normal-derivative suites ---------


def _suite_maps():
    y, x = Var(0), Var(1)
    h_a = MapOfPairs(
        from_components(2, (y + x**2, y * x + x**3)), PairDims(2, 1), PairDims(2, 1)
    )
    h_b = MapOfPairs(
        from_components(2, (Sin(y), x * Exp(y))), PairDims(2, 1), PairDims(2, 1)
    )
    y3, x1, x2 = Var(0), Var(1), Var(2)
    h_c = MapOfPairs(
        from_components(3, (y3, x1 + y3 * x2 + x1**2, x2 + x1 * x2)),
        PairDims(3, 1),
        PairDims(3, 1),
    )
    swap = MapOfPairs(
        from_components(3, (Var(0), Var(2), Var(1))), PairDims(3, 1), PairDims(3, 1)
    )
    return {"h_a": h_a, "h_b": h_b, "h_c": h_c, "swap": swap}


# -- 1: model equivalence ---------------------------------------------


@_suite("models", samples=1000, tol=1e-12)
def suite_models(samples, seed, tol):
    rng = PCG64(seed)
    worst = 0.0
    for n in (2, 3):
        dims = PairDims(n, 0)
        for _ in range(samples):
            use_body = rng.random() < 0.7
            while True:
                t = rng.uniform(-2.0, 2.0) if use_body else 0.0
                xi = rng.uniform(-2.0, 2.0, size=n)
                if math.hypot(*xi) >= 1e-3 and (
                    t == 0.0 or math.hypot(*[t * c for c in xi]) >= 1e-3
                ):
                    break
            z = bl.canonicalize((), xi, t, dims)
            za = bl.from_algebraic(bl.to_algebraic(z), dims)
            zp = bl.from_polar(bl.to_polar(z), dims)
            worst = max(worst, bl.point_dist(z, za), bl.point_dist(z, zp))
            worst = max(worst, bl.algebraic_relations_residual(bl.to_algebraic(z)))
    return worst <= tol, worst, {"ambient_dims": [2, 3]}


# -- 2: blow-up atlas --------------------------------------------------


@_suite("atlas", samples=1000, tol=1e-10)
def suite_atlas(samples, seed, tol):
    rng = PCG64(seed)
    dims = PairDims(3, 1)
    q = dims.q
    worst = 0.0
    covered_all = True
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for _ in range(samples):
                w = rng.uniform(-2.0, 2.0, size=dims.n)
                if abs(w[dims.p + j - 1]) < 1e-3:
                    # the slot coordinate divides; keep it well away
                    # from zero unless testing the exceptional locus
                    if rng.random() < 0.5:
                        w[dims.p + j - 1] = 0.0  # exceptional round trip
                    else:
                        continue
                try:
                    z = bl.chart_phi_inv(j, w, dims)
                    round_trip = bl.chart_phi(j, z)
                    worst = max(worst, max_abs_diff(round_trip, w))
                    w_i = bl.transition(i, j, w, dims)
                    back = bl.transition(j, i, w_i, dims)
                    worst = max(worst, max_abs_diff(back, w))
                except OutsideChart:
                    continue
    # coverage: every canonical exceptional direction has a component of
    # magnitude at least 1/sqrt(q), so some chart contains it.
    for _ in range(samples):
        z = bl.canonicalize([0.0] * dims.p, rng.normal(size=q), 0.0, dims)
        sizes = [abs(c) for c in z.xi_dir]
        best = max(sizes)
        if best < 1.0 / math.sqrt(q) - 1e-12:
            covered_all = False
        bl.chart_phi(sizes.index(best) + 1, z)  # raises if not covered
    return worst <= tol and covered_all, worst, {"coverage_certified": covered_all}


# -- 3: the blown-up sphere and the projective plane -------------------


@_suite("sphere", samples=500, tol=1e-10)
def suite_sphere(samples, seed, tol):
    rng = PCG64(seed)
    worst = 0.0
    checked = 0
    while checked < samples:
        v = rng.normal(size=3)
        norm = math.hypot(*v)
        v = tuple(c / norm for c in v)
        if min(abs(v[0]), abs(v[1]), abs(1 - v[2]), abs(1 + v[2])) < 1e-2:
            continue
        z = bl.SphereBody(v)
        for which in (1, 2, 3, 4):
            w = bl.sphere_chart(which, z)
            closed = bl.sphere_local_expression(which, w)
            direct = bl.sphere_local_expression_direct(which, w)
            worst = max(worst, max_abs_diff(closed, direct))
        # round trip through the projective plane
        a = bl.sphere_rp2_map(z)
        back = bl.sphere_rp2_inv(a)
        worst = max(worst, max_abs_diff(back.x, z.x))
        checked += 1
    # exceptional round trips
    for _ in range(100):
        ang = rng.uniform(0.0, 2 * math.pi)
        xi = (math.cos(ang), math.sin(ang))
        if min(abs(xi[0]), abs(xi[1])) < 1e-2:
            continue
        z = bl.SphereExceptional(xi)
        back = bl.sphere_rp2_inv(bl.sphere_rp2_map(z))
        worst = max(
            worst, max_abs_diff(bl.canonical_direction((*xi, 0.0)), bl.canonical_direction((*back.xi, 0.0)))
        )
    return worst <= tol, worst, {"points": checked}


# -- 4: groupoid suite -------------------------------------------------


@_suite("groupoid", samples=1000, tol=1e-9)
def suite_groupoid(samples, seed, tol):
    spec = gr.action_groupoid_rx()
    pair_rep = gr.check_axioms(gr.pair_groupoid(1), samples=samples, seed=seed)
    action_rep = gr.check_axioms(spec, samples=samples, seed=seed)
    details = {"pair": pair_rep.as_dict(), "action": action_rep.as_dict()}
    # In these coordinates the blow-up of the pair groupoid is the action groupoid.
    details["blowup"] = details["action"]
    worst = max(pair_rep.max_violation(), action_rep.max_violation())
    polar = gr.polar_groupoid_check(samples=samples, seed=seed)
    details["polar_intertwining"] = polar.max_structure_violation
    worst = max(worst, polar.max_structure_violation)
    iso1 = gr.isotropy_orbit_report(spec, [1.0])
    iso0 = gr.isotropy_orbit_report(spec, [0.0])
    dims_ok = (iso1.isotropy_dim, iso1.orbit_dim) == (0, 1) and (
        iso0.isotropy_dim,
        iso0.orbit_dim,
    ) == (1, 0)
    details["isotropy_orbit"] = {
        "a=1": [iso1.isotropy_dim, iso1.orbit_dim],
        "a=0": [iso0.isotropy_dim, iso0.orbit_dim],
    }
    action = gr.saturated_action_blowup(samples=min(samples, 500), seed=seed)
    details["rotation_action"] = {
        "identity": action.identity_violation,
        "composition": action.composition_violation,
        "blowdown": action.blowdown_violation,
    }
    worst = max(
        worst,
        action.identity_violation,
        action.composition_violation,
        action.blowdown_violation,
    )
    return worst <= tol and dims_ok, worst, details


# -- 5: deformation functoriality, equivariance, continuity ------------


@_suite("dnc", samples=500, tol=1e-10)
def suite_dnc(samples, seed, tol):
    rng = PCG64(seed)
    maps = _suite_maps()
    worst = 0.0
    # functoriality and equivariance for a nonlinear composite
    f, g = maps["h_a"], maps["h_b"]
    gf = MapOfPairs(compose(g.f, f.f), f.source, g.target)
    df, dg, dgf = dn.DncMap(f), dn.DncMap(g), dn.DncMap(gf)
    for _ in range(samples):
        z = dn.DncPoint.of(
            rng.uniform(-1.0, 1.0, 1),
            rng.uniform(-1.0, 1.0, 1),
            rng.uniform(-1.0, 1.0) if rng.random() < 0.8 else 0.0,
        )
        w = df(z)
        worst = max(worst, _dnc_dist(dgf(z), dg(w)))
        lam = rng.uniform(0.3, 2.0) * gr.random_sign(rng)
        worst = max(worst, _dnc_dist(df(dn.rx_action(lam, z)), dn.rx_action(lam, w)))
        # slice compatibility is exact by construction
        worst = max(worst, abs(w.t - z.t))
    # continuity at t = 0: regression slope of the residual in t
    slopes = {}
    for name in ("h_a", "h_b", "h_c"):
        m = maps[name]
        dm = dn.DncMap(m)
        y0 = (0.3,) * m.source.p
        xi0 = (0.7,) * m.source.q
        base = dm(dn.DncPoint(y0, xi0, 0.0))
        ts = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        res = []
        for t in ts:
            zt = dm(dn.DncPoint(y0, xi0, t))
            res.append(max(max_abs_diff((*zt.y, *zt.xi), (*base.y, *base.xi)), 1e-300))
        if max(res) <= 1e-12:
            # the deformed map is exactly t-independent here
            slopes[name] = "exact"
        else:
            slopes[name] = _slope(list(map(math.log, ts)), list(map(math.log, res)))
    slopes_ok = all(s == "exact" or s >= 0.99 for s in slopes.values())
    # fiber products: the pair-groupoid source/target projections
    worst = max(worst, _fiber_product_residual(rng, samples=min(samples, 200)))
    return worst <= tol and slopes_ok, worst, {"continuity_slopes": slopes}


def _slope(xs: list, ys: list) -> float:
    """The least-squares slope of ys against xs, correctly rounded: the
    closed form (n sum xy - sum x sum y) / (n sum x^2 - (sum x)^2),
    computed exactly on the floats' binary values and rounded once."""
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    n, sx, sy = len(xs), sum(xs), sum(ys)
    return float((n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (n * sum(x * x for x in xs) - sx * sx))


def _dnc_dist(a: dn.DncPoint, b: dn.DncPoint) -> float:
    return max_abs_diff((*a.y, *a.xi, a.t), (*b.y, *b.xi, b.t))


def _fiber_product_residual(rng, samples: int) -> float:
    """The deformation space of the composable-pairs manifold is carried
    bijectively onto the fiber product of two deformation spaces.

    Arrows of the pair groupoid of the line are (a, b); the fiber
    product over source = target is {(a, b, c)}; the canonical map sends
    its deformation chart point to the pair of deformation points of the
    two projections."""
    src = MapOfPairs(
        from_components(2, (Var(1),)), PairDims(2, 0), PairDims(1, 0)
    )
    tgt = MapOfPairs(
        from_components(2, (Var(0),)), PairDims(2, 0), PairDims(1, 0)
    )
    p1 = MapOfPairs(
        from_components(3, (Var(0), Var(1))), PairDims(3, 0), PairDims(2, 0)
    )
    p2 = MapOfPairs(
        from_components(3, (Var(1), Var(2))), PairDims(3, 0), PairDims(2, 0)
    )
    dsrc, dtgt = dn.DncMap(src), dn.DncMap(tgt)
    dp1, dp2 = dn.DncMap(p1), dn.DncMap(p2)
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(-1.5, 1.5) if rng.random() < 0.8 else 0.0
        z = dn.DncPoint((), tuple(rng.uniform(-1.5, 1.5, size=3)), t)
        z1, z2 = dp1(z), dp2(z)
        # the image satisfies the fiber-product constraint
        worst = max(worst, _dnc_dist(dsrc(z1), dtgt(z2)))
        # and the inverse reassembles the triple
        back = dn.DncPoint((), (z1.xi[0], z1.xi[1], z2.xi[1]), z1.t)
        worst = max(worst, _dnc_dist(back, z))
    return worst


# -- 6: normal derivative ---------------------------------------------


@_suite("normal_derivative", samples=100, tol=1e-6)
def suite_normal_derivative(samples, seed, tol):
    chain_tol = 1e-10
    rng = PCG64(seed)
    maps = _suite_maps()
    worst_fd = 0.0
    for m in maps.values():
        for _ in range(samples):
            point = rng.uniform(-1.0, 1.0, size=m.source.n)
            jac_ad = _flat(jet_eval(m.f, point).jacobian)
            jac_fd = _flat(finite_diff_jacobian(m.f, point))
            worst_fd = max(
                worst_fd,
                max_abs_diff(jac_ad, jac_fd) / (1.0 + max_abs_diff(jac_ad, [0.0] * len(jac_ad))),
            )
    # chain rule for the normal derivative
    f, g = maps["h_a"], maps["h_b"]
    gf = MapOfPairs(compose(g.f, f.f), f.source, g.target)
    worst_chain = 0.0
    for _ in range(50):
        y = rng.uniform(-1.0, 1.0, size=f.source.p)
        lhs = _flat(normal_derivative(gf, y))
        fy = f.slice_image(y)
        dn_f = normal_derivative(f, y)
        rhs = [dot(row, col) for row in normal_derivative(g, fy) for col in zip(*dn_f)]
        worst_chain = max(worst_chain, max_abs_diff(lhs, rhs))
    return (
        worst_fd <= tol and worst_chain <= chain_tol,
        max(worst_fd, worst_chain),
        {"fd_residual": worst_fd, "chain_residual": worst_chain, "chain_tol": chain_tol},
    )


def _flat(rows) -> list:
    """The entries of a matrix given as rows, row by row."""
    return [c for row in rows for c in row]


# -- 7: vector-bundle blow-up -----------------------------------------


@_suite("vb", samples=100, tol=1e-11)
def suite_vb(samples, seed, tol):
    rng = PCG64(seed)
    base = PairDims(3, 1)
    # x-dependent frame mixing the two e-components
    u0, x1, x2 = Var(0), Var(1), Var(2)
    v1, v2, v3 = Var(3), Var(4), Var(5)
    frame = SmoothMapExpr(
        6,
        3,
        (
            v1 + x1 * v2,
            v2 + (x2 + u0 * x1) * v3,
            v3 + x1 * x2 * v1,
        ),
    )
    model = vb.VbPairModel(base, 1, 2, frame)
    worst = 0.0
    for _ in range(samples):
        u = rng.uniform(-1.0, 1.0, size=3)
        if abs(u[1]) < 1e-2:
            continue
        body = bl.Body(tuple(u), base)
        rep = vb.fiber_linearity_check(model, 1, body, samples=2, seed=rng.integers(1 << 30))
        worst = max(worst, rep.max_violation)
        xi = bl.canonical_direction(rng.normal(size=2))
        if abs(xi[0]) < 1e-2:
            continue
        exc = bl.Exceptional(body.x[:1], xi, base)
        rep = vb.fiber_linearity_check(model, 1, exc, samples=2, seed=rng.integers(1 << 30))
        worst = max(worst, rep.max_violation)
    # anchor: kernel and rank at exceptional points over a point center
    dims3 = PairDims(3, 0)
    kernel_worst = 0.0
    ranks_ok = True
    for _ in range(samples):
        z = bl.canonicalize((), rng.normal(size=3), 0.0, dims3)
        sizes = [abs(c) for c in z.xi_dir]
        i = sizes.index(max(sizes)) + 1
        lam = rng.uniform(-2.0, 2.0)
        image = vb.tangent_anchor(z, [lam * c for c in z.xi_dir], i)
        kernel_worst = max(kernel_worst, max_abs_diff(image, [0.0] * len(image)))
        if vb.tangent_anchor_rank(z, i) != dims3.q - 1:
            ranks_ok = False
    return (
        worst <= tol and kernel_worst <= 1e-12 and ranks_ok,
        max(worst, kernel_worst),
        {"linearity": worst, "anchor_kernel": kernel_worst, "anchor_rank_ok": ranks_ok},
    )


# -- 8: Euler-like suite ----------------------------------------------


@_suite("euler", samples=0, tol=1e-4)
def suite_euler(samples, seed, tol):
    dims = PairDims(2, 1)
    e_field = eu.euler_field(dims)
    # model case: the scaling field gives the identity embedding
    worst_id = 0.0
    for xi in (0.25, -0.4, 0.8):
        chi = eu.tubular_from_euler(e_field, [0.3], [xi])
        worst_id = max(worst_id, max_abs_diff(chi, (0.3, xi)))
    # perturbed field (0, x + x^2): closed form chi(xi) = xi/(1 - xi)
    x = Var(1)
    sigma = eu.VectorField(
        from_components(2, (Var(0) * 0.0, x + x**2)), dims
    )
    report = eu.is_euler_like(sigma)
    worst_closed = 0.0
    for xi in (0.1, 0.2, 0.3):
        chi = eu.tubular_from_euler(sigma, [0.0], [xi])
        worst_closed = max(worst_closed, abs(chi[1] - xi / (1.0 - xi)))
    # slice restriction and normal derivative
    chi0 = eu.tubular_from_euler(sigma, [0.5], [0.0])
    worst_slice = max_abs_diff(chi0, (0.5, 0.0))
    dnchi = eu.normal_derivative_of_chi(sigma, [0.0])
    identity = [float(i == j) for i in range(dims.q) for j in range(dims.q)]
    worst_dn = max_abs_diff([c for row in dnchi for c in row], identity)
    related = eu.chi_relatedness_residual(sigma, [0.0], [0.2])
    ok = (
        report.ok
        and worst_id <= 1e-10
        and worst_closed <= tol
        and worst_slice <= 1e-10
        and worst_dn <= 1e-4
        and related <= 1e-4
    )
    worst = max(worst_id, worst_closed, worst_slice, worst_dn, related)
    return (
        ok,
        worst,
        {
            "identity_residual": worst_id,
            "closed_form_residual": worst_closed,
            "slice_residual": worst_slice,
            "normal_derivative_residual": worst_dn,
            "relatedness_residual": related,
            "euler_like": report.ok,
        },
    )


# -- 9: exact ring and characters -------------------------------------


def _ring_terms(p, q) -> list:
    """Every term a ring-suite draw can give, as (exponents, coefficient)
    with the power k of t^-1 last, listed in the mixed-radix order of the
    term's columns, the last varying fastest: k in -1..2, p y-exponents
    and an extra x-degree in 0..1, three x-slots in 0..q-1 and a
    coefficient in -5..5.  The first max(k, 0) + extra slots each add one
    to the x-exponent they name, so the filtration holds."""
    table = []
    for k, *cols, c in product(range(-1, 3), *[range(2)] * (p + 1), *[range(q)] * 3, range(-5, 6)):
        x_exps = [0] * q
        for j in cols[p + 1 : p + 1 + max(k, 0) + cols[p]]:
            x_exps[j] += 1
        table.append(((*cols[:p], *x_exps, k), c))
    return table


def _ring_samples(rng, samples, p, q):
    """Yield ``samples`` draws (a, b, x, s, xi), each one bounded 64-bit
    ``integers`` draw read in mixed radix: xi in [-3, 3]^q, x in
    [-3, 3]^(p+q), s in {1/3, ..., 4/3}, and for each of a and b a term
    count of 1 or 2 and two indices into ``_ring_terms``.

    Each term is validated once, by ``from_terms``, on first use, and
    kept for the rest of the call; a two-term draw is the sum of its two
    terms, which re-asserts the filtration and merges like ``from_terms``."""
    terms = _ring_terms(p, q)
    n = len(terms)
    xs = list(product(range(-3, 4), repeat=p + q))
    xis = list(product(range(-3, 4), repeat=q))
    ss = [Fraction(v, 3) for v in range(1, 5)]
    span = (2 * n * n) ** 2 * 4 * len(xs) * len(xis)
    built: list = [None] * n  # term index -> its one-term element, once drawn

    def term(index: int) -> rg.LaurentElement:
        elem = built[index]
        if elem is None:
            key, c = terms[index]
            elem = built[index] = rg.LaurentElement.from_terms(p, q, {key: c})
        return elem

    def element(code: int) -> rg.LaurentElement:
        pair, two = divmod(code, 2)
        second, first = divmod(pair, n)
        return term(first) + term(second) if two else term(first)

    for _ in range(samples):
        word, i = divmod(rng.integers(span), len(xis))
        word, j = divmod(word, len(xs))
        word, s = divmod(word, 4)
        b, a = divmod(word, 2 * n * n)
        yield element(a), element(b), xs[j], ss[s], xis[i]


def _respects(pairs) -> bool:
    """Whether a character's integer pairs (num, den) at a, b, a*b and a+b
    take the product and the sum to the product and the sum of its values
    at a and b; compared by cross-multiplying the pairs."""
    (na, da), (nb, db), (n_ab, d_ab), (n_sum, d_sum) = pairs
    return n_ab * da * db == na * nb * d_ab and n_sum * da * db == (na * db + nb * da) * d_sum


@_suite("ring", samples=10000, tol=1e-12)
def suite_ring(samples, seed, tol):
    rng = PCG64(seed)
    p, q = 1, 2
    hom_ok = True
    grading_ok = True
    one = rg.LaurentElement.from_poly(rg.MultiPoly.const(p, q, 1))
    for a, b, x_pt, s, xi_pt in _ring_samples(rng, samples, p, q):
        elements = (a, b, a * b, a + b)  # the product and the sum re-assert the filtration
        if not (
            _respects(rg.char_xs_pairs(elements, x_pt, s))
            and _respects(rg.char_yxi_pairs(elements, x_pt[:p], xi_pt))
        ):
            hom_ok = False
    if rg.char_xs(one, [0] * (p + q), 1) != 1 or rg.char_yxi(one, [0] * p, [0] * q) != 1:
        hom_ok = False
    # grading: pure elements f_k t^-k are degree-k homogeneous in xi
    bounds = [(1, 3), (0, 1), (0, 1), (1, 4)] + [(0, q - 1)] * 4 + [(-3, 3)] * q
    draws = [[low + rng.integers(high - low + 1) for low, high in bounds] for _ in range(200)]
    for k, extra, y_exp, lam, *rest in draws:
        x_exps = [0] * q
        for j in rest[: k + extra]:
            x_exps[j] += 1
        poly = rg.MultiPoly(p, q, {(y_exp, *x_exps): Fraction(3, 2)})
        elem = rg.LaurentElement.from_poly(poly, k)
        lam = Fraction(lam, 3)
        y_pt = [Fraction(1, 2)]
        xi_pt = [Fraction(v, 2) for v in rest[4:]]
        lhs = rg.char_yxi(elem, y_pt, [lam * v for v in xi_pt])
        rhs = lam**k * rg.char_yxi(elem, y_pt, xi_pt)
        if lhs != rhs:
            grading_ok = False
    # geometric consistency
    frng = PCG64(seed + 1).uniform
    f = rg.MultiPoly(p, q, {(1, 1, 0): Fraction(1), (0, 0, 3): Fraction(2)})
    points = [([frng(-1.0, 1.0)], [frng(-1.0, 1.0), frng(-1.0, 1.0)], frng(0.2, 1.5)) for _ in range(50)]
    geo = rg.geometric_consistency(f, points)
    f1 = rg.MultiPoly(p, q, {(1, 1, 0): Fraction(1), (0, 0, 1): Fraction(1, 2)})
    geo1 = rg.geometric_consistency(f1, points)
    worst = max(geo["max_residual"], geo1["max_residual"])
    return (
        hom_ok and grading_ok and worst <= tol,
        worst,
        {"homomorphism_exact": hom_ok, "grading_exact": grading_ok},
    )


# -- 10: curve resolution ---------------------------------------------


@_suite("curve", samples=0, tol=0.0)
def suite_curve(samples, seed, tol):
    x = rg.MultiPoly.var(0, 2, 0)
    y = rg.MultiPoly.var(0, 2, 1)
    nodal = y**2 - x**2 * (x + 1)
    cusp = y**2 - x**3
    line = y
    strict_n, roots_n = rg.strict_transform_curve(nodal, 1)
    strict_c, roots_c = rg.strict_transform_curve(cusp, 1)
    strict_l, roots_l = rg.strict_transform_curve(line, 1)
    s = rg.MultiPoly.var(0, 2, 1)
    xv = rg.MultiPoly.var(0, 2, 0)
    ok = (
        strict_n == s**2 - xv - 1
        and roots_n == [(-1.0, 1), (1.0, 1)]
        and strict_c == s**2 - xv
        and roots_c == [(0.0, 2)]
        and strict_l == s
        and roots_l == [(0.0, 1)]
    )
    return (
        ok,
        0.0 if ok else 1.0,
        {
            "nodal_roots": [r for r, _ in roots_n],
            "cusp_roots": [[r, m] for r, m in roots_c],
            "line_roots": [r for r, _ in roots_l],
        },
    )

