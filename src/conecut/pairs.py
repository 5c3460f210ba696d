"""Local models of pairs of manifolds and maps between them.

A pair (R^n, R^p) is presented in adapted coordinates ordered
(y^1..y^p, x^1..x^q) with q = n - p; the submanifold is the slice
{x = 0}.  A map of pairs must carry the slice into the target slice;
this is verified by seeded sampling, not proved.  The normal derivative
of an adapted map at a slice point is the x'-rows-by-x-columns block of
its Jacobian.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ArityMismatch, DomainViolation, NotAdapted, SamplingFailure
from .expr import SmoothMapExpr, jet_eval
from .lazy_numpy import np
from .record import Record

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8
ADAPTED_TOL = 1e-12
DEFAULT_SLICE_SAMPLES = 512


class PairDims(Record, frozen=True):
    """Dimension data (n, p) of a local pair; q = n - p is the codimension."""

    def __init__(self, n: int, p: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        if not (0 <= p <= n):
            raise ArityMismatch(f"invalid pair dimensions (n={n}, p={p})")

    @property
    def q(self) -> int:
        return self.n - self.p

    def split(self, point):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            raise ArityMismatch(f"point of shape {point.shape} for ambient dim {self.n}")
        return point[: self.p], point[self.p :]

    def join(self, y, x):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if y.shape != (self.p,) or x.shape != (self.q,):
            raise ArityMismatch(
                f"blocks of shapes {y.shape}, {x.shape} for dims (p={self.p}, q={self.q})"
            )
        return np.concatenate([y, x])


class MapOfPairs(Record, frozen=True):
    """A smooth map f: (R^n, R^p) -> (R^m, R^p') in adapted coordinates."""

    def __init__(self, f: SmoothMapExpr, source: PairDims, target: PairDims):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        if f.input_dim != source.n or f.output_dim != target.n:
            raise ArityMismatch(
                f"map arity ({f.input_dim} -> {f.output_dim}) does not match "
                f"pair dims ({source.n} -> {target.n})"
            )

    def __call__(self, point) -> np.ndarray:
        return self.f(point)

    def slice_image(self, y) -> np.ndarray:
        """Value of the tangential part f_Y(y) = first p' components of f(y, 0)."""
        point = self.source.join(y, np.zeros(self.source.q))
        return self.f(point)[: self.target.p]

    # The sampled checks below depend only on the map, so each runs once
    # per map; a check that raises is not cached and runs again.
    @cached_property
    def adapted(self) -> "AdaptedReport":
        """check_adapted on 128 seeded slice points."""
        return check_adapted(self, samples=128)

    @cached_property
    def normal_derivative_injective(self) -> bool:
        """Whether d_N f has full column rank q, by ``numeric_rank``, at 16
        seeded slice points."""
        rng = np.random.default_rng(0)
        for _ in range(16):
            y = rng.uniform(-1.0, 1.0, size=self.source.p)
            if numeric_rank(normal_derivative(self, y)) < self.source.q:
                return False
        return True


class AdaptedReport(Record, frozen=True):
    def __init__(self, ok: bool, worst_violation: float, checked: int):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "worst_violation", worst_violation)
        object.__setattr__(self, "checked", checked)


def sample_slice_points(dims: PairDims, samples: int, seed: int):
    """Seeded slice points (y, 0) with y uniform in [-1, 1]^p."""
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-1.0, 1.0, size=(samples, dims.p))
    return [dims.join(y, np.zeros(dims.q)) for y in ys]


def check_adapted(
    m: MapOfPairs, samples: int = DEFAULT_SLICE_SAMPLES, seed: int = 0
) -> AdaptedReport:
    """Sampled adaptedness: the last q' components of f(y, 0) must vanish."""
    qprime = m.target.q
    worst = 0.0
    checked = 0
    for point in sample_slice_points(m.source, samples, seed):
        if not m.f.in_domain(point):
            continue
        value = m.f(point)
        normal_part = value[m.target.p :] if qprime else np.zeros(0)
        if qprime:
            worst = max(worst, float(np.max(np.abs(normal_part))))
        checked += 1
    if checked == 0:
        raise SamplingFailure("no sampled slice point lies in the map's domain")
    return AdaptedReport(worst <= ADAPTED_TOL, worst, checked)


def require_adapted(m: MapOfPairs):
    """The map's adaptedness report; raises NotAdapted if the check fails."""
    report = m.adapted
    if not report.ok:
        raise NotAdapted(
            f"map does not carry the slice into the target slice "
            f"(worst violation {report.worst_violation:.3e})"
        )
    return report


def normal_derivative(m: MapOfPairs, y) -> np.ndarray:
    """The q' x q matrix of d_N f at y: the x'-by-x Jacobian block at (y, 0)."""
    point = m.source.join(y, np.zeros(m.source.q))
    if not m.f.in_domain(point):
        raise DomainViolation(f"slice point {point.tolist()} outside the map's domain")
    jac = jet_eval(m.f, point).jacobian
    return jac[m.target.p :, m.source.p :]


def tangential_derivative(m: MapOfPairs, y) -> np.ndarray:
    """The p' x p Jacobian block of the restricted map f_Y at y."""
    point = m.source.join(y, np.zeros(m.source.q))
    jac = jet_eval(m.f, point).jacobian
    return jac[: m.target.p, : m.source.p]


def numeric_ranks(matrices) -> list:
    """The number of singular values above RANK_RTOL times the largest,
    for each of a sequence of matrices of one shape, from one stacked
    SVD; 0 for an empty or a zero matrix."""
    stack = np.asarray(matrices, dtype=float)
    if stack.size == 0:
        return [0] * len(stack)
    svals = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(svals > RANK_RTOL * svals[:, :1], axis=1).tolist()


def numeric_rank(matrix) -> int:
    """numeric_ranks of one matrix; a vector counts as one row."""
    return numeric_ranks(np.atleast_2d(np.asarray(matrix, dtype=float))[None])[0]


class RankReport(Record, frozen=True):
    def __init__(
        self,
        rank_f: int,
        rank_f_restricted: int,
        fiberwise_rank_dN: int,
        rank_f_constant: bool,
        rank_f_restricted_constant: bool,
        dN_rank_constant: bool,
    ):
        object.__setattr__(self, "rank_f", rank_f)
        object.__setattr__(self, "rank_f_restricted", rank_f_restricted)
        object.__setattr__(self, "fiberwise_rank_dN", fiberwise_rank_dN)
        object.__setattr__(self, "rank_f_constant", rank_f_constant)
        object.__setattr__(self, "rank_f_restricted_constant", rank_f_restricted_constant)
        object.__setattr__(self, "dN_rank_constant", dN_rank_constant)


def check_rank_conditions(m: MapOfPairs, samples: int = 64, seed: int = 0) -> RankReport:
    """Sampled ranks of df, of the restricted map, and of d_N fiberwise.

    One jet per slice point gives both its tangential_derivative and its
    normal_derivative block."""
    rng = np.random.default_rng(seed)
    full = []
    for _ in range(samples * 4):
        if len(full) >= samples:
            break
        point = rng.uniform(-1.0, 1.0, size=m.source.n)
        if m.f.in_domain(point):
            full.append(jet_eval(m.f, point).jacobian)
    if not full:
        raise SamplingFailure("no sampled point lies in the map's domain")
    p, p_target = m.source.p, m.target.p
    restricted, dn = [], []
    for point in sample_slice_points(m.source, samples, seed + 1):
        if m.f.in_domain(point):
            jac = jet_eval(m.f, point).jacobian
            restricted.append(jac[:p_target, :p])
            dn.append(jac[p_target:, p:])
    if not dn:
        raise SamplingFailure("no sampled slice point lies in the map's domain")
    full_ranks = set(numeric_ranks(full))
    restricted_ranks = set(numeric_ranks(restricted))
    dn_ranks = set(numeric_ranks(dn))
    return RankReport(
        rank_f=max(full_ranks),
        rank_f_restricted=max(restricted_ranks),
        fiberwise_rank_dN=max(dn_ranks),
        rank_f_constant=len(full_ranks) == 1,
        rank_f_restricted_constant=len(restricted_ranks) == 1,
        dN_rank_constant=len(dn_ranks) == 1,
    )
