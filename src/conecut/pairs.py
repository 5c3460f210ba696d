"""Local models of pairs of manifolds and maps between them.

A pair (R^n, R^p) is presented in adapted coordinates ordered
(y^1..y^p, x^1..x^q) with q = n - p; the submanifold is the slice
{x = 0}.  A map of pairs must carry the slice into the target slice;
this is verified by seeded sampling, not proved.  The normal derivative
of an adapted map at a slice point is the x'-rows-by-x-columns block of
its Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArityMismatch, DomainViolation, NotAdapted, SamplingFailure
from .expr import SmoothMapExpr, jet_eval

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8
ADAPTED_TOL = 1e-12
DEFAULT_SLICE_SAMPLES = 512


@dataclass(frozen=True)
class PairDims:
    """Dimension data (n, p) of a local pair; q = n - p is the codimension."""

    n: int
    p: int

    def __post_init__(self):
        if not (0 <= self.p <= self.n):
            raise ArityMismatch(f"invalid pair dimensions (n={self.n}, p={self.p})")

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


@dataclass(frozen=True)
class MapOfPairs:
    """A smooth map f: (R^n, R^p) -> (R^m, R^p') in adapted coordinates."""

    f: SmoothMapExpr
    source: PairDims
    target: PairDims

    def __post_init__(self):
        if self.f.input_dim != self.source.n or self.f.output_dim != self.target.n:
            raise ArityMismatch(
                f"map arity ({self.f.input_dim} -> {self.f.output_dim}) does not match "
                f"pair dims ({self.source.n} -> {self.target.n})"
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
        """Whether d_N f has full column rank q at 16 seeded slice points."""
        rng = np.random.default_rng(0)
        for _ in range(16):
            y = rng.uniform(-1.0, 1.0, size=self.source.p)
            if np.linalg.matrix_rank(normal_derivative(self, y)) < self.source.q:
                return False
        return True


@dataclass(frozen=True)
class AdaptedReport:
    ok: bool
    worst_violation: float
    checked: int


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


def numeric_rank(matrix) -> int:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_RTOL * svals[0]))


@dataclass(frozen=True)
class RankReport:
    rank_f: int
    rank_f_restricted: int
    fiberwise_rank_dN: int
    rank_f_constant: bool
    rank_f_restricted_constant: bool
    dN_rank_constant: bool


def check_rank_conditions(m: MapOfPairs, samples: int = 64, seed: int = 0) -> RankReport:
    """Sampled ranks of df, of the restricted map, and of d_N fiberwise."""
    rng = np.random.default_rng(seed)
    full_ranks = set()
    restricted_ranks = set()
    dn_ranks = set()
    found = 0
    for _ in range(samples * 4):
        if found >= samples:
            break
        point = rng.uniform(-1.0, 1.0, size=m.source.n)
        if not m.f.in_domain(point):
            continue
        full_ranks.add(numeric_rank(jet_eval(m.f, point).jacobian))
        found += 1
    if found == 0:
        raise SamplingFailure("no sampled point lies in the map's domain")
    for point in sample_slice_points(m.source, samples, seed + 1):
        if not m.f.in_domain(point):
            continue
        y = point[: m.source.p]
        restricted_ranks.add(numeric_rank(tangential_derivative(m, y)))
        dn_ranks.add(numeric_rank(normal_derivative(m, y)))
    if not dn_ranks:
        raise SamplingFailure("no sampled slice point lies in the map's domain")
    return RankReport(
        rank_f=max(full_ranks),
        rank_f_restricted=max(restricted_ranks),
        fiberwise_rank_dN=max(dn_ranks),
        rank_f_constant=len(full_ranks) == 1,
        rank_f_restricted_constant=len(restricted_ranks) == 1,
        dN_rank_constant=len(dn_ranks) == 1,
    )
