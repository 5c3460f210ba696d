"""Local models of pairs of manifolds and maps between them.

A pair (R^n, R^p) is presented in adapted coordinates ordered
(y^1..y^p, x^1..x^q) with q = n - p; the submanifold is the slice
{x = 0}.  A map of pairs must carry the slice into the target slice;
this is verified by seeded sampling, not proved.  The normal derivative
of an adapted map at a slice point is the x'-rows-by-x-columns block of
its Jacobian.

Points, blocks and matrices here are lists of Python floats (a matrix
is a list of rows), and every draw comes from ``pcg64``.  ``normal_image``
takes each coordinate of d_N f(y) xi as one correctly rounded
``expr.dot``.
Numeric ranks count the singular values of a one-sided Jacobi SVD
(Demmel & Veselic, "Jacobi's method is more accurate than QR", SIAM J.
Matrix Anal. Appl. 13, 1992).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations
from operator import mul

from .errors import ArityMismatch, DomainViolation, NotAdapted, SamplingFailure
from .expr import SmoothMapExpr, as_floats, dot, eval_map, jet_eval
from .pcg64 import PCG64
from .record import Record

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8
# A Jacobi rotation is skipped once two columns are orthogonal to this
# relative accuracy, or when one of them is below _JACOBI_NEGLIGIBLE times
# the matrix's Frobenius norm: such a column is rounding noise, which no
# rotation makes orthogonal, and far below RANK_RTOL.  A sweep without
# rotations ends the iteration.
_JACOBI_TOL = 1e-15
_JACOBI_NEGLIGIBLE = 1e-13
_JACOBI_MAX_SWEEPS = 64
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
        """The blocks (y, x) of a point, as lists of floats."""
        coords = as_floats(point)
        if len(coords) != self.n:
            raise ArityMismatch(f"point of length {len(coords)} for ambient dim {self.n}")
        return coords[: self.p], coords[self.p :]

    def join(self, y, x) -> list:
        """The point (y, x), as a list of floats."""
        y, x = as_floats(y), as_floats(x)
        if len(y) != self.p or len(x) != self.q:
            raise ArityMismatch(
                f"blocks of lengths {len(y)}, {len(x)} for dims (p={self.p}, q={self.q})"
            )
        return y + x


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

    def __call__(self, point) -> tuple:
        return self.f(point)

    def slice_image(self, y) -> tuple:
        """Value of the tangential part f_Y(y) = first p' components of f(y, 0)."""
        point = self.source.join(y, [0.0] * self.source.q)
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
        rng = PCG64(0)
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


def sample_slice_points(dims: PairDims, samples: int, seed: int) -> list:
    """Seeded slice points (y, 0) with y uniform in [-1, 1]^p, as lists of
    floats; the draws of ``numpy.random.default_rng(seed).uniform``."""
    zeros = [0.0] * dims.q
    return [y + zeros for y in PCG64(seed).uniform(-1.0, 1.0, size=(samples, dims.p))]


def check_adapted(
    m: MapOfPairs, samples: int = DEFAULT_SLICE_SAMPLES, seed: int = 0
) -> AdaptedReport:
    """Sampled adaptedness: the last q' components of f(y, 0) must vanish."""
    p_target = m.target.p
    worst = 0.0
    checked = 0
    for point in sample_slice_points(m.source, samples, seed):
        if not m.f.in_domain(point):
            continue
        worst = max(worst, max(map(abs, eval_map(m.f, point)[p_target:]), default=0.0))
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


def _jacobian_at_slice(m: MapOfPairs, y) -> list:
    """The Jacobian rows of f at (y, 0); DomainViolation outside its domain."""
    point = m.source.join(y, [0.0] * m.source.q)
    if not m.f.in_domain(point):
        raise DomainViolation(f"slice point {point} outside the map's domain")
    return jet_eval(m.f, point).jacobian


def normal_derivative(m: MapOfPairs, y) -> list:
    """The q' x q matrix of d_N f at y, as rows of floats: the x'-by-x
    Jacobian block at (y, 0)."""
    p = m.source.p
    return [list(row[p:]) for row in _jacobian_at_slice(m, y)[m.target.p :]]


def normal_image(m: MapOfPairs, y, xi) -> tuple:
    """d_N m(y) xi, as a tuple of q' floats: the correctly rounded ``dot``
    of each row of the normal derivative block with xi."""
    return tuple([dot(row, xi) for row in normal_derivative(m, y)])


def tangential_derivative(m: MapOfPairs, y) -> list:
    """The p' x p Jacobian block of the restricted map f_Y at y, as rows
    of floats."""
    p = m.source.p
    return [list(row[:p]) for row in _jacobian_at_slice(m, y)[: m.target.p]]


def singular_values(matrix) -> list:
    """The singular values of a matrix (a sequence of rows, or an array),
    largest first, by one-sided Jacobi: plane rotations orthogonalize the
    columns of the matrix (of its transpose, if it is wider than tall),
    and the singular values are the norms of the columns.  The matrix is
    first scaled by the power of two that brings its largest entry into
    [1/2, 1), which is exact and keeps every square and product of column
    norms in range.  An empty matrix has none; DomainViolation for a
    non-finite entry or a singular value past the float range."""
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    if not len(rows) or not len(rows[0]):
        return []
    cols = list(zip(*rows)) if len(rows) >= len(rows[0]) else list(rows)
    if not all(map(math.isfinite, chain.from_iterable(cols))):
        raise DomainViolation("singular values of a matrix with a non-finite entry")
    big = max(map(abs, chain.from_iterable(cols)))
    if big == 0.0:
        return [0.0] * len(cols)
    exp = math.frexp(big)[1]
    cols = [[math.ldexp(c, -exp) for c in col] for col in cols]
    norms = [sum(map(mul, col, col)) for col in cols]
    negligible = _JACOBI_NEGLIGIBLE**2 * sum(norms)
    pairs = list(combinations(range(len(cols)), 2))
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for i, j in pairs:
            if norms[i] <= negligible or norms[j] <= negligible:
                continue
            a, b = cols[i], cols[j]
            gamma = sum(map(mul, a, b))
            if abs(gamma) <= _JACOBI_TOL * math.sqrt(norms[i] * norms[j]):
                continue
            rotated = True
            zeta = (norms[j] - norms[i]) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            a, b = [c * x - s * y for x, y in zip(a, b)], [s * x + c * y for x, y in zip(a, b)]
            cols[i], cols[j] = a, b
            norms[i], norms[j] = sum(map(mul, a, a)), sum(map(mul, b, b))
        if not rotated:
            break
    try:
        return sorted((math.ldexp(math.hypot(*col), exp) for col in cols), reverse=True)
    except OverflowError:
        raise DomainViolation("a singular value lies past the float range") from None


def numeric_ranks(matrices) -> list:
    """The number of singular values above RANK_RTOL times the largest,
    for each of a sequence of matrices (rows of floats, or arrays); 0 for
    an empty or a zero matrix."""
    ranks = []
    for matrix in matrices:
        svals = singular_values(matrix)
        ranks.append(sum(s > RANK_RTOL * svals[0] for s in svals) if svals else 0)
    return ranks


def numeric_rank(matrix) -> int:
    """numeric_ranks of one matrix; a vector counts as one row."""
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    if len(rows) and not hasattr(rows[0], "__iter__"):
        rows = [rows]
    return numeric_ranks([rows])[0]


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
    rng = PCG64(seed)
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
            rows = jet_eval(m.f, point).jacobian
            restricted.append([row[:p] for row in rows[:p_target]])
            dn.append([row[p:] for row in rows[p_target:]])
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
