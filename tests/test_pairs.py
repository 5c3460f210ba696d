"""Maps of pairs: adaptedness, normal derivatives, rank reports."""

import numpy as np
import pytest

from conecut.errors import ArityMismatch, DomainViolation, NotAdapted, SamplingFailure
from conecut.expr import Exp, Guard, Sin, Var, from_components, jet_eval
from conecut.pairs import (
    RANK_RTOL,
    MapOfPairs,
    PairDims,
    RankReport,
    check_adapted,
    check_rank_conditions,
    normal_derivative,
    numeric_rank,
    numeric_ranks,
    require_adapted,
    sample_slice_points,
    singular_values,
    tangential_derivative,
)


def _adapted_map():
    y, x = Var(0), Var(1)
    return MapOfPairs(
        from_components(2, (y + x**2, x * Exp(y))), PairDims(2, 1), PairDims(2, 1)
    )


def _non_adapted_map():
    y, x = Var(0), Var(1)
    return MapOfPairs(
        from_components(2, (y, x + 1.0)), PairDims(2, 1), PairDims(2, 1)
    )


def test_split_join_round_trip():
    dims = PairDims(5, 2)
    v = np.arange(5.0)
    y, x = dims.split(v)
    assert y == [0.0, 1.0] and x == [2.0, 3.0, 4.0]
    assert dims.join(y, x) == v.tolist()
    assert dims.split([0, 1, 2, 3, 4]) == (y, x)
    for bad in ([0.0] * 4, np.zeros((5, 1)), 3.0):
        with pytest.raises(ArityMismatch):
            dims.split(bad)
    with pytest.raises(ArityMismatch):
        dims.join([0.0], x)


def test_sample_slice_points_lie_on_slice():
    dims = PairDims(4, 2)
    pts = sample_slice_points(dims, 16, seed=1)
    draws = np.random.default_rng(1).uniform(-1.0, 1.0, size=(16, 2)).tolist()
    assert pts == [y + [0.0, 0.0] for y in draws]


def test_check_adapted_accepts_adapted_map():
    report = check_adapted(_adapted_map())
    assert report.ok
    assert report.worst_violation <= 1e-12


def test_check_adapted_rejects_non_adapted_map():
    report = check_adapted(_non_adapted_map())
    assert not report.ok
    with pytest.raises(NotAdapted):
        require_adapted(_non_adapted_map())


def test_normal_derivative_block():
    m = _adapted_map()
    # x-component is x * exp(y); its x-derivative at (y, 0) is exp(y)
    for y in (-0.5, 0.0, 1.2):
        dn = normal_derivative(m, [y])
        assert dn == [[pytest.approx(np.exp(y))]]


def test_tangential_derivative_block():
    m = _adapted_map()
    dt = tangential_derivative(m, [0.7])
    assert dt == [[pytest.approx(1.0)]]


def test_derivative_blocks_of_bare_variables_are_lists():
    # components that are bare Vars hand out the jet tape's tuple gradients
    m = MapOfPairs(from_components(2, (Var(1), Var(0))), PairDims(2, 1), PairDims(2, 1))
    assert normal_derivative(m, [0.0]) == [[0.0]]
    assert tangential_derivative(m, [0.0]) == [[0.0]]
    m = MapOfPairs(from_components(2, (Var(0), Var(1))), PairDims(2, 1), PairDims(2, 1))
    assert normal_derivative(m, [0.3]) == [[1.0]]
    assert tangential_derivative(m, [0.3]) == [[1.0]]


def test_numeric_rank():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(3)) == 3
    mat = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert numeric_rank(mat) == 1
    # a tiny singular value relative to the largest does not count
    mat = np.diag([1.0, 1e-12])
    assert numeric_rank(mat) == 1


def test_normal_derivative_injectivity_uses_the_rank_rule_of_the_rank_report():
    # d_N = diag(1, 1e-10) on (R^3, R): numeric_rank counts 1, not 2
    y, x1, x2 = Var(0), Var(1), Var(2)
    dims = PairDims(3, 1)
    m = MapOfPairs(from_components(3, (y, x1, 1e-10 * x2)), dims, dims)
    assert check_rank_conditions(m).fiberwise_rank_dN == 1
    assert numeric_rank(normal_derivative(m, [0.5])) == 1
    assert not m.normal_derivative_injective
    well = MapOfPairs(from_components(3, (y, x1, 1e-7 * x2)), dims, dims)
    assert check_rank_conditions(well).fiberwise_rank_dN == 2
    assert well.normal_derivative_injective


def test_rank_report_for_adapted_map():
    rep = check_rank_conditions(_adapted_map())
    assert rep.rank_f == 2
    assert rep.rank_f_restricted == 1
    assert rep.fiberwise_rank_dN == 1
    assert rep.dN_rank_constant


def _reference_rank(matrix) -> int:
    """The rank rule with one SVD per matrix, as numeric_rank computed it
    before ranks were stacked."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_RTOL * svals[0]))


def _reference_rank_report(m, samples, seed) -> RankReport:
    """check_rank_conditions with a fresh jet for each block and one SVD
    per matrix."""
    rng = np.random.default_rng(seed)
    full, restricted, dn = set(), set(), set()
    found = 0
    for _ in range(samples * 4):
        if found >= samples:
            break
        point = rng.uniform(-1.0, 1.0, size=m.source.n)
        if not m.f.in_domain(point):
            continue
        full.add(_reference_rank(jet_eval(m.f, point).jacobian))
        found += 1
    if found == 0:
        raise SamplingFailure("no sampled point lies in the map's domain")
    for point in sample_slice_points(m.source, samples, seed + 1):
        if not m.f.in_domain(point):
            continue
        y = point[: m.source.p]
        restricted.add(_reference_rank(tangential_derivative(m, y)))
        dn.add(_reference_rank(normal_derivative(m, y)))
    if not dn:
        raise SamplingFailure("no sampled slice point lies in the map's domain")
    return RankReport(max(full), max(restricted), max(dn), len(full) == 1, len(restricted) == 1, len(dn) == 1)


def _rank_maps():
    y, x1, x2 = Var(0), Var(1), Var(2)
    d31 = PairDims(3, 1)
    return {
        "full rank": _adapted_map(),
        # d_N has rank 1 of 2 at every slice point
        "rank-deficient": MapOfPairs(from_components(3, (y, x1 + x2, 2.0 * x1 + 2.0 * x2)), d31, d31),
        # d_N is the zero matrix at every slice point
        "zero normal block": MapOfPairs(from_components(3, (y * y, x1 * x2, x1 * x1)), d31, d31),
        # p = 0 empties the tangential block, q' = 0 the normal block
        "empty blocks": MapOfPairs(
            from_components(2, (Var(0) + Var(1), Var(0) * Var(1))), PairDims(2, 0), PairDims(2, 2)
        ),
        "empty normal columns": MapOfPairs(
            from_components(1, (Sin(Var(0)), Var(0) * 0.0)), PairDims(1, 1), PairDims(2, 1)
        ),
        # half of the points fail the guard y > 0
        "guarded": MapOfPairs(
            from_components(2, (Var(0), Var(0) * Var(1)), (Guard(Var(0), "positive"),)),
            PairDims(2, 1),
            PairDims(2, 1),
        ),
    }


@pytest.mark.parametrize("name", list(_rank_maps()))
@pytest.mark.parametrize("samples, seed", [(16, 0), (64, 3)])
def test_rank_report_matches_one_jet_and_one_svd_per_matrix(name, samples, seed):
    m = _rank_maps()[name]
    assert check_rank_conditions(m, samples, seed) == _reference_rank_report(m, samples, seed)


def test_rank_reports_of_deficient_and_empty_blocks():
    maps = _rank_maps()
    assert check_rank_conditions(maps["rank-deficient"]) == RankReport(2, 1, 1, True, True, True)
    assert check_rank_conditions(maps["zero normal block"]).fiberwise_rank_dN == 0
    assert check_rank_conditions(maps["empty blocks"]) == RankReport(2, 0, 0, True, True, True)


def test_numeric_ranks_match_one_svd_per_matrix():
    rng = np.random.default_rng(7)
    for rows in range(5):
        for cols in range(5):
            mats = [np.zeros((rows, cols)), np.eye(rows, cols), np.eye(rows, cols) * 1e-300]
            for _ in range(30):
                rank = rng.integers(0, min(rows, cols) + 1)
                mats.append(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))
                mats.append(mats[-1] + RANK_RTOL * rng.standard_normal((rows, cols)))
            want = [_reference_rank(m) for m in mats]
            assert numeric_ranks(mats) == want
            assert [numeric_rank(m) for m in mats] == want
    assert numeric_ranks([]) == []
    assert numeric_rank([3.0, 4.0]) == 1


def _well_separated(matrix) -> bool:
    """Whether no singular value lies within a factor 10 of the rank
    threshold, so that the rank does not depend on rounding."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return True
    ratio = svals / svals[0]
    return not np.any((ratio > RANK_RTOL / 10) & (ratio < RANK_RTOL * 10))


def test_jacobi_ranks_agree_with_numpy_svd_away_from_the_threshold():
    rng = np.random.default_rng(16)
    mats = [np.diag([1.0, 1e-10]), np.diag([1.0, 1e-7]), np.zeros((3, 2)), np.zeros((0, 3)), np.zeros((2, 0))]
    for _ in range(600):
        rows, cols = rng.integers(1, 6), rng.integers(1, 5)
        rank = rng.integers(0, min(rows, cols) + 1)
        mats.append(rng.standard_normal((rows, cols)))
        mats.append(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))
        mats.append(rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 12, cols))
    mats = [m for m in mats if _well_separated(m)]
    assert len(mats) > 1500
    want = [_reference_rank(m) for m in mats]
    assert numeric_ranks(mats) == want
    assert numeric_ranks([m.tolist() for m in mats]) == want


def test_largest_singular_value_is_within_16_ulps_of_numpy_svd():
    """The scale of blowup_map's OutsideBlupF threshold."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for k in range(3000):
        rows, cols = rng.integers(1, 6), rng.integers(1, 6)
        m = rng.standard_normal((rows, cols))
        if k % 3 == 1:
            rank = rng.integers(1, min(rows, cols) + 1)
            m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        elif k % 3 == 2:
            m = m * 10.0 ** rng.integers(-8, 8, cols)
        want = np.linalg.svd(m, compute_uv=False)[0]
        worst = max(worst, abs(singular_values(m)[0] - want) / np.spacing(want))
    assert worst <= 16


def test_singular_values_of_scaled_and_degenerate_matrices():
    assert singular_values([]) == [] and singular_values([[], []]) == []
    assert singular_values([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]
    assert singular_values([[3.0], [4.0]]) == [5.0]
    for scale in (2.0**-1060, 1e-300, 1.0, 1e300):
        svals = singular_values([[3.0 * scale, 0.0], [0.0, 4.0 * scale]])
        assert svals == [4.0 * scale, 3.0 * scale]
    with pytest.raises(DomainViolation, match="non-finite entry"):
        singular_values([[1.0, float("nan")], [0.0, 1.0]])
    # rank-1 matrices whose column norms square past the float range
    for scale in (1e100, 1e-100, 1e200, 1e-200):
        m = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]) * scale
        svals = singular_values(m)
        want = np.linalg.svd(m, compute_uv=False)
        assert svals == pytest.approx(want.tolist(), rel=1e-14, abs=1e-14 * want[0])
        assert numeric_rank(m) == 1 == numeric_rank(m.T)
    with pytest.raises(DomainViolation, match="past the float range"):
        singular_values([[1e308, 1e308], [1e308, 1e308]])
