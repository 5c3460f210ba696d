"""End-to-end acceptance criteria.

Each test runs one registered verification suite at its full sample
count, asserts the stated tolerance and time budget, and prints a
single PASS/FAIL line.  The suites are the same functions the CLI
`verify` subcommand runs, so the command line and this file cannot
disagree.
"""

import pytest

from conecut import verify as vf


def _run(number, name, budget_s):
    suite = vf.SUITES[name]
    result = suite(samples=vf.DEFAULT_SUITE_SAMPLES[name], seed=42)
    verdict = "PASS" if (result.ok and result.runtime < budget_s) else "FAIL"
    print(
        f"ACCEPTANCE {number} {name}: {verdict} "
        f"(residual {result.max_residual:.3e} vs tol {result.tol:.1e}, "
        f"{result.runtime:.2f}s of {budget_s:g}s)"
    )
    assert result.ok, (
        f"criterion {number} ({name}): residual {result.max_residual:.3e} "
        f"exceeds {result.tol:.1e} or a sub-check failed: {result.details}"
    )
    assert result.runtime < budget_s, (
        f"criterion {number} ({name}): {result.runtime:.2f}s over the "
        f"{budget_s:g}s budget"
    )
    return result


def test_acceptance_1_model_equivalence():
    # round trips between the quotient, algebraic, and polar models
    # agree within 1e-12 on 1000 seeded points in ambient dimensions 2, 3
    _run(1, "models", 1.0)


def test_acceptance_2_chart_atlas():
    # chart round trips and transitions within 1e-10; every canonical
    # direction is covered by some chart
    result = _run(2, "atlas", 2.0)
    assert result.details["coverage_certified"]


def test_acceptance_3_sphere_example():
    # four closed-form local expressions match brute-force composition
    # within 1e-10 at 500 points; the global map round-trips
    _run(3, "sphere", 1.0)


def test_sphere_passes_at_seeds_0_to_99():
    # at the suite's own 1e-10 tolerance: the affine charts divide by
    # coordinates down to 1e-2, so any absolute rounding of a
    # representative is amplified here
    failed = [seed for seed in range(100) if not vf.SUITES["sphere"](seed=seed).ok]
    assert failed == []


def test_acceptance_4_groupoid_axioms():
    # five axioms within 1e-9 on 1000 samples for four presentations;
    # isotropy/orbit dimensions at the two strata are exact
    result = _run(4, "groupoid", 2.0)
    assert result.details["isotropy_orbit"]["a=1"] == [0, 1]
    assert result.details["isotropy_orbit"]["a=0"] == [1, 0]


def test_acceptance_5_deformation_functoriality():
    # functoriality and scaling equivariance within 1e-10 on 500
    # samples; continuity regression slope at t = 0 at least 0.99
    result = _run(5, "dnc", 2.0)
    for slope in result.details["continuity_slopes"].values():
        assert slope == "exact" or slope >= 0.99


def test_acceptance_6_normal_derivative():
    # forward-mode derivative matches finite differences within 1e-6;
    # the normal-derivative chain rule holds within 1e-10
    result = _run(6, "normal_derivative", 1.0)
    assert result.details["chain_residual"] <= 1e-10


def test_acceptance_7_bundle_chart_linearity():
    # fiberwise linearity within 1e-11 on 100 fibers of both kinds;
    # the tangent anchor has radial kernel and rank q - 1
    result = _run(7, "vb", 1.0)
    assert result.details["anchor_rank_ok"]


def test_acceptance_8_euler_tubular():
    # the scaling field reproduces the identity within 1e-10; the
    # perturbed field matches xi/(1 - xi) within 1e-4; the embedding
    # fixes the slice and has identity normal derivative
    result = _run(8, "euler", 5.0)
    assert result.details["identity_residual"] <= 1e-10
    assert result.details["closed_form_residual"] <= 1e-4
    assert result.details["slice_residual"] <= 1e-10
    assert result.details["normal_derivative_residual"] <= 1e-4
    assert result.details["relatedness_residual"] <= 1e-4


def test_acceptance_9_exact_ring():
    # both characters are exact ring homomorphisms on 10^4 random
    # pairs; grading homogeneity is exact; geometric consistency of the
    # Laurent model with the chart functions holds within 1e-12
    result = _run(9, "ring", 3.0)
    assert result.details["homomorphism_exact"]
    assert result.details["grading_exact"]


def test_acceptance_10_curve_resolution():
    # nodal cubic meets the divisor at exactly -1 and 1; the cusp at 0
    # with multiplicity 2
    result = _run(10, "curve", 0.1)
    assert sorted(result.details["nodal_roots"]) == [-1.0, 1.0]
    assert result.details["cusp_roots"] == [[0.0, 2]]
