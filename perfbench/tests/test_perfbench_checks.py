"""Each independent checker accepts a right output and rejects a corrupted one."""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402


def test_curve_checker_rejects_flipped_multiplicity():
    roots = (-1, -1, 3)
    assert checks.check_curve([(-1.0, 2), (3.0, 1)], roots) == []
    assert checks.check_curve([(-1.0, 1), (3.0, 2)], roots)
    assert checks.check_curve([(3.0, 1)], roots)


def test_curve_checker_compares_divisor_restriction_exactly():
    roots = (0, 2)
    # prod(s - r) = s^2 - 2 s
    assert checks.check_curve([(0.0, 1), (2.0, 1)], roots, {2: 1, 1: -2}) == []
    assert checks.check_curve([(0.0, 1), (2.0, 1)], roots, {2: 1, 1: -2, 0: Fraction(1, 7)})


def test_character_checker_rejects_value_off_by_a_seventh():
    # 2 x1 t^-1 with p = 1, q = 2: at x = 1/2, s = 1/3 it is 2 * 1/2 * 3 = 3;
    # at xi = 2/3 its degree-1 part gives 2 * 2/3 = 4/3.
    terms = [(1, (0, 1, 0), Fraction(2))]
    half = Fraction(1, 2)
    xs = checks.eval_xs(terms, [half] * 3, Fraction(1, 3))
    yxi = checks.eval_yxi(terms, 1, [half], [Fraction(2, 3)] * 2)
    assert (xs, yxi) == (3, Fraction(4, 3))
    assert checks.check_characters("3", "4/3", xs, yxi, "demo") == []
    assert checks.check_characters(str(3 + Fraction(1, 7)), "4/3", xs, yxi, "demo")
    assert checks.check_characters("3", str(Fraction(4, 3) - Fraction(1, 7)), xs, yxi, "demo")


def test_check_map_checker_rejects_perturbed_normal_derivative():
    matrix = [[1, 2], [2, 4]]
    assert checks.exact_rank(matrix) == 1
    good = {"adapted": True, "normal_derivative_at_0": [[1, 2], [2, 4]],
            "rank_normal_derivative": 1, "ad_fd_residual": 1e-10}
    assert checks.check_check_map(good, matrix) == []
    bad = dict(good, normal_derivative_at_0=[[1, 2], [2, 4 + 1e-9]])
    assert checks.check_check_map(bad, matrix)
    assert checks.check_check_map(dict(good, rank_normal_derivative=2), matrix)
    assert checks.check_check_map(dict(good, ad_fd_residual=1e-5), matrix)


def test_nonzero_cli_exit_code_is_rejected():
    assert checks.check_exit(0) == []
    inv = workloads.Invocation("resolve-curve", ["resolve-curve", "--poly", "y"], (0,))
    payload = json.dumps({"exceptional_roots": [{"root": 0, "multiplicity": 1}]})
    assert workloads.check_invocation(inv, 0, payload, "") == []
    assert workloads.check_invocation(inv, 1, payload, "error: boom")
    assert workloads.check_invocation(inv, 2, "", "usage")


def test_sweep_and_suite_checkers():
    y, xi, t = 0.3, 0.7, 1e-3
    assert checks.check_dnc_point(checks.dnc_closed_form(y, xi, t), y, xi, t) == []
    ey, exi, et = checks.dnc_closed_form(y, xi, t)
    assert checks.check_dnc_point((ey, exi * (1 + 1e-9), et), y, xi, t)
    assert checks.check_quotient(exi * (1 - 1e-9), y, xi, t)
    assert checks.near_subnormal(1e-320, xi) and not checks.near_subnormal(1e-300, xi)
    iso = {"isotropy_orbit": {"a=1": [0, 1], "a=0": [1, 0]}}
    assert checks.check_suite("groupoid", True, iso) == []
    assert checks.check_suite("groupoid", True, {"isotropy_orbit": {"a=1": [1, 1], "a=0": [1, 0]}})
    assert checks.check_suite("dnc", True, {"continuity_slopes": {"h_a": 0.5, "h_b": "exact", "h_c": 1.0}})


def test_generated_texts_match_generated_terms():
    import random

    from conecut.parse import parse_expr
    from conecut.ring import expr_to_poly

    rnd = random.Random(7)
    for _ in range(20):
        roots, extra = workloads.gen_curve(rnd)
        poly = expr_to_poly(parse_expr(workloads.curve_text(roots, extra), ["x", "y"]), 0, 2)
        assert poly.terms == workloads.curve_terms(roots, extra)
        terms = workloads.gen_laurent(rnd)
        element = workloads.laurent_element(terms)
        assert sorted(element.coeffs) == checks.filtration_keys(terms)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
