"""Every default in the package is written once and shown here.

``test_options_match_allow_list`` lists each parameter with a default of
every function, method, staticmethod and classmethod defined at module
or class level in ``src/conecut``, and compares the list with ALLOWED.
A record's fields are the parameters of its ``__init__``, so a field
with a default is listed as ``module.Class.__init__(field)``.  A change
that adds or removes an option edits ALLOWED in the same diff.
"""

import ast
import inspect
from pathlib import Path

import pytest

import conecut
from conecut import verify

PACKAGE = Path(conecut.__file__).parent

ALLOWED = {
    "cli.to_json(indent)",
    "cli.main(argv)",
    "dnc.psi_inv(dims)",
    "dnc.DncMap.__init__(check)",
    "dnc.eval_function_class(check)",
    "errors.ParseError.__init__(position)",
    "expr.SmoothMapExpr.__init__(guards)",
    "expr.from_components(guards)",
    "groupoid.GroupoidSpec.__init__(tol)",
    "groupoid.GroupoidSpec.__init__(arrow_sampler)",
    "groupoid.AxiomReport.__init__(source_of_product)",
    "groupoid.AxiomReport.__init__(target_of_product)",
    "groupoid.AxiomReport.__init__(associativity)",
    "groupoid.AxiomReport.__init__(unit_laws)",
    "groupoid.AxiomReport.__init__(inverse_laws)",
    "groupoid.AxiomReport.__init__(samples)",
    "groupoid.check_axioms(samples)",
    "groupoid.check_axioms(seed)",
    "groupoid.pair_groupoid(base_dim)",
    "groupoid.polar_groupoid_check(samples)",
    "groupoid.polar_groupoid_check(seed)",
    "groupoid.saturated_action_blowup(samples)",
    "groupoid.saturated_action_blowup(seed)",
    "pairs.check_adapted(samples)",
    "pairs.check_adapted(seed)",
    "pairs.check_rank_conditions(samples)",
    "pairs.check_rank_conditions(seed)",
    "parse.parse_map(var_names)",
    "ring.MultiPoly.__init__(terms)",
    "ring.LaurentElement.__init__(coeffs)",
    "ring.LaurentElement.from_poly(k)",
    "ring.expr_to_laurent(t_index)",
    "ring.strict_transform_curve(chart)",
    "vb.fiber_linearity_check(samples)",
    "vb.fiber_linearity_check(seed)",
    "verify.SuiteResult.__init__(details)",
}


def _defaulted(owner: str, fn) -> list:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults) :]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [f"{owner}({a.arg})" for a in named]


def package_options() -> list:
    """Defaulted parameters, in source order."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                out += _defaulted(f"{module}.{node.name}", node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions):
                        out += _defaulted(f"{module}.{node.name}.{item.name}", item)
    return out


def test_options_match_allow_list():
    found = package_options()
    assert len(found) == len(set(found))
    assert sorted(set(found) - ALLOWED) == [], "new options: add them to ALLOWED"
    assert sorted(ALLOWED - set(found)) == [], "removed options: drop them from ALLOWED"


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suite_default_samples_are_written_once(name):
    suite = verify.SUITES[name]
    assert inspect.signature(suite).parameters["samples"].default == (
        verify.DEFAULT_SUITE_SAMPLES[name]
    )
    assert getattr(verify, f"suite_{name}") is suite
