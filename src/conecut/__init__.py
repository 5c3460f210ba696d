"""conecut: chart-level kernels for blow-ups of pairs, deformation to
the normal cone, groupoid structure checks, Euler-like flows, and an
exact filtered Laurent model of deformation functions.

Importing the package runs none of its modules.  The public names below
and the submodules are resolved on first access (PEP 562), each by
importing the module that defines it, so a caller pays only for the
modules it uses.  A submodule that ``conecut.cli`` registered lazily is
run before it is returned, and bound in the package from then on.
"""

import importlib

__version__ = "1.0.0"

# Every module of the package; tests/test_imports.py checks the list
# against the source files.
SUBMODULES = (
    "blowup", "cli", "dnc", "errors", "euler", "expr", "groupoid", "nodes",
    "pairs", "parse", "pcg64", "record", "ring", "vb", "verify",
)

# Public name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ArityMismatch", "CenterPoint", "ConecutError", "DegenerateCurve",
            "DomainViolation", "InvariantBreach", "NonConvergence", "NotAdapted",
            "NotImmersive", "NotVanishing", "OutsideBlupF", "OutsideChart",
            "ParseError", "SamplingFailure", "SliceCrossing", "UnknownGuardKind",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "Guard", "Jet", "SmoothMapExpr", "compose", "eval_map",
            "finite_diff_jacobian", "from_components", "identity_map", "jet_eval",
            "linear_map",
        ),
        "expr",
    ),
    "Var": "nodes",
    **dict.fromkeys(
        (
            "MapOfPairs", "PairDims", "check_adapted", "check_rank_conditions",
            "normal_derivative", "numeric_rank", "tangential_derivative",
        ),
        "pairs",
    ),
    "parse_expr": "parse",
    "parse_map": "parse",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in SUBMODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        globals()[name] = module
        return module
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
