"""Every module-level import in the package is used, and no module
imports another's private names.

No linter ships with the package, so ``test_no_unused_module_imports``
parses each module of ``src/conecut`` other than ``__init__`` and lists
the names its module-level ``import`` statements bind but its code never
references; ``from .m import a as a`` is an explicit re-export and
counts as used.  ``test_no_private_cross_module_imports``
lists every underscore name a module of ``src/conecut`` imports from a
conecut module, and every underscore attribute it reaches through a
name imported from one (``rg.MultiPoly._trusted``): a helper shared
across modules is public.
``test_no_module_imports_random`` lists every import of the standard
``random`` module, so every suite draws from a generator seeded by its
``seed``: ``conecut.pcg64``, which ``test_draws_module_never_names_numpy``
keeps free of numpy, and, in the ring suite alone, numpy's
``default_rng``, as ``test_only_the_ring_suite_draws_from_numpy_random``
checks.  ``test_no_module_imports_dataclasses`` does the
same for ``dataclasses``, whose decorator compiles every generated
method at import (records subclass ``conecut.record.Record`` instead),
and ``test_cli_import_leaves_dataclasses_unloaded`` checks that no
dependency loads it on the CLI's cold start either.
``test_no_second_tree_walk`` keeps ``conecut.nodes.walk`` the only
caller of ``nodes.children`` and keeps ``nodes``, ``expr``, ``parse``
and ``ring`` free of functions that call themselves, so no second,
recursive tree walk comes back.
``test_suites_take_no_numpy_reductions`` keeps ``np.max``, ``np.min``
and ``np.abs`` (and their aliases) out of the suite modules, whose
per-sample residuals go through ``expr.max_abs_diff`` on Python floats.
``test_no_module_imports_numpy_at_module_level`` keeps numpy's
import behind ``conecut.lazy_numpy``, which loads it by name on first
use.  The subprocess tests after it check that importing the CLI and
running its exact subcommands, ``check-map`` and the models suite load
no part of numpy, that the float suites load no ``numpy.random``,
that each subcommand executes only the modules it uses, that the
package ``__getattr__`` hands out only modules whose code has run, and
that ``import conecut.cli`` still registers every module the
benchmark's tracer patches.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import conecut

PACKAGE = Path(conecut.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports and never loaded, in source
    order.  An import that renames a name to itself (``from .m import a
    as a``) is an explicit re-export, as mypy and pyright read it, and
    counts as used."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        bound += [(name, node.lineno) for a, name in names if a.asname != a.name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound if name not in used]


def test_unused_imports_finds_a_dead_import():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom .x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["line 2: os", "line 2: system", "line 3: c"]


def test_unused_imports_keeps_only_explicit_reexports():
    source = "import os as os, os.path as path\nfrom .x import a as a, b as c, d\nimport e.f as e\n"
    assert unused_imports(source) == ["line 1: path", "line 2: c", "line 2: d", "line 3: e"]


def test_no_unused_module_imports():
    found = {
        path.stem: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list:
    """Underscore names imported from a conecut module, and underscore
    attributes reached through a name that an import from conecut binds
    (``rg.MultiPoly._trusted``), anywhere in the source (function-level
    imports included), by line.  Dunder names are not private."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or "conecut" for a in node.names if a.name.split(".")[0] == "conecut"}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "conecut"):
            origin = node.module or ""
            found += [(node.lineno, 0, f"{origin}.{a.name}") for a in node.names if _is_private(a.name)]
            bound |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {name}" for line, _, name in sorted(found)]


def test_private_imports_finds_an_underscore_name():
    source = "from .blowup import Body, _round\nfrom conecut.expr import _ev\nfrom numpy import _x\n"
    assert private_imports(source) == ["line 1: blowup._round", "line 2: conecut.expr._ev"]


def test_private_imports_finds_an_underscore_attribute_of_an_imported_name():
    source = (
        "from . import ring as rg\nfrom .ring import MultiPoly\nimport conecut.expr, numpy.linalg as la\n"
        "def f(x):\n    return rg.MultiPoly._trusted(1, 2, {}, 1), MultiPoly._order, conecut.expr._ev\n"
        "def g(x):\n    return la._umath, x._y, rg.__name__, rg.MultiPoly.const\n"
    )
    assert private_imports(source) == [
        "line 5: rg.MultiPoly._trusted", "line 5: MultiPoly._order", "line 5: conecut.expr._ev"
    ]


def test_no_private_cross_module_imports():
    found = {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert found == {}


def _imports_of(module: str, node) -> list:
    """The imports of the top-level ``module`` that the AST ``node`` makes."""
    if isinstance(node, ast.Import):
        return [f"line {node.lineno}: {a.name}" for a in node.names if a.name.split(".")[0] == module]
    if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == module:
        return [f"line {node.lineno}: {node.module}"]
    return []


def module_imports(module: str, source: str) -> list:
    """Imports of the top-level ``module``, anywhere in the source."""
    return [line for node in ast.walk(ast.parse(source)) for line in _imports_of(module, node)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_level_imports(module: str, source: str) -> list:
    """Imports of the top-level ``module`` that run when the source is
    imported: all but those inside a function body."""
    imports, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        todo += [n for n in ast.iter_child_nodes(node) if not isinstance(n, _FUNCTIONS)]
    return [line for node in sorted(imports, key=lambda n: n.lineno) for line in _imports_of(module, node)]


def test_random_imports_finds_the_standard_module():
    source = (
        "import os, random as r\nimport numpy.random\nfrom .random import x\n"
        "def f():\n    from random import randint\n    import random.foo\n"
    )
    assert module_imports("random", source) == ["line 1: random", "line 5: random", "line 6: random.foo"]


def _package_imports(module: str) -> dict:
    return {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := module_imports(module, path.read_text()))
    }


def test_no_module_imports_random():
    assert _package_imports("random") == {}


def test_no_module_imports_dataclasses():
    source = "from dataclasses import dataclass, field\nimport dataclasses as dc\nfrom .dataclasses import x\n"
    assert module_imports("dataclasses", source) == ["line 1: dataclasses", "line 2: dataclasses"]
    assert _package_imports("dataclasses") == {}


# The modules whose sample loops compute residuals; none calls a numpy
# reduction or abs on a short vector.
SUITE_MODULES = ("verify", "groupoid", "vb", "euler")
NUMPY_REDUCTIONS = {"max", "amax", "min", "amin", "abs", "absolute", "fabs"}


def numpy_reductions(source: str) -> list:
    """Every ``np.max``, ``np.min`` and ``np.abs`` (or an alias of one)
    that the source names, by line."""
    found = [
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in NUMPY_REDUCTIONS
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    ]
    return [f"line {line}: np.{name}" for line, _, name in sorted(found)]


def test_numpy_reductions_finds_max_min_and_abs():
    source = "x = np.max(np.abs(a - b))\ny = float(np.min(v)) + np.amax(v)\nz = abs(a).max() + max(v)\n"
    assert numpy_reductions(source) == ["line 1: np.max", "line 1: np.abs", "line 2: np.min", "line 2: np.amax"]


def test_suites_take_no_numpy_reductions():
    found = {
        module: names
        for module in SUITE_MODULES
        if (names := numpy_reductions((PACKAGE / f"{module}.py").read_text()))
    }
    assert found == {}


# The modules that read expression trees; none of their functions recurses.
TREE_MODULES = ("nodes", "expr", "parse", "ring")


def _called_name(call: ast.Call):
    """The name a call is made by: ``f(...)``, ``x.f(...)``; None otherwise."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def tree_walk_violations(source: str, module: str) -> list:
    """Calls of ``children`` outside ``walk`` of ``nodes``, and, in the
    tree modules, calls a function makes of itself, by name or through
    ``self`` or ``cls``, in source order."""
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    walks = [f for f in tree.body if module == "nodes" and isinstance(f, _FUNCTIONS) and f.name == "walk"]
    allowed = {id(n) for f in walks for n in ast.walk(f)}
    found = [
        (n.lineno, "children outside walk")
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and _called_name(n) == "children" and id(n) not in allowed
    ]
    for f in functions if module in TREE_MODULES else ():
        for n in ast.walk(f):
            if not isinstance(n, ast.Call) or _called_name(n) != f.name:
                continue
            if isinstance(n.func, ast.Name) or getattr(n.func.value, "id", None) in ("self", "cls"):
                found.append((n.lineno, f"{f.name} calls itself"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_tree_walk_violations_finds_a_second_walk_and_self_calls():
    source = (
        "def walk(root):\n    return children(root)\n"
        "def depth(e):\n    return 1 + max(depth(a) for a in nodes.children(e))\n"
        "class P:\n    def atom(self):\n        return self.atom() + other.atom()\n"
        "    def expr(self):\n        return self.atom()\n"
    )
    assert tree_walk_violations(source, "nodes") == [
        "line 4: children outside walk", "line 4: depth calls itself", "line 7: atom calls itself"
    ]
    assert tree_walk_violations(source, "verify") == [
        "line 2: children outside walk", "line 4: children outside walk"
    ]


def test_no_second_tree_walk():
    found = {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := tree_walk_violations(path.read_text(), path.stem))
    }
    assert found == {}


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; its stdout."""
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return run.stdout


def test_cli_import_leaves_dataclasses_unloaded():
    code = "import sys, conecut.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dataclasses'))"
    assert _run_python(code).strip() == "[]"


def test_no_module_imports_numpy_at_module_level():
    source = (
        "import numpy as np\nfrom numpy.linalg import svd\nfrom .numpy import x\n"
        "if x:\n    import numpy.random\nclass A:\n    import numpy\n"
        "def f():\n    import numpy\n"
    )
    assert module_level_imports("numpy", source) == [
        "line 1: numpy", "line 2: numpy.linalg", "line 5: numpy.random", "line 7: numpy"
    ]
    found = {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := module_level_imports("numpy", path.read_text()))
    }
    assert found == {}


def test_cli_import_and_exact_subcommands_leave_numpy_unloaded():
    """``sys.modules["numpy"]`` holds the lazy module of ``lazy_numpy``
    from the package import on; numpy is loaded once its code has run,
    which makes the module a plain one and imports numpy's submodules."""
    check_map = ["check-map", "--map", "y1, 0.5*x1*exp(y1), 3*x1", "--source-dims", "2,1", "--target-dims", "3,1"]
    code = (
        "import contextlib, io, sys, conecut.cli\n"
        "def loaded():\n"
        "    lazy = type(sys.modules['numpy']).__name__ == '_LazyModule'\n"
        "    return not lazy or any(m.startswith('numpy.') for m in sys.modules)\n"
        "print(loaded())\n"
        "for argv in (['resolve-curve', '--poly', 'y^2 - 2*x^2 + x^3'], ['dnc-ring-demo'],\n"
        "             ['check-map', '--map', 'y1, x1', '--source-dims', '2,1', '--samples', '8'],\n"
        f"             {check_map!r}, {check_map + ['--format', 'csv']!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = conecut.cli.main(argv)\n"
        "    print(argv[0], code, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    conecut.cli.main(['verify', '--suite', 'models', '--samples', '4'])\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    conecut.cli.main(['verify', '--suite', 'sphere', '--samples', '4'])\n"
        "print(loaded())\n"
    )
    assert _run_python(code).splitlines() == [
        "False",
        "resolve-curve 0 False",
        "dnc-ring-demo 0 False",
        "check-map 0 False",
        "check-map 0 False",
        "check-map 0 False",
        "False",  # the models suite draws from conecut.pcg64 and computes on floats
        "True",  # the sphere suite normalises with numpy.linalg.norm
    ]


def test_float_suites_and_the_dnc_sweep_leave_numpy_random_unloaded():
    """The float suites and the kernels they seed draw from
    ``conecut.pcg64``; only the ring suite draws from numpy's
    ``default_rng``."""
    code = (
        "import sys\n"
        "from conecut import Var, dnc, from_components, verify\n"
        "from conecut.pairs import MapOfPairs, PairDims\n"
        "for name in ('models', 'atlas', 'sphere', 'groupoid', 'dnc', 'normal_derivative', 'vb', 'euler'):\n"
        "    assert verify.SUITES[name](samples=20, seed=1).ok, name\n"
        "y, x = Var(0), Var(1)\n"
        "h = MapOfPairs(from_components(2, (y + x**2, y * x + x**3)), PairDims(2, 1), PairDims(2, 1))\n"
        "m = dnc.DncMap(h)\n"
        "for k in range(1, 13):\n"
        "    m(dnc.DncPoint.of(0.3, 0.7, 10.0 ** -k))\n"
        "print('numpy.random' in sys.modules)\n"
        "verify.SUITES['ring'](samples=20, seed=1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _run_python(code).splitlines() == ["False", "True"]


def rng_sites(source: str) -> list:
    """Each call of ``default_rng`` and each import or attribute access of
    ``numpy.random`` in the source, with the top-level function or class
    it sits in ("<module>" outside one), in source order."""
    tree = ast.parse(source)
    owners = {}
    for top in tree.body:
        for node in ast.walk(top):
            owners[id(node)] = top.name if isinstance(top, (*_FUNCTIONS, ast.ClassDef)) else "<module>"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "default_rng":
            what = "default_rng"
        elif isinstance(node, ast.Attribute) and node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy"):
            what = "numpy.random"
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names):
            what = "import numpy.random"
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.random")
            or node.module == "numpy" and any(a.name == "random" for a in node.names)
        ):
            what = "import numpy.random"
        else:
            continue
        found.append((node.lineno, node.col_offset, f"{owners.get(id(node), '<module>')}: {what}"))
    return [what for *_, what in sorted(found)]


def test_rng_sites_finds_calls_attributes_and_imports():
    source = (
        "import numpy.random as npr\nfrom numpy import random\nfrom numpy.random import default_rng\n"
        "def f(seed):\n    return np.random.default_rng(seed), default_rng(seed)\n"
        "class G:\n    rng = numpy.random.Generator\n"
        "def g(rng):\n    return rng.random(), random.random()\n"
    )
    assert rng_sites(source) == [
        "<module>: import numpy.random", "<module>: import numpy.random", "<module>: import numpy.random",
        "f: default_rng", "f: numpy.random", "f: default_rng", "G: numpy.random",
    ]


def test_only_the_ring_suite_draws_from_numpy_random():
    found = {
        path.stem: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := rng_sites(path.read_text()))
    }
    assert found == {"verify": ["suite_ring: default_rng", "suite_ring: numpy.random"] * 2}


def numpy_references(source: str) -> list:
    """Names, attributes and imports of ``np``, ``numpy`` or
    ``lazy_numpy`` anywhere in the source, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None) or ""]
        found += [(node.lineno, name) for name in names if {"np", "numpy", "lazy_numpy"} & set(name.split("."))]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_numpy_references_finds_every_kind():
    source = "import numpy.random\nfrom .lazy_numpy import np as a\ndef f(x):\n    return x.np + np\n"
    assert numpy_references(source) == [
        "line 1: numpy.random", "line 2: lazy_numpy", "line 2: np", "line 4: np", "line 4: np"
    ]


def test_draws_module_never_names_numpy():
    assert numpy_references((PACKAGE / "pcg64.py").read_text()) == []


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_package_lists_every_module():
    assert sorted(conecut.SUBMODULES) == MODULES


def _executed_after(argv) -> list:
    """The conecut modules whose code has run in a fresh interpreter
    after ``import conecut.cli`` and, given an argv, ``main(argv)``."""
    code = (
        "import contextlib, io, sys, conecut.cli\n"
        f"names = {MODULES!r}\n"
        "assert all('conecut.' + n in sys.modules for n in names)\n"
        f"argv = {argv!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert conecut.cli.main(argv) == 0\n"
        "print(' '.join(n for n in names if type(sys.modules['conecut.' + n]).__name__ != '_LazyModule'))\n"
    )
    return _run_python(code).split()


def test_subcommands_execute_only_the_suite_modules_they_use():
    """``conecut.cli`` registers every module of the package through
    ``lazy_import``: each is in ``sys.modules``, but its code runs only
    when a subcommand first reads one of its attributes.  The exact
    subcommands run neither the float tapes nor the chart kernels."""
    exact = ["cli", "errors", "lazy_numpy", "nodes", "parse", "record", "ring"]
    assert _executed_after(None) == ["cli", "errors", "lazy_numpy"]
    assert _executed_after(["check-map", "--map", "y1, x1", "--source-dims", "2,1", "--samples", "8"]) == [
        "cli", "errors", "expr", "lazy_numpy", "nodes", "pairs", "parse", "pcg64", "record"
    ]
    assert _executed_after(["dnc-ring-demo"]) == exact
    assert _executed_after(["resolve-curve", "--poly", "y^2 - x^3"]) == exact
    assert _executed_after(["verify", "--suite", "models", "--samples", "4"]) == [
        m for m in MODULES if m != "parse"
    ]


def test_package_resolves_names_and_runs_lazily_registered_modules():
    """The package ``__getattr__`` runs a module that ``conecut.cli``
    registered lazily before it hands it out, and binds it from then on;
    ``verify``'s own imports therefore run every suite module with it."""
    code = (
        "import sys, conecut\n"
        "print(sorted(m for m in sys.modules if m.startswith('conecut')))\n"
        "import conecut.cli, conecut.dnc, conecut.expr\n"
        "print(conecut.dnc.DncMap.__name__, conecut.expr.eval_map.__name__, conecut.ring.MultiPoly.__name__)\n"
        "print(conecut.eval_map is conecut.expr.eval_map, conecut.Var is conecut.nodes.Var)\n"
        "from conecut import verify\n"
        "print(sorted(type(m).__name__ for m in (verify.bl, verify.dn, verify.eu, verify.gr, verify.rg, verify.vb)))\n"
        "print(hasattr(conecut, 'no_such_name'), hasattr(conecut, 'no.such.module'))\n"
        "print([n for n in conecut.__all__ if getattr(conecut, n) is None])\n"
    )
    assert _run_python(code).splitlines() == [
        "['conecut']",
        "DncMap eval_map MultiPoly",
        "True True",
        "['module', 'module', 'module', 'module', 'module', 'module']",
        "False False",
        "[]",
    ]


def test_cli_import_loads_every_module_the_tracer_patches():
    code = (
        "import importlib.util, sys, conecut.cli\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "print(sorted({module for module, *_ in spans.TARGETS} - set(sys.modules)))\n"
    )
    assert _run_python(code).strip() == "[]"
