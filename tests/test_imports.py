"""Every module-level import in the package is used, and no module
imports another's private names.

No linter ships with the package, so ``test_no_unused_module_imports``
parses each module of ``src/conecut`` other than ``__init__`` (which
re-exports) and lists the names its module-level ``import`` statements
bind but its code never references.  ``test_no_private_cross_module_imports``
lists every underscore name a module of ``src/conecut`` imports from a
conecut module: a helper shared across modules is public.
``test_no_module_imports_random`` lists every import of the standard
``random`` module, so every suite draws from a numpy ``Generator``
seeded by its ``seed`` (``pairs`` draws from ``conecut.pcg64``, which
``test_draws_module_never_names_numpy`` keeps free of numpy).  ``test_no_module_imports_dataclasses`` does the
same for ``dataclasses``, whose decorator compiles every generated
method at import (records subclass ``conecut.record.Record`` instead),
and ``test_cli_import_leaves_dataclasses_unloaded`` checks that no
dependency loads it on the CLI's cold start either.
``test_no_module_imports_numpy_at_module_level`` keeps numpy's
import behind ``conecut.lazy_numpy``, which loads it by name on first
use.  The subprocess tests after it check that importing the CLI and
running its exact subcommands and ``check-map`` load no part of numpy,
that each subcommand executes only the suite modules it uses, and that
``import conecut.cli`` still registers every module the benchmark's
tracer patches.
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
    """Names bound by module-level imports and never loaded, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound if name not in used]


def test_unused_imports_finds_a_dead_import():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom .x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["line 2: os", "line 2: system", "line 3: c"]


def test_no_unused_module_imports():
    found = {
        path.stem: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def private_imports(source: str) -> list:
    """Underscore names imported from a conecut module, anywhere in the
    source (function-level imports included)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = node.module or ""
        if node.level or origin.split(".")[0] == "conecut":
            found += [f"line {node.lineno}: {origin}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_private_imports_finds_an_underscore_name():
    source = "from .blowup import Body, _round\nfrom conecut.expr import _ev\nfrom numpy import _x\n"
    assert private_imports(source) == ["line 1: blowup._round", "line 2: conecut.expr._ev"]


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
    )
    assert _run_python(code).splitlines() == [
        "False",
        "resolve-curve 0 False",
        "dnc-ring-demo 0 False",
        "check-map 0 False",
        "check-map 0 False",
        "check-map 0 False",
        "True",  # a float suite does load it
    ]


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


SUITE_MODULES = ("verify", "blowup", "dnc", "euler", "groupoid", "vb")


def test_subcommands_execute_only_the_suite_modules_they_use():
    """``conecut.cli`` binds the suite modules through ``lazy_import``:
    each is in ``sys.modules``, but its code runs only when a subcommand
    first reads one of its attributes, and ``verify`` runs all six."""
    code = (
        "import contextlib, io, sys, conecut.cli\n"
        f"names = {SUITE_MODULES!r}\n"
        "print(all('conecut.' + n in sys.modules for n in names))\n"
        "def executed():\n"
        "    return [n for n in names if type(sys.modules['conecut.' + n]).__name__ != '_LazyModule']\n"
        "print('import', executed())\n"
        "for argv in (['check-map', '--map', 'y1, x1', '--source-dims', '2,1', '--samples', '8'],\n"
        "             ['dnc-ring-demo'], ['resolve-curve', '--poly', 'y^2 - x^3'],\n"
        "             ['verify', '--suite', 'models', '--samples', '4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = conecut.cli.main(argv)\n"
        "    print(argv[0], code, executed())\n"
    )
    assert _run_python(code).splitlines() == [
        "True",
        "import []",
        "check-map 0 []",
        "dnc-ring-demo 0 []",
        "resolve-curve 0 ['blowup']",
        "verify 0 ['verify', 'blowup', 'dnc', 'euler', 'groupoid', 'vb']",
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
