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
seeded by its ``seed``.  ``test_no_module_imports_dataclasses`` does the
same for ``dataclasses``, whose decorator compiles every generated
method at import (records subclass ``conecut.record.Record`` instead),
and ``test_cli_import_leaves_dataclasses_unloaded`` checks that no
dependency loads it on the CLI's cold start either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import conecut

PACKAGE = Path(conecut.__file__).parent


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


def module_imports(module: str, source: str) -> list:
    """Imports of the top-level ``module``, anywhere in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == module:
            found.append(f"line {node.lineno}: {node.module}")
    return found


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


def test_cli_import_leaves_dataclasses_unloaded():
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, conecut.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dataclasses'))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert run.stdout.strip() == "[]"
