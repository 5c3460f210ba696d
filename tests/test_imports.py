"""Every module-level import in the package is used.

No linter ships with the package, so ``test_no_unused_module_imports``
parses each module of ``src/conecut`` other than ``__init__`` (which
re-exports) and lists the names its module-level ``import`` statements
bind but its code never references.
"""

import ast
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
