"""numpy, and the suite modules, loaded on first use.

Every module of the package takes ``np`` from here instead of running
``import numpy as np``.  Until some code reads an attribute of ``np``,
it is a module object whose code has not run, so importing the package
(and running the exact subcommands of the CLI, which use no float
kernel) does not pay numpy's import.  ``conecut.cli`` binds the suite
modules (``verify``, ``blowup``, ``dnc``, ``euler``, ``groupoid`` and
``vb``) through ``lazy_import`` in the same way, so a subcommand that
runs none of their code does not compile them.  This is the
``importlib.util.LazyLoader`` recipe of the standard library's
documentation; a module that is already imported is used as it is.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, whose code runs at the first attribute access.

    The module is registered in ``sys.modules``.  A submodule is not
    bound as an attribute of its package, so ``from pkg import name``
    runs its code, as an import does, while ``pkg.name`` stays unbound.
    Bound, the suite modules that ``verify`` imports would stay unrun
    until a suite used them, and a run of several suites would compile
    them after numpy's import, at a higher peak memory."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
