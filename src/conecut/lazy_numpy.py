"""numpy, loaded on first use.

Every module of the package takes ``np`` from here instead of running
``import numpy as np``.  Until some code reads an attribute of ``np``,
it is a module object whose code has not run, so importing the package
(and running the exact subcommands of the CLI, which use no float
kernel) does not pay numpy's import.  This is the
``importlib.util.LazyLoader`` recipe of the standard library's
documentation; if numpy is already imported, it is used as it is.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    """The module ``name``, whose code runs at the first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
