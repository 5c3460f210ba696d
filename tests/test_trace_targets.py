"""Every span the benchmark's tracer names is bound to a live conecut function.

``perfbench/spans.py`` finds its targets by module and attribute name, so
renaming one of them would silently drop its span from a traced run.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


def test_every_trace_target_resolves_and_is_wrapped():
    spans = _load_spans()
    tracer = spans.Tracer()
    originals = {}
    tracer.install()
    try:
        patched = {(id(holder), key) for holder, key, _ in tracer._patches}
        for module_name, path, name, _ in spans.TARGETS:
            owner, attr = _resolve(module_name, path)
            assert (id(owner), attr) in patched, f"{name}: {module_name}.{path} was not wrapped"
            originals[name] = next(
                orig for holder, key, orig in tracer._patches if holder is owner and key == attr
            )
    finally:
        tracer.uninstall()
    for module_name, path, name, _ in spans.TARGETS:
        owner, attr = _resolve(module_name, path)
        assert getattr(owner, attr) is originals[name], f"{name} was not restored"
