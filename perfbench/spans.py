"""Span-recording wrappers around conecut's public functions and methods.

A span wrapper pushes a frame on a stack, calls the original, and on the
way out adds the call's duration minus the time its child spans covered
to the layer's self time; it also counts the (parent, child) edge.  The
program makes millions of such calls in one pass, so spans are folded
into these sums as they close instead of being kept one by one.

Several conecut modules import names directly (``from .expr import
eval_map``), so a wrapper is bound in every loaded conecut module whose
attribute is the original object, and in the ``verify.SUITES`` registry.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

SUITE_NAMES = (
    "models", "atlas", "sphere", "groupoid", "dnc",
    "normal_derivative", "vb", "euler", "ring", "curve",
)

# (module, attribute path, span name, kind).  "span" records calls and
# self time, "count" records calls only, "raises" is a span that also
# counts the OutsideChart rejections it lets through.
TARGETS = (
    ("conecut.expr", "eval_map", "expr.eval_map", "span"),
    ("conecut.expr", "jet_eval", "expr.jet_eval", "span"),
    ("conecut.expr", "Guard.holds", "expr.guard_checks", "count"),
    ("conecut.expr", "compose", "expr.compose", "count"),
    ("conecut.parse", "parse_map", "parse.parse_map", "span"),
    ("conecut.parse", "parse_expr", "parse.parse_expr", "span"),
    ("conecut.pairs", "normal_derivative", "pairs.normal_derivative", "span"),
    ("conecut.pairs", "check_adapted", "pairs.check_adapted", "span"),
    ("conecut.pairs", "check_rank_conditions", "pairs.check_rank_conditions", "span"),
    ("conecut.dnc", "DncMap.__call__", "dnc.DncMap", "span"),
    ("conecut.dnc", "eval_function_class", "dnc.eval_function_class", "span"),
    ("conecut.blowup", "canonicalize", "blowup.canonicalize", "span"),
    ("conecut.blowup", "chart_phi", "blowup.chart_phi", "raises"),
    ("conecut.blowup", "chart_phi_inv", "blowup.chart_phi_inv", "raises"),
    ("conecut.blowup", "canonical_direction", "blowup.canonical_direction", "span"),
    ("conecut.blowup", "canonical_polar", "blowup.canonical_polar", "span"),
    ("conecut.blowup", "strict_transform_curve", "blowup.strict_transform_curve", "span"),
    ("conecut.vb", "vb_chart", "vb.vb_chart", "span"),
    ("conecut.groupoid", "GroupoidSpec.m", "groupoid.GroupoidSpec.m", "span"),
    ("conecut.groupoid", "check_axioms", "groupoid.check_axioms", "span"),
    ("conecut.euler", "VectorField.__call__", "euler.VectorField", "count"),
    ("conecut.euler", "tubular_from_euler", "euler.tubular_from_euler", "span"),
    ("conecut.ring", "MultiPoly.__init__", "ring.MultiPoly.init", "count"),
    ("conecut.ring", "MultiPoly.__mul__", "ring.MultiPoly.mul", "span"),
    ("conecut.ring", "MultiPoly.evaluate", "ring.MultiPoly.evaluate", "span"),
    ("conecut.ring", "LaurentElement.__mul__", "ring.LaurentElement.mul", "span"),
    ("conecut.ring", "char_xs", "ring.char_xs", "span"),
    ("conecut.ring", "char_yxi", "ring.char_yxi", "span"),
    ("conecut.cli", "main", "cli.main", "span"),
    ("conecut.cli", "to_json", "cli.to_json", "span"),
) + tuple(("conecut.verify", f"suite_{s}", f"verify.{s}", "span") for s in SUITE_NAMES)

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
# Counts are per pass; the cli.*_import_s, trace.* entries are filled by
# the runner rather than by the wrappers.  No workload runs the sphere
# suite, so its self time is left out.
PER_LAYER = (
    ("expr.eval_map.calls", "count"), ("expr.eval_map.self_s", "s"),
    ("expr.jet_eval.calls", "count"), ("expr.jet_eval.self_s", "s"),
    ("expr.guard_checks", "count"), ("expr.compose.calls", "count"),
    ("parse.parse_map.calls", "count"), ("parse.parse_map.self_s", "s"),
    ("parse.parse_expr.calls", "count"), ("parse.parse_expr.self_s", "s"),
    ("pairs.normal_derivative.calls", "count"), ("pairs.normal_derivative.self_s", "s"),
    ("pairs.check_adapted.calls", "count"), ("pairs.check_adapted.self_s", "s"),
    ("pairs.check_rank_conditions.self_s", "s"),
    ("dnc.DncMap.calls", "count"), ("dnc.DncMap.self_s", "s"),
    ("dnc.eval_function_class.calls", "count"), ("dnc.eval_function_class.self_s", "s"),
    ("blowup.canonicalize.calls", "count"), ("blowup.canonicalize.self_s", "s"),
    ("blowup.chart_phi.calls", "count"), ("blowup.chart_phi.self_s", "s"),
    ("blowup.chart_phi.raised", "count"),
    ("blowup.chart_phi_inv.calls", "count"), ("blowup.chart_phi_inv.self_s", "s"),
    ("blowup.chart_phi_inv.raised", "count"),
    ("blowup.canonical_direction.calls", "count"), ("blowup.canonical_direction.self_s", "s"),
    ("blowup.canonical_polar.calls", "count"), ("blowup.canonical_polar.self_s", "s"),
    ("blowup.strict_transform_curve.calls", "count"), ("blowup.strict_transform_curve.self_s", "s"),
    ("vb.vb_chart.calls", "count"), ("vb.vb_chart.self_s", "s"),
    ("groupoid.GroupoidSpec.m.calls", "count"), ("groupoid.GroupoidSpec.m.self_s", "s"),
    ("groupoid.check_axioms.self_s", "s"),
    ("euler.VectorField.calls", "count"),
    ("euler.tubular_from_euler.calls", "count"), ("euler.tubular_from_euler.self_s", "s"),
    ("ring.MultiPoly.init.calls", "count"),
    ("ring.MultiPoly.mul.calls", "count"), ("ring.MultiPoly.mul.self_s", "s"),
    ("ring.MultiPoly.evaluate.calls", "count"), ("ring.MultiPoly.evaluate.self_s", "s"),
    ("ring.LaurentElement.mul.calls", "count"), ("ring.LaurentElement.mul.self_s", "s"),
    ("ring.char_xs.calls", "count"), ("ring.char_xs.self_s", "s"),
    ("ring.char_yxi.calls", "count"), ("ring.char_yxi.self_s", "s"),
) + tuple((f"verify.{s}.self_s", "s") for s in SUITE_NAMES if s != "sphere") + (
    ("cli.import_s", "s"), ("cli.numpy_import_s", "s"),
    ("cli.main.self_s", "s"), ("cli.to_json.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)


class Tracer:
    """Per-layer call counts, self times and rejections, plus call edges."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.raised = Counter()
        self.edges = Counter()
        self._stack = []
        self._patches = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, raises=()):
        stack, calls, self_s, raised, edges = (
            self._stack, self.calls, self.self_s, self.raised, self.edges
        )

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            if stack:
                edges[(stack[-1][0], name)] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except raises:
                raised[name] += 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        """Bind a wrapper wherever conecut holds one of the TARGETS."""
        from conecut.errors import OutsideChart

        import conecut.cli  # noqa: F401  (loads every module that imports names)
        import conecut.vb  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "conecut" or n.startswith("conecut.")]
        registry = sys.modules["conecut.verify"].SUITES
        for module_name, path, name, kind in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if kind == "count":
                wrapper = self._count(name, original)
            else:
                wrapper = self._span(name, original, OutsideChart if kind == "raises" else ())
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
            for key, value in list(registry.items()):
                if value is original:
                    self._patches.append((registry, key, original))
                    registry[key] = wrapper

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "edges": {f"{a} > {b}": c for (a, b), c in self.edges.items()},
        }

    def merge(self, snap: dict):
        self.calls.update(snap["calls"])
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        self.raised.update(snap["raised"])
        for k, c in snap["edges"].items():
            a, b = k.split(" > ")
            self.edges[(a, b)] += c

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass values of every wrapper-fed PER_LAYER metric."""
        out = {}
        for metric, unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                value = self.calls[base] / passes
            elif field == "self_s":
                value = self.self_s[base] / passes
            elif field == "raised":
                value = self.raised[base] / passes
            elif metric == "expr.guard_checks":
                value = self.calls[metric] / passes
            else:
                continue
            out[metric] = (int(value) if unit == "count" and value.is_integer() else value, unit)
        return out
