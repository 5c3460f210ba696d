"""The three workloads: seeded inputs, one timed pass, and its checks.

A pass runs the same operations on the same inputs every time, so the
operations attempted and failed per pass do not depend on the seed or
on how many passes a run makes.  Only the operations are timed; the
checks in ``checks`` run after them.  An output that fails its check
counts as failed when one of the two named faults explains it, and as
a problem, which makes the run incorrect, otherwise.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
from refclock import SPAWN_REFERENCE_S, OpClock, spawn_reference

# The sphere suite is left out of every workload: it fails on some seeds
# (see CHANGES.md), and a failure count that depends on the seed cannot
# be compared between runs.
FLOAT_SUITES = ("models", "atlas", "groupoid", "dnc", "normal_derivative", "vb", "euler")
EXACT_SUITES = ("ring", "curve")
CLI_SUITES = ("atlas", "curve", "dnc", "euler", "groupoid", "models", "normal_derivative", "ring", "vb")

# Near-slice sweep: fixed point, t = +-10^-k for k = 0..323.
SWEEP_Y, SWEEP_XI = 0.3, 0.7
SWEEP_T = tuple(sign * 10.0**-k for k in range(324) for sign in (1.0, -1.0))
SWEEP_LAMBDAS = (0.5, 1.5, -2.0)

EXACT_CURVES = 40
EXACT_PRODUCTS = 400
# (y + x)^2 (y - 3x) + x^4: its repeated tangent direction -1 is lost.
FAULT_CURVE = ((-1, -1, 3), ((1, 4, 0),))
LAURENT_P, LAURENT_Q = 1, 2

CLI_DEMOS = (("groupoid-demo", "groupoid"), ("dnc-demo", "dnc"), ("euler-demo", "euler"))
CLI_REDUCED_SAMPLES = 40
CLI_CHECK_MAPS = 13
CLI_CURVES = 11
CLI_RING_DEMOS = 11
CLI_TIMEOUT_S = 150
# A cold-start reference (see refclock) is taken before every second
# invocation and after the last.
CLI_REFERENCE_EVERY = 2


@dataclass
class PassResult:
    """One pass: its summed wall, CPU and rescaled CPU seconds (see
    refclock), rescaled seconds per operation name, and outcomes."""

    wall: float
    cpu: float
    scaled: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    each: list = field(default_factory=list)

    @classmethod
    def of(cls, clock: OpClock, factor: float | None = None) -> "PassResult":
        totals = clock.totals(factor)
        return cls(totals["wall"], totals["cpu"], totals["scaled"], timings=totals["by_name"], each=totals["each"])

    def record(self, issues, explained: bool):
        """One operation's check outcome."""
        self.attempted += 1
        if issues:
            if explained:
                self.failed += 1
            else:
                self.problems.extend(issues)


# -- input generation ----------------------------------------------------


def gen_curve(rnd: random.Random):
    """A tangent cone prod(y - r x) of degree 2..4 plus 1..3 terms of
    higher degree.  Nonzero directions are distinct: a repeated nonzero
    direction hits the root-finding fault on some values and not on
    others, so it appears only in the fixed FAULT_CURVE."""
    m = rnd.randint(2, 4)
    roots: list[int] = []
    while len(roots) < m:
        r = rnd.randint(-4, 4)
        if r == 0 or r not in roots:
            roots.append(r)
    extra = []
    for _ in range(rnd.randint(1, 3)):
        degree = rnd.randint(m + 1, m + 2)
        a = rnd.randint(0, degree)
        extra.append((rnd.choice((-3, -2, -1, 1, 2, 3)), a, degree - a))
    return tuple(roots), tuple(extra)


def curve_terms(roots, extra) -> dict:
    """Exponent (a, b) of x^a y^b -> integer coefficient."""
    terms = {(0, 0): 1}
    for r in roots:
        out: dict = {}
        for (a, b), c in terms.items():
            out[(a, b + 1)] = out.get((a, b + 1), 0) + c
            out[(a + 1, b)] = out.get((a + 1, b), 0) - r * c
        terms = out
    for c, a, b in extra:
        terms[(a, b)] = terms.get((a, b), 0) + c
    return {e: c for e, c in terms.items() if c}


def curve_text(roots, extra) -> str:
    factors = []
    for r in roots:
        factors.append("y" if r == 0 else f"(y {'-' if r > 0 else '+'} {abs(r)}*x)")
    text = "*".join(factors)
    for c, a, b in extra:
        text += f" {'-' if c < 0 else '+'} {abs(c)}*x^{a}*y^{b}"
    return text


def gen_laurent(rnd: random.Random, p: int = LAURENT_P, q: int = LAURENT_Q):
    """Terms (k, exponents, coefficient) of a valid Laurent element: a
    coefficient of t^-k with k >= 1 has x-block degree >= k."""
    terms = []
    for _ in range(rnd.randint(1, 3)):
        k = rnd.randint(-1, 2)
        y_exps = [rnd.randint(0, 1) for _ in range(p)]
        x_exps = [0] * q
        for _ in range(max(k, 0) + rnd.randint(0, 1)):
            x_exps[rnd.randrange(q)] += 1
        coeff = Fraction(rnd.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rnd.randint(1, 3))
        terms.append((k, tuple(y_exps + x_exps), coeff))
    return terms


def laurent_element(terms, p: int = LAURENT_P, q: int = LAURENT_Q):
    from conecut.ring import LaurentElement, MultiPoly

    by_key: dict = {}
    for k, exps, c in terms:
        polys = by_key.setdefault(k, {})
        polys[exps] = polys.get(exps, Fraction(0)) + c
    return LaurentElement(p, q, {k: MultiPoly(p, q, t) for k, t in by_key.items()})


def laurent_text(terms, p: int = LAURENT_P, q: int = LAURENT_Q) -> str:
    names = [f"y{i + 1}" for i in range(p)] + [f"x{i + 1}" for i in range(q)]
    parts = []
    for k, exps, c in terms:
        factors = [f"({c.numerator}/{c.denominator})"] + [
            f"{names[i]}^{e}" for i, e in enumerate(exps) if e
        ]
        poly = "(" + "*".join(factors) + ")"
        parts.append(poly if k == 0 else f"{poly}*t^{-k}")
    return " + ".join(parts)


def gen_check_map(rnd: random.Random):
    """A map of pairs whose normal block is (A x) e^{y1} plus terms of
    degree 2 in x; returns (argv, A)."""
    p, q, q_out = rnd.randint(1, 2), rnd.randint(1, 3), rnd.randint(1, 2)
    matrix = [[rnd.randint(-2, 2) for _ in range(q)] for _ in range(q_out)]
    comps = [f"y{i + 1}" for i in range(p)]
    for row in matrix:
        linear = _signed_sum(f"{a}*x{j + 1}" for j, a in enumerate(row) if a)
        i, j = rnd.randrange(q), rnd.randrange(q)
        square = f"{rnd.choice((-2, -1, 1, 2))}*x{i + 1}*x{j + 1}"
        comps.append(_signed_sum([f"({linear})*exp(y1)", square]) if linear else square)
    argv = [
        "check-map", "--map", ", ".join(comps),
        "--source-dims", f"{p + q},{p}", "--target-dims", f"{p + q_out},{p}",
    ]
    return argv, matrix


def _signed_sum(terms) -> str:
    """Join terms with + and -, e.g. ["2*x1", "-1*x2"] -> "2*x1 - 1*x2"."""
    text = ""
    for term in terms:
        if not text:
            text = term
        elif term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


def sample_point(rnd: random.Random, n: int):
    return [Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(n)]


# -- verify-float --------------------------------------------------------


class VerifyFloat:
    """Seven float suites at their default sample counts, plus the
    near-slice sweep of DncMap and the dnc_f1 quotient."""

    IN_PROCESS = True

    def __init__(self, seed: int, root: Path):
        import conecut.verify  # noqa: F401  (the set-up pays every suite's imports once)
        from conecut import dnc
        from conecut.expr import Exp, Var, from_components
        from conecut.pairs import MapOfPairs, PairDims

        self.seed = seed
        y, x = Var(0), Var(1)
        self.dims = PairDims(2, 1)
        self.h = MapOfPairs(from_components(2, (y + x**2, x * Exp(y))), self.dims, self.dims)
        self.f = from_components(2, (x * Exp(y),))
        self.points = [dnc.DncPoint.of([SWEEP_Y], [SWEEP_XI], t) for t in SWEEP_T]

    def run_pass(self, reference, tracer=None) -> PassResult:
        from conecut import dnc as dn
        from conecut import verify as vf

        results, clock = {}, OpClock(reference)
        with tracer or nullcontext():
            for name in FLOAT_SUITES:
                with clock.op(name):
                    results[name] = vf.SUITES[name](samples=vf.DEFAULT_SUITE_SAMPLES[name], seed=self.seed)
            with clock.op("sweep"):
                dm = dn.DncMap(self.h)
                sweep = []
                for z in self.points:
                    w = dm(z)
                    quotient = dn.eval_function_class("dnc_f1", self.f, self.dims, z, check=False)
                    pairs = [(dm(dn.rx_action(lam, z)), dn.rx_action(lam, w)) for lam in SWEEP_LAMBDAS]
                    sweep.append((z.t, w, quotient, pairs))
        out = PassResult.of(clock)
        for name, r in results.items():
            out.record(checks.check_suite(name, r.ok, r.details), explained=False)
        for t, w, quotient, pairs in sweep:
            explained = checks.near_subnormal(t, SWEEP_XI)
            out.record(checks.check_dnc_point(_triple(w), SWEEP_Y, SWEEP_XI, t), explained)
            out.record(checks.check_quotient(quotient, SWEEP_Y, SWEEP_XI, t), explained)
            for lhs, rhs in pairs:
                out.record(checks.check_equivariance(_triple(lhs), _triple(rhs), t), explained)
        return out


def _triple(z):
    return (float(z.y[0]), float(z.xi[0]), float(z.t))


# -- verify-exact --------------------------------------------------------


class VerifyExact:
    """The ring and curve suites, generated curves through
    strict_transform_curve, and generated Laurent products."""

    IN_PROCESS = True

    def __init__(self, seed: int, root: Path):
        import conecut.blowup  # noqa: F401  (the set-up pays every suite's imports once)
        import conecut.verify  # noqa: F401
        from conecut.ring import MultiPoly

        self.seed = seed
        rnd = random.Random(seed)
        drawn = [gen_curve(rnd) for _ in range(EXACT_CURVES)] + [FAULT_CURVE]
        self.curves = [
            (roots, MultiPoly(0, 2, curve_terms(roots, extra)), (roots, extra) == FAULT_CURVE)
            for roots, extra in drawn
        ]
        self.products = []
        for _ in range(EXACT_PRODUCTS):
            ta, tb = gen_laurent(rnd), gen_laurent(rnd)
            x, s = sample_point(rnd, LAURENT_P + LAURENT_Q), Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 3))
            y, xi = sample_point(rnd, LAURENT_P), sample_point(rnd, LAURENT_Q)
            self.products.append((ta, tb, laurent_element(ta), laurent_element(tb), x, s, y, xi))

    def run_pass(self, reference, tracer=None) -> PassResult:
        from conecut import verify as vf
        from conecut.blowup import strict_transform_curve
        from conecut.ring import char_xs, char_yxi

        results, clock = {}, OpClock(reference)
        with tracer or nullcontext():
            for name in EXACT_SUITES:
                with clock.op(name):
                    results[name] = vf.SUITES[name](samples=vf.DEFAULT_SUITE_SAMPLES[name], seed=self.seed)
            with clock.op("curves"):
                resolved = [strict_transform_curve(g, 1) for _, g, _ in self.curves]
            with clock.op("products"):
                values = []
                for _, _, a, b, x, s, y, xi in self.products:
                    ab, a_plus_b = a * b, a + b
                    values.append(
                        [char_xs(e, x, s) for e in (a, b, ab, a_plus_b)]
                        + [char_yxi(e, y, xi) for e in (a, b, ab, a_plus_b)]
                    )
        out = PassResult.of(clock)
        for name, r in results.items():
            out.record(checks.check_suite(name, r.ok, r.details), explained=False)
        for (roots, _, is_fault), (strict, found) in zip(self.curves, resolved):
            restriction = {e[1]: c for e, c in strict.terms.items() if e[0] == 0}
            out.record(checks.check_curve(found, roots, restriction), explained=is_fault)
        for (ta, tb, *_, x, s, y, xi), got in zip(self.products, values):
            out.record(_check_product(ta, tb, x, s, y, xi, got), explained=False)
        return out


def _check_product(ta, tb, x, s, y, xi, got) -> list[str]:
    p = LAURENT_P
    xa, xb = checks.eval_xs(ta, x, s), checks.eval_xs(tb, x, s)
    ya, yb = checks.eval_yxi(ta, p, y, xi), checks.eval_yxi(tb, p, y, xi)
    problems = []
    for what, want_xs, want_yxi, i in (
        ("a", xa, ya, 0), ("b", xb, yb, 1), ("a*b", xa * xb, ya * yb, 2), ("a+b", xa + xb, ya + yb, 3)
    ):
        problems += checks.check_characters(got[i], got[4 + i], want_xs, want_yxi, what)
    return problems


# -- cli-session ---------------------------------------------------------


@dataclass
class Invocation:
    kind: str
    argv: list
    expected: object = None
    fault: bool = False


class CliSession:
    """Forty invocations of the command-line entry point, one after another.

    Each invocation is timed by this process's children's CPU seconds,
    rescaled by cold-start references (see refclock), so it needs no
    in-process reference.  ``peak_rss_kb`` is the largest peak memory
    of an untraced invocation, as the invocation itself reports it."""

    IN_PROCESS = False

    def __init__(self, seed: int, root: Path):
        import conecut.cli  # noqa: F401  (the set-up pays the package import once)

        self.root = root
        self.seed = seed
        rnd = random.Random(seed)
        common = ["--seed", str(seed)]
        reduced = ["--samples", str(CLI_REDUCED_SAMPLES)] + common
        invs = [Invocation("verify", ["verify"] + [a for s in CLI_SUITES for a in ("--suite", s)] + reduced)]
        invs += [Invocation(suite, [cmd] + reduced) for cmd, suite in CLI_DEMOS]
        for _ in range(CLI_CHECK_MAPS):
            argv, matrix = gen_check_map(rnd)
            invs.append(Invocation("check-map", argv + common, matrix))
        for _ in range(CLI_CURVES):
            roots, extra = gen_curve(rnd)
            invs.append(Invocation("resolve-curve", ["resolve-curve", "--poly", curve_text(roots, extra)], roots))
        invs.append(Invocation("resolve-curve", ["resolve-curve", "--poly", curve_text(*FAULT_CURVE)], FAULT_CURVE[0], fault=True))
        for _ in range(CLI_RING_DEMOS):
            terms = gen_laurent(rnd)
            argv = ["dnc-ring-demo", "--element", laurent_text(terms), "--p", str(LAURENT_P), "--q", str(LAURENT_Q)]
            invs.append(Invocation("dnc-ring-demo", argv + common, terms))
        rnd.shuffle(invs)
        self.invocations = invs
        self.env = child_env(root)
        self.scratch = root / ".perfbench_tmp"
        self.peak_rss_kb = 0

    def run_pass(self, reference=None, tracer=None) -> PassResult:
        outputs, clock, references, no_peak = [], OpClock(), [], []
        launcher = str(Path(__file__).with_name("cli_launcher.py"))
        self.scratch.mkdir(exist_ok=True)
        for i, inv in enumerate(self.invocations):
            if i % CLI_REFERENCE_EVERY == 0:
                references.append(spawn_reference(self.root, self.env))
            peak_file = self.scratch / f"peak-{os.getpid()}-{i}.txt"
            trace_file = self.scratch / f"trace-{os.getpid()}-{i}.json"
            cmd = [sys.executable, launcher, str(peak_file), str(trace_file) if tracer else "-"] + inv.argv
            with clock.op(inv.kind):
                code, stdout, stderr = run_child(cmd, self.root, self.env)
            outputs.append((inv, code, stdout, stderr))
            if peak_file.exists():
                if tracer is None:
                    self.peak_rss_kb = max(self.peak_rss_kb, int(peak_file.read_text()))
                peak_file.unlink()
            else:
                no_peak.append(f"{inv.kind} {inv.argv}: the launcher wrote no peak memory")
            if tracer is not None and trace_file.exists():
                tracer.merge(json.loads(trace_file.read_text()))
                trace_file.unlink()
        references.append(spawn_reference(self.root, self.env))
        out = PassResult.of(clock, SPAWN_REFERENCE_S * len(references) / sum(references))
        for inv, code, stdout, stderr in outputs:
            out.record(check_invocation(inv, code, stdout, stderr), explained=inv.fault)
        out.problems += no_peak
        return out


def check_invocation(inv: Invocation, code: int, stdout: str, stderr: str) -> list[str]:
    problems = checks.check_exit(code, stderr)
    if problems:
        return [f"{inv.kind} {inv.argv}: {p}" for p in problems]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{inv.kind}: output is not JSON: {stdout[:200]!r}"]
    if inv.kind == "verify":
        rows = payload.get("suites", [])
        problems = [] if payload.get("all_ok") is True else ["verify: all_ok is not true"]
        if sorted(r.get("name") for r in rows) != sorted(CLI_SUITES):
            problems.append(f"verify: suites {[r.get('name') for r in rows]!r}")
        for row in rows:
            problems += checks.check_suite(row.get("name"), row.get("ok"), row.get("details", {}))
        return problems
    if inv.kind in ("groupoid", "dnc", "euler"):
        return checks.check_suite(inv.kind, payload.get("ok"), payload.get("details", {}))
    if inv.kind == "check-map":
        return checks.check_check_map(payload, inv.expected)
    if inv.kind == "resolve-curve":
        found = [(e["root"], e["multiplicity"]) for e in payload.get("exceptional_roots", [])]
        return checks.check_curve(found, inv.expected)
    if inv.kind == "dnc-ring-demo":
        terms = inv.expected
        half, third = Fraction(1, 2), Fraction(1, 3)
        want_xs = checks.eval_xs(terms, [half] * (LAURENT_P + LAURENT_Q), third)
        want_yxi = checks.eval_yxi(terms, LAURENT_P, [half] * LAURENT_P, [Fraction(2, 3)] * LAURENT_Q)
        problems = checks.check_characters(
            payload.get("char_xs_at_half_third", "nan"),
            payload.get("char_yxi_at_half_twothirds", "nan"),
            want_xs, want_yxi, "dnc-ring-demo",
        )
        if payload.get("filtration_keys") != checks.filtration_keys(terms):
            problems.append(f"dnc-ring-demo: filtration keys {payload.get('filtration_keys')!r}")
        return problems
    raise ValueError(f"unknown invocation kind {inv.kind!r}")


# -- child processes -----------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("CONECUT_SEED", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, cwd: Path, env: dict, timeout: float = CLI_TIMEOUT_S):
    """Run a child to completion; on timeout it is killed and reaped."""
    with subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            return -9, stdout, f"timed out after {timeout} s"
        return proc.returncode, stdout, stderr


WORKLOADS = {"verify-float": VerifyFloat, "verify-exact": VerifyExact, "cli-session": CliSession}


def tail(latencies) -> float:
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]
