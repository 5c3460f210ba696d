"""Command-line interface.

Subcommands, with the flags each takes besides --seed, --out and
--format (S stands for --samples, --tol and --tol.<suite>):
  verify         run the registered verification suites; S, --suite
  resolve-curve  strict transform of a plane curve under one blow-up; --poly, --chart
  check-map      adaptedness, rank, and normal-derivative report; --map,
                 --source-dims, --target-dims, --samples
  sphere-demo    blown-up sphere vs the projective plane; S
  groupoid-demo  structure-map axioms and isotropy dimensions; S
  dnc-demo       deformation-space maps, equivariance, continuity; S
  euler-demo     Euler-like flow and the tubular embedding; S
  dnc-ring-demo  exact Laurent model and its two characters; --element, --p, --q

Output is deterministic: the same arguments and seed produce the same
bytes.  Floats are printed with 17 significant digits.  resolve-curve,
dnc-ring-demo and check-map never load numpy.  The suite modules
(verify, blowup, dnc, euler, groupoid, vb) are loaded on first use:
check-map and dnc-ring-demo execute none of them, resolve-curve only
blowup, verify and the demos all six.  Exit code 0
means all requested checks passed, 1 means a check failed, 2 means the
invocation or an input could not be parsed.

A suite's tolerance is overridden with a dotted flag after the
subcommand, e.g. ``verify --tol.atlas 1e-9``; it beats ``--tol`` for
that suite.  A demo takes the dotted flag of its own suite only.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .errors import ConecutError, ParseError
from .expr import finite_diff_jacobian, jet_eval
from .lazy_numpy import lazy_import
from .pairs import MapOfPairs, PairDims, check_adapted, check_rank_conditions, normal_derivative
from .parse import pair_var_names, parse_expr, parse_laurent, parse_map
from .ring import LaurentElement, char_xs, char_yxi, expr_to_poly, vanishing_order

# Each suite module's code runs at its first attribute access.  All six
# are registered, so that ``import conecut.cli`` still puts every module
# of the package in sys.modules, as perfbench's tracer expects.
vf = lazy_import("conecut.verify")
for _name in ("blowup", "dnc", "euler", "groupoid", "vb"):
    lazy_import(f"conecut.{_name}")

# The names of verify.SUITES in registration order, so that building
# the parser runs no suite code; tests/test_cli.py checks they agree.
SUITE_NAMES = (
    "models", "atlas", "sphere", "groupoid", "dnc",
    "normal_derivative", "vb", "euler", "ring", "curve",
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


# -- deterministic serialization --------------------------------------


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return "%.17g" % x


def to_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with sorted keys and %.17g floats.

    numpy arrays and scalars are written as their ``tolist()``; the
    plain types are tested first, so a payload without numpy values
    never loads numpy."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(f'{inner}"{key}": {to_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _fmt_float(float(obj))
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if obj is None:
        return "null"
    if hasattr(obj, "tolist"):
        return to_json(obj.tolist(), indent)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(payload)
    else:
        text = to_json(payload) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_item(value) -> str:
    """A CSV cell or one item of a list cell: floats with 17 significant
    digits, a nested list as its items between brackets."""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return "[" + ";".join(map(_csv_item, value)) + "]"
    return str(value)


def _to_csv(payload) -> str:
    """Flat CSV for list-of-dicts payloads (e.g. verify suite rows); a
    list cell joins its items with ';', and a cell with a comma, quote
    or newline is quoted."""
    import csv
    import io

    rows = payload.get("suites") if isinstance(payload, dict) else None
    if rows is None:
        rows = payload if isinstance(payload, list) else [payload]
    flat_rows = []
    for row in rows:
        flat = {}
        for key, value in sorted(row.items(), key=lambda kv: str(kv[0])):
            if isinstance(value, dict):
                continue
            if isinstance(value, bool):
                flat[key] = "true" if value else "false"
            elif isinstance(value, (list, tuple)):
                flat[key] = ";".join(map(_csv_item, value))
            else:
                flat[key] = _csv_item(value)
        flat_rows.append(flat)
    headers = sorted({k for row in flat_rows for k in row})
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([flat.get(h, "") for h in headers] for flat in flat_rows)
    return text.getvalue()


# -- subcommand implementations ---------------------------------------


def _cmd_verify(args) -> int:
    """Run the requested suites; a demo runs its one suite and emits its row."""
    names = args.suite or sorted(vf.SUITES)
    results = []
    for name in sorted(names):
        samples = args.samples if args.samples is not None else vf.DEFAULT_SUITE_SAMPLES[name]
        override = getattr(args, f"tol.{name}")
        tol = args.tol if override is None else override
        results.append(vf.SUITES[name](samples=samples, seed=args.seed, tol=tol))
    all_ok = all(r.ok for r in results)
    if args.command == "verify":
        payload = {"seed": args.seed, "suites": [r.as_dict() for r in results], "all_ok": all_ok}
    else:
        payload = results[0].as_dict()
    _emit(payload, args)
    return EXIT_OK if all_ok else EXIT_FAILED


def _cmd_resolve_curve(args) -> int:
    from .blowup import strict_transform_curve

    poly = expr_to_poly(parse_expr(args.poly, ["x", "y"]), 0, 2)
    strict, roots = strict_transform_curve(poly, args.chart)
    payload = {
        "input": args.poly,
        "chart": args.chart,
        "strict_transform": str(strict),
        "exceptional_roots": [
            {"root": r, "multiplicity": m} for r, m in roots
        ],
    }
    _emit(payload, args)
    return EXIT_OK


def _parse_dims(text: str) -> PairDims:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"dims must be 'n,p': {text}", 0)
    return PairDims(int(parts[0]), int(parts[1]))


def _cmd_check_map(args) -> int:
    source = _parse_dims(args.source_dims)
    target = _parse_dims(args.target_dims) if args.target_dims else source
    f = parse_map(args.map, source.n, pair_var_names(source.p, source.q))
    if f.output_dim != target.n:
        print(
            f"map has {f.output_dim} components, target expects {target.n}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    m = MapOfPairs(f, source, target)
    adapted = check_adapted(m, samples=args.samples, seed=args.seed)
    payload = {
        "map": args.map,
        "source_dims": [source.n, source.p],
        "target_dims": [target.n, target.p],
        "adapted": adapted.ok,
        "worst_slice_violation": adapted.worst_violation,
    }
    if adapted.ok:
        dn = normal_derivative(m, [0.0] * source.p)
        origin = [0.0] * source.n
        rows = zip(jet_eval(f, origin).jacobian, finite_diff_jacobian(f, origin))
        ad_vs_fd = max((abs(a - b) for ad, fd in rows for a, b in zip(ad, fd)), default=0.0)
        ranks = check_rank_conditions(m, samples=min(args.samples, 256), seed=args.seed)
        payload["normal_derivative_at_0"] = dn
        payload["rank_full"] = ranks.rank_f
        payload["rank_restricted"] = ranks.rank_f_restricted
        payload["rank_normal_derivative"] = ranks.fiberwise_rank_dN
        payload["rank_full_constant"] = ranks.rank_f_constant
        payload["rank_normal_derivative_constant"] = ranks.dN_rank_constant
        payload["ad_fd_residual"] = ad_vs_fd
    _emit(payload, args)
    return EXIT_OK if adapted.ok else EXIT_FAILED


def _cmd_ring_demo(args) -> int:
    p, q = args.p, args.q
    element = parse_laurent(args.element, p, q)
    x_point = [Fraction(1, 2)] * (p + q)
    s_val = Fraction(1, 3)
    y_point = [Fraction(1, 2)] * p
    xi_point = [Fraction(2, 3)] * q
    t = LaurentElement.t_element(p, q)
    payload = {
        "element": str(element),
        "filtration_keys": sorted(element.coeffs),
        "vanishing_orders": {
            str(k): (
                "inf"
                if vanishing_order(f) == float("inf")
                else int(vanishing_order(f))
            )
            for k, f in element.coeffs.items()
        },
        "char_xs_at_half_third": str(char_xs(element, x_point, s_val)),
        "char_yxi_at_half_twothirds": str(char_yxi(element, y_point, xi_point)),
        "times_t": str(element * t),
    }
    _emit(payload, args)
    return EXIT_OK


# -- parser wiring -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecut", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_seed = int(os.environ.get("CONECUT_SEED", "42"))

    def common(sp):
        sp.add_argument("--seed", type=int, default=default_seed)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    def suite_options(sp, suites):
        common(sp)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        for name in suites:
            sp.add_argument(f"--tol.{name}", dest=f"tol.{name}", type=float, default=None, metavar="TOL")

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", action="append", choices=SUITE_NAMES, help="suite name (repeatable)")
    suite_options(sp, SUITE_NAMES)

    sp = sub.add_parser("resolve-curve", help="strict transform of a plane curve")
    sp.add_argument("--poly", required=True, help="polynomial in x, y")
    sp.add_argument("--chart", type=int, choices=[1, 2], default=1)
    common(sp)

    sp = sub.add_parser("check-map", help="adaptedness and rank report")
    sp.add_argument("--map", required=True, help="comma-separated components in y1..,x1..")
    sp.add_argument("--source-dims", required=True, help="n,p of the source pair")
    sp.add_argument("--target-dims", default=None, help="m,p of the target pair")
    sp.add_argument("--samples", type=int, default=512)
    common(sp)

    for name, suite in [
        ("sphere-demo", "sphere"),
        ("groupoid-demo", "groupoid"),
        ("dnc-demo", "dnc"),
        ("euler-demo", "euler"),
    ]:
        sp = sub.add_parser(name, help=f"run the {suite} suite and report")
        suite_options(sp, [suite])
        sp.set_defaults(suite=[suite])

    sp = sub.add_parser("dnc-ring-demo", help="exact Laurent model report")
    sp.add_argument(
        "--element",
        default="(x1*x2)*t^-1 + (y1) + t",
        help="polynomial in y1.., x1.. and t with integer powers of t",
    )
    sp.add_argument("--p", type=int, default=1, help="number of y variables")
    sp.add_argument("--q", type=int, default=2, help="number of x variables")
    common(sp)
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "resolve-curve": _cmd_resolve_curve,
    "check-map": _cmd_check_map,
    "sphere-demo": _cmd_verify,
    "groupoid-demo": _cmd_verify,
    "dnc-demo": _cmd_verify,
    "euler-demo": _cmd_verify,
    "dnc-ring-demo": _cmd_ring_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConecutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
