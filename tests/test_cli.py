"""Command-line interface: determinism, exit codes, output formats."""

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

CLI = [sys.executable, "-m", "conecut.cli"]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def test_resolve_curve_nodal_cubic():
    out = run_cli("resolve-curve", "--poly", "y^2 - x^2*(x+1)")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    roots = sorted(r["root"] for r in payload["exceptional_roots"])
    assert roots == [-1, 1]


def test_resolve_curve_cusp_multiplicity():
    out = run_cli("resolve-curve", "--poly", "y^2 - x^3")
    payload = json.loads(out.stdout)
    assert payload["exceptional_roots"] == [{"multiplicity": 2, "root": 0}]


@pytest.mark.parametrize(
    "poly, roots",
    [
        ("(y+x)^2*(y-3*x) + x^4", [{"multiplicity": 2, "root": -1}, {"multiplicity": 1, "root": 3}]),
        ("(y+x)^3*(y-x) + x^5", [{"multiplicity": 3, "root": -1}, {"multiplicity": 1, "root": 1}]),
        ("(y+4*x)^2*(y-4*x)^2 + x^5", [{"multiplicity": 2, "root": -4}, {"multiplicity": 2, "root": 4}]),
    ],
)
def test_resolve_curve_repeated_directions(poly, roots):
    out = run_cli("resolve-curve", "--poly", poly)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["exceptional_roots"] == roots


@pytest.mark.parametrize(
    "poly, roots",
    [
        ("(y-x)^2 + x^2/10^20 + x^3", []),
        (
            "(y-x)*(y-x-x/10^13) + x^3",
            [{"multiplicity": 1, "root": 1.0}, {"multiplicity": 1, "root": float(1 + Fraction(1, 10**13))}],
        ),
        (
            "y^2 - 2*x^2",
            [{"multiplicity": 1, "root": -math.sqrt(2)}, {"multiplicity": 1, "root": math.sqrt(2)}],
        ),
    ],
)
def test_resolve_curve_finds_roots_exactly(poly, roots):
    out = run_cli("resolve-curve", "--poly", poly)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["exceptional_roots"] == roots


def test_resolve_curve_of_a_huge_power_takes_logarithmically_many_products():
    """x^3000000 is built by square and multiply, not 3,000,000 products."""
    from conecut.cli import main

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["resolve-curve", "--poly", "y - x^3000000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(out.getvalue())["exceptional_roots"] == [{"multiplicity": 1, "root": 0}]


@pytest.mark.parametrize("poly", ["y - 10^400*x", "1e400*x + y"])
def test_resolve_curve_past_the_float_range_is_an_input_error(poly):
    out = run_cli("resolve-curve", "--poly", poly)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


def test_identical_invocations_give_identical_bytes():
    args = ("verify", "--suite", "curve", "--suite", "models", "--samples", "50")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_verify_exit_codes():
    ok = run_cli("verify", "--suite", "curve")
    assert ok.returncode == 0
    # an absurdly tight tolerance makes a float suite fail
    failing = run_cli(
        "verify", "--suite", "models", "--samples", "20", "--tol.models", "1e-300"
    )
    assert failing.returncode == 1
    usage = run_cli("verify", "--suite", "no-such-suite")
    assert usage.returncode == 2


# The usage error for an unknown suite, at 80 columns, as the parser
# wrote it when it read its suite names from verify.SUITES.
UNKNOWN_SUITE_STDERR = """\
usage: conecut verify [-h]
                      [--suite {models,atlas,sphere,groupoid,dnc,normal_derivative,vb,euler,ring,curve}]
                      [--seed SEED] [--out OUT] [--format {json,csv}]
                      [--samples SAMPLES] [--tol TOL] [--tol.models TOL]
                      [--tol.atlas TOL] [--tol.sphere TOL]
                      [--tol.groupoid TOL] [--tol.dnc TOL]
                      [--tol.normal_derivative TOL] [--tol.vb TOL]
                      [--tol.euler TOL] [--tol.ring TOL] [--tol.curve TOL]
conecut verify: error: argument --suite: invalid choice: 'nope' (choose from \
'models', 'atlas', 'sphere', 'groupoid', 'dnc', 'normal_derivative', 'vb', 'euler', 'ring', 'curve')
"""


def test_parser_suite_names_are_the_registry_in_order():
    from conecut import cli, verify

    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_unknown_suite_usage_error_is_unchanged():
    out = run_cli("verify", "--suite", "nope", env_extra={"COLUMNS": "80"})
    assert out.returncode == 2
    assert out.stderr == UNKNOWN_SUITE_STDERR


def test_dotted_tolerance_flag_rejects_unknown_suite():
    out = run_cli("verify", "--tol.bogus", "1e-3")
    assert out.returncode == 2


def test_dotted_tolerance_flag_belongs_to_the_subcommand():
    joined = run_cli("verify", "--suite", "models", "--samples", "20", "--tol.models=1e-300")
    assert joined.returncode == 1
    # the override beats --tol for its suite only
    loose = run_cli("verify", "--suite", "models", "--samples", "20", "--tol", "1e-300", "--tol.models", "1")
    assert loose.returncode == 0
    before = run_cli("--tol.models", "1e-300", "verify", "--suite", "curve")
    assert before.returncode == 2


def test_parse_error_exit_code():
    out = run_cli("resolve-curve", "--poly", "y^2 - ")
    assert out.returncode == 2


def test_check_map_reports():
    out = run_cli(
        "check-map", "--map", "y1, x1*exp(y1)", "--source-dims", "2,1", "--samples", "64"
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["adapted"] is True
    assert payload["normal_derivative_at_0"] == [[1]]
    bad = run_cli("check-map", "--map", "y1, x1 + 1", "--source-dims", "2,1")
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["adapted"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "error: expected non-negative integer\n"),
        (["--samples", "-3"], "error: negative dimensions are not allowed\n"),
        (["--samples", "0"], "error: no sampled slice point lies in the map's domain\n"),
    ],
)
def test_check_map_rejects_a_negative_seed_and_no_samples(flags, message, capsys):
    from conecut.cli import main

    assert main(["check-map", "--map", "y1, x1*exp(y1)", "--source-dims", "2,1"] + flags) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_csv_format():
    out = run_cli("verify", "--suite", "curve", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 2
    assert "name" in lines[0].split(",")


@pytest.mark.parametrize(
    "argv, column, cell",
    [
        (["check-map", "--map", "y1, x1", "--source-dims", "2,1", "--samples", "16"], "map", "y1, x1"),
        (
            ["resolve-curve", "--poly", "y^2-x^2"],
            "exceptional_roots",
            "{'root': -1.0, 'multiplicity': 1};{'root': 1.0, 'multiplicity': 1}",
        ),
        (
            ["check-map", "--map", "y1, 0.1*x1*exp(y1), 3*x1", "--source-dims", "2,1", "--target-dims", "3,1"],
            "normal_derivative_at_0",
            "[0.10000000000000001];[3]",
        ),
    ],
    ids=["check-map", "resolve-curve", "check-map-matrix"],
)
def test_csv_cells_with_commas_are_quoted(argv, column, cell, capsys):
    import csv

    from conecut.cli import main

    assert main(argv + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert dict(zip(header, rows[0]))[column] == cell


def test_seed_env_default(tmp_path):
    a = run_cli("verify", "--suite", "models", "--samples", "30")
    b = run_cli(
        "verify", "--suite", "models", "--samples", "30", env_extra={"CONECUT_SEED": "7"}
    )
    assert '"seed": 42' in a.stdout
    assert '"seed": 7' in b.stdout
    # an explicit flag beats the environment
    c = run_cli(
        "verify",
        "--suite",
        "models",
        "--samples",
        "30",
        "--seed",
        "11",
        env_extra={"CONECUT_SEED": "7"},
    )
    assert '"seed": 11' in c.stdout


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "--suite", "curve", "--out", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    payload = json.loads(target.read_text())
    assert payload["all_ok"] is True


def test_ring_demo_round_trip():
    out = run_cli("dnc-ring-demo", "--element", "(x1*x2)*t^-2 + (y1)")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["filtration_keys"] == [0, 2]
    # multiplying by t lowers the key by one
    assert "t^-1" in payload["times_t"] or "(y1)*t" in payload["times_t"]


@pytest.mark.parametrize(
    "element, char_xs, char_yxi, keys",
    [
        # body character at x = (1/2, 1/2, 1/2), s = 1/3: y1 - x1/s;
        # normal character at (y; xi) = (1/2; 2/3, 2/3): y1 - xi1
        ("(y1) - (x1)*t^-1", Fraction(1, 2) - 3 * Fraction(1, 2), Fraction(1, 2) - Fraction(2, 3), [0, 1]),
        # x1 x2/s - y1; the t^-1 coefficient has no degree-1 part
        ("(x1*x2)*t^-1 - (y1)", 3 * Fraction(1, 4) - Fraction(1, 2), -Fraction(1, 2), [0, 1]),
        ("t^-1*(x1)", 3 * Fraction(1, 2), Fraction(2, 3), [1]),
    ],
)
def test_ring_demo_reads_minus_signs_and_leading_t(element, char_xs, char_yxi, keys):
    out = run_cli("dnc-ring-demo", "--element", element)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["char_xs_at_half_third"] == str(char_xs)
    assert payload["char_yxi_at_half_twothirds"] == str(char_yxi)
    assert payload["filtration_keys"] == keys


def test_ring_demo_rejects_invalid_filtration():
    out = run_cli("dnc-ring-demo", "--element", "(y1)*t^-2")
    assert out.returncode == 2


def test_ring_demo_rejects_negative_block_sizes():
    for flags in (("--p", "1", "--q", "-1", "--element", "t"), ("--p", "-1", "--q", "2")):
        out = run_cli("dnc-ring-demo", *flags)
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""
        assert out.stderr == "error: negative block size in a {}+{} variable split\n".format(*flags[1:4:2])


def test_subcommands_take_trees_of_max_depth_and_refuse_deeper_ones():
    from conecut.parse import MAX_DEPTH

    def nested(v, d):
        return f"{v} + (" * d + v + ")" * d

    commands = {
        "check-map": lambda text: ("check-map", "--map", f"y1, {text}", "--source-dims", "2,1", "--samples", "8"),
        "resolve-curve": lambda text: ("resolve-curve", "--poly", f"y - {text}"),
        "dnc-ring-demo": lambda text: ("dnc-ring-demo", "--element", text),
    }
    for name, args in commands.items():
        v = "x" if name == "resolve-curve" else "x1"
        out = run_cli(*args(nested(v, MAX_DEPTH - 1)))
        assert out.returncode == 0, (name, out.stderr)
        out = run_cli(*args(" + ".join([v] * 1500)))
        assert out.returncode == 2 and out.stdout == "", (name, out.stderr)
        assert out.stderr.startswith("error: expression at position ") and out.stderr.endswith(
            f" is deeper than {MAX_DEPTH} operations\n"
        ), out.stderr


def test_demo_subcommands_run():
    for name in ("sphere-demo", "dnc-demo"):
        out = run_cli(name, "--samples", "20")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["ok"] is True


_DEMOS = {"sphere-demo": "sphere", "groupoid-demo": "groupoid", "dnc-demo": "dnc", "euler-demo": "euler"}


@pytest.mark.parametrize("demo", list(_DEMOS))
def test_demos_take_only_their_own_suite_tolerance(demo, capsys):
    from conecut.cli import main
    from conecut.verify import SUITES

    own = _DEMOS[demo]
    for suite in SUITES:
        if suite != own:
            assert main([demo, f"--tol.{suite}", "5"]) == 2, suite
    assert main([demo, "--samples", "4", f"--tol.{own}", "5"]) == 0
    capsys.readouterr()


def test_flags_belong_to_the_subcommands_that_read_them(capsys):
    """--samples, --tol and --tol.<suite> are refused where nothing reads
    them; --seed, --out and --format are taken everywhere."""
    from conecut.cli import main

    check_map = ["check-map", "--map", "y1, x1", "--source-dims", "2,1"]
    for argv in (
        ["resolve-curve", "--poly", "y", "--tol", "5"],
        ["resolve-curve", "--poly", "y", "--samples", "3"],
        ["resolve-curve", "--poly", "y", "--tol.atlas", "1"],
        ["dnc-ring-demo", "--samples", "9"],
        ["dnc-ring-demo", "--tol", "3"],
        ["dnc-ring-demo", "--tol.ring", "3"],
        check_map + ["--tol", "1"],
        check_map + ["--tol.euler", "1e-30"],
    ):
        assert main(argv) == 2, argv
    assert main(["resolve-curve", "--poly", "y", "--seed", "1", "--format", "csv"]) == 0
    assert main(["dnc-ring-demo", "--seed", "3", "--format", "json"]) == 0
    assert main(check_map + ["--samples", "8", "--seed", "2"]) == 0
    capsys.readouterr()


def test_to_json_writes_numpy_values_as_their_plain_equivalents():
    import numpy as np

    from conecut.cli import to_json

    plain = {
        "a": [[1.5, -0.0], [2.0, 3.0]], "b": 7, "c": True, "d": 0.1, "e": [], "f": [1, 2], "g": "x", "h": 0.5
    }
    arrays = {
        "a": np.array([[1.5, -0.0], [2.0, 3.0]]),
        "b": np.int64(7),
        "c": np.bool_(True),
        "d": np.float64(0.1),
        "e": np.zeros(0),
        "f": np.array([1, 2], dtype=np.int32),
        "g": np.str_("x"),
        "h": np.float32(0.5),
    }
    assert to_json(arrays) == to_json(plain)
    assert '"a": [\n    [\n      1.5,\n      -0\n    ],' in to_json(plain)
