"""Golden CLI transcripts: stdout and exit code must match byte for byte.

Each case runs ``conecut.cli.main(argv)`` in-process with ``CONECUT_SEED``
unset, so the seed is the default 42.  The files under ``tests/golden/``
are regenerated only by a change whose purpose is to change the output.

``float-suites-seeds-0-4.json`` holds the verdict, the repr of the worst
residual and the details of each of the seven float suites of the
benchmark's verify-float workload at seeds 0 to 4 and default samples,
keyed "<suite> <seed>"; ``test_float_suite_results_at_seeds_0_to_4``
asserts that each run reproduces them exactly.

``test_golden_transcripts_without_numpy`` replays every transcript in a
child interpreter in which numpy cannot be imported: the package needs
no numpy, and no output depends on a BLAS build.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conecut.cli import main
from conecut.verify import SUITES

GOLDEN = Path(__file__).with_name("golden")

CASES = [
    ("verify", 0, ["verify"]),
    ("verify-curve-vb-csv", 0, ["verify", "--suite", "curve", "--suite", "vb", "--format", "csv"]),
    ("resolve-curve-nodal", 0, ["resolve-curve", "--poly", "y^2 - x^2*(x+1)"]),
    ("resolve-curve-cusp-chart2", 0, ["resolve-curve", "--poly", "y^2 - x^3", "--chart", "2"]),
    ("check-map", 0, ["check-map", "--map", "y1, x1*exp(y1)", "--source-dims", "2,1"]),
    ("sphere-demo", 0, ["sphere-demo", "--samples", "40"]),
    ("groupoid-demo", 0, ["groupoid-demo", "--samples", "40"]),
    ("dnc-demo", 0, ["dnc-demo", "--samples", "40"]),
    ("euler-demo", 0, ["euler-demo"]),
    ("dnc-ring-demo", 0, ["dnc-ring-demo"]),
    ("dnc-ring-demo-element", 0, ["dnc-ring-demo", "--element", "(x1*x2)*t^-2 + (y1) + t"]),
]


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_golden_transcript(name, code, argv, monkeypatch):
    monkeypatch.delenv("CONECUT_SEED", raising=False)
    got_code, got = run_main(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_text()


# The child's preamble: a meta-path finder, first in line, that refuses
# numpy and its submodules.
NO_NUMPY = """
import sys
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, NoNumpy())
"""


def test_golden_transcripts_without_numpy(tmp_path):
    code = NO_NUMPY + (
        "import contextlib, io, json\n"
        "from conecut.cli import main\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('numpy was importable')\n"
        "out = {}\n"
        f"for name, argv in {[(name, argv) for name, _, argv in CASES]!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    out[name] = [code, buf.getvalue()]\n"
        "print(json.dumps(out))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "CONECUT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    for name, code, _ in CASES:
        assert got[name] == [code, (GOLDEN / f"{name}.out").read_text()], name


FLOAT_RESULTS = json.loads((GOLDEN / "float-suites-seeds-0-4.json").read_text())


@pytest.mark.parametrize("name", sorted({key.split()[0] for key in FLOAT_RESULTS}))
def test_float_suite_results_at_seeds_0_to_4(name):
    for seed in range(5):
        r = SUITES[name](seed=seed)
        got = {"ok": r.ok, "max_residual": repr(r.max_residual), "details": r.details}
        assert got == FLOAT_RESULTS[f"{name} {seed}"], seed
