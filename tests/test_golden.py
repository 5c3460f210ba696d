"""Golden CLI transcripts: stdout and exit code must match byte for byte.

Each case runs ``conecut.cli.main(argv)`` in-process with ``CONECUT_SEED``
unset, so the seed is the default 42.  The files under ``tests/golden/``
are regenerated only by a change whose purpose is to change the output.
"""

import contextlib
import io
from pathlib import Path

import pytest

from conecut.cli import main

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
