"""The blow-up kernels take every norm from math.hypot, correctly rounded.

``test_norm_is_correctly_rounded`` compares the norm that ``blowup``
normalises by with an exact reference: the sum of squares as a Fraction,
then an integer square root at a precision far below one ulp.  It holds
where the norm is a normal double.  A subnormal norm (below 2^-1022)
is not: hypot rounds it twice, and ``blowup`` rescales such a vector
before it normalises it.
``test_blowup_never_calls_linalg_norm`` parses ``blowup`` as
``tests/test_imports.py`` parses the package, and lists every call of
``numpy.linalg.norm``, whose last bit depends on the BLAS kernel.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from conecut import blowup

# Bits of the integer square root: far more than a double's 53, so the
# root decides the rounding of the norm.
ROOT_BITS = 80


def exact_norm(v) -> float:
    """The Euclidean norm of v, correctly rounded to a double."""
    s = sum(Fraction(c) ** 2 for c in v)
    if s == 0:
        return 0.0
    # scale s by 4^k so that its square root has about ROOT_BITS bits
    k = ROOT_BITS - (s.numerator.bit_length() - s.denominator.bit_length()) // 2
    scaled = s * Fraction(4) ** k
    root = math.isqrt(math.floor(scaled))
    if root * root == scaled:
        return float(Fraction(root) / Fraction(2) ** k)
    # root < sqrt(scaled) < root + 1, and no rounding midpoint of a double
    # lies strictly between them: the midpoint of the two stands in for
    # sqrt(scaled) when rounding
    return float(Fraction(2 * root + 1) / Fraction(2) ** (k + 1))


def test_exact_norm_reference():
    assert exact_norm([3.0, 4.0]) == 5.0
    assert exact_norm([0.0, -0.0]) == 0.0
    assert exact_norm([1.0, 1.0]) == math.sqrt(2.0)  # sqrt is correctly rounded
    assert exact_norm([2.0**-1074, 0.0]) == 2.0**-1074
    assert exact_norm([3 * 2.0**900, -4 * 2.0**900]) == 5 * 2.0**900
    assert exact_norm([3 * 2.0**-1000, 4 * 2.0**-1000]) == 5 * 2.0**-1000


def _norm(v) -> float:
    """The norm that blowup divides a vector by."""
    return blowup._unit(list(v), "zero")[1]


def test_norm_is_correctly_rounded():
    rng = np.random.default_rng(20261018)
    for n in (2, 3, 6):
        for exponent in (-300, -150, -20, 0, 20, 150, 300):
            for _ in range(400):
                v = (rng.normal(size=n) * 10.0 ** (exponent + rng.uniform(-5.0, 5.0))).tolist()
                assert _norm(v) == exact_norm(v), v
        for v in ([1e-300] * n, [-1e300] * n, [1e308] + [0.0] * (n - 1), [2.0**-1022] + [5e-324] * (n - 1)):
            assert _norm(v) == exact_norm(v), v


def linalg_norm_calls(source: str) -> list:
    """Lines of every call of numpy.linalg.norm: ``np.linalg.norm(...)``
    under any alias of numpy or of numpy.linalg, or ``norm`` imported
    from numpy.linalg."""
    tree = ast.parse(source)
    numpy_names, linalg_names, norm_names = {"numpy"}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    numpy_names.add(a.asname or a.name)
                elif a.name == "numpy.linalg" and a.asname:
                    linalg_names.add(a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for a in node.names:
                if node.module == "numpy" and a.name == "linalg":
                    linalg_names.add(a.asname or a.name)
                elif node.module == "numpy.linalg" and a.name == "norm":
                    norm_names.add(a.asname or a.name)

    def is_linalg(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in linalg_names
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "linalg"
            and isinstance(expr.value, ast.Name)
            and expr.value.id in numpy_names
        )

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "norm" and is_linalg(f.value)) or (
            isinstance(f, ast.Name) and f.id in norm_names
        ):
            found.append(node.lineno)
    return found


def test_linalg_norm_calls_finds_every_spelling():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import norm as n2\n"
        "np.linalg.norm(v)\n"
        "la.norm(v)\n"
        "linalg.norm(v)\n"
        "n2(v)\n"
        "math.hypot(*v)\n"
        "np.linalg.svd(v)\n"
    )
    assert linalg_norm_calls(source) == [5, 6, 7, 8]


def test_blowup_never_calls_linalg_norm():
    assert linalg_norm_calls(Path(blowup.__file__).read_text()) == []
