"""What the suites report, and the draws their sample loops rely on.

``test_every_suite_reports_built_in_scalars`` runs each of the ten
suites at a small sample count and checks that its verdict, its worst
residual and every leaf of its details are built-in Python values, not
numpy scalars (``np.float64`` subclasses ``float``, so the check is on
the exact type).

The sample loops draw a random sign with ``groupoid.random_sign`` and
points on the unit circle with ``math.cos`` and ``math.sin``, where they
once called ``rng.choice([-1.0, 1.0])``, ``np.cos`` and ``np.sin``.  The
two draw tests pin that these give the same numbers and leave the
generator in the same state, so a platform where they differ fails here,
by name, before a golden result fails.
"""

import math

import numpy as np
import pytest

from conecut.groupoid import random_sign
from conecut.verify import SUITES

BUILT_IN_LEAVES = (float, int, bool, str)


def non_built_in_leaves(value, path="details") -> list:
    """The path and type of every leaf of nested dicts and lists whose
    type is not exactly a built-in scalar."""
    if type(value) is dict:
        return [bad for key, v in value.items() for bad in non_built_in_leaves(v, f"{path}[{key!r}]")]
    if type(value) is list:
        return [bad for i, v in enumerate(value) for bad in non_built_in_leaves(v, f"{path}[{i}]")]
    return [] if type(value) in BUILT_IN_LEAVES else [f"{path}: {type(value).__name__}"]


def test_non_built_in_leaves_finds_numpy_scalars_and_tuples():
    details = {"a": 1.0, "b": [np.float64(2.0), "x"], "c": {"d": (1, 2), "e": np.bool_(True)}}
    assert non_built_in_leaves(details) == [
        "details['b'][0]: float64", "details['c']['d']: tuple", "details['c']['e']: bool"
    ]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_reports_built_in_scalars(name):
    result = SUITES[name](samples=20, seed=3)
    assert type(result.ok) is bool
    assert type(result.max_residual) in (float, int)
    assert non_built_in_leaves(result.details) == []


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_random_sign_draws_what_choice_draws(seed):
    """Interleaved with uniform draws, as the suites draw a signed
    factor: the same values, and the same generator state after."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [got_rng.uniform(0.2, 2.0) * random_sign(got_rng) for _ in range(5000)]
    want = [float(want_rng.uniform(0.2, 2.0) * want_rng.choice([-1.0, 1.0])) for _ in range(5000)]
    assert got == want
    assert {-1.0, 1.0} == {math.copysign(1.0, v) for v in got}
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_math_cos_and_sin_are_numpy_s_at_the_drawn_angles(seed):
    """At angles drawn from [0, 2 pi) as the suites draw them, math.cos
    and math.sin return numpy's scalar np.cos and np.sin bit for bit."""
    angles = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, size=10_000).tolist()
    assert [math.cos(a) for a in angles] == [float(np.cos(a)) for a in angles]
    assert [math.sin(a) for a in angles] == [float(np.sin(a)) for a in angles]
