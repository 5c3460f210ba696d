"""``conecut.pcg64`` draws the numbers numpy's ``default_rng`` draws."""

import numpy as np
import pytest

from conecut.pcg64 import PCG64

SEEDS = list(range(64)) + [2**32, 2**64 + 7, 2**70 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_default_rng_bit_for_bit(seed):
    for size in (0, 1, 7, 300, (0, 3), (5, 0), (16, 2), (9, 4)):
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=size)
        got = PCG64(seed).uniform(-1.0, 1.0, size)
        assert isinstance(got, list)
        assert np.asarray(got, dtype=float).reshape(want.shape).tobytes() == want.tobytes()


def test_successive_draws_continue_one_stream():
    rng, gen = np.random.default_rng(11), PCG64(11)
    for size in (3, (4, 2), 5, 1, (2, 3)):
        assert gen.uniform(-2.5, 0.5, size) == rng.uniform(-2.5, 0.5, size=size).tolist()


def test_negative_seed_and_size_raise_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        PCG64(-1)
    for size in (-3, (-3, 2)):
        with pytest.raises(ValueError, match="negative dimensions are not allowed"):
            PCG64(0).uniform(-1.0, 1.0, size)
