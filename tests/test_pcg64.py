"""``conecut.pcg64`` draws the numbers numpy's ``default_rng`` draws.

Each draw method is compared with the ``Generator`` method of the same
name, bit for bit, at the 67 seeds of SEEDS: alone, interleaved in the
orders the sampling suites draw in, and, through ``numpy_state``, by the
generator state it leaves behind (the 128-bit state, and the high half
of a 64-bit word that a 32-bit draw keeps for the next one).
``test_ziggurat_tables_are_numpy_s`` reads numpy's ziggurat tables back
out of numpy, by setting its state so that the next 64-bit word is a
chosen one, and compares them entry by entry with the embedded ones.
"""

import math

import numpy as np
import pytest

from conecut import pcg64
from conecut.pcg64 import PCG64

SEEDS = list(range(64)) + [2**32, 2**64 + 7, 2**70 + 3]


def numpy_state(gen: PCG64) -> dict:
    """The generator's state as ``Generator.bit_generator.state`` spells it;
    ``uinteger`` is 0 where no half is kept, which numpy leaves stale."""
    half = gen._half
    return {
        "bit_generator": "PCG64",
        "state": {"state": gen._state, "inc": gen._inc},
        "has_uint32": int(half is not None),
        "uinteger": 0 if half is None else half,
    }


def same_state(gen: PCG64, rng) -> bool:
    want = dict(rng.bit_generator.state)
    if not want["has_uint32"]:
        want["uinteger"] = 0
    return numpy_state(gen) == want


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_default_rng_bit_for_bit(seed):
    for size in (0, 1, 7, 300, (0, 3), (5, 0), (16, 2), (9, 4)):
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=size)
        got = PCG64(seed).uniform(-1.0, 1.0, size)
        assert isinstance(got, list)
        assert np.asarray(got, dtype=float).reshape(want.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_match_default_rng_bit_for_bit(seed):
    """Scalar ``uniform`` and ``random`` return Python floats, and so do
    the entries of a ``normal`` draw."""
    rng, gen = np.random.default_rng(seed), PCG64(seed)
    for low, high in ((-2.0, 2.0), (0.2, 2.0), (0.0, 2 * math.pi), (-1, 1)):
        got = [gen.uniform(low, high) for _ in range(50)]
        assert {type(v) for v in got} == {float}
        assert got == [float(rng.uniform(low, high)) for _ in range(50)]
    assert [gen.random() for _ in range(50)] == [float(rng.random()) for _ in range(50)]
    got = gen.normal(size=50)
    assert {type(v) for v in got} == {float}
    assert bits(got) == rng.normal(size=50).tobytes()
    assert same_state(gen, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_carry_the_kept_half_across_other_draws(seed):
    """A bounded draw takes the low half of a fresh 64-bit word and keeps
    the high half for the next bounded draw; doubles in between leave it
    kept."""
    rng, gen = np.random.default_rng(seed), PCG64(seed)
    for i in range(200):
        for high in (2, 1 << 30) if i % 3 else (1 << 30, 2, 3):
            got = gen.integers(high)
            assert type(got) is int and got == rng.integers(high)
            assert same_state(gen, rng)
        if i % 4 == 0:
            assert gen.random() == rng.random()
        if i % 5 == 0:
            assert gen.uniform(-2.0, 2.0, 3) == rng.uniform(-2.0, 2.0, 3).tolist()
        assert same_state(gen, rng)
    for n in (11, 1, 2**32 - 1, 2**32):
        assert [gen.integers(n) for _ in range(20)] == rng.integers(n, size=20).tolist()
    assert same_state(gen, rng)


# Bounds past 2^32: 64-bit words, where a bound just past a power of two
# rejects a word about half the time.
WIDE = (2**32 + 1, 3 * 2**40 + 5, 2**63 + 1, 1_057_330_000_000_000_000, 2**64 - 1, 2**64)


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_integers_match_default_rng_on_64_bit_words(seed):
    """A bound past 2^32 bounds a whole 64-bit word and leaves a kept
    32-bit half as it is, as numpy's 64-bit path does."""
    rng, gen = np.random.default_rng(seed), PCG64(seed)
    for i in range(30):
        for n in WIDE:
            got = gen.integers(n)
            assert type(got) is int and got == int(rng.integers(n, dtype=np.uint64))
        if i % 3 == 0:
            assert gen.integers(7) == rng.integers(7)
        assert same_state(gen, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_matches_default_rng_bit_for_bit(seed):
    rng, gen = np.random.default_rng(seed), PCG64(seed)
    for size in (2, 3, 0, 1, 2, 3, 40):
        assert bits(gen.normal(size=size)) == rng.normal(size=size).tobytes()
    assert same_state(gen, rng)


class CountingPCG64(PCG64):
    """Counts the doubles drawn through ``random``: the wedge test of a
    ziggurat layer draws one, each try at the tail beyond r draws two."""

    __slots__ = ("doubles",)

    def __init__(self, seed):
        super().__init__(seed)
        self.doubles = 0

    def random(self):
        self.doubles += 1
        return super().random()


def test_a_million_normals_reach_the_wedges_and_the_tail_bit_for_bit():
    tail = wedge_or_tail = 0
    for seed in range(5):
        gen = CountingPCG64(seed)
        got = gen.normal(size=200_000)
        assert bits(got) == np.random.default_rng(seed).normal(size=200_000).tobytes()
        tail += sum(abs(v) > pcg64._ZIG_R for v in got)
        wedge_or_tail += gen.doubles
    assert tail > 100
    assert wedge_or_tail > 2 * tail + 1000


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_interleaved_as_the_suites_draw_them(seed):
    """The orders of the float suites and the kernels they seed: a coin,
    then a scalar and a vector; a signed factor; arrows and their signed
    scales as blocks; seeds for sub-checks and normal directions."""
    rng, gen = np.random.default_rng(seed), PCG64(seed)
    for _ in range(20):
        # models, dnc: a coin decides whether a scalar is drawn
        assert (gen.random() < 0.7) == (rng.random() < 0.7)
        assert gen.uniform(-2.0, 2.0) == rng.uniform(-2.0, 2.0)
        assert gen.uniform(-2.0, 2.0, size=3) == rng.uniform(-2.0, 2.0, size=3).tolist()
        # dnc, groupoid partners: a signed factor
        lam = gen.uniform(0.3, 2.0) * (-1.0, 1.0)[gen.integers(2)]
        assert lam == float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        # vb: a body point, a seed, a direction, a seed, a scale
        assert gen.uniform(-1.0, 1.0, size=3) == rng.uniform(-1.0, 1.0, size=3).tolist()
        assert gen.integers(1 << 30) == rng.integers(1 << 30)
        assert bits(gen.normal(size=2)) == rng.normal(size=2).tobytes()
        assert gen.integers(1 << 30) == rng.integers(1 << 30)
        assert bits(gen.normal(size=3)) == rng.normal(size=3).tobytes()
    # the action groupoid's sampler: n signs are choice(..., size=n)
    lams = gen.uniform(0.2, 2.0, size=50)
    signs = [(-1.0, 1.0)[gen.integers(2)] for _ in range(50)]
    want = rng.uniform(0.2, 2.0, size=50) * rng.choice([-1.0, 1.0], size=50)
    assert bits([lam * s for lam, s in zip(lams, signs)]) == want.tobytes()
    # the pair groupoid's arrows come in blocks of rows
    assert gen.uniform(-2.0, 2.0, size=(7, 2)) == rng.uniform(-2.0, 2.0, size=(7, 2)).tolist()
    assert same_state(gen, rng)


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
    with pytest.raises(ValueError, match="negative dimensions are not allowed"):
        PCG64(0).normal(-1)


def test_empty_and_too_wide_ranges_raise_and_one_value_draws_nothing():
    for n in (0, -3):
        with pytest.raises(ValueError, match="high <= 0"):
            np.random.default_rng(0).integers(n)
        with pytest.raises(ValueError, match="high <= 0"):
            PCG64(0).integers(n)
    with pytest.raises(ValueError, match="more than 2\\^64"):
        PCG64(0).integers(2**64 + 1)
    gen = PCG64(0)
    assert gen.integers(1) == 0 and same_state(gen, np.random.default_rng(0))


# -- numpy's ziggurat tables, read back out of numpy ------------------

_MASK128 = (1 << 128) - 1
_INC = 0x123456789ABCDEF1


def _numpy_normal_from(word: int) -> tuple:
    """numpy's standard normal when the next 64-bit output is ``word``, and
    whether that one word was all it drew.  The stepped state has high
    half 0, so XSL-RR does not rotate and outputs the low half; the state
    before it is one step back."""
    before = ((word - _INC) * pow(pcg64._PCG_MULT, -1, 1 << 128)) & _MASK128
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": before, "inc": _INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    x = rng.standard_normal()
    return float(x), rng.bit_generator.state["state"]["state"] == word


def numpy_ziggurat_tables() -> tuple:
    """(wi, ki): a word with layer i, sign 0 and abscissa 1 returns wi[i];
    ki[i] is the least abscissa whose word draws more than itself."""
    wi, ki = [], []
    for layer in range(256):
        wi.append(_numpy_normal_from(layer | 1 << 9)[0])
        lo, hi = -1, 1 << 52  # one word at lo (or lo = -1), more at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _numpy_normal_from(layer | mid << 9)[1]:
                lo = mid
            else:
                hi = mid
        ki.append(hi)
    return wi, ki


def test_ziggurat_tables_are_numpy_s():
    wi, ki, fi = pcg64._ziggurat()
    want_wi, want_ki = numpy_ziggurat_tables()
    assert [i for i in range(256) if wi[i].hex() != want_wi[i].hex()] == []
    assert [i for i in range(256) if ki[i] != want_ki[i]] == []
    assert ki[1] == 0  # the top layer has no rectangle: every draw tries its wedge
    assert fi[0] == 1.0 and all(fi[i] > fi[i + 1] for i in range(255))


def test_tables_are_decoded_on_the_first_normal_draw():
    pcg64._zig = None
    gen = PCG64(3)
    gen.uniform(-1.0, 1.0, 5), gen.integers(7), gen.random()
    assert pcg64._zig is None
    gen.normal(1)
    assert pcg64._zig is not None
