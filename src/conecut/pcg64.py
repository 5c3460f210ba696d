"""Seeded uniform draws, bit for bit those of numpy's ``default_rng``.

``PCG64(seed).uniform(low, high, size)`` returns the numbers that
``numpy.random.default_rng(seed).uniform(low, high, size)`` returns, as
a list of Python floats (of rows, for a shape (k, p)) in the same
order, so a draw needs no numpy.  The steps are numpy's:

- ``SeedSequence``: the seed's 32-bit words, least significant first,
  are hash-mixed into a pool of four words, and ``generate_state`` draws
  four 64-bit words from the pool;
- PCG64 seeding (O'Neill, "PCG: A family of simple fast space-efficient
  statistically good algorithms for random number generation",
  HMC-CS-2014-0905): the 128-bit state starts from the first two words
  and the increment from the last two;
- each draw steps the 128-bit linear congruential state and outputs its
  XSL-RR 64-bit permutation; a double is the top 53 bits times 2^-53,
  and ``uniform(low, high)`` is ``low + (high - low) * double``.

The sampling suites keep numpy's ``Generator``: they also draw integers
and normal deviates.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed: int) -> list:
    """The non-negative integer ``seed`` as 32-bit words, least
    significant first; [0] for 0."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pool(entropy: list) -> list:
    """SeedSequence's entropy pool: ``mix_entropy`` of the seed words."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence's ``generate_state(n_words, uint64)``."""
    hash_const = _INIT_B
    halves = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(n_words)]


class PCG64:
    """numpy's PCG64 bit generator, seeded as ``default_rng(seed)`` seeds
    it, with the ``uniform`` method of numpy's ``Generator``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _generate_state(_pool(_seed_words(seed)), 4)
        self._inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        # From state 0: one step (to inc), add the initial state, one step.
        self._state = ((self._inc + ((w0 << 64) | w1)) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        """The next double in [0, 1): 53 random bits times 2^-53."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out = ((word >> rot) | (word << (64 - rot))) & _MASK64
        return (out >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float, size) -> list:
        """``low + (high - low) * random()``: a list of ``size`` floats for
        an int, and for a shape (k, p) a list of k rows of p floats, drawn
        row by row."""
        scale = high - low
        shape = (size,) if isinstance(size, int) else tuple(size)
        if any(d < 0 for d in shape):
            raise ValueError("negative dimensions are not allowed")
        if len(shape) == 1:
            return [low + scale * self.random() for _ in range(shape[0])]
        k, p = shape
        return [[low + scale * self.random() for _ in range(p)] for _ in range(k)]
