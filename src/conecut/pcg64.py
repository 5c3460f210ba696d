"""Seeded draws, bit for bit those of numpy's ``default_rng``.

``PCG64(seed)`` draws the numbers that ``numpy.random.default_rng(seed)``
draws through the ``Generator`` methods of the same names: ``random``,
``uniform``, ``integers`` and ``normal``, in any order, as Python
numbers (a sized draw is a list, of rows for a shape (k, p)), so no
draw needs numpy.  The steps are numpy's:

- ``SeedSequence``: the seed's 32-bit words, least significant first,
  are hash-mixed into a pool of four words, and ``generate_state`` draws
  four 64-bit words from the pool;
- PCG64 seeding (O'Neill, "PCG: A family of simple fast space-efficient
  statistically good algorithms for random number generation",
  HMC-CS-2014-0905): the 128-bit state starts from the first two words
  and the increment from the last two;
- each 64-bit word steps the 128-bit linear congruential state and
  outputs its XSL-RR permutation; a double is the top 53 bits times
  2^-53, and ``uniform(low, high)`` is ``low + (high - low) * double``;
- a 32-bit draw is the low half of a fresh word, and the high half is
  kept for the next 32-bit draw, across draws of other kinds;
- ``integers(n)`` bounds a 32-bit draw to [0, n) by Lemire's
  multiply-and-reject method (Lemire, "Fast random integer generation
  in an interval", ACM TOMACS 29(1), 2019), for n up to 2^32;
- ``normal(size)`` draws standard normals from numpy's 256-layer
  ziggurat (Marsaglia & Tsang, "The ziggurat method for generating
  random variables", J. Stat. Softw. 5(8), 2000), one 64-bit word per
  try: 8 bits pick the layer, 1 the sign, 52 the abscissa.

The ziggurat's widths and thresholds are numpy's own tables, copied
bit for bit (``tests/test_pcg64.py`` reads them back out of numpy and
compares); the heights follow from the widths.  They are decoded on the
first ``normal`` draw.
"""

from __future__ import annotations

import math
import struct

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

# The ziggurat's rightmost layer edge r and 1/r, as numpy writes them.
_ZIG_R = 3.6541528853610088
_ZIG_INV_R = 0.27366123732975828


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


def _ziggurat() -> tuple:
    """The tables (wi, ki, fi), decoded once: the layer widths over 2^52,
    the 52-bit thresholds under which a draw lies inside its layer's
    rectangle, and the heights exp(-x^2 / 2) at the layer edges
    x = wi * 2^52, 1.0 above the top layer."""
    global _zig
    if _zig is None:
        values = struct.unpack(">256d256Q", bytes.fromhex("".join(_ZIG_TABLES)))
        wi, ki = values[:256], values[256:]
        fi = (1.0, *[math.exp(-0.5 * (w * 4503599627370496.0) ** 2) for w in wi[1:]])
        _zig = (wi, ki, fi)
    return _zig


class PCG64:
    """numpy's PCG64 bit generator, seeded as ``default_rng(seed)`` seeds
    it, with the ``random``, ``uniform``, ``integers`` and ``normal``
    methods of numpy's ``Generator``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _generate_state(_pool(_seed_words(seed)), 4)
        self._inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        # From state 0: one step (to inc), add the initial state, one step.
        self._state = ((self._inc + ((w0 << 64) | w1)) * _PCG_MULT + self._inc) & _MASK128
        # The kept high half of the last word a 32-bit draw split, or None.
        self._half = None

    def _next64(self) -> int:
        """The next 64-bit word: one step, then the XSL-RR output."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        """The kept high half if there is one, else the low half of a fresh
        word, whose high half is kept."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """The next double in [0, 1): 53 random bits times 2^-53.  The word
        is ``_next64``'s, computed in place: this is the hottest draw."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out = ((word >> rot) | (word << (64 - rot))) & _MASK64
        return (out >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float, size=None):
        """``low + (high - low) * random()``: a float for no size, a list of
        ``size`` floats for an int, and for a shape (k, p) a list of k rows
        of p floats, drawn row by row."""
        scale = high - low
        random = self.random
        if size is None:
            return low + scale * random()
        if isinstance(size, int):
            if size < 0:
                raise ValueError("negative dimensions are not allowed")
            # A plain loop: the suites draw 1 to 4 numbers at a time, too few
            # to pay for a comprehension's frame.
            out = []
            for _ in range(size):
                out.append(low + scale * random())
            return out
        k, p = size
        if k < 0 or p < 0:
            raise ValueError("negative dimensions are not allowed")
        return [[low + scale * random() for _ in range(p)] for _ in range(k)]

    def integers(self, n: int) -> int:
        """An integer drawn uniformly from [0, n); ValueError for n <= 0, or
        for n > 2^32.  A 32-bit draw is bounded by Lemire's method: the
        top half of draw * n, redrawn while the bottom half falls below
        (2^32 - n) mod n.  numpy draws nothing for n = 1."""
        if n <= 0:
            raise ValueError("high <= 0")
        if n > 1 << 32:
            raise ValueError("a range of more than 2^32 integers")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def normal(self, size: int) -> list:
        """A list of ``size`` standard normal draws."""
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        draw = self._standard_normal
        out = []
        for _ in range(size):
            out.append(draw())
        return out

    def _standard_normal(self) -> float:
        """numpy's ziggurat draw: a word's low 8 bits pick a layer, the next
        bit the sign, and the next 52 an abscissa x scaled by the layer's
        width.  Below the layer's threshold x is inside its rectangle;
        otherwise the base layer draws from the tail beyond r and any
        other layer accepts x under the curve on its wedge, or tries
        again with a new word."""
        wi, ki, fi = _zig or _ziggurat()
        while True:
            r = self._next64()
            idx = r & 0xFF
            rabs = (r >> 9) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 0x100:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_ZIG_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_ZIG_R + xx) if (rabs >> 8) & 1 else _ZIG_R + xx
            if (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] < math.exp(-0.5 * x * x):
                return x


# numpy's ziggurat tables wi_double and ki_double, 256 big-endian doubles
# then 256 big-endian unsigned 64-bit integers, in hex.
_ZIG_TABLES = (
    "3ccf493b7815d9793c8b8d0be3fdf6c63c9250af3c2c5bb43c957cb938443b613c9801fce82fa70c3c9a230c2e4cd0bc"
    "3c9c004d2f3861f73c9dac2f5a7472743c9f32482d4cd5c33ca04d32278ebbad3ca0f5053b025d433ca192a697413677"
    "3ca227a28f7a1af53ca2b52e3863d8803ca33c3fc05791f53ca3bd9ec1a2b12f3ca439ef8dff9b553ca4b1bb363dfea7"
    "3ca52575621ad3743ca59580a707ce963ca60231cfd97eea3ca66bd261a37c3d3ca6d2a2920005703ca736dad346f8a6"
    "3ca798ad10b32a773ca7f845ad46f5433ca855cc53430a773ca8b1649e7b769a3ca90b2ea94ecf983ca96347822c1eea"
    "3ca9b9c98e38c5463caa0eccdca4a72c3caa62676d77cd593caab4ad6e1016303cab05b16d136c9c3cab558487427a29"
    "3caba4368e529f3a3cabf1d62abf82323cac3e70f9594ef33cac8a13a5323b613cacd4c9fe72268b3cad1e9f0e80b748"
    "3cad679d29e41f103cadafce0023b8c33cadf73aa9f176533cae3debb5d2edfe3cae83e9337a6f003caec93abdf982ce"
    "3caf0de784f062263caf51f654d8f6883caf956d9e87d7ae3cafd8537dfa2eac3cb00d56e04234ec3cb02e40f5398f9a"
    "3cb04eea9e16a5fc3cb06f565b72a0103cb08f869071f40b3cb0af7d84bc61133cb0cf3d664bcc7f3cb0eec84b16086b"
    "3cb10e20329515ee3cb12d4707310fbe3cb14c3e9f8e91413cb16b08bfc4201e3cb189a71a78da343cb1a81b51ee6d88"
    "3cb1c666f8f82acb3cb1e48b93e0d42e3cb2028a9940a09f3cb2206572c4c6e93cb23e1d7de9c31f3cb25bb40ca96bfb"
    "3cb2792a661dd37f3cb29681c719d71b3cb2b3bb62b82eda3cb2d0d862e1b8533cb2edd9e8cba98e3cb30ac10d6e48d7"
    "3cb3278ee1f4b9303cb3444470265ea13cb360e2baca52d53cb37d6abe05586a3cb399dd6fb2b2643cb3b63bbfb83d03"
    "3cb3d28698561de03cb3eebede725a833cb40ae571e09e743cb426fb2da6745d3cb44300e83c30a43cb45ef773cac75d"
    "3cb47adf9e66c3363cb496ba32488f2f3cb4b287f602415d3cb4ce49acb311dc3cb4ea001638a6053cb505abef5e5562"
    "3cb5214df20a8b5a3cb53ce6d56a664f3cb558774e1bb2c83cb574000e555f783cb58f81c60e85143cb5aafd23241b59"
    "3cb5c672d17d733d3cb5e1e37b2f8cd33cb5fd4fc89f5e383cb618b860a31fc33cb6341de8a2b0a23cb64f8104b7260b"
    "3cb66ae257c996723cb6864283b131373cb6a1a22950b2b13cb6bd01e8b343bb3cb6d8626128d3523cb6f3c43161f854"
    "3cb70f27f78b68eb3cb72a8e516914c63cb745f7dc70eedc3cb7616535e5731f3cb77cd6faeff4493cb7984dc8babd93"
    "3cb7b3ca3c8b14093cb7cf4cf3db22fb3cb7ead68c73dee73cb80667a486ea1f3cb82200dac886763cb83da2ce899f15"
    "3cb8594e1fd1f5bd3cb875036f7a7ec53cb890c35f47f72d3cb8ac8e9205c0433cb8c865aba10c9c3cb8e44951446a27"
    "3cb9003a2973b58f3cb91c38dc2883473cb9384612ef0afc3cb954627903a28a3cb9708ebb70d5ee3cb98ccb892e2a31"
    "3cb9a919933f99bf3cb9c5798cd5d92c3cb9e1ec2b6f74113cb9fe7226fad24a3cba1b0c39f936923cba37bb21a2c85b"
    "3cba547f9e0bbb883cba715a724aa9a43cba8e4c64a0313d3cbaab563e9ff1083cbac878cd5af5ce3cbae5b4e18bb336"
    "3cbb030b4fc3a11a3cbb207cf09a985b3cbb3e0aa0e00c003cbb5bb541ce3d033cbb797db93f89273cbb9764f1e5f73c"
    "3cbbb56bdb85256e3cbbd3936b2ec0a23cbbf1dc9b81ae833cbc10486cec16a03cbc2ed7e5f07a2d3cbc4d8c136e0d1c"
    "3cbc6c6608ec87053cbc8b66e0eba6173cbcaa8fbd36a2ab3cbcc9e1c73bd6903cbce95e3068e0373cbd0906328b8f6e"
    "3cbd28db1037ef203cbd48de1533c6473cbd691096e7f1233cbd8973f4d7fba53cbdaa0999206e703cbdcad2f8fc490e"
    "3cbdebd195522e373cbe0d06fb49d21c3cbe2e74c4ea46f63cbe501c99c1d1883cbe72002f97fe253cbe94214b2abf0a"
    "3cbeb681c0f76f083cbed9237610a73a3cbefc086101eca93cbf1f328ac253213cbf42a40fb74d6d3cbf665f20c90168"
    "3cbf8a66048997823cbfaebb187122bf3cbfd360d22fe7853cbff859c118f60b3cc00ed447d3a0753cc021a8028fc947"
    "3cc034a983a902ab3cc047da4e3ef5c73cc05b3bf6adb37e3cc06ed023a726683cc082988f632e173cc0969708e8a254"
    "3cc0aacd7571c0c43cc0bf3dd1eed4483cc0d3ea34aa3d303cc0e8d4cf1165933cc0fdffefa69fb63cc1136e04207041"
    "3cc129219bbb5d353cc13f1d69c4096d3cc1556448602e3b3cc16bf93b9deef33cc182df74d212613cc19a1a564eebac"
    "3cc1b1ad777f2f8e3cc1c99ca971a6943cc1e1ebfbe4ae393cc1fa9fc2e2d9013cc213bc9d04cc813cc22d477a6fd3ee"
    "3cc24745a4ac9c243cc261bcc77658e03cc27cb2faa8592e3cc2982ecd770e783cc2b437532a0a523cc2d0d43196db97"
    "3cc2ee0db1a978f53cc30becd256aeee3cc32a7b5e68a4a33cc349c405ae12a33cc369d27a33a8403cc38ab39256410a"
    "3cc3ac7570ae88fa3cc3cf27b31704a63cc3f2dbaa60f4753cc417a49cb9e5da3cc43d9815545e943cc464ce44a73a15"
    "3cc48d62759c43bc3cc4b7739d6b5a273cc4e3250dcd89023cc5109f53e9ac413cc54011523a7e423cc571b1a94ae41b"
    "3cc5a5c08b718dd93cc5dc8a243ad0fe3cc61669cf861e4c3cc653ce7b006aea3cc69540be9fe5c33cc6db6b8d09e232"
    "3cc72728f05f7a343cc77995560906733cc7d42df4d6ce8c3cc839030529f2343cc8ab0fbfaa7c143cc92ee0946f4496"
    "3cc9cbee014057ab3cca8fdc7894775a3ccb981f3878fdb13ccd3bb48209ad33000ef33d8025ef6a0000000000000000"
    "000c08be98fbc6a8000da354fabd8142000e51f67ec1eeea000eb255e9d3f77e000eef4b817ecab9000f19470afa44aa"
    "000f37ed61ffcb18000f4f469561255c000f61a5e41ba396000f707a755396a4000f7cb2ec28449a000f86f10c6357d3"
    "000f8fa6578325de000f9724c74dd0da000f9da907dbf509000fa360f581fa74000fa86fde5b4bf8000facf160d354dc"
    "000fb0fb6718b90f000fb49f8d5374c6000fb7ec2366fe77000fbaece9a1e50e000fbdab9d040bed000fc03060ff6c57"
    "000fc2821037a248000fc4a67ae25bd1000fc6a2977aee31000fc87aa92896a4000fca325e4bde85000fcbcce902231a"
    "000fcd4d12f839c4000fceb54d8fec99000fd007bf1dc930000fd1464dd6c4e6000fd272a8e2f450000fd38e4ff0c91e"
    "000fd49a9990b478000fd598b8920f53000fd689c08e99ec000fd76ea9c8e832000fd848547b08e8000fd9178bad2c8c"
    "000fd9dd07a7add2000fda9970105e8c000fdb4d5dc02e20000fdbf95c5bfcd0000fdc9debb99a7d000fdd3b8118729d"
    "000fddd288342f90000fde6364369f64000fdeee708d514e000fdf7401a6b42e000fdff46599ed40000fe06fe4bc24f2"
    "000fe0e6c225a258000fe1593c28b84c000fe1c78cbc3f99000fe231e9db1caa000fe29885da1b91000fe2fb8fb54186"
    "000fe35b33558d4a000fe3b799d0002a000fe410e99ead7f000fe46746d47734000fe4bad34c095c000fe50baed29524"
    "000fe559f74ebc78000fe5a5c8e41212000fe5ef3e138689000fe6366fd91078000fe67b75c6d578000fe6be661e11aa"
    "000fe6ff55e5f4f2000fe73e5900a702000fe77b823e9e39000fe7b6e37070a2000fe7f08d774243000fe8289053f08c"
    "000fe85efb35173a000fe893dc840864000fe8c741f0cebc000fe8f9387d4ef6000fe929cc879b1d000fe95909d388ea"
    "000fe986fb939aa2000fe9b3ac714866000fe9df2694b6d5000fea0973abe67c000fea329cf166a4000fea5aab32952c"
    "000fea81a6d5741a000feaa797de1cf0000feacc85f3d920000feaf07865e63c000feb13762fec13000feb3585fe2a4a"
    "000feb56ae3162b4000feb76f4e284fa000feb965fe62014000febb4f4cf9d7c000febd2b8f449d0000febefb16e2e3e"
    "000fec0be31ebde8000fec2752b15a15000fec42049dafd3000fec5bfd29f196000fec75406ceef4000fec8dd2500cb4"
    "000feca5b6911f12000fecbcf0c427fe000fecd38454fb15000fece97488c8b3000fecfec47f91b7000fed1377358528"
    "000fed278f844903000fed3b10242f4c000fed4dfbad586e000fed605498c3dd000fed721d414fe8000fed8357e4a982"
    "000fed9406a42cc8000feda42b85b704000fedb3c8746ab4000fedc2df416652000fedd171a46e52000feddf813c8ad3"
    "000feded0f909980000fedfa1e0fd414000fee06ae124bc4000fee12c0d95a06000fee1e579006e0000fee29734b6524"
    "000fee34150ae4bc000fee3e3db89b3c000fee47ee2982f4000fee51271db086000fee59e9407f41000fee623528b42e"
    "000fee6a0b5897f1000fee716c3e077a000fee7858327b82000fee7ecf7b06ba000fee84d2484ab2000fee8a60b66343"
    "000fee8f7accc851000fee94207e25da000fee9851a829ea000fee9c0e13485c000fee9f557273f4000feea22762ccae"
    "000feea4836b42ac000feea668fc2d71000feea7d76ed6fa000feea8ce04fa0a000feea94be8333b000feea950296410"
    "000feea8d9c0075e000feea7e7897654000feea678481d24000feea48aa29e83000feea21d22e4da000fee9f2e352024"
    "000fee9bbc26af2e000fee97c524f2e4000fee93473c0a3a000fee8e40557516000fee88ae369c7a000fee828e7f3dfd"
    "000fee7bdea7b888000fee749bff37ff000fee6cc3a9bd5e000fee64529e007e000fee5b45a32888000fee51994e57b6"
    "000fee474a0006cf000fee3c53e12c50000fee30b2e02ad8000fee2462ad8205000fee175eb83c5a000fee09a22a1447"
    "000fedfb27e349cc000fedebea76216c000feddbe422047e000fedcb0ece39d3000fedb964042cf4000feda6dce938c9"
    "000fed937237e98d000fed7f1c38a836000fed69d2b9c02b000fed538d06ae00000fed3c41dea422000fed23e76a2fd8"
    "000fed0a732fe644000fecefda07fe34000fecd4100eb7b8000fecb708956eb4000fec98b61230c1000fec790a0da978"
    "000fec57f50f31fe000fec356686c962000fec114cb4b335000febeb948e6fd0000febc429a0b692000feb9af5ee0cdc"
    "000feb6fe1c98542000feb42d3ad1f9e000feb13b00b2d4b000feae2591a02e9000feaaeae992257000fea788d8ee326"
    "000fea3fcffd73e5000fea044c8dd9f6000fe9c5d62f563b000fe9843ba947a4000fe93f471d4728000fe8f6bd76c5d6"
    "000fe8aa5dc4e8e6000fe859e07ab1ea000fe804f690a940000fe7ab488233c0000fe74c751f6aa5000fe6e8102aa202"
    "000fe67da0b6abd8000fe60c9f38307e000fe5947338f742000fe51470977280000fe48bd436f458000fe3f9bffd1e37"
    "000fe35d35eeb19c000fe2b5122fe4fe000fe20003995557000fe13c82788314000fe068c4ee67b0000fdf82b02b71aa"
    "000fde87c57efeaa000fdd7509c63bfd000fdc46e529bf13000fdaf8f82e0282000fd985e1b2ba75000fd7e6ef48cf04"
    "000fd613adbd650b000fd40149e2f012000fd1a1a7b4c7ac000fcee204761f9e000fcba8d85e11b2000fc7d26ecd2d22"
    "000fc32b2f1e22ed000fbd6581c0b83a000fb606c4005434000fac40582a2874000f9e971e014598000f89fa48a41dfc"
    "000f66c5f7f0302c000f1a5a4b331c4a"
)
_zig = None
