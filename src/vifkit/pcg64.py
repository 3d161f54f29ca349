"""numpy's SeedSequence and PCG64 integer draws, bit for bit, in pure Python.

The per-term LiSSA index stream and `losscore.derive_seed` need only a few
integers, while `import numpy.random` loads nine extension modules and,
through `secrets`, OpenSSL: about 6 MiB of peak RSS and 16-18 ms (numpy 2.4,
Python 3.11, 2-vCPU VM).  This module reproduces
`numpy.random.SeedSequence(entropy).generate_state` and
`numpy.random.default_rng(seed).integers(n)` for a scalar n <= 2**32
exactly, so those streams, and every output built from them, are the ones
numpy gives.  The generator is O'Neill's PCG XSL-RR 128/64 ("PCG: a family
of simple fast space-efficient statistically good algorithms for random
number generation", 2014).  Float and permutation draws stay with
numpy.random.
"""

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & M32  # MIX_MULT_L, MIX_MULT_R
    return r ^ r >> 16


def generate_state(entropy, n_words: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n_words): n_words uint32 words
    from a sequence of ints >= 0, each split into 32-bit words."""
    words = []
    for value in map(int, entropy):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & M32)
        while value >> 32:
            value >>= 32
            words.append(value & M32)
    const = 0x43B0D7E5  # INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & M32  # MULT_A
        value = value * const & M32
        return value ^ value >> 16

    # numpy's mix_entropy into a pool of 4 words
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []  # INIT_B
    for i in range(n_words):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & M32  # MULT_B
        value = value * const & M32
        out.append(value ^ value >> 16)
    return out


class PCG64:
    """default_rng(seed) as far as its scalar integers(n) draws go."""

    __slots__ = ("state", "inc", "half")

    def __init__(self, seed: int):
        w = generate_state([seed], 8)
        s0, s1, s2, s3 = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        # pcg64_set_seed: inc = (seq << 1) | 1, step, add the initial state, step
        self.inc = ((s2 << 64 | s3) << 1 | 1) & M128
        self.state = ((self.inc + (s0 << 64 | s1)) * MULTIPLIER + self.inc) & M128
        self.half = None  # the upper half of the last 64-bit output, not yet used

    def next_uint32(self) -> int:
        if self.half is not None:
            word, self.half = self.half, None
            return word
        s = self.state = (self.state * MULTIPLIER + self.inc) & M128
        x, rot = (s >> 64 ^ s) & M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & M64
        self.half = x >> 32
        return x & M32

    def integers(self, n: int) -> int:
        """A draw from [0, n) for 1 <= n <= 2**32: random_bounded_uint64_fill,
        that is Lemire's multiply with numpy's rejection threshold."""
        n = int(n)
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        if n == 1 << 32:
            return self.next_uint32()
        m = self.next_uint32() * n
        if m & M32 < n:
            threshold = ((1 << 32) - n) % n
            while m & M32 < threshold:
                m = self.next_uint32() * n
        return m >> 32
