"""numpy's seeded PCG64 draws, replayed in Python ints.

`sim.generate_round` draws each agent's tasks from the stream that
`np.random.default_rng(np.random.SeedSequence([seed, round, agent]))`
would give, without building either object. Three parts reproduce numpy
2.4 bit for bit:

- `seed_states`: `SeedSequence`'s pool hashing (O'Neill's `seed_seq`
  design) and `generate_state(4, np.uint64)`, vectorised over many entropy
  rows of one length in masked uint64 arrays;
- `Stream`: `PCG64` seeding (two LCG steps around the seed) and its
  XSL-RR output (O'Neill, "PCG", 2014) on 128-bit Python ints;
- `Stream`'s draws: `Generator.poisson`, `uniform` and `integers` with
  numpy's consumption rules (below).

`tests/test_sim.py` compares the streams with numpy's own objects, so a
numpy release that changes them fails there.
"""

import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
#: the pool words each pool word mixes into
_OTHERS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]

#: numpy's largest Poisson mean, int64 max less ten standard deviations
_POISSON_LAM_MAX = 9.223372006484771e18

#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: numpy's `random_loggam` series coefficients
_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
)
_LG2PI = 1.8378770664093453e+00


def entropy_words(n):
    """The nonnegative int `n` as `SeedSequence` splits it: little-endian
    32-bit words, one zero word for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init, mult, count):
    """The hash constant before and after each of `count` hash calls, as
    (count, 1) uint64 columns."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    consts = np.array(consts, dtype=np.uint64)[:, None]
    return consts[:-1], consts[1:]


def seed_states(entropy):
    """`SeedSequence(row).generate_state(4, np.uint64)` for every row.

    `entropy` is a (rows, width) array of 32-bit words, each row the
    concatenated `entropy_words` of one entropy list. All rows share a
    width, so they share the hash constant's sequence, and the rows hash
    as columns of (calls, rows) arrays: the hash calls that feed different
    pool words at one step are independent, so each step is one array op.
    Every product of two 32-bit values fits a uint64, so masking after
    each step is exact mod 2**32. Returns a (rows, 4) uint64 array.
    """
    entropy = np.asarray(entropy, dtype=np.uint64).T
    width, rows = entropy.shape
    size = _POOL_SIZE
    pre, post = _hash_consts(
        _INIT_A, _MULT_A, size * size + max(0, width - size) * size
    )
    at = 0

    def hashmix(values, k):
        # the next k hash calls, in call order; 1-d values broadcast
        nonlocal at
        v = ((values ^ pre[at : at + k]) * post[at : at + k]) & _MASK32
        at += k
        return v ^ (v >> _XSHIFT)

    def mix(x, y):
        # uint64 wraps mod 2**64, a multiple of 2**32
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> _XSHIFT)

    head = np.zeros((size, rows), dtype=np.uint64)
    head[: min(width, size)] = entropy[:size]
    pool = hashmix(head, size)
    # mix every pool word into every other, src by src
    for src, dst in enumerate(_OTHERS):
        pool[dst] = mix(pool[dst], hashmix(pool[src], size - 1))
    # entropy past the pool size mixes into every pool word
    for src in range(size, width):
        pool = mix(pool, hashmix(entropy[src], size))
    pre, post = _hash_consts(_INIT_B, _MULT_B, 2 * size)
    words = ((np.concatenate((pool, pool)) ^ pre) * post) & _MASK32
    words ^= words >> _XSHIFT
    # little-endian pairs of 32-bit words make the uint64 words
    return (words[0::2] | (words[1::2] << 32)).T


def _loggam(x):
    """log Gamma(x) for x >= 1, as numpy's `random_loggam` computes it."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * _LG2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Stream:
    """One `np.random.Generator(PCG64)` stream, for the draws `sim` makes.

    `words` are the four uint64 seed words of `seed_states`: the first two
    form the 128-bit initial state, the last two the stream selector.
    """

    __slots__ = ("state", "inc", "stash")

    def __init__(self, words):
        w0, w1, w2, w3 = (int(w) for w in words)
        self.inc = (((w2 << 64 | w3) << 1) | 1) & _MASK128
        # from a zero state: step, add the initial state, step
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _MASK128
        #: the high half of the last 64-bit output a 32-bit draw split, if unused
        self.stash = None

    def next64(self):
        """Step the LCG, then the XSL-RR output of the new state."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def next32(self):
        """The low half of a fresh 64-bit output, stashing the high half
        for the next call."""
        if self.stash is not None:
            out, self.stash = self.stash, None
            return out
        x = self.next64()
        self.stash = x >> 32
        return x & _MASK32

    def random(self):
        """A double in [0, 1) from the top 53 bits of one output."""
        return (self.next64() >> 11) * 2.0**-53

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def integers(self, n):
        """An int in [0, n) for 1 <= n <= 2**32 - 1: none drawn for n = 1,
        else Lemire's multiply-and-reject on 32-bit draws."""
        rng = n - 1
        if rng == 0:
            return 0
        m = self.next32() * n
        leftover = m & _MASK32
        if leftover < n:
            threshold = (_MASK32 - rng) % n
            while leftover < threshold:
                m = self.next32() * n
                leftover = m & _MASK32
        return m >> 32

    def poisson(self, lam):
        """numpy's Poisson draw for lam > 0: multiplication below 10, PTRS
        (Hörmann's transformed rejection) from 10 up. A mean past numpy's
        limit raises numpy's ValueError."""
        if lam > _POISSON_LAM_MAX:
            raise ValueError("lam value too large")
        if lam < 10:
            enlam = math.exp(-lam)
            x, prod = 0, 1.0
            while True:
                prod *= self.random()
                if prod > enlam:
                    x += 1
                else:
                    return x
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:
                # numpy divides by zero here, floors -inf to a negative k
                # and rejects
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # log(0) is -inf in C, which always accepts
            if v == 0.0 or (
                math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                <= -lam + k * loglam - _loggam(k + 1.0)
            ):
                return k
