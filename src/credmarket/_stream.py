"""numpy's seeded PCG64 draws, replayed lane-parallel in uint64 arrays.

`sim` draws each (round, agent) lane's tasks from the stream that
`np.random.default_rng(np.random.SeedSequence([seed, round, agent]))`
would give, without building either object, and draws all of a block's
lanes at once: every lane has its own generator state, so the lanes step
together as columns of uint64 arrays (the lane-parallel layout of Salmon
et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011). Three
parts reproduce numpy 2.4 bit for bit:

- `seed_states`: `SeedSequence`'s pool hashing (O'Neill's `seed_seq`
  design) and `generate_state(4, np.uint64)`, vectorised over many entropy
  rows of one length in masked uint64 arrays;
- `Lanes`: `PCG64` seeding (two LCG steps around the seed) and its
  XSL-RR output (O'Neill, "PCG", 2014), each lane's 128-bit state a
  (hi, lo) pair of uint64 words;
- `Lanes`' draws: `Generator.poisson`, `uniform` and `integers` with
  numpy's consumption rules (below), on the lanes a draw names; a
  rejection loop redraws only the lanes that reject. `math.exp`,
  `math.log` and `_loggam` stay scalar, mapped over the lanes that reach
  them, since numpy's SIMD exp and log need not round as libm does;
  every other step is plain IEEE arithmetic or exact integer arithmetic.

`tests/test_sim.py` compares the streams with numpy's own objects, so a
numpy release that changes them fails there.
"""

import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

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

#: PCG64's 128-bit LCG multiplier, as uint64 (hi, lo) words and the low
#: word's 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_LO1, _MULT_LO0 = np.uint64(_PCG_MULT >> 32 & _MASK32), np.uint64(_PCG_MULT & _MASK32)

# every lane constant is a uint64, so no mixed-kind op promotes to float64
_U1, _U11, _U58, _U63, _U64 = (np.uint64(s) for s in (1, 11, 58, 63, 64))
_U32, _U32_SHIFT = np.uint64(_MASK32), np.uint64(32)

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


class Lanes:
    """Many `np.random.Generator(PCG64)` streams, one per lane, stepped
    together, for the draws `sim` makes.

    `words` is a (lanes, 4) array of `seed_states` rows: per lane, the
    first two words form the 128-bit initial state, the last two the
    stream selector. Each lane's 128-bit state and increment are (hi, lo)
    pairs of uint64 arrays, so one array op steps every lane it is given;
    a draw takes the index array of the lanes that draw and steps only
    those, so each lane reads its own stream exactly as numpy would.
    """

    def __init__(self, words):
        w0, w1, w2, w3 = np.asarray(words, dtype=np.uint64).T
        inc_hi = (w2 << _U1) | (w3 >> _U63)
        inc_lo = (w3 << _U1) | _U1
        # from a zero state: step (to inc), add the initial state, step
        lo = inc_lo + w1
        hi = inc_hi + w0 + (lo < w1)
        #: rows: state hi, state lo, increment hi, increment lo
        self._pcg = np.stack((*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo))
        #: the high half of the last 64-bit output a 32-bit draw split,
        #: where `_stashed`
        self._stash = np.zeros(len(w0), dtype=np.uint64)
        self._stashed = np.zeros(len(w0), dtype=bool)

    def __len__(self):
        return len(self._stash)

    def next64(self, idx):
        """Step lanes `idx` once; the XSL-RR output of each new state."""
        hi, lo = _step(*self._pcg[:, idx])
        self._pcg[0, idx] = hi
        self._pcg[1, idx] = lo
        return _output(hi, lo)

    def random(self, idx):
        """A double in [0, 1) per lane, from the top 53 bits of one output."""
        return _double(self.next64(idx))

    def uniform(self, lo, hi, idx):
        """`lo + (hi - lo) * random`, numpy's uniform; `lo` and `hi` are
        scalars or arrays aligned with `idx`."""
        return lo + (hi - lo) * self.random(idx)

    def _next32(self, idx):
        """Per lane, the stashed high half of an earlier output if there is
        one, else the low half of a fresh output, whose high half is
        stashed. Double draws leave the stash alone."""
        stashed = self._stashed[idx]
        out = self._stash[idx]
        fresh = idx[~stashed]
        x = self.next64(fresh)
        out[~stashed] = x & _U32
        self._stash[fresh] = x >> _U32_SHIFT
        self._stashed[idx] = ~stashed
        return out

    def integers(self, n, idx):
        """An int in [0, n) per lane, for 1 <= n <= 2**32 - 1, as a uint64
        array: none drawn for n = 1, else Lemire's multiply-and-reject on
        32-bit draws, redrawing only the lanes that reject."""
        if n == 1:
            return np.zeros(len(idx), dtype=np.uint64)
        threshold = np.uint64((_MASK32 + 1 - n) % n)
        n = np.uint64(n)
        m = self._next32(idx) * n
        redo = np.flatnonzero((m & _U32) < threshold)
        while redo.size:
            m[redo] = self._next32(idx[redo]) * n
            redo = redo[(m[redo] & _U32) < threshold]
        return m >> _U32_SHIFT

    def poisson(self, lam):
        """numpy's Poisson draw for lam > 0 on every lane, as an int64
        array: multiplication below 10, PTRS (Hörmann's transformed
        rejection) from 10 up. A mean past numpy's limit raises numpy's
        ValueError."""
        if lam > _POISSON_LAM_MAX:
            raise ValueError("lam value too large")
        return self._poisson_mult(lam) if lam < 10 else self._poisson_ptrs(lam)

    def _poisson_mult(self, lam):
        # each pending lane multiplies its running product by one more
        # double; the count is the number of products above e^-lam
        enlam = math.exp(-lam)
        counts = np.zeros(len(self), dtype=np.int64)
        prod = np.ones(len(self))
        idx = np.arange(len(self))
        while idx.size:
            p = prod[idx] * self.random(idx)
            prod[idx] = p
            idx = idx[p > enlam]
            counts[idx] += 1
        return counts

    def _poisson_ptrs(self, lam):
        # two doubles per pending lane and try; `math.log` and `_loggam`
        # run only on the lanes that reach the log test
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        counts = np.zeros(len(self), dtype=np.int64)
        idx = np.arange(len(self))
        while idx.size:
            u = self.random(idx) - 0.5
            v = self.random(idx)
            us = 0.5 - np.abs(u)
            # us == 0 only for u = -0.5: numpy divides by zero there, and
            # k = -inf rejects below
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.floor((2 * a / us + b) * u + lam + 0.43)
            done = (us >= 0.07) & (v <= vr)
            test = np.flatnonzero(~done & (k >= 0) & ~((us < 0.013) & (v > us)))
            for j, kj, uj, vj in zip(test, k[test].tolist(), us[test].tolist(), v[test].tolist()):
                # log(0) is -inf in C, which always accepts
                done[j] = vj == 0.0 or (
                    math.log(vj) + math.log(invalpha) - math.log(a / (uj * uj) + b)
                    <= -lam + kj * loglam - _loggam(kj + 1.0)
                )
            counts[idx[done]] = k[done]
            idx = idx[~done]
        return counts


def _mulhi(a):
    """The high 64 bits of a * the LCG multiplier's low word, from 32-bit
    limbs (Warren, "Hacker's Delight", mulhu): every partial product and
    partial sum fits a uint64."""
    a0, a1 = a & _U32, a >> _U32_SHIFT
    t = a1 * _MULT_LO0 + ((a0 * _MULT_LO0) >> _U32_SHIFT)
    u = (t & _U32) + a0 * _MULT_LO1
    return a1 * _MULT_LO1 + (t >> _U32_SHIFT) + (u >> _U32_SHIFT)


def _step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) of state * _PCG_MULT + inc mod 2**128; uint64 products and
    sums wrap mod 2**64, and the low sum's carry goes into the high half."""
    new_lo = lo * _MULT_LO + inc_lo
    carry = new_lo < inc_lo
    return hi * _MULT_LO + lo * _MULT_HI + _mulhi(lo) + inc_hi + carry, new_lo


def _output(hi, lo):
    """PCG64's XSL-RR output of the states (hi, lo): their xor, rotated
    right by the top six bits of hi."""
    x = hi ^ lo
    rot = hi >> _U58
    return (x >> rot) | (x << ((_U64 - rot) & _U63))


def _double(words):
    """numpy's `next_double`: the top 53 bits of each word, times 2**-53."""
    return (words >> _U11) * 2.0**-53
