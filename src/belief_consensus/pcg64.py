"""numpy's SeedSequence and PCG64, many generators at once.

A generator seeded from `SeedSequence(words)` is a pure function of its
entropy words, and numpy seeds and steps it with fixed integer arithmetic, so
many generators are computed together as array operations, bit for bit. The
stochastic backend draws a whole round of agents this way, and grouping the
k-means++ picks of all its restarts.
"""

import functools
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_LOW32, _U11, _U32 = np.uint64(_MASK32), np.uint64(11), np.uint64(32)
_TWO_POW_M53 = 1.0 / 9007199254740992.0
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """An int as `SeedSequence` reads it: 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _frozen(values, dtype, shape) -> np.ndarray:
    out = np.array(values, dtype=dtype).reshape(shape)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _stream_constants(n_words: int, k: int):
    """The constant operands of `_pcg64_raw` for `n_words` words and `k` outputs.

    `SeedSequence`'s hash multiplier advances on every hashmix call, so call t
    xors with the t-th constant and multiplies by the next one; the calls come
    in stages of 4 (filling the pool), 3 per pool word (the all-pairs mix) and
    4 per further entropy word. Output t of PCG64 seeded with (s, inc) is the
    XSL-RR of the 128-bit state M^(t+1)·s + (1 + M + ... + M^(t+1))·inc.
    """
    extra = max(n_words - _POOL_SIZE, 0)
    sizes = [_POOL_SIZE] + [_POOL_SIZE - 1] * _POOL_SIZE + [_POOL_SIZE] * extra
    hash_a, hash_b = [_INIT_A], [_INIT_B]
    while len(hash_a) <= sum(sizes):
        hash_a.append(hash_a[-1] * _MULT_A & _MASK32)
    while len(hash_b) <= 2 * _POOL_SIZE:
        hash_b.append(hash_b[-1] * _MULT_B & _MASK32)
    stages, t = [], 0
    for size in sizes:
        stages.append((_frozen(hash_a[t:t + size], np.uint32, (size, 1)),
                       _frozen(hash_a[t + 1:t + 1 + size], np.uint32, (size, 1))))
        t += size
    factors, power, total = [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(k):
        power = power * _PCG_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
        factors.append((power, total))
    scale_offset = [f for pair in zip(*factors) for f in pair]  # all scales, then offsets
    low = [f & (1 << 64) - 1 for f in scale_offset]
    return (
        stages,
        _frozen(hash_b[:-1], np.uint32, (2, _POOL_SIZE, 1)),
        _frozen(hash_b[1:], np.uint32, (2, _POOL_SIZE, 1)),
        _frozen([f >> 64 for f in scale_offset], np.uint64, (2, k, 1)),
        _frozen(low, np.uint64, (2, k, 1)),
        _frozen([f & _MASK32 for f in low], np.uint64, (2, k, 1)),
        _frozen([f >> 32 for f in low], np.uint64, (2, k, 1)),
    )


_OTHER_POOL_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]


def _pcg64_raw(words: np.ndarray, k: int) -> np.ndarray:
    """The first k raw outputs of `PCG64(SeedSequence(words[:, j]))` for each j.

    `words` is a (n_words, m) uint32 array of entropy words; returns (k, m)
    uint64. Reproduces `SeedSequence` (pool of 4, `generate_state(4, uint64)`)
    and PCG64's seeding and XSL-RR output, with 128-bit products assembled
    from 32-bit halves. Every step is one array operation over all m, so a
    batch costs about the same at any m.
    """
    n_words, m = words.shape
    stages, xor_b, mul_b, factor_hi, factor_lo, b0, b1 = _stream_constants(n_words, k)
    u16, u32, low32 = np.uint32(16), np.uint64(32), np.uint64(_MASK32)

    def hashmix(values, stage):  # one hashmix call per row of the stage
        xor, mul = stage
        out = values ^ xor
        out *= mul
        out ^= out >> u16
        return out

    pool = np.zeros((_POOL_SIZE, m), np.uint32)
    pool[:n_words] = words[:_POOL_SIZE]
    pool = hashmix(pool, stages[0])
    for src, dst in enumerate(_OTHER_POOL_WORDS):
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(
            pool[src], stages[1 + src])
        pool[dst] = mixed ^ (mixed >> u16)
    for word, stage in zip(words[_POOL_SIZE:], stages[1 + _POOL_SIZE:]):
        mixed = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * hashmix(word, stage)
        pool = mixed ^ (mixed >> u16)

    state = pool ^ xor_b  # (2, 4, m): the pool read twice
    state *= mul_b
    state ^= state >> u16
    state = state.reshape(2 * _POOL_SIZE, m).astype(np.uint64)
    seed = state[0::2] | state[1::2] << u32  # s high, s low, inc high, inc low
    seed[2] = seed[2] << np.uint64(1) | seed[3] >> np.uint64(63)
    seed[3] = seed[3] << np.uint64(1) | np.uint64(1)
    # (s, inc) times (scale_t, offset_t) mod 2**128, as one (2, k, m) batch
    x_hi, x_lo = seed[0::2, None], seed[1::2, None]
    a0, a1 = x_lo & low32, x_lo >> u32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    middle = (p00 >> u32) + (p01 & low32) + (p10 & low32)
    hi = (a1 * b1 + (p01 >> u32) + (p10 >> u32) + (middle >> u32)
          + x_hi * factor_lo + x_lo * factor_hi)
    lo = x_lo * factor_lo
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[0])
    xored = state_hi ^ state_lo
    rot = state_hi >> np.uint64(58)
    return xored >> rot | xored << (-rot & np.uint64(63))
