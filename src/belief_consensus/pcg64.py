"""numpy's SeedSequence and PCG64, many generators at once.

A generator seeded from `SeedSequence(words)` is a pure function of its
entropy words, and numpy seeds and steps it with fixed integer arithmetic, so
many generators are computed together as array operations, bit for bit. The
stochastic backend draws every round of a case for its agents this way, and
the protocol loop the k-means++ picks of all restarts of all rounds of a case.
The property checks of `verification` draw all seeds of a check in one pass:
uniform initial states, and the conflict check's agent counts and the leader
check's leader sets through `_bounded_draws`, the bounded draw of numpy's
`Generator.integers` and `choice`.
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
# A case's draws are made for at most this many rounds in one pass: a case
# can stop at consensus long before its round limit, and a pass costs time
# and memory in proportion to the rounds it covers.
ROUNDS_PER_PASS = 16


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
def _mix_constants(n_words: int):
    """The (xor, multiplier) operands of `SeedSequence`'s hashmix calls that
    mix `n_words` entropy words into its pool, one pair per stage.

    The hash multiplier advances on every hashmix call, so call t xors with
    the t-th constant and multiplies by the next one; the calls come in stages
    of 4 (filling the pool), 3 per pool word (the all-pairs mix) and 4 per
    further entropy word.
    """
    extra = max(n_words - _POOL_SIZE, 0)
    sizes = [_POOL_SIZE] + [_POOL_SIZE - 1] * _POOL_SIZE + [_POOL_SIZE] * extra
    hash_a = [_INIT_A]
    while len(hash_a) <= sum(sizes):
        hash_a.append(hash_a[-1] * _MULT_A & _MASK32)
    stages, t = [], 0
    for size in sizes:
        stages.append((_frozen(hash_a[t:t + size], np.uint32, (size, 1)),
                       _frozen(hash_a[t + 1:t + 1 + size], np.uint32, (size, 1))))
        t += size
    return stages


def _state_constants():
    """The (xor, multiplier) operands of `generate_state(8)`'s hash calls,
    shaped (2, 4, 1): output word i reads pool word i % 4."""
    hash_b = [_INIT_B]
    while len(hash_b) <= 2 * _POOL_SIZE:
        hash_b.append(hash_b[-1] * _MULT_B & _MASK32)
    return (_frozen(hash_b[:-1], np.uint32, (2, _POOL_SIZE, 1)),
            _frozen(hash_b[1:], np.uint32, (2, _POOL_SIZE, 1)))


_STATE_XOR, _STATE_MUL = _state_constants()


@functools.lru_cache(maxsize=16)
def _output_constants(k: int):
    """The 128-bit factors of PCG64's first `k` outputs, as 64- and 32-bit parts.

    Output t of PCG64 seeded with (s, inc) is the XSL-RR of the 128-bit state
    M^(t+1)·s + (1 + M + ... + M^(t+1))·inc.
    """
    factors, power, total = [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(k):
        power = power * _PCG_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
        factors.append((power, total))
    scale_offset = [f for pair in zip(*factors) for f in pair]  # all scales, then offsets
    low = [f & (1 << 64) - 1 for f in scale_offset]
    return (
        _frozen([f >> 64 for f in scale_offset], np.uint64, (2, k, 1)),
        _frozen(low, np.uint64, (2, k, 1)),
        _frozen([f & _MASK32 for f in low], np.uint64, (2, k, 1)),
        _frozen([f >> 32 for f in low], np.uint64, (2, k, 1)),
    )


_OTHER_POOL_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]
_U16 = np.uint32(16)


def _hashmix(values: np.ndarray, stage) -> np.ndarray:
    """One hashmix call per row of the stage."""
    xor, mul = stage
    out = values ^ xor
    out *= mul
    out ^= out >> _U16
    return out


def _state_words(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(words[:, j]).generate_state(8)` for each j, as (8, m) uint32.

    `words` is a (n_words, m) uint32 array of entropy words. `generate_state(n)`
    for n <= 8 is the first n rows. Every step is one array operation over all
    m: the pool of 4 filled and mixed, then read twice through the hash.
    """
    n_words, m = words.shape
    stages = _mix_constants(n_words)
    pool = np.zeros((_POOL_SIZE, m), np.uint32)
    pool[:n_words] = words[:_POOL_SIZE]
    pool = _hashmix(pool, stages[0])
    for src, dst in enumerate(_OTHER_POOL_WORDS):
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * _hashmix(
            pool[src], stages[1 + src])
        pool[dst] = mixed ^ (mixed >> _U16)
    for word, stage in zip(words[_POOL_SIZE:], stages[1 + _POOL_SIZE:]):
        mixed = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * _hashmix(word, stage)
        pool = mixed ^ (mixed >> _U16)
    return _hashmix(pool, (_STATE_XOR, _STATE_MUL)).reshape(2 * _POOL_SIZE, m)


def _doubles(raw: np.ndarray) -> np.ndarray:
    """`Generator.random()`'s doubles in [0, 1): each raw output's top 53 bits by 2**-53."""
    return (raw >> _U11) * _TWO_POW_M53


def _pcg64_raw(words: np.ndarray, k: int) -> np.ndarray:
    """The first k raw outputs of `PCG64(SeedSequence(words[:, j]))` for each j.

    `words` is a (n_words, m) uint32 array of entropy words; returns (k, m)
    uint64. Seeds from `_state_words` (`generate_state(4, uint64)` is its 8
    words in pairs, low word first), then reproduces PCG64's seeding and
    XSL-RR output, with 128-bit products assembled from 32-bit halves. Every
    step is one array operation over all m, so a batch costs about the same
    at any m.
    """
    factor_hi, factor_lo, b0, b1 = _output_constants(k)
    u32, low32 = np.uint64(32), np.uint64(_MASK32)
    state = _state_words(words).astype(np.uint64)
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


def _bounded_draws(raw: np.ndarray, words: np.ndarray, half: np.ndarray, bound: int,
                   cols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """numpy's draw in [0, bound) for the generators `cols` of a raw block
    (all by default): what `Generator.integers(bound)` draws, and each draw of
    `choice`'s Floyd sampling and of its shuffle.

    It is Lemire's bounded draw on 32-bit words ("Fast random integer
    generation in an interval", 2019). PCG64 hands out an output's low half,
    then keeps its high half for the next 32-bit read, so `half` holds each
    generator's next unread half (2t: output t's low half, 2t + 1: its high
    half) and is advanced in place. A draw multiplies a half by `bound` and
    keeps the product's high word; while its low word is below 2**32 mod bound
    (probability below bound / 2**32) it reads the next half. Bound 1 reads
    nothing. `raw` is the (k, m) block of `_pcg64_raw(words, k)`. Returns the
    draws of all m generators (0 outside `cols`) and the block, recomputed
    with twice the outputs when a read would leave it without the whole
    output after the half read, the one a following `random()` or `uniform`
    reads first.
    """
    draws = np.zeros(raw.shape[1], np.uint64)
    cols = np.arange(raw.shape[1]) if cols is None else cols
    if bound <= 1:
        return draws, raw
    threshold = (1 << 32) % bound  # a product whose low word is below it is rejected
    while cols.size:
        at = half[cols]
        if len(raw) < (at.max() >> 1) + 2:
            raw = _pcg64_raw(words, 2 * len(raw))
        shift = (at & 1).astype(np.uint64) * _U32
        product = (raw[at >> 1, cols] >> shift & _LOW32) * np.uint64(bound)
        draws[cols] = product >> _U32
        half[cols] += 1
        cols = cols[(product & _LOW32) < threshold]
    return draws, raw
