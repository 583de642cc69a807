"""The swarm's random streams: numpy's Philox, bit for bit, without importing ``numpy.random``.

``numpy.random`` loads ``secrets``, and through ``hmac`` OpenSSL's ``_hashlib``.  Philox4x64-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) is counter-based: each block
of four words is a pure function of its counter and key, so all the streams' next blocks are one
vectorized numpy expression.  ``synthesis.pso_minimize`` imports this module when it runs.

Every uint64 array operand is an ``np.uint64``: numpy before NEP 50 can promote a uint64 array
mixed with a Python int to float64.  Scalar arithmetic is in Python ints masked to the word size,
because numpy's uint64 scalars warn on wrap-around.
"""

from __future__ import annotations

import numpy as np

# The round multipliers and the key's Weyl increments.
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
ROUNDS = 10
REFILL = 128  # blocks of four words each stream computes at a time

# SeedSequence's hash constants (numpy's bit_generator.pyx, after O'Neill's seed_seq).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_LOW32, _SHIFT32, _SHIFT11 = np.uint64(_MASK32), np.uint64(32), np.uint64(11)


def philox_key(seed: int) -> tuple[int, int]:
    """numpy's Philox key for ``seed``: ``SeedSequence(seed).generate_state(2, np.uint64)``.

    The entropy is seed's 32-bit words, least significant first, mixed into a pool of four words.
    """
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, const = [], _INIT_B
    for value in pool:
        value ^= const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products a * m, for a uint64 array a."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    return a_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32), a * np.uint64(m)


class PhiloxStreams:
    """``Generator(Philox(seed).jumped(i)).random`` for every stream i < n, drawn in lockstep.

    A stream's b-th block of four uint64 draws (b from 1) is ``ROUNDS`` rounds over the counter
    (b, 0, i, 0) (``jumped(i)`` adds i * 2**128), each round with the key bumped once more.  A
    draw's double is its top 53 bits times 2**-53, numpy's ``next_double``.  Every stream draws the
    same count, so one (n, words) buffer serves them all, refilled ``REFILL`` blocks at a time.
    """

    def __init__(self, seed: int, n: int):
        k0, k1 = philox_key(seed)
        self._keys = [(np.uint64(k0 + r * _W[0] & _MASK64), np.uint64(k1 + r * _W[1] & _MASK64))
                      for r in range(ROUNDS)]
        self._lanes = np.arange(n, dtype=np.uint64)[:, None]
        self._blocks = 0
        self._buf = np.empty((n, 0))

    def random(self, k: int) -> np.ndarray:
        """The next k doubles of every stream, one row a stream."""
        while self._buf.shape[1] < k:
            self._buf = np.hstack([self._buf, self._refill()])
        out, self._buf = self._buf[:, :k], self._buf[:, k:]
        return out

    def _refill(self) -> np.ndarray:
        first, self._blocks = self._blocks + 1, self._blocks + REFILL
        zero = np.zeros((1, 1), dtype=np.uint64)
        c0, c1, c2, c3 = np.arange(first, first + REFILL, dtype=np.uint64)[None, :], zero, self._lanes, zero
        for k0, k1 in self._keys:
            hi0, lo0 = mulhilo(c0, _M[0])
            hi1, lo1 = mulhilo(c2, _M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        words = np.stack([c0, c1, c2, c3], axis=-1).reshape(self._lanes.size, -1)
        return (words >> _SHIFT11).astype(float) * 2.0**-53
