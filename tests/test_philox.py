"""The swarm's Philox streams against numpy.random, the reference they reproduce bit for bit.

``shocksynth._philox.PhiloxStreams`` draws ``Generator(Philox(seed).jumped(i)).random`` without importing
``numpy.random``; only these tests import it, as the oracle.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shocksynth._philox import REFILL, PhiloxStreams, philox_key

# Draws a stream takes from one refill: 4 words a block.
_REFILL_WORDS = 4 * REFILL


@given(st.integers(min_value=0, max_value=2**200))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64 - 1)
@example(2**64)
@example(2**128 + 7)  # five entropy words: one more than SeedSequence's pool
@settings(max_examples=200, deadline=None)
def test_philox_key_is_seed_sequence_state(seed):
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert philox_key(seed) == (int(want[0]), int(want[1]))


def _numpy_rows(seed, n, k):
    base = np.random.Philox(seed)
    return np.vstack([np.random.Generator(base.jumped(i)).random(k) for i in range(n)])


@given(
    seed=st.integers(min_value=0, max_value=2**70),
    n=st.sampled_from([1, 2, 32, 33, 40]),
    lengths=st.lists(st.integers(min_value=1, max_value=_REFILL_WORDS + 100), min_size=1, max_size=4),
)
@example(seed=0, n=1, lengths=[_REFILL_WORDS, 1])
@example(seed=97, n=33, lengths=[41, 82, _REFILL_WORDS, 3])
@example(seed=1, n=33, lengths=[41] + [82] * 14)  # the swarm's draws on the 41-column launcher bank
@settings(max_examples=40, deadline=None)
def test_streams_draw_numpys_bits(seed, n, lengths):
    streams = PhiloxStreams(seed, n)
    drawn = [streams.random(k) for k in lengths]
    assert [d.shape for d in drawn] == [(n, k) for k in lengths]
    got = np.hstack(drawn)
    assert np.array_equal(got.view(np.uint64), _numpy_rows(seed, n, got.shape[1]).view(np.uint64))

