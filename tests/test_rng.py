"""Philox streams: the batched key pass and the re-keyed generator."""
import numpy as np
import pytest

from fractalwalk.rng import _mantissa_block, _stream_keys, _streams, stream, uniform_mantissas


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**70 + 3])
def test_stream_keys_match_seed_sequence(seed):
    ids = [*range(3000), 2**32 - 1]
    want = np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
        for i in ids
    ])
    got = np.concatenate([_stream_keys(seed, 0, 3000), _stream_keys(seed, 2**32 - 1, 2**32)])
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


def test_stream_keys_refuse_ids_past_32_bits():
    assert _stream_keys(0, 2**32, 2**32).shape == (0, 2)
    with pytest.raises(ValueError, match=r"stream ids must be < 2\^32"):
        _stream_keys(0, 2**32 - 1, 2**32 + 1)


def _sample(gen: np.random.Generator) -> list:
    # 32-bit draws read a cached half word first, doubles the Philox buffer
    return [*gen.integers(0, 2**32, size=3, dtype=np.uint32), *gen.random(5)]


def rekeyed_draws_match(leave) -> bool:
    """Whether `_streams` draws what fresh streams do, when each replica
    samples and then leaves its generator as `leave` does."""
    seed, lo, hi = 7, 3, 8

    def replica(gen):
        sample = _sample(gen)
        leave(gen)
        return sample

    got = [replica(gen) for gen in _streams(seed, lo, hi)]
    return got == [_sample(stream(seed, i)) for i in range(lo, hi)]


LEFT_PART_WAY = {
    # 5001 doubles stop one word into a four-word Philox buffer
    "doubles-mid-buffer": lambda gen: gen.random(5001),
    # an odd count of 32-bit draws leaves the other half of a word cached
    "uint32-half-word": lambda gen: gen.integers(0, 2**32, size=2001, dtype=np.uint32),
}


@pytest.mark.parametrize("leave", LEFT_PART_WAY.values(), ids=LEFT_PART_WAY)
def test_rekeyed_generator_draws_what_a_fresh_stream_draws(leave):
    assert rekeyed_draws_match(leave)


@pytest.mark.parametrize("size", [1, 4, 65535, 65536, 65537, 3 * 65536 + 5])
@pytest.mark.parametrize("block", [12, 1 << 16])
def test_mantissa_blocks_match_the_whole_draw(block, size):
    whole = uniform_mantissas(stream(5, 2), size)
    gen = stream(5, 2)
    gen.random(3)  # only the key counts, not where the generator stands
    parts = [_mantissa_block(gen, start, min(block, size - start))
             for start in range(0, size, block)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_mantissa_block_refuses_a_start_off_the_philox_step():
    # a Philox counter step yields four words, one mantissa each
    with pytest.raises(ValueError, match="multiple of 4, got 6"):
        _mantissa_block(stream(0), 6, 10)
