"""Counter-based random streams: one Philox generator per (seed, stream)."""
from __future__ import annotations

import numpy as np

from .weights import _as_int

__all__ = ["stream", "uniform_mantissas"]

MANTISSA_BITS = 53
GRID = 1 << MANTISSA_BITS  # uniform doubles live on the 2**-53 lattice

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for stream `stream_id` of master seed `seed`.

    Philox is counter-based, so a replica keyed by (seed, stream) produces
    the same numbers no matter how many threads run or in which order.
    """
    ss = np.random.SeedSequence(entropy=_as_int(seed, "seed", 0),
                                spawn_key=(_as_int(stream_id, "stream_id", 0),))
    return np.random.Generator(np.random.Philox(ss))


def _stream_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """The Philox keys of streams lo..hi-1 of `seed`, as (hi - lo, 2) uint64.

    Row i - lo equals SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(2, np.uint64), the key `stream(seed, i)` gets: numpy's
    hash run once on uint32 arrays across the ids instead of once per id.
    The seed splits into 32-bit words, low first, padded with zeros to the
    pool size because a spawn key follows; each id is one word, so ids end
    at 2^32 - 1.
    """
    seed = _as_int(seed, "seed", 0)
    if hi > 1 << 32:
        raise ValueError(f"stream ids must be < 2^32, got up to {hi - 1}")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    ids = np.arange(lo, hi, dtype=np.uint32)
    entropy = [np.full_like(ids, w) for w in words] + [ids]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(e))
    # generate_state: four output words, one pass over the pool
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        state.append(word ^ (word >> 16))
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _rekey(bit_generator: np.random.Philox, key: np.ndarray) -> None:
    """Set a Philox to the state a fresh one under `key` starts in.

    Counter 0, buffer empty, no cached 32-bit half: the generator then draws
    exactly what a new Philox with that key would.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": key},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _streams(seed: int, lo: int, hi: int):
    """stream(seed, i) for i in range(lo, hi), as one Philox re-keyed per stream.

    Philox is counter-based, so a generator re-keyed to stream i draws what
    `stream(seed, i)` does, and the keys of the whole range take one
    `_stream_keys` pass instead of one SeedSequence hash each.  Take each
    generator only once done with the one before: the next stream re-keys it.
    """
    rng = stream(seed, lo)
    yield rng
    for key in _stream_keys(seed, lo + 1, hi):
        _rekey(rng.bit_generator, key)
        yield rng


def uniform_mantissas(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform grid points in [0,1) as uint64 mantissas (x = m * 2**-53)."""
    return rng.integers(0, GRID, size=size, dtype=np.uint64)
