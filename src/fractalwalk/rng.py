"""Counter-based random streams: one Philox generator per (seed, stream)."""
from __future__ import annotations

import numpy as np

MANTISSA_BITS = 53
GRID = 1 << MANTISSA_BITS  # uniform doubles live on the 2**-53 lattice


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for stream `stream_id` of master seed `seed`.

    Philox is counter-based, so a replica keyed by (seed, stream) produces
    the same numbers no matter how many threads run or in which order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(ss))


def uniform_mantissas(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform grid points in [0,1) as uint64 mantissas (x = m * 2**-53)."""
    return rng.integers(0, GRID, size=size, dtype=np.uint64)
