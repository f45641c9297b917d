"""The block pipeline on step sources it is given."""
import numpy as np
import pytest

from fractalwalk import paths, rng

N, BLOCK, REPLICAS, SEED = 23, 7, 5, 3


def _stub_steps(gen, step: float) -> np.ndarray:
    """N steps of +-step, signs from one whole draw of the generator."""
    return step * (2.0 * gen.integers(0, 2, N) - 1.0)


def _stub_source(step: float):
    """A step source yielding `_stub_steps` in blocks of BLOCK, the last one short."""
    def source(gen):
        x = _stub_steps(gen, step)
        for start in range(0, N, BLOCK):
            yield start, x[start:start + BLOCK].copy()
    return source


def _whole_path(sums) -> np.ndarray:
    return np.concatenate([b.copy() for _, b in sums])


@pytest.mark.parametrize("cpus", [1, 4])
def test_walks_and_oracles_reduce_stub_sources_in_replica_order_on_cpus(cpus, monkeypatch):
    # 0.1 steps round, so a carry that entered a block after its cumsum shows
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    walks, oracles = paths._walks_and_oracles(
        REPLICAS, SEED, _stub_source(1.0), _stub_source(0.1), _whole_path, _whole_path
    )
    for i in range(REPLICAS):
        want = np.cumsum(_stub_steps(rng.stream(SEED, i), 1.0))
        assert walks[i].tobytes() == want.tobytes()
        want = np.cumsum(_stub_steps(rng.stream(SEED, REPLICAS + i), 0.1))
        assert oracles[i].tobytes() == want.tobytes()
