"""The lockstep engine on step sources it is given, and what lil and chung hold."""
import tracemalloc

import numpy as np
import pytest

from fractalwalk import WalkParams, WeightSequence, chung_experiment, lil_experiment, paths, rng

N, BLOCK, REPLICAS, SEED = 23, 7, 5, 3


def _stub_steps(gen, step: float, size: int) -> np.ndarray:
    """size steps of +-step, signs from the generator's next uniforms."""
    return np.where(gen.random(size) < 0.5, -step, step)


def _stub_lockstep() -> tuple[list, list]:
    """Each path's running sums of `_stub_steps`, 1.0 for walks and 0.1 for
    oracles, drawn by `paths._lockstep`; and the starts of its block calls."""
    blocks, calls = {}, []

    def block(start, stop):
        calls.append(start)

        def advance(path, walk):
            steps = _stub_steps(path.gen, 1.0 if walk else 0.1, stop - start)
            blocks.setdefault(path, []).append(paths._sum_block(path, steps))
        return advance

    done = paths._lockstep(REPLICAS, SEED, N, block)
    assert all(path.gen is None for path in done)
    return [np.concatenate(blocks[path]) for path in done], calls


@pytest.mark.parametrize("cpus", [1, 4])
def test_lockstep_sums_stub_steps_in_path_order_on_cpus(cpus, monkeypatch):
    # 0.1 steps round, so a carry that entered a block after its cumsum shows
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(paths, "_BLOCK", BLOCK)
    for group in (1, 3, paths._GROUP):
        monkeypatch.setattr(paths, "_GROUP", group)
        sums, calls = _stub_lockstep()
        # one call per block of each group, the last block short
        assert calls == list(range(0, N, BLOCK)) * -(-2 * REPLICAS // group)
        assert len(sums) == 2 * REPLICAS
        for i, got in enumerate(sums):
            step = 1.0 if i < REPLICAS else 0.1
            want = np.cumsum(_stub_steps(rng.stream(SEED, i), step, N))
            assert got.tobytes() == want.tobytes()


LOCKSTEP_PARAMS = WalkParams(0.7, WeightSequence.power(0.3), 100_003)


def _terminals(run) -> list:
    return run(LOCKSTEP_PARAMS, replicas=4, seed=9).attachments["terminals"]["rows"]


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("run", [lil_experiment, chung_experiment], ids=["lil", "chung"])
def test_group_size_does_not_change_terminals_on_cpus(run, cpus, monkeypatch):
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    want = _terminals(run)
    for group in (1, 3):
        monkeypatch.setattr(paths, "_GROUP", group)
        got = _terminals(run)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("run", [lil_experiment, chung_experiment], ids=["lil", "chung"])
def test_lil_and_chung_hold_at_most_24_bytes_a_step(run):
    # the weights (8 bytes a step) and the clock (8) are held whole, every
    # other array for one block; fresh weights, so their cache counts too
    n = 10**6
    params = WalkParams(0.75, WeightSequence.constant(), n)
    tracemalloc.start()
    try:
        run(params, replicas=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n
