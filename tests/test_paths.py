"""The lockstep engine on step sources it is given, and what lil and chung hold."""
import tracemalloc

import numpy as np
import pytest

from fractalwalk import WalkParams, WeightSequence, chung_experiment, lil_experiment, paths, rng

N, BLOCK, REPLICAS, SEED = 23, 7, 5, 3


def _stub_steps(gen, step: np.ndarray) -> np.ndarray:
    """The steps +-step, signs from the generator's next uniforms."""
    return np.where(gen.random(step.size) < 0.5, -step, step)


A = np.ones(N)  # walk steps +-1
S_SQ = np.cumsum(np.full(N, 0.01))  # oracle steps near +-0.1


def _stub_lockstep() -> tuple[list, list, list]:
    """Each path's running sums of `_stub_steps` as `paths._lockstep` draws
    them, walks along A and oracles along the step sds of the clock S_SQ;
    the walk flag each path's reducer was given; and the starts of the
    block calls."""
    blocks, flags, calls = {}, {}, []

    def block(start, stop):
        calls.append(start)

        def reduce(path, sums, walk):
            blocks.setdefault(path, []).append(sums)
            flags.setdefault(path, set()).add(walk)
        return reduce

    done = paths._lockstep(0.5, A, S_SQ, REPLICAS, SEED, block)
    assert all(path.gen is None for path in done)
    return [np.concatenate(blocks[path]) for path in done], [flags[path] for path in done], calls


@pytest.mark.parametrize("cpus", [1, 4])
def test_lockstep_sums_stub_steps_in_path_order_on_cpus(cpus, monkeypatch):
    # 0.1 steps round, so a carry that entered a block after its cumsum shows
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(paths, "_BLOCK", BLOCK)
    monkeypatch.setattr(paths, "_walk_block", lambda path, p, a: _stub_steps(path.gen, a))
    monkeypatch.setattr(paths, "_oracle_block", lambda path, sd: _stub_steps(path.gen, sd))
    step_sd = np.sqrt(np.diff(S_SQ, prepend=0.0))
    for group in (1, 3, paths._GROUP):
        monkeypatch.setattr(paths, "_GROUP", group)
        sums, flags, calls = _stub_lockstep()
        # one call per block of each group, the last block short
        assert calls == list(range(0, N, BLOCK)) * -(-2 * REPLICAS // group)
        assert flags == [{True}] * REPLICAS + [{False}] * REPLICAS
        for i, got in enumerate(sums):
            want = np.cumsum(_stub_steps(rng.stream(SEED, i), A if i < REPLICAS else step_sd))
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


def _peak_bytes_a_step(run, **kwargs) -> float:
    """The tracemalloc peak of a 4-replica run at 10^6 steps, per step, on
    fresh weights, so their cache counts too."""
    n = 10**6
    params = WalkParams(0.75, WeightSequence.constant(), n)
    tracemalloc.start()
    try:
        run(params, replicas=4, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n


@pytest.mark.parametrize("run", [lil_experiment, chung_experiment], ids=["lil", "chung"])
def test_lil_and_chung_hold_at_most_24_bytes_a_step(run):
    # the weights (8 bytes a step) and the clock (8) are held whole, every
    # other array for one block
    assert _peak_bytes_a_step(run) <= 24


@pytest.mark.parametrize("normalization,limit", [("scaled_A", 40), ("plain_A", 32)])
def test_lil_on_the_energy_clocks_holds_its_whole_arrays(normalization, limit):
    # the weights, the energies and the exact clock (8 bytes a step each),
    # and for scaled_A its scaled energies; the energies are summed a block
    # at a time
    assert _peak_bytes_a_step(lil_experiment, normalization=normalization) <= limit
