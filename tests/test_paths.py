"""The lockstep engine on step sources it is given, what lil and chung hold,
and fclt's blocks on threads and what it holds."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fractalwalk import (
    FractalFunction,
    WalkParams,
    WeightSequence,
    chung_experiment,
    experiments,
    fractal,
    functional_clt_experiment,
    lil_experiment,
    paths,
    rng,
    variance_profile,
)
from fractalwalk.experiments import _clock_source
from fractalwalk.walks import second_moment_profile

N, BLOCK, REPLICAS, SEED = 23, 7, 5, 3


def _stub_steps(gen, step: np.ndarray) -> np.ndarray:
    """The steps +-step, signs from the generator's next uniforms."""
    return np.where(gen.random(step.size) < 0.5, -step, step)


A = np.ones(N)  # walk steps +-1
S_SQ = np.cumsum(np.full(N, 0.01))  # oracle steps near +-0.1


def _stub_lockstep() -> tuple[list, list, list, list]:
    """Each path's running sums of `_stub_steps` as `paths._lockstep` draws
    them, walks along A and oracles along the step sds of the clock S_SQ;
    the walk flag each path's reducer was given; the block sizes the source
    was called with; and the starts of the block calls."""
    blocks, flags, sources, calls = {}, {}, [], []

    def source(size):
        sources.append(size)
        for start in range(0, N, size):
            part = slice(start, start + size)
            # a denominator other than the clock, so a mix-up shows
            yield start, A[part], S_SQ[part], -S_SQ[part]

    def block(start, den):
        calls.append(start)
        assert den.tobytes() == (-S_SQ[start:start + paths._BLOCK]).tobytes()

        def reduce(path, sums, walk):
            blocks.setdefault(path, []).append(sums)
            flags.setdefault(path, set()).add(walk)
        return reduce

    done = paths._lockstep(0.5, source, REPLICAS, SEED, block)
    assert all(path.gen is None for path in done)
    sums = [np.concatenate(blocks[path]) for path in done]
    return sums, [flags[path] for path in done], sources, calls


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
        sums, flags, sources, calls = _stub_lockstep()
        # each group walks the source once, one call per block, the last short
        groups = -(-2 * REPLICAS // group)
        assert sources == [BLOCK] * groups
        assert calls == list(range(0, N, BLOCK)) * groups
        assert flags == [{True}] * REPLICAS + [{False}] * REPLICAS
        for i, got in enumerate(sums):
            want = np.cumsum(_stub_steps(rng.stream(SEED, i), A if i < REPLICAS else step_sd))
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size,n", [(7, 10_003), (paths._BLOCK, 2 * paths._BLOCK + 3)])
@pytest.mark.parametrize("normalization", ["exact_s", "scaled_A", "plain_A"])
def test_clock_source_blocks_match_the_whole_arrays(normalization, size, n):
    # what lil and chung hand the engine, against the arrays they once held
    params = WalkParams(0.7, WeightSequence.power(0.3), n)
    seq = params.weights
    whole = {"exact_s": second_moment_profile(params.p, seq, n),
             "scaled_A": (params.p / (1.0 - params.p)) * seq.energies(n),
             "plain_A": seq.energies(n)}
    start, a, s_sq, den = zip(*_clock_source(params, normalization)(size))
    assert start == tuple(range(0, n, size))
    assert np.concatenate(a).tobytes() == seq.values(n).tobytes()
    assert np.concatenate(s_sq).tobytes() == whole["exact_s"].tobytes()
    assert np.concatenate(den).tobytes() == whole[normalization].tobytes()


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


RUNS = {
    "lil-exact_s": lil_experiment,
    "lil-scaled_A": lambda params, **kw: lil_experiment(params, normalization="scaled_A", **kw),
    "lil-plain_A": lambda params, **kw: lil_experiment(params, normalization="plain_A", **kw),
    "chung": chung_experiment,
}


@pytest.mark.parametrize("n", [10**6, 3 * 10**6])
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_lil_and_chung_peak_at_most_8_mb_at_any_horizon(run, n):
    # every array, the weights and clocks too, lives for one block of
    # 2^16 steps; fresh weights, so a cache they filled would count
    params = WalkParams(0.75, WeightSequence.constant(), n)
    tracemalloc.start()
    try:
        run(params, replicas=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


FCLT_F = FractalFunction(2, WeightSequence.constant(), 1.0)
FCLT_TS, FCLT_N, FCLT_SEED = (0.25, 0.5, 1.0), 12, 6


def _fclt_by_numpy(x_samples: int) -> list[str]:
    """fclt's statistics, in report order, as np.var and np.cov give them
    on the increments of one whole draw of the points."""
    v_n = variance_profile(2, FCLT_F.weights, FCLT_N).grid_value(FCLT_N)
    hs = [Fraction(1, 2 ** int(FCLT_N * t)) for t in FCLT_TS]
    mx = rng.uniform_mantissas(rng.stream(FCLT_SEED, 0), x_samples)
    incs = FCLT_F.increment_grid(mx, hs, 1e-12) / np.array(
        [[float(h) * math.sqrt(v_n)] for h in hs])
    var = [np.var(row, ddof=1) for row in incs]
    cov = [np.cov(incs[a], incs[b], ddof=1)[0, 1]
           for a in range(len(hs)) for b in range(a + 1, len(hs))]
    return [float(v).hex() for v in var + cov]


@pytest.mark.parametrize("cpus", [1, 4])
def test_fclt_draws_its_blocks_from_one_stream_on_cpus(cpus, monkeypatch):
    # three fill blocks, the last of 5 points, each drawing its own mantissas
    x_samples = 2 * fractal._EVAL_BLOCK + 5
    want = _fclt_by_numpy(x_samples)
    opened, open_stream = [], rng.stream

    def recording_stream(seed, stream_id=0):
        opened.append((seed, stream_id))
        return open_stream(seed, stream_id)

    for module in (rng, experiments):
        monkeypatch.setattr(module, "stream", recording_stream)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: cpus)
    rep = functional_clt_experiment(FCLT_F, 1.0, FCLT_N, list(FCLT_TS),
                                    x_samples=x_samples, seed=FCLT_SEED)
    assert opened == [(FCLT_SEED, 0)]
    assert [float(s.value).hex() for s in rep.statistics] == want


def _fclt_peak(x_samples: int) -> int:
    tracemalloc.start()
    try:
        functional_clt_experiment(FCLT_F, 1.0, 40, "0.25,0.5,0.75,1", x_samples=x_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fclt_holds_8_bytes_a_point_a_time_and_its_block_buffers(monkeypatch):
    # four times: the increments are 32 bytes a point; the block buffers
    # scale with the threads, so two are set
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 2)
    _fclt_peak(1000)  # f's certificate and variance profile, once
    small, large, at_million = (_fclt_peak(n) for n in (2**19, 2**20, 10**6))
    assert (large - small) / (4 * 2**19) <= 8.5
    assert at_million <= 44 * 2**20
