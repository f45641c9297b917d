"""One-step-memory walks: simulation, exact moments, Doob pieces."""
import re

import numpy as np
import pytest
from scipy.signal import lfilter

from fractalwalk import (
    WalkParams,
    WeightSequence,
    doob_decompose,
    exact_second_moment,
    second_moment_profile,
    simulate,
    variance_ratio_bound,
)
from fractalwalk.rng import stream
from fractalwalk.paths import _BLOCK
from fractalwalk.walks import (
    _clock_blocks,
    _constant_run,
    _cross_accumulator,
    _draw_signs,
    _equal_runs,
)

CONST = WeightSequence.constant()


def test_params_reject_degenerate_memory():
    with pytest.raises(ValueError):
        WalkParams(1.0, CONST, 10)
    with pytest.raises(ValueError):
        WalkParams(0.0, CONST, 10)


def test_alpha():
    assert WalkParams(0.75, CONST, 10).alpha == 0.5
    assert WalkParams(0.25, CONST, 10).alpha == -0.5


def test_simulate_shapes_and_reproducibility():
    params = WalkParams(0.75, CONST, 200)
    a = simulate(params, seed=42, stream_id=3)
    b = simulate(params, seed=42, stream_id=3)
    c = simulate(params, seed=42, stream_id=4)
    np.testing.assert_array_equal(a.signs, b.signs)
    assert not np.array_equal(a.signs, c.signs)
    assert a.sums[0] == 0.0
    np.testing.assert_allclose(np.diff(a.sums), a.signs.astype(float))
    assert set(np.unique(a.signs)) <= {-1, 1}


def _draw_signs_cumprod(rng, p, n):
    """Reference: the product of float +-1 flip factors, negated on a fair coin."""
    u = rng.random(n)
    flips = np.where(u < p, 1.0, -1.0)
    flips[0] = 1.0
    x = np.cumprod(flips)
    return -x if u[0] >= 0.5 else x


@pytest.mark.parametrize("n", [1, 2, 650, 5000])
@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_draw_signs_matches_cumprod_reference(p, n):
    for i in range(10):
        got = _draw_signs(stream(8, i), p, n)
        want = _draw_signs_cumprod(stream(8, i), p, n)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_first_step_is_fair():
    params = WalkParams(0.9, CONST, 1)
    first = np.array([simulate(params, seed=5, stream_id=i).signs[0] for i in range(4000)])
    # mean of 4000 fair signs, 3 sigma
    assert abs(first.mean()) <= 3.0 / np.sqrt(4000)


def test_fair_chain_mean():
    params = WalkParams(0.5, CONST, 100_000)
    path = simulate(params, seed=0)
    assert abs(path.signs.mean()) <= 3.0 / np.sqrt(100_000)


def test_sticky_chain_lag_one_agreement():
    params = WalkParams(0.9, CONST, 100_000)
    path = simulate(params, seed=0)
    agree = float(np.mean(path.signs[1:] == path.signs[:-1]))
    assert abs(agree - 0.9) <= 3.0 * np.sqrt(0.09 / 100_000)


def test_second_moment_memoryless_is_energy():
    rng = np.random.default_rng(8)
    seq = WeightSequence.explicit(rng.uniform(0.1, 2.0, 30))
    for n in (1, 7, 30):
        assert exact_second_moment(0.5, seq, 0, n) == pytest.approx(
            seq.partial_energy(n), rel=1e-12
        )


def test_second_moment_small_cases():
    assert exact_second_moment(0.75, CONST, 0, 2) == pytest.approx(3.0)
    odd = WeightSequence.odd_indicator()
    assert exact_second_moment(0.75, odd, 0, 4) == pytest.approx(2.5)


def _double_sum_second_moment(p, weights, m, n):
    """E[(S_n - S_m)^2] as the literal O((n-m)^2) sum of a_i a_j alpha^{|i-j|}."""
    a = weights.values(n)[m:]
    i = np.arange(n - m)
    corr = (2.0 * p - 1.0) ** np.abs(i[:, None] - i[None, :])
    return float(a @ corr @ a)


def test_second_moment_recursion_vs_double_sum():
    rng = np.random.default_rng(9)
    for _ in range(25):
        nw = int(rng.integers(2, 60))
        seq = WeightSequence.explicit(rng.uniform(-1.5, 1.5, nw))
        p = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(0, nw))
        n = int(rng.integers(m + 1, nw + 1))
        fast = exact_second_moment(p, seq, m, n)
        slow = _double_sum_second_moment(p, seq, m, n)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("m,n", [(5, 5), (6, 5)], ids=["m-equals-n", "m-past-n"])
def test_window_moment_refuses_an_empty_window(m, n):
    with pytest.raises(ValueError, match=f"^{re.escape(f'need 0 <= m < n, got m={m}, n={n}')}$"):
        exact_second_moment(0.75, CONST, m, n)


def test_profile_matches_pointwise_moments():
    seq = WeightSequence.power(0.5)
    prof = second_moment_profile(0.6, seq, 50)
    for n in (1, 2, 17, 50):
        assert prof[n - 1] == pytest.approx(exact_second_moment(0.6, seq, 0, n), rel=1e-12)


# -- the exact variance clock, byte for byte against scipy's lfilter ----------


def _lfilter_increments(p, weights, m, n):
    """a_j (a_j + 2 T_j) on the window (m, n], with T from lfilter.

    This is how walks.py computed the cross terms before it dropped
    scipy.signal; the reports were hashed from these bits.
    """
    alpha = 2.0 * p - 1.0
    a = weights.values(n)[m:]
    t = lfilter([0.0, alpha], [1.0, -alpha], a)
    return (a * (a + 2.0 * t)).astype(np.longdouble)


def clock_matches_lfilter(p, weights, n, windows=()) -> bool:
    """Whether the cross terms T, the clock and the window moments over n
    weights have lfilter's bits.

    T is compared first and on its own: the clock's longdouble running sums
    can hide a last-bit change of T, as they do for a fill that starts one
    ulp early.  A NaN of T matches a NaN of either sign, as
    `_cross_accumulator` promises no more.
    """
    alpha = 2.0 * p - 1.0
    a = weights.values(n)
    with np.errstate(invalid="ignore", over="ignore"):
        t, _ = _cross_accumulator(a, alpha)
        want = lfilter([0.0, alpha], [1.0, -alpha], a)
        nan = np.isnan(want)
        if not (np.array_equal(np.isnan(t), nan) and t[~nan].tobytes() == want[~nan].tobytes()):
            return False
        ref = np.cumsum(_lfilter_increments(p, weights, 0, n)).astype(float)
        if second_moment_profile(p, weights, n).tobytes() != ref.tobytes():
            return False
        for m, hi in windows:
            want = float(np.sum(_lfilter_increments(p, weights, m, hi)))
            got = exact_second_moment(p, weights, m, hi)
            if np.float64(got).tobytes() != np.float64(want).tobytes():
                return False
    return True


MEMORY_PS = (0.75, 0.35, 2.0 / 3.0, 0.9995)  # alpha = 0.5, -0.3, 1/3, 0.999


@pytest.mark.parametrize("p", MEMORY_PS)
@pytest.mark.parametrize(
    "weights",
    [
        CONST,
        WeightSequence.power(0.3),
        WeightSequence.odd_indicator(),
        WeightSequence.alternating(),
        WeightSequence.explicit(np.random.default_rng(21).uniform(-2.0, 2.0, 1000)),
        WeightSequence.explicit([0.0, -0.0, 1.0, -0.0, 0.0, -1.5, -0.0] * 150),
        WeightSequence.geometric(2.0),  # inf from k = 1024 on
    ],
    ids=["const", "power0.3", "odd", "alternating", "random", "signed_zeros", "overflow"],
)
def test_moments_match_lfilter_bytes(p, weights):
    for n in (1, 2, 3):
        assert clock_matches_lfilter(p, weights, n, [(m, n) for m in range(n)])
    n = 1100 if weights.kind == "geometric" else 1000
    assert clock_matches_lfilter(p, weights, n, [(0, n), (1, n), (17, 640), (n - 1, n)])


def _special_weights(values) -> WeightSequence:
    """Weights that may hold inf and NaN, zero past the values.

    `WeightSequence.explicit` refuses non-finite values, but the moment code
    still meets them once a geometric sequence overflows.
    """
    vals = np.asarray(values, dtype=float)
    return WeightSequence("special", {}, lambda start, stop: np.pad(
        vals[start:stop], (0, stop - start - vals[start:stop].size)))


def test_moments_match_lfilter_bytes_on_special_values():
    # zero signs, infinities and NaN in every position of short sequences
    rng = np.random.default_rng(22)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])
    for _ in range(400):
        n = int(rng.integers(1, 7))
        weights = _special_weights(rng.choice(pool, n))
        for p in MEMORY_PS:
            assert clock_matches_lfilter(p, weights, n, [(m, n) for m in range(n)])


@pytest.mark.parametrize("p", MEMORY_PS)
@pytest.mark.parametrize("weights", [CONST, WeightSequence.power(0.3)], ids=["const", "power0.3"])
def test_moments_match_lfilter_bytes_at_a_million_steps(p, weights):
    assert clock_matches_lfilter(p, weights, 10**6, [(1, 10**6)])


# -- the fixed-point fill of the clock on runs of equal weights ----------------

# runs shorter (40) and longer than the fixed point takes to reach, a signed
# zero run, and 3.7, which ends in a 2-cycle at p = 0.35
RUNS = [1.0] * 40 + [2.5] * 3000 + [-0.0] * 500 + [3.7] * 2000


@pytest.mark.parametrize("p", MEMORY_PS)
def test_constant_weights_match_lfilter_bytes_past_the_fixed_point(p):
    # n = 1000 stops short of p = 0.9995's fixed point (about 30,000 steps)
    assert clock_matches_lfilter(p, CONST, 10**5, [(1, 10**5), (40_000, 10**5)])


@pytest.mark.parametrize("p", [0.35, 0.05, 0.75])  # alpha < 0 may end in a 2-cycle
def test_runs_of_equal_weights_match_lfilter_bytes(p):
    weights = WeightSequence.explicit(RUNS)
    n = len(RUNS) + 100  # zero weights past the values: one more run
    assert clock_matches_lfilter(p, weights, n, [(0, n), (39, 3100), (3040, 3541), (5000, n)])


def test_equal_runs_compare_bits():
    a = np.array(RUNS + [0.0] * 70 + [1.0] * 63)
    assert _equal_runs(a) == [(40, 3040), (3040, 3540), (3540, 5540), (5540, 5610)]
    assert _equal_runs(WeightSequence.power(0.3).values(1000)) == []


class _Writes:
    """An `out` that records the slices written to it."""

    def __init__(self):
        self.slices = []

    def __setitem__(self, key, value):
        self.slices.append(key)


@pytest.mark.parametrize(
    "p,x,looped", [(0.75, 1.0, 56), (0.35, 3.7, 33), (0.05, 1.0, 340), (0.9995, 1.0, 30369)]
)
def test_constant_run_loops_only_until_the_state_repeats(p, x, looped):
    # the loop writes the steps it ran as one slice, then the fill follows
    out = _Writes()
    _constant_run(out, x, 0, 10**6, 0.0, 2.0 * p - 1.0)
    assert out.slices[0] == slice(0, looped)
    assert [(s.start, s.step) for s in out.slices[1:]] == [
        (out.slices[0].stop, 2), (out.slices[0].stop + 1, 2)
    ]


def test_variance_sandwich_randomized():
    rng = np.random.default_rng(10)
    for _ in range(300):
        nw = int(rng.integers(2, 80))
        seq = WeightSequence.explicit(rng.uniform(0.05, 2.0, nw))
        p = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(0, nw))
        n = int(rng.integers(m + 1, nw + 1))
        mom = exact_second_moment(p, seq, m, n)
        gap = seq.partial_energy(n) - seq.partial_energy(m)
        k = variance_ratio_bound(p)
        assert gap / k <= mom * (1 + 1e-10) + 1e-300
        assert mom <= k * gap * (1 + 1e-10) + 1e-300


def test_variance_ratio_bound_values():
    assert variance_ratio_bound(0.5) == 1.0
    assert variance_ratio_bound(0.75) == 3.0
    assert variance_ratio_bound(0.25) == 3.0


@pytest.mark.parametrize("p", MEMORY_PS[:2])
@pytest.mark.parametrize(
    "weights",
    [
        WeightSequence.power(0.3),
        WeightSequence.explicit(np.random.default_rng(21).uniform(-2.0, 2.0, 10_000)),
        WeightSequence.geometric(2.0),
    ],
    ids=["power0.3", "random", "overflow"],
)
def test_profile_summed_in_blocks_matches_one_cumsum(p, weights, monkeypatch):
    # blocks of 7: a carry that entered a block after its cumsum would round
    # the longdouble sums otherwise, which shows in a few dozen of 10^4
    # float64 values
    monkeypatch.setattr("fractalwalk.weights._SUM_BLOCK", 7)
    assert clock_matches_lfilter(p, weights, 10_000)


@pytest.mark.parametrize("size,n", [(7, 10_000), (_BLOCK, 2 * _BLOCK + 3)])
@pytest.mark.parametrize("p", MEMORY_PS[:2])
@pytest.mark.parametrize(
    "weights",
    [
        CONST,
        WeightSequence.power(0.3),
        WeightSequence.alternating(),
        WeightSequence.explicit(np.random.default_rng(21).uniform(-2.0, 2.0, 10_000)),
        WeightSequence.geometric(2.0),
    ],
    ids=["const", "power0.3", "alternating", "random", "overflow"],
)
def test_clock_blocks_match_lfilter(p, weights, size, n):
    # lil's and chung's clock, built a block at a time on weight windows: the
    # recursion's state and the sums' carry cross each block edge, inside a
    # run of equal weights too
    with np.errstate(invalid="ignore", over="ignore"):
        blocks = list(_clock_blocks(p, weights._windows(n, size)))
        want = np.cumsum(_lfilter_increments(p, weights, 0, n)).astype(float)
    assert [start for start, _, _ in blocks] == list(range(0, n, size))
    assert np.concatenate([a for _, a, _ in blocks]).tobytes() == weights.values(n).tobytes()
    assert np.concatenate([s_sq for _, _, s_sq in blocks]).tobytes() == want.tobytes()


def _odd_indicator_second_moment(p, n):
    """E[S_n^2] for weights 1,0,1,0,...: c active steps at lag-2 correlation
    alpha^2, so E[S_n^2] = c + 2 sum_{i<c} (c - i) alpha^{2i}, c = ceil(n/2)."""
    alpha = 2.0 * p - 1.0
    c = (n + 1) // 2
    i = np.arange(1, c)
    return float(c + 2.0 * np.sum((c - i) * alpha ** (2 * i)))


def test_odd_indicator_closed_form():
    odd = WeightSequence.odd_indicator()
    prof = second_moment_profile(0.75, odd, 200)
    for n in range(1, 201):
        assert prof[n - 1] == pytest.approx(_odd_indicator_second_moment(0.75, n), abs=1e-11)


def test_odd_indicator_limit_ratio():
    # E[S_n^2] / ceil(n/2) -> (1 + alpha^2) / (1 - alpha^2) = 5/3 at p = 3/4
    prof = second_moment_profile(0.75, WeightSequence.odd_indicator(), 100_000)
    assert prof[-1] / 50_000 == pytest.approx(5.0 / 3.0, rel=1e-4)


def test_doob_memoryless_collapses():
    params = WalkParams(0.5, CONST, 50)
    path = simulate(params, seed=1)
    dec = doob_decompose(params, path)
    np.testing.assert_allclose(dec.martingale, path.sums[1:], atol=1e-14)
    assert np.all(dec.drift_interior == 0.0)
    assert np.all(dec.drift_boundary == 0.0)


def test_doob_constant_weights_no_interior_drift():
    params = WalkParams(0.8, CONST, 50)
    path = simulate(params, seed=2)
    dec = doob_decompose(params, path)
    assert np.all(dec.drift_interior == 0.0)


def test_doob_identity_residual():
    params = WalkParams(0.75, WeightSequence.power(0.7), 100)
    path = simulate(params, seed=3)
    dec = doob_decompose(params, path)
    assert dec.max_residual < 1e-12
