"""One-step-memory walks: simulation, exact moments, Doob pieces."""
import numpy as np
import pytest
from scipy.signal import lfilter

from fractalwalk import (
    WalkParams,
    WeightSequence,
    doob_decompose,
    exact_cross_moment,
    exact_second_moment,
    odd_indicator_limit_ratio,
    odd_indicator_second_moment,
    phi_mixing_coefficient,
    second_moment_profile,
    simulate,
    variance_ratio_bound,
)
from fractalwalk.rng import stream
from fractalwalk.walks import _draw_signs

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


def test_cross_moment_values():
    assert exact_cross_moment(0.75, 3, 3) == 1.0
    assert exact_cross_moment(0.75, 1, 3) == 0.25
    assert exact_cross_moment(0.5, 1, 2) == 0.0


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


def _assert_matches_lfilter(p, weights, n, windows):
    with np.errstate(invalid="ignore", over="ignore"):
        ref = np.cumsum(_lfilter_increments(p, weights, 0, n)).astype(float)
        assert second_moment_profile(p, weights, n).tobytes() == ref.tobytes()
        for m, hi in windows:
            want = float(np.sum(_lfilter_increments(p, weights, m, hi)))
            got = exact_second_moment(p, weights, m, hi)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (m, hi)


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
        _assert_matches_lfilter(p, weights, n, [(m, n) for m in range(n)])
    n = 1100 if weights.kind == "geometric" else 1000
    _assert_matches_lfilter(p, weights, n, [(0, n), (1, n), (17, 640), (n - 1, n)])


def test_moments_match_lfilter_bytes_on_special_values():
    # zero signs, infinities and NaN in every position of short sequences
    rng = np.random.default_rng(22)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])
    for _ in range(400):
        n = int(rng.integers(1, 7))
        weights = WeightSequence.explicit(rng.choice(pool, n))
        for p in MEMORY_PS:
            _assert_matches_lfilter(p, weights, n, [(m, n) for m in range(n)])


@pytest.mark.parametrize("p", MEMORY_PS)
@pytest.mark.parametrize("weights", [CONST, WeightSequence.power(0.3)], ids=["const", "power0.3"])
def test_moments_match_lfilter_bytes_at_a_million_steps(p, weights):
    _assert_matches_lfilter(p, weights, 10**6, [(1, 10**6)])


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


def test_phi_mixing_values():
    assert phi_mixing_coefficient(0.75, 2) == pytest.approx(0.125)
    assert phi_mixing_coefficient(0.5, 1) == 0.0
    assert phi_mixing_coefficient(0.9, 3) == pytest.approx(0.256)


def test_odd_indicator_closed_form():
    odd = WeightSequence.odd_indicator()
    prof = second_moment_profile(0.75, odd, 200)
    for n in range(1, 201):
        assert prof[n - 1] == pytest.approx(
            odd_indicator_second_moment(0.75, n), abs=1e-11
        )


def test_odd_indicator_limit_ratio():
    # (2p^2 - 2p + 1) / (2p(1-p)) at p = 3/4
    assert odd_indicator_limit_ratio(0.75) == pytest.approx(5.0 / 3.0)
    big = odd_indicator_second_moment(0.75, 100_000) / 50_000
    assert big == pytest.approx(5.0 / 3.0, rel=1e-4)


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
