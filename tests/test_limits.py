"""Variance profiles, reference statistics, and the limit-theorem experiments."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fractalwalk import (
    FractalFunction,
    RegularVariationError,
    WalkParams,
    WeightSequence,
    chung_experiment,
    clt_experiment,
    functional_clt_experiment,
    ks_statistic,
    lil_experiment,
    modulus_experiment,
    sign_walk_grid,
    variance_profile,
)
from fractalwalk import paths, stats
from fractalwalk.experiments import CHUNG_CONSTANT, _brownian_from_rng
from fractalwalk.paths import _BLOCK, _COVER_EDGES, _running_max
from fractalwalk.rng import stream, uniform_mantissas
from fractalwalk.walks import exact_second_moment, second_moment_profile

from finite_depth import (
    covariance_se,
    enumerated_covariance,
    fclt_covariance,
    fclt_paths,
)

CONST = WeightSequence.constant()


# -- variance profile ---------------------------------------------------------


def test_even_base_profile_is_energy():
    prof = variance_profile(2, CONST, 12)
    assert prof.grid_value(7) == 7.0
    for seq in (CONST, WeightSequence.power(1.0), WeightSequence.odd_indicator()):
        p = variance_profile(2, seq, 15)
        np.testing.assert_array_equal(p.values, seq.energies(15))
        # i.i.d. fair signs: the chain's second moment at repeat probability 1/2
        np.testing.assert_array_equal(p.values, second_moment_profile(0.5, seq, 15))


def test_odd_base_profile_level_two():
    prof = variance_profile(3, CONST, 5)
    # repeat probability 2/3, so E[(X_1 + X_2)^2] = 2 + 2/3 * 2 = 8/3
    np.testing.assert_array_equal(prof.values, second_moment_profile(2.0 / 3.0, CONST, 5))
    assert prof.grid_value(2) == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_odd_base_profile_matches_sign_walk():
    """Empirical second moments of base-3 slope-sign partial sums, 3 SE."""
    prof = variance_profile(3, CONST, 20)
    n_pts = 100_000
    mx = uniform_mantissas(stream(11, 0), n_pts)
    signs = sign_walk_grid(3, mx, 20).astype(float)
    w = np.cumsum(signs, axis=0)
    assert float(np.mean(w[0] ** 2)) == 1.0
    for n in range(2, 21):
        emp = float(np.mean(w[n - 1] ** 2))
        se = float(np.std(w[n - 1] ** 2, ddof=1)) / math.sqrt(n_pts)
        assert abs(emp - prof.grid_value(n)) <= 3.0 * se


def test_profile_guards():
    with pytest.raises(ValueError):
        variance_profile(2, CONST, 0)
    prof = variance_profile(2, CONST, 5)
    with pytest.raises(ValueError):
        prof.grid_value(0)
    with pytest.raises(ValueError):
        prof.grid_value(6)


def test_sigma_l_grid_and_interpolation():
    prof = variance_profile(3, CONST, 20)
    assert prof.sigma_l(Fraction(1, 9)) == prof.grid_value(2)
    # log-scale midpoint between levels 1 and 2
    mid = prof.sigma_l(float(3**-1.5))
    assert mid == pytest.approx(0.5 * (prof.grid_value(1) + prof.grid_value(2)))
    assert prof.grid_value(1) < mid < prof.grid_value(2)


def test_sigma_l_constant_beyond_ends():
    prof = variance_profile(3, CONST, 20)
    assert prof.sigma_l(0.5) == prof.grid_value(1)
    assert prof.sigma_l(float(3**-25)) == prof.grid_value(20)


def test_sigma_l_domain():
    prof = variance_profile(2, CONST, 5)
    for h in (0, 1, 1.5, -0.25):
        with pytest.raises(ValueError):
            prof.sigma_l(h)


# -- Brownian reference and KS ------------------------------------------------


def test_brownian_quadratic_variation():
    # the oracle on the unit clock s_k^2 = k (unit weights at p = 1/2), over
    # two blocks: unit increment variance, no lag-1 correlation
    n = 100_000
    _, b = lockstep_sums(WalkParams(0.5, CONST, n), 1, 3)
    inc = np.diff(b, prepend=0.0)
    assert float(np.mean(inc**2)) == pytest.approx(1.0, abs=0.02)
    lag1 = float(np.mean(inc[:-1] * inc[1:]))
    assert abs(lag1) <= 3.0 / math.sqrt(n - 1)


def test_ks_statistic_on_exact_quantiles():
    n = 10_000
    x = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(x) < 1e-3


_QUANTILE_SAMPLES = {
    "normal": lambda rng: rng.standard_normal(1001),
    # few distinct values, so most quantiles fall between equal ones
    "ties": lambda rng: rng.integers(-3, 4, 2000).astype(float),
    "nan": lambda rng: np.r_[rng.standard_normal(500), np.nan, rng.standard_normal(99)],
    "all-nan": lambda rng: np.full(20, np.nan),
    "one": lambda rng: np.array([2.5]),
}


@pytest.mark.parametrize("kind", _QUANTILE_SAMPLES)
def test_quantiles_match_numpy_on_the_unsorted_input(kind):
    x = _QUANTILE_SAMPLES[kind](np.random.default_rng(7))
    before = x.copy()
    want = np.quantile(x, (0.05, 0.25, 0.5, 0.75, 0.95))
    assert np.array(stats._quantiles(x)).tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes()


def test_quantiles_of_signed_zeros_match_numpy_in_value():
    # -0.0 == 0.0, so a sort may leave either zero where a partition leaves
    # the other: the quantiles agree as numbers but not always in sign
    x = np.array([0.0, 0.0, -1.0, 0.0, 1.0, 0.5, 0.5, -0.0, 0.0, 1.0, 0.5, -1.0, 0.0,
                  -1.0, -0.0, -0.0, 1.0, 0.5, 0.5])
    want = np.quantile(x, (0.05, 0.25, 0.5, 0.75, 0.95))
    assert np.array_equal(stats._quantiles(x), want)


def test_ks_statistic_degenerate_and_small():
    assert ks_statistic(np.zeros(50)) == pytest.approx(0.5)
    assert math.isnan(ks_statistic(np.r_[np.zeros(49), np.nan]))
    with pytest.raises(ValueError):
        ks_statistic(np.zeros(5))


# -- the normal CDF, bit for bit against scipy's cephes ndtr ------------------


def _ulp_window(edge: float, ulps: int = 300) -> np.ndarray:
    """The positive float `edge` and its `ulps` neighbours each side, both signs."""
    w = (np.array(edge).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)
    return np.concatenate([w, -w])


def test_ndtr_port_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(13)
    # the branch edges |a|/sqrt(2) = sqrt(1/2), 1 and 8, and the underflow
    # cut a^2/2 = MAXLOG
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * stats._MAXLOG)]
    x = np.concatenate([
        rng.standard_normal(400_000),
        rng.uniform(-40.0, 40.0, 300_000),
        rng.standard_normal(200_000) * 1e-3,
        rng.uniform(-1.5, 1.5, 200_000),
        *map(_ulp_window, edges),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324],
    ])
    assert x.size >= 10**6
    np.testing.assert_array_equal(stats._ndtr(x).view(np.uint64), ndtr(x).view(np.uint64))


def _ks_reference(samples) -> float:
    """KS distance to the normal over every index, with scipy's ndtr."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = ndtr(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def _ks_sample(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "t3":
        return rng.standard_t(3, n)
    if kind == "lattice":  # quarter steps, so most samples tie
        return np.round(4.0 * rng.standard_normal(n)) / 4.0
    if kind == "shifted":
        return rng.standard_normal(n) + 0.05
    if kind == "wide":
        return rng.uniform(-40.0, 40.0, n)
    x = rng.standard_normal(n)  # "infinite": a few samples at each infinity
    x[: max(1, n // 50)] = np.inf
    x[-2:] = -np.inf
    return x


@pytest.mark.parametrize("n", [10, 137, 10_000, 200_000])
@pytest.mark.parametrize("kind", ["normal", "t3", "lattice", "shifted", "wide", "infinite"])
def test_ks_statistic_matches_the_scipy_reference(kind, n):
    # the screened maximum must be the same float as the full scan's
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = _ks_sample(kind, rng, n)
        assert ks_statistic(x) == _ks_reference(x)


def test_ks_statistic_keeps_a_near_tie_the_screen_misorders():
    # x[2] sits mid-cell near -1, where the interpolated CDF is 1.46e-7 too
    # high; x[5] near -0.1, where it is within 3e-8.  Exactly, 0.3 - Phi(x[2])
    # beats 0.6 - Phi(x[5]) by 5e-8, but the screen ranks them the other way
    grid = stats._SCREEN_X
    k = np.searchsorted(grid, -1.0)
    x_a = (grid[k - 1] + grid[k]) / 2
    x_b = ndtri(0.6 - (0.3 - ndtr(x_a)) + 5e-8)
    x = np.array([-2.0, -1.2, x_a, -0.5, -0.3, x_b, 0.3, 0.7, 1.2, 2.0])
    screen = np.interp(x, grid, stats._SCREEN_CDF)
    assert 0.6 - screen[5] > 0.3 - screen[2]
    for sample in (x, -x[::-1]):  # the plus side, then the minus side
        assert ks_statistic(sample) == _ks_reference(sample) == pytest.approx(0.3 - ndtr(x_a))


# -- CLT ----------------------------------------------------------------------


def test_clt_replica_floor():
    with pytest.raises(ValueError):
        clt_experiment(WalkParams(0.75, CONST, 100), replicas=500)


def test_clt_normal_limit():
    rep = clt_experiment(
        WalkParams(0.75, CONST, 2000), replicas=5000, seed=3
    )
    ks = rep.find("ks_distance")
    assert ks.value < 0.02
    assert ks.passed is True
    assert abs(rep.find("sample_mean").value) < 3.0 * rep.find("se_mean").value


def test_clt_se_scales_with_replicas():
    r1 = clt_experiment(WalkParams(0.75, CONST, 500), replicas=1000, seed=9)
    r4 = clt_experiment(WalkParams(0.75, CONST, 500), replicas=4000, seed=9)
    ratio = r1.find("se_mean").value / r4.find("se_mean").value
    assert ratio == pytest.approx(2.0, rel=0.2)


# -- LIL family ---------------------------------------------------------------


def test_lil_horizon_floor():
    with pytest.raises(ValueError):
        lil_experiment(WalkParams(0.75, CONST, 1000))


def test_lil_scaled_band():
    rep = lil_experiment(
        WalkParams(0.75, CONST, 100_000),
        replicas=40,
        seed=0,
        normalization="scaled_A",
        band=(0.0, 1.905),
        min_fraction=0.95,
    )
    assert rep.find("walk_fraction_in_band").passed is True
    assert rep.find("oracle_fraction_in_band").passed is True


def test_lil_plain_band_odd_indicator_median():
    rep = lil_experiment(
        WalkParams(0.75, WeightSequence.odd_indicator(), 100_000),
        replicas=40,
        seed=0,
        normalization="plain_A",
    )
    # sqrt(5/3) = 1.291 is the expected ceiling for this configuration
    for name in ("walk_median", "oracle_median"):
        assert rep.find(name).value == pytest.approx(math.sqrt(5.0 / 3.0), abs=0.3)


def test_lil_exact_normalization_tracks_oracle():
    rep = lil_experiment(
        WalkParams(0.75, CONST, 100_000), replicas=50, seed=0
    )
    wm = rep.find("walk_median").value
    om = rep.find("oracle_median").value
    assert abs(wm - om) <= 0.15
    cov = rep.find("coverage_fraction")
    # both walk and Brownian oracle sit near 0.5 at this horizon, so the
    # 0.80 design threshold reads failed for either process (see ledger)
    assert 0.3 < cov.value < 0.85
    assert cov.passed is False


def test_lil_rejects_unknown_normalization():
    with pytest.raises(ValueError):
        lil_experiment(WalkParams(0.75, CONST, 100_000), normalization="bogus")


# -- long paths in blocks against the full-length reference --------------------

# power(0.3) weights are not integers, so float partial sums round and a carry
# added after a block's cumsum gives other bits; constant(0.005) keeps s_n^2
# below e^2 for the whole first block, so the statistics start in block two
POWER = WeightSequence.power(0.3)
SMALL = WeightSequence.constant(0.005)
LONG_CASES = [
    pytest.param(CONST, 100_000, id="const-100000"),
    pytest.param(CONST, 2 * _BLOCK + 1, id="const-2B+1"),
    pytest.param(POWER, 100_000, id="power-100000"),
    pytest.param(POWER, 2 * _BLOCK + 1, id="power-2B+1"),
    pytest.param(SMALL, 2 * _BLOCK + 1, id="small-2B+1"),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _start(den):
    return int(np.argmax(den > math.e**2))


def _oracle_sd(params):
    s_sq = second_moment_profile(params.p, params.weights, params.horizon)
    return np.sqrt(np.diff(s_sq, prepend=0.0))


# full-length draws written out here, apart from the package's block draws,
# so the block paths are checked against code they do not share


def _signs(rng, p, n):
    """X_1..X_n as float64 +-1 from n uniforms at once."""
    u = rng.random(n)
    flips = (u >= p).view(np.uint8)
    flips[0] = u[0] >= 0.5  # first draw doubles as the fair initial sign
    return 1.0 - 2.0 * np.bitwise_xor.accumulate(flips)


def _brownian(rng, step_sd):
    """A Brownian path from step_sd.size normals at once."""
    return np.cumsum(rng.standard_normal(step_sd.size) * step_sd)


def _lil_reference(params, replicas, seed, den, coverage):
    """Per-replica (walk max, covered, oracle max) from full-length paths."""
    n = params.horizon
    i0 = _start(den)
    scale = np.sqrt(2.0 * den[i0:] * np.log(np.log(den[i0:])))
    step_sd = _oracle_sd(params)
    a = params.weights.values(n)

    def walk_one(i):
        x = _signs(stream(seed, i), params.p, n)
        trace = np.cumsum(a * x)[i0:] / scale
        covered = False
        if coverage:
            counts, _ = np.histogram(trace, bins=_COVER_EDGES)
            covered = bool(np.all(counts > 0))
        return float(np.max(trace)), covered

    def oracle_one(i):
        b = _brownian(stream(seed, replicas + i), step_sd)
        return float(np.max(b[i0:] / scale))

    return [walk_one(i) + (oracle_one(i),) for i in range(replicas)]


def _chung_reference(params, replicas, seed):
    """Per-replica (walk, oracle) terminal running-mins from full-length paths."""
    n = params.horizon
    s_sq = second_moment_profile(params.p, params.weights, n)
    i0 = _start(s_sq)
    coef = np.sqrt(np.log(np.log(s_sq[i0:])) / s_sq[i0:])
    step_sd = _oracle_sd(params)
    a = params.weights.values(n)

    def terminal_runmin(path):
        runmax = np.maximum.accumulate(np.abs(path))[i0:]
        return float(np.min(coef * runmax))

    return [
        (
            terminal_runmin(np.cumsum(a * _signs(stream(seed, i), params.p, n))),
            terminal_runmin(_brownian(stream(seed, replicas + i), step_sd)),
        )
        for i in range(replicas)
    ]


def lockstep_sums(params, replicas, seed) -> list:
    """The whole running sums of each walk and then each oracle, as lil and
    chung draw them block by block on the exact clock."""
    n = params.horizon
    s_sq = second_moment_profile(params.p, params.weights, n)
    blocks = {}

    def block(start, stop):
        return lambda path, sums, walk: blocks.setdefault(path, []).append(sums)

    done = paths._lockstep(params.p, params.weights.values(n), s_sq, replicas, seed, block)
    return [np.concatenate(blocks[path]) for path in done]


@pytest.mark.parametrize("seq,n", LONG_CASES)
def test_block_sums_match_full_array_paths(seq, n):
    # the whole walk and oracle paths, not only the statistics: a maximum
    # reached in the first block would hide a fault in the later ones
    params = WalkParams(0.7, seq, n)
    a = seq.values(n)
    step_sd = _oracle_sd(params)
    got = lockstep_sums(params, 3, 4)
    for i in range(3):
        want = np.cumsum(a * _signs(stream(4, i), params.p, n))
        assert got[i].tobytes() == want.tobytes()
        want = _brownian(stream(4, 3 + i), step_sd)
        assert got[3 + i].tobytes() == want.tobytes()
        assert _brownian_from_rng(stream(4, 3 + i), step_sd).tobytes() == want.tobytes()


# scaled_A runs the oracle on a clock other than its denominator; SMALL's
# (p/(1-p)) A_n stays below e^2 at 2B+1 steps
LIL_CASES = [
    pytest.param(*case.values, "exact_s", id=f"{case.id}-exact_s") for case in LONG_CASES
] + [
    pytest.param(*case.values, "scaled_A", id=f"{case.id}-scaled_A")
    for case in LONG_CASES[:4]
]


@pytest.mark.parametrize("seq,n,normalization", LIL_CASES)
def test_lil_blocks_match_full_array_reference(seq, n, normalization):
    params = WalkParams(0.7, seq, n)
    rep = lil_experiment(params, replicas=4, seed=2, normalization=normalization)
    exact = normalization == "exact_s"
    if exact:
        den = second_moment_profile(params.p, seq, n)
    else:
        den = (params.p / (1.0 - params.p)) * seq.energies(n)
    want = _lil_reference(params, 4, 2, den, coverage=exact)
    rows = rep.attachments["terminals"]["rows"]
    assert _bits([r[1] for r in rows]) == _bits([w for w, _, _ in want])
    assert _bits([r[2] for r in rows]) == _bits([o for _, _, o in want])
    # coverage is tracked on the exact_s clock only
    names = {s.name for s in rep.statistics}
    assert ("coverage_fraction" in names) == exact
    if exact:
        assert rep.find("coverage_fraction").value == np.mean([c for _, c, _ in want])


@pytest.mark.parametrize("seq,n", LONG_CASES[:4])
def test_lil_coverage_flags_match_full_array_reference(seq, n, monkeypatch):
    # a path stops binning once all nine bins are seen; that must not change
    # a single flag or maximum (SMALL's short trace covers nothing)
    params = WalkParams(0.75, seq, n)
    den = second_moment_profile(params.p, seq, n)
    want = _lil_reference(params, 12, 5, den, coverage=True)
    lockstep, runs = paths._lockstep, []
    monkeypatch.setattr(paths, "_lockstep", lambda *args: runs.append(lockstep(*args)) or runs[-1])
    lil_experiment(params, replicas=12, seed=5)
    walks = runs[0][:12]
    assert _bits([path.top for path in walks]) == _bits([t for t, _, _ in want])
    assert [bool(path.seen.all()) for path in walks] == [c for _, c, _ in want]
    assert {bool(path.seen.all()) for path in walks} == {True, False}


@pytest.mark.parametrize("seq,n", LONG_CASES)
def test_chung_blocks_match_full_array_reference(seq, n):
    params = WalkParams(0.7, seq, n)
    rep = chung_experiment(params, replicas=4, seed=2)
    want = _chung_reference(params, 4, 2)
    rows = rep.attachments["terminals"]["rows"]
    assert _bits([r[1] for r in rows]) == _bits([w for w, _ in want])
    assert _bits([r[2] for r in rows]) == _bits([o for _, o in want])


# -- clt's row blocks, chung's int64 scan, lil's coverage screen ---------------


def _clt_reference(params, seed, ids):
    """S_n/s_n of the given replicas, each drawn whole on its own stream."""
    n = params.horizon
    a = params.weights.values(n)
    s_n = math.sqrt(exact_second_moment(params.p, params.weights, 0, n))
    return [float(np.add.reduce(a * _signs(stream(seed, i), params.p, n))) / s_n for i in ids]


# power(0.3) sums are not integers, so a sum taken in another order (a BLAS
# dot, or a reduce over the block's columns) gives other bits; the reference
# is numpy's own reduce over each replica's whole-path draw.  1003 replicas
# fill neither the 13-row blocks of n = 5000 nor the 250-replica tasks; past
# _BLOCK steps a block is one row.
@pytest.mark.parametrize("n,replicas", [(5000, 1003), (_BLOCK + 1, 1000)],
                         ids=["13-rows", "one-row"])
def test_clt_row_blocks_match_per_replica_reference(n, replicas):
    params = WalkParams(0.75, POWER, n)
    rows = clt_experiment(params, replicas=replicas, seed=6).attachments["normalized_sums"]["rows"]
    ids = range(replicas) if n < _BLOCK else [*range(3), 249, 250, 251, replicas - 1]
    assert [rows[i][0] for i in ids] == list(ids)
    assert _bits([rows[i][1] for i in ids]) == _bits(_clt_reference(params, 6, ids))


# +0.0 (also from -0.0), +inf (also from -inf) and NaN on either side of a
# block boundary; the carry enters the second block's first value
RUNNING_MAX_CASES = {
    "zeros": [[0.0, -0.0, 0.0], [-0.0, 0.0]],
    "zero-after-peak": [[0.0, -2.5, 1.5], [-0.0, 0.5, -3.0]],
    "inf-before": [[1.0, -np.inf, 2.0], [0.0, -3.0]],
    "inf-after": [[1.0, -2.0], [np.inf, -1.0, 0.0]],
    "nan-before": [[1.0, np.nan, 0.0], [5.0, -np.inf]],
    "nan-after": [[-0.0, 4.0, np.inf], [np.nan, 9.0, 0.0]],
    "nan-at-the-boundary": [[-1.0, np.nan], [-0.0, np.inf]],
}


@pytest.mark.parametrize("blocks", RUNNING_MAX_CASES.values(), ids=RUNNING_MAX_CASES)
def test_running_max_on_int64_bits_matches_float_scan(blocks):
    want = np.maximum.accumulate(np.abs(np.concatenate(blocks)))
    got, carry = [], 0.0
    for b in blocks:
        peaks = _running_max(np.array(b), carry)
        carry = peaks[-1]
        got.append(peaks)
    assert np.concatenate(got).tobytes() == want.tobytes()


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGE_VALUES = [v for e in _COVER_EDGES for v in _around(e)]
SCREEN_TRACES = {
    "edges-and-neighbours": EDGE_VALUES,
    "jump-over-seven-bins": [-0.85, 0.85],
    "jumps": [0.05, -0.65, 0.45, -0.25],
    "outside-only": [-5.0, *_around(-0.9)[:1], *_around(0.9)[2:], 3.0],
    "outside-on-both-sides": [-2.0, 0.3, 2.0],
    "first-edge-between": [-2.0, _COVER_EDGES[0], 2.0],
    "last-edge-between": [-2.0, _COVER_EDGES[-1], 2.0],  # the last bin is closed
    "infinities": [-np.inf, np.inf],
    "infinities-and-a-value": [np.inf, 0.15, -np.inf],
    "nan": [0.1, np.nan, -0.5],
    "nan-only": [np.nan],
    "nan-and-edges": [np.nan, *EDGE_VALUES],
    "nan-and-infinities": [np.inf, np.nan, -np.inf],
}


def screen_matches_histogram(trace, seen=None) -> bool:
    """Whether `_mark_bins` leaves seen | (np.histogram counts > 0)."""
    trace = np.array(trace, dtype=float)
    seen = np.zeros(_COVER_EDGES.size - 1, dtype=bool) if seen is None else seen
    want = seen | (np.histogram(trace, bins=_COVER_EDGES)[0] > 0)
    paths._mark_bins(trace, seen)  # looked up at call time, so it can be patched
    return seen.tolist() == want.tolist()


@pytest.mark.parametrize("trace", SCREEN_TRACES.values(), ids=SCREEN_TRACES)
def test_coverage_screen_matches_histogram(trace):
    assert screen_matches_histogram(trace)
    assert screen_matches_histogram(trace, np.arange(9) % 3 == 0)


def test_coverage_screen_matches_histogram_on_every_pair_of_edge_values():
    # a pair puts its min and max in two bins and leaves those between empty
    for lo in EDGE_VALUES:
        for hi in EDGE_VALUES:
            assert screen_matches_histogram([lo, hi]), (lo, hi)


# -- Chung --------------------------------------------------------------------


def test_chung_walk_matches_oracle():
    rep = chung_experiment(WalkParams(0.5, CONST, 100_000), replicas=40, seed=0)
    md = rep.find("median_abs_difference")
    assert md.value <= 0.15
    assert md.passed is True
    assert rep.find("reference_constant").value == pytest.approx(
        math.pi / math.sqrt(8.0)
    )
    assert CHUNG_CONSTANT == pytest.approx(1.1107207, abs=1e-6)


def test_chung_oracle_constant_band_unreachable_at_desk_scale():
    # terminal running-mins concentrate well below pi/sqrt(8) at n = 1e5,
    # so the 0.90-fraction check on the oracle reads failed (see ledger)
    rep = chung_experiment(WalkParams(0.5, CONST, 100_000), replicas=40, seed=0)
    frac = rep.find("oracle_fraction_near_constant")
    assert frac.value < 0.5
    assert frac.passed is False


def test_chung_horizon_floor():
    with pytest.raises(ValueError):
        chung_experiment(WalkParams(0.5, CONST, 1000))


@pytest.mark.parametrize(
    "run",
    [
        lambda params: lil_experiment(params, normalization="exact_s"),
        lambda params: lil_experiment(params, normalization="scaled_A"),
        lambda params: lil_experiment(params, normalization="plain_A"),
        chung_experiment,
    ],
    ids=["lil-exact_s", "lil-scaled_A", "lil-plain_A", "chung"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_variance_clock_is_refused(run, monkeypatch):
    """2^k weights overflow the clock near k = 1024; NaN gaps slipped past
    the monotonicity check.  The refusal comes before any path is drawn,
    and without a numpy overflow warning."""

    def no_paths(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr("fractalwalk.rng.stream", no_paths)
    with pytest.raises(ValueError, match="not finite"):
        run(WalkParams(0.75, WeightSequence.geometric(2.0), 100_000))


@pytest.mark.parametrize("run", [lil_experiment, chung_experiment], ids=["lil", "chung"])
@pytest.mark.parametrize(
    "weights,p,message",
    [
        # s_n^2 reaches about 0.3 at n = 1e5
        (WeightSequence.constant(0.001), 0.75, r"never exceeds e\^2"),
        # s_1^2 = 9, then alpha = -0.98 cancels it down to 0.36 for good
        (WeightSequence.explicit([3.0, 3.0]), 0.01, r"dips below e\^2"),
        # s_2^2 = 0.4 < s_1^2 = 1, long before the clock passes e^2
        (CONST, 0.1, "not monotone"),
    ],
    ids=["short", "dip", "non-monotone"],
)
def test_unusable_variance_clock_is_refused(run, weights, p, message, monkeypatch):
    def no_paths(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr("fractalwalk.rng.stream", no_paths)
    with pytest.raises(ValueError, match=message):
        run(WalkParams(p, weights, 100_000))


# -- modulus ------------------------------------------------------------------


def test_modulus_shallow_rows_get_no_verdict():
    f = FractalFunction(2, CONST, 1.0)
    rep = modulus_experiment(
        f, [Fraction(1, 3), Fraction(1, 8)], x_samples=2000, seed=0, eps=1e-10
    )
    s0, s1 = rep.find("ks_0"), rep.find("ks_1")
    assert s0.passed is None
    assert isinstance(s1.passed, bool)
    assert any("m(h)=1" in note for note in rep.notes)


def test_modulus_grid_validation():
    f = FractalFunction(2, CONST, 1.0)
    with pytest.raises(ValueError):
        modulus_experiment(f, [], x_samples=100)
    with pytest.raises(ValueError):
        modulus_experiment(f, [Fraction(1, 8), Fraction(1, 4)], x_samples=100)
    with pytest.raises(ValueError):
        modulus_experiment(f, [Fraction(1, 2), Fraction(1, 8)], x_samples=100)


# -- functional CLT -----------------------------------------------------------


def test_fclt_requires_regular_variation():
    geo = WeightSequence.geometric(1.5)
    f = FractalFunction(2, geo, 0.5)
    with pytest.raises(RegularVariationError):
        functional_clt_experiment(f, 1.0, 40, [0.25, 0.5, 1.0], x_samples=100)


def fclt_moments_match_exact(x_samples: int, seed: int) -> bool:
    """Whether fclt's variances and its (0.5, 1) covariance at depth 40 lie
    within 4 standard errors of their exact values (r = 2, unit weights)."""
    f = FractalFunction(2, CONST, 1.0)
    ts, idx = (0.25, 0.5, 1.0), (10, 20, 40)
    rep = functional_clt_experiment(f, 1.0, 40, list(ts), x_samples=x_samples, seed=seed)
    paths = fclt_paths(f, 40, idx, x_samples, seed)
    checks = [(f"var_t={t:g}", i, i, row, row) for row, (t, i) in enumerate(zip(ts, idx))]
    checks.append(("cov_t=0.5,1", 20, 40, 1, 2))
    return all(
        abs(rep.find(name).value - float(fclt_covariance(i, j)) / 40)
        <= 4.0 * covariance_se(paths[a], paths[b])
        for name, i, j, a, b in checks
    )


def test_fclt_marginals_at_moderate_depth():
    # at depth 40 the covariance is exactly 0.45000, the floor of the 0.05
    # band, and Var(t=1) is 0.9667, under 2 standard errors above its floor
    # at this sample size; the verdicts depend on the seed, so each moment is
    # checked against its exact value within 4 standard errors instead
    assert fclt_moments_match_exact(20_000, 5)


@pytest.mark.parametrize("i,j", [(1, 1), (3, 3), (4, 5), (3, 6), (5, 10), (8, 16)])
def test_fclt_covariance_closed_form_matches_enumeration(i, j):
    assert fclt_covariance(i, j) == enumerated_covariance(i, j)


def test_fclt_t_grid_validation():
    f = FractalFunction(2, CONST, 1.0)
    with pytest.raises(ValueError):
        functional_clt_experiment(f, 1.0, 40, [])
    with pytest.raises(ValueError):
        functional_clt_experiment(f, 1.0, 40, [0.5, 1.5])
    with pytest.raises(ValueError):
        functional_clt_experiment(f, 0.0, 40, [0.5, 1.0])


EXPERIMENTS_REFUSALS = {
    # r = 3 runs the p = 2/3 clock: s_2^2 = 101 - 20/3 < s_1^2 = 100
    "decreasing-variance-profile": (
        lambda: variance_profile(3, WeightSequence.from_spec("explicit:10,-1"), 2),
        "variance profile is not non-decreasing; no valid interpolant",
    ),
    "lil-band-of-three": (
        lambda: lil_experiment(WalkParams(0.75, CONST, 100_000), band=(0.1, 0.5, 1.0)),
        "band needs two values lo,hi, got [0.1, 0.5, 1.0]",
    ),
    "modulus-h-below-the-grid": (
        lambda: modulus_experiment(FractalFunction(2, CONST, 1.0), [Fraction(1, 2**60)],
                                   x_samples=10),
        "h=1/1152921504606846976 is below the 2^-53 grid resolution",
    ),
    # idx(t) = floor(12 t): 6, 6 and 12; a shared index was once judged twice
    "fclt-t-sharing-an-index": (
        lambda: functional_clt_experiment(FractalFunction(2, CONST, 1.0), 1.0, 12, "0.5,0.52,1",
                                          x_samples=10),
        "t_grid [0.5, 0.52, 1.0] gives indices [6, 6, 12]; each t needs its own index",
    ),
    "fclt-repeated-t": (
        lambda: functional_clt_experiment(FractalFunction(2, CONST, 1.0), 1.0, 12, "0.5,0.5,1",
                                          x_samples=10),
        "t_grid [0.5, 0.5, 1.0] gives indices [6, 6, 12]; each t needs its own index",
    ),
    "fclt-index-0": (
        lambda: functional_clt_experiment(FractalFunction(2, CONST, 1.0), 1.0, 40, [0.01, 1.0],
                                          x_samples=10),
        "t=0.01 gives index 0; increase n or t",
    ),
}


@pytest.mark.parametrize("call,message", EXPERIMENTS_REFUSALS.values(), ids=EXPERIMENTS_REFUSALS)
def test_experiments_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
