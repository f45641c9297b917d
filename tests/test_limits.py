"""Variance profiles, reference statistics, and the limit-theorem experiments."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from fractalwalk import (
    FractalFunction,
    RegularVariationError,
    WalkParams,
    WeightSequence,
    brownian_path,
    chung_experiment,
    clt_experiment,
    functional_clt_experiment,
    ks_statistic,
    lil_experiment,
    modulus_experiment,
    sign_walk_grid,
    sup_increment_trace,
    variance_profile,
)
from fractalwalk import experiments
from fractalwalk.experiments import (
    _BLOCK,
    _COVER_EDGES,
    CHUNG_CONSTANT,
    _brownian_from_rng,
    _lil_terminal,
    _oracle_steps,
    _prefix_sums,
    _walk_steps,
)
from fractalwalk.rng import stream, uniform_mantissas
from fractalwalk.walks import _draw_signs, second_moment_profile

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
        assert p.p_memory == 0.5


def test_odd_base_profile_level_two():
    prof = variance_profile(3, CONST, 5)
    # repeat probability 2/3, so E[(X_1 + X_2)^2] = 2 + 2/3 * 2 = 8/3
    assert prof.p_memory == pytest.approx(2.0 / 3.0)
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


def test_brownian_edge_times():
    assert brownian_path([0.0]).tolist() == [0.0]
    b = brownian_path([0.0, 1.0, 1.0], seed=2)
    assert b[0] == 0.0 and b[1] == b[2]
    with pytest.raises(ValueError):
        brownian_path([1.0, 0.5])
    with pytest.raises(ValueError):
        brownian_path([])


def test_brownian_quadratic_variation():
    t = np.linspace(0.0, 1.0, 100_001)
    b = brownian_path(t, seed=3)
    inc = np.diff(np.concatenate([[0.0], b]))
    assert float(np.sum(inc**2)) == pytest.approx(1.0, abs=0.02)
    z = inc / math.sqrt(t[1])
    lag1 = float(np.mean(z[:-1] * z[1:]))
    assert abs(lag1) <= 3.0 / math.sqrt(z.size - 1)


def test_brownian_determinism():
    t = np.linspace(0.0, 1.0, 50)
    np.testing.assert_array_equal(brownian_path(t, 5, 7), brownian_path(t, 5, 7))
    assert not np.array_equal(brownian_path(t, 5, 7), brownian_path(t, 5, 8))


def test_ks_statistic_on_exact_quantiles():
    n = 10_000
    x = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(x) < 1e-3


def test_ks_statistic_degenerate_and_small():
    assert ks_statistic(np.zeros(50)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ks_statistic(np.zeros(5))


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


def _lil_reference(params, replicas, seed, den, coverage):
    """Per-replica (walk max, covered, oracle max) from full-length paths."""
    n = params.horizon
    i0 = _start(den)
    scale = np.sqrt(2.0 * den[i0:] * np.log(np.log(den[i0:])))
    step_sd = _oracle_sd(params)
    a = params.weights.values(n)

    def walk_one(i):
        x = _draw_signs(stream(seed, i), params.p, n)
        trace = np.cumsum(a * x)[i0:] / scale
        covered = False
        if coverage:
            counts, _ = np.histogram(trace, bins=_COVER_EDGES)
            covered = bool(np.all(counts > 0))
        return float(np.max(trace)), covered

    def oracle_one(i):
        b = _brownian_from_rng(stream(seed, replicas + i), step_sd)
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
            terminal_runmin(np.cumsum(a * _draw_signs(stream(seed, i), params.p, n))),
            terminal_runmin(_brownian_from_rng(stream(seed, replicas + i), step_sd)),
        )
        for i in range(replicas)
    ]


@pytest.mark.parametrize("seq,n", LONG_CASES)
def test_block_sums_match_full_array_paths(seq, n):
    # the whole walk and oracle paths, not only the statistics: a maximum
    # reached in the first block would hide a fault in the later ones
    params = WalkParams(0.7, seq, n)
    a = seq.values(n)
    step_sd = _oracle_sd(params)
    for i in range(3):
        blocks = _prefix_sums(_walk_steps(stream(4, i), params.p, a))
        got = np.concatenate([b.copy() for _, b in blocks])
        want = np.cumsum(a * _draw_signs(stream(4, i), params.p, n))
        assert got.tobytes() == want.tobytes()
        blocks = _prefix_sums(_oracle_steps(stream(4, i), step_sd))
        got = np.concatenate([b.copy() for _, b in blocks])
        assert got.tobytes() == _brownian_from_rng(stream(4, i), step_sd).tobytes()


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
def test_lil_coverage_flags_match_full_array_reference(seq, n):
    # a path stops binning once all nine bins are seen; that must not change
    # a single flag or maximum (SMALL's short trace covers nothing)
    params = WalkParams(0.75, seq, n)
    den = second_moment_profile(params.p, seq, n)
    i0 = _start(den)
    scale = np.sqrt(2.0 * den[i0:] * np.log(np.log(den[i0:])))
    a = seq.values(n)
    want = _lil_reference(params, 12, 5, den, coverage=True)
    got = [
        _lil_terminal(_prefix_sums(_walk_steps(stream(5, i), params.p, a)), i0, scale, True)
        for i in range(12)
    ]
    assert _bits([t for t, _ in got]) == _bits([t for t, _, _ in want])
    assert [c for _, c in got] == [c for _, c, _ in want]
    assert {c for _, c in got} == {True, False}


@pytest.mark.parametrize("seq,n", LONG_CASES)
def test_chung_blocks_match_full_array_reference(seq, n):
    params = WalkParams(0.7, seq, n)
    rep = chung_experiment(params, replicas=4, seed=2)
    want = _chung_reference(params, 4, 2)
    rows = rep.attachments["terminals"]["rows"]
    assert _bits([r[1] for r in rows]) == _bits([w for w, _ in want])
    assert _bits([r[2] for r in rows]) == _bits([o for _, o in want])


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

    monkeypatch.setattr(experiments, "stream", no_paths)
    with pytest.raises(ValueError, match="not finite"):
        run(WalkParams(0.75, WeightSequence.geometric(2.0), 100_000))


# -- modulus ------------------------------------------------------------------


def test_modulus_shallow_rows_get_no_verdict():
    f = FractalFunction(2, CONST, 1.0)
    prof = variance_profile(2, CONST, 40)
    rep = modulus_experiment(
        f, prof, [Fraction(1, 3), Fraction(1, 8)], x_samples=2000, seed=0, eps=1e-10
    )
    s0, s1 = rep.find("ks_0"), rep.find("ks_1")
    assert s0.passed is None
    assert isinstance(s1.passed, bool)
    assert any("m(h)=1" in note for note in rep.notes)


def test_modulus_grid_validation():
    f = FractalFunction(2, CONST, 1.0)
    prof = variance_profile(2, CONST, 10)
    with pytest.raises(ValueError):
        modulus_experiment(f, prof, [], x_samples=100)
    with pytest.raises(ValueError):
        modulus_experiment(f, prof, [Fraction(1, 8), Fraction(1, 4)], x_samples=100)
    with pytest.raises(ValueError):
        modulus_experiment(f, prof, [Fraction(1, 2), Fraction(1, 8)], x_samples=100)


# -- functional CLT -----------------------------------------------------------


def test_fclt_requires_regular_variation():
    geo = WeightSequence.geometric(1.5)
    f = FractalFunction(2, geo, 0.5)
    prof = variance_profile(2, geo, 40)
    with pytest.raises(RegularVariationError):
        functional_clt_experiment(f, prof, 1.0, 40, [0.25, 0.5, 1.0], x_samples=100)


def test_fclt_marginals_at_moderate_depth():
    # at depth 40 the covariance is exactly 0.45000, the floor of the 0.05
    # band, and Var(t=1) is 0.9667, under 2 standard errors above its floor
    # at this sample size; the verdicts depend on the seed, so each moment is
    # checked against its exact value within 4 standard errors instead
    f = FractalFunction(2, CONST, 1.0)
    prof = variance_profile(2, CONST, 40)
    ts, idx, n_pts = (0.25, 0.5, 1.0), (10, 20, 40), 20_000
    rep = functional_clt_experiment(
        f, prof, 1.0, 40, list(ts), x_samples=n_pts, seed=5
    )
    paths = fclt_paths(f, 40, idx, n_pts, seed=5)
    for row, (t, i) in enumerate(zip(ts, idx)):
        exact = float(fclt_covariance(i, i)) / 40
        se = covariance_se(paths[row], paths[row])
        assert rep.find(f"var_t={t:g}").value == pytest.approx(exact, abs=4.0 * se)
    se = covariance_se(paths[1], paths[2])
    cov = rep.find("cov_t=0.5,1")
    assert cov.value == pytest.approx(float(fclt_covariance(20, 40)) / 40, abs=4.0 * se)


@pytest.mark.parametrize("i,j", [(1, 1), (3, 3), (4, 5), (3, 6), (5, 10), (8, 16)])
def test_fclt_covariance_closed_form_matches_enumeration(i, j):
    assert fclt_covariance(i, j) == enumerated_covariance(i, j)


def test_fclt_t_grid_validation():
    f = FractalFunction(2, CONST, 1.0)
    prof = variance_profile(2, CONST, 40)
    with pytest.raises(ValueError):
        functional_clt_experiment(f, prof, 1.0, 40, [])
    with pytest.raises(ValueError):
        functional_clt_experiment(f, prof, 1.0, 40, [0.5, 1.5])
    with pytest.raises(ValueError):
        functional_clt_experiment(f, prof, 0.0, 40, [0.5, 1.0])


# -- sup-increment diagnostic --------------------------------------------------


def test_sup_increment_trace_monotone():
    f = FractalFunction(2, CONST, 1.0)
    grid = [Fraction(1, 2**k) for k in range(2, 9)]
    h, trace = sup_increment_trace(f, Fraction(1, 5), grid)
    assert h.size == len(grid) - 1 and trace.size == len(grid) - 1
    assert np.all(np.diff(trace) >= 0)
    np.testing.assert_allclose(h, [float(g) for g in grid[1:]])


def test_sup_increment_trace_guards():
    f = FractalFunction(2, CONST, 1.0)
    with pytest.raises(ValueError):
        sup_increment_trace(f, Fraction(1, 5), [Fraction(1, 4)])
    with pytest.raises(ValueError):
        sup_increment_trace(f, Fraction(1, 5), [Fraction(1, 8), Fraction(1, 4)])
