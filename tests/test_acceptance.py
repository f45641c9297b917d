"""Acceptance gate: twelve numbered criteria at frozen seeds.

Each test recomputes its criterion from scratch, records the verdict for the
summary table, and asserts it.  Where a limit theorem is checked at a finite
depth or horizon, the statistic is compared with a reference that holds at
that size: its exact finite-depth law or moments (criteria 7 and 10,
computed in `finite_depth` from integer arithmetic and closed forms), or the
Brownian oracle run through the same clock (criterion 8).  Those tolerances
come from the sample size at level ALPHA (Kolmogorov and two-sample KS
critical values) or are 4 standard errors estimated from the sample.
"""
import math
import time
from fractions import Fraction

import numpy as np
from scipy.stats import ks_2samp, kstwo

from conftest import record_criterion
from finite_depth import (
    covariance_se,
    fclt_covariance,
    fclt_paths,
    grid_difference,
    increment_law,
)
from fractalwalk import (
    FractalFunction,
    WalkParams,
    WeightSequence,
    build_blocks,
    chung_experiment,
    clt_experiment,
    exact_second_moment,
    functional_clt_experiment,
    lil_experiment,
    martingale_blocks,
    match_depth_grid,
    modulus_experiment,
    second_moment_profile,
    sign_walk_grid,
    simulate,
    variance_profile,
    variance_ratio_bound,
)
from fractalwalk.rng import GRID, stream, uniform_mantissas

CONST = WeightSequence.constant()
ODD = WeightSequence.odd_indicator()
ALPHA = 1e-3  # level of the distribution tests in criteria 7 and 8


def test_criterion_1_variance_asymptotics():
    t0 = time.perf_counter()
    prof = second_moment_profile(0.75, CONST, 10_000)
    ratio = prof[-1] / (3.0 * 10_000)
    alt = WeightSequence.from_spec({"kind": "alternating"})
    prof_alt = second_moment_profile(0.75, alt, 10_000)
    ratio_alt = prof_alt[-1] / (10_000 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 1.0) <= 0.01 and abs(ratio_alt - 1.0) <= 0.01 and elapsed < 1.0
    detail = f"ratios {ratio:.6f}/{ratio_alt:.6f}, {elapsed:.3f}s"
    assert record_criterion(1, ok, detail), detail


def test_criterion_2_variance_sandwich():
    rng = stream(2026)
    violations = 0
    for _ in range(10_000):
        nw = int(rng.integers(2, 120))
        seq = WeightSequence.explicit(rng.uniform(0.05, 2.0, nw))
        p = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(0, nw))
        n = int(rng.integers(m + 1, nw + 1))
        gap = seq.partial_energy(n) - seq.partial_energy(m)
        k = variance_ratio_bound(p)
        s2 = exact_second_moment(p, seq, m, n)
        if s2 < (gap / k) * (1.0 - 1e-10) or s2 > (k * gap) * (1.0 + 1e-10):
            violations += 1
    ok = violations == 0
    detail = f"{violations}/10000 violations"
    assert record_criterion(2, ok, detail), detail


def test_criterion_3_sparse_weights_closed_form():
    prof = second_moment_profile(0.75, ODD, 1_000)
    worst = 0.0
    for n in range(1, 1_001):
        m = (n + 1) // 2
        i = np.arange(1, m)
        closed = m + 2.0 * float(np.sum((m - i) * 0.25**i))
        worst = max(worst, abs(prof[n - 1] - closed))
    prof_big = second_moment_profile(0.75, ODD, 10_000)
    ratio = prof_big[-1] / 5_000
    ok = worst <= 1e-10 and abs(ratio / (5.0 / 3.0) - 1.0) <= 0.01
    detail = f"worst gap {worst:.3g}, ratio {ratio:.6f}"
    assert record_criterion(3, ok, detail), detail


def test_criterion_4_profile_consistency():
    t0 = time.perf_counter()
    even_exact = all(
        np.array_equal(variance_profile(2, seq, 40).values, seq.energies(40))
        for seq in (CONST, WeightSequence.power(0.5), ODD)
    )
    prof3 = variance_profile(3, CONST, 10)
    mx = uniform_mantissas(stream(0), 1_000_000)
    w = np.cumsum(sign_walk_grid(3, mx, 10).astype(float), axis=0)
    devs = []
    for n in (2, 5, 10):
        sq = w[n - 1] ** 2
        se = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
        devs.append(abs(float(np.mean(sq)) - prof3.grid_value(n)) / se)
    elapsed = time.perf_counter() - t0
    ok = even_exact and max(devs) <= 3.0 and elapsed < 30.0
    detail = f"dev/SE {devs[0]:.2f}/{devs[1]:.2f}/{devs[2]:.2f}, {elapsed:.1f}s"
    assert record_criterion(4, ok, detail), detail


def test_criterion_5_increment_decomposition():
    t0 = time.perf_counter()
    eps = 1e-12
    worst = 0.0
    for r, expo_hi in ((2, 20), (3, 12), (10, 8)):
        f = FractalFunction(r, CONST, 1.0)
        rng = stream(5, r)
        ms = rng.integers(0, GRID, size=1_000)
        expos = rng.integers(2, expo_hi + 1, size=1_000)
        for m, e in zip(ms, expos):
            d = f.decompose_increment(
                Fraction(int(m), GRID), Fraction(1, r ** int(e)), eps
            )
            worst = max(worst, abs(d.residual))
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 * eps and elapsed < 10.0
    detail = f"worst residual {worst:.3g} <= {4 * eps:.0e}, {elapsed:.1f}s"
    assert record_criterion(5, ok, detail), detail


def test_criterion_6_clt_family():
    t0 = time.perf_counter()
    configs = [
        (0.5, CONST),
        (0.75, CONST),
        (0.75, WeightSequence.power(0.5)),
        (0.75, ODD),
    ]
    ks = []
    for p, seq in configs:
        rep = clt_experiment(
            WalkParams(p, seq, 5_000), replicas=10_000, seed=0
        )
        ks.append(rep.find("ks_distance").value)
    elapsed = time.perf_counter() - t0
    ok = max(ks) < 0.02 and elapsed < 120.0
    detail = "KS " + "/".join(f"{v:.4f}" for v in ks) + f", {elapsed:.1f}s"
    assert record_criterion(6, ok, detail), detail


def test_criterion_7_modulus_of_continuity():
    """Normalized increments follow the exact depth-m law, which tends to N(0,1).

    At h = r^-m the increment quotient has an exact law (see
    `finite_depth`): atoms on the integers carrying 1/4 (r=2) or 1/3 (r=3)
    of the mass, and a variance short of sigma_l(h).  Normalized as the
    program does, that law sits 0.0259 (r=2, h=2^-20) and 0.0279 (r=3,
    h=3^-12) from N(0,1), so the KS distance of a correct program hovers
    there.  Checked: the Monte Carlo increments against the exact law at
    the Kolmogorov critical value, the report's KS distance against the
    exact law's, the exact r=3 law against the literal 0.03, and the exact
    r=2 law approaching N(0,1) from h=2^-10 to h=2^-20.
    """
    t0 = time.perf_counter()
    n_pts = 100_000
    crit = float(kstwo.isf(ALPHA, n_pts))
    ok = True
    parts = []
    ks_exact = {}
    for r, m, n_prof, ks_tol in ((2, 20, 25, 0.02), (3, 12, 15, 0.03)):
        f = FractalFunction(r, CONST, 1.0)
        prof = variance_profile(r, CONST, n_prof)
        h = Fraction(1, r**m)
        rep = modulus_experiment(
            f, prof, [h], x_samples=n_pts, seed=0, ks_tol=ks_tol
        )
        ks_report = rep.find("ks_0").value
        law = increment_law(r, m)
        ks_exact[r] = law.distance_to_normal(prof.sigma_l(h))
        mx = uniform_mantissas(stream(0, 0), n_pts)
        fit = law.distance_to_sample(grid_difference(f, mx, h) / float(h))
        ok = ok and fit <= crit and abs(ks_report - ks_exact[r]) <= crit
        parts.append(
            f"r={r}: sup|ECDF-F| {fit:.4f}, KS report/exact {ks_report:.4f}/{ks_exact[r]:.4f}"
        )
    ks_coarse = increment_law(2, 10).distance_to_normal(10.0)  # V_10 = 10
    ok = ok and ks_exact[3] < 0.03 and ks_exact[2] < ks_coarse
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    detail = (
        "; ".join(parts)
        + f"; exact r=2 KS 2^-10 {ks_coarse:.4f} -> 2^-20 {ks_exact[2]:.4f}"
        + f"; crit {crit:.4f}, {elapsed:.1f}s"
    )
    assert record_criterion(7, ok, detail), detail


def test_criterion_8_lil_bands():
    """The walk's running-max statistic has the Brownian oracle's law.

    The oracle is Brownian motion on the walk's exact variance clock run
    through the same denominators.  At n = 10^6 it lands in the default
    bands only 56-66% of the time (the running max is dominated by early
    times, where loglog D_n is near 0.7), so the band fractions are
    reported, and the claim checked is that the two-sample KS test of walk
    against oracle terminals does not reject.
    """
    params = WalkParams(0.75, CONST, 1_000_000)
    ok = True
    parts = []
    for normalization in ("plain_A", "exact_s"):
        rep = lil_experiment(
            params, replicas=50, seed=0, normalization=normalization
        )
        rows = np.array(rep.attachments["terminals"]["rows"])
        p_value = float(ks_2samp(rows[:, 1], rows[:, 2]).pvalue)
        ok = ok and p_value >= ALPHA
        wf = rep.find("walk_fraction_in_band").value
        of = rep.find("oracle_fraction_in_band").value
        parts.append(
            f"{normalization} KS p {p_value:.2g} (>={ALPHA:g}), in band walk/oracle {wf:.2f}/{of:.2f}"
        )
    detail = "; ".join(parts)
    assert record_criterion(8, ok, detail), detail


def test_criterion_9_chung_statistic():
    rep = chung_experiment(
        WalkParams(0.75, CONST, 1_000_000), replicas=50, seed=0
    )
    diff = rep.find("median_abs_difference").value
    ok = diff <= 0.15
    detail = f"median |walk - oracle| {diff:.4f} <= 0.15"
    assert record_criterion(9, ok, detail), detail


def test_criterion_10_functional_clt_marginals():
    """Marginal variances and covariance match their exact depth-40 values.

    The limits are Var = t and Cov = min(s, t); at depth 40 each kinked
    sawtooth term inside an increment costs variance and covariance, so the
    exact values are Var = (i - (2/3)(2 - 2^{1-i}))/40 (0.2167, 0.4667,
    0.9667) and Cov(t=0.5, 1) = 0.45000, the floor of the program's 0.05
    band.  Each reported moment must lie within 4 standard errors of its
    exact value; the program's own variance verdicts must pass.
    """
    n, ts, idx, n_pts = 40, (0.25, 0.5, 1.0), (10, 20, 40), 100_000
    f = FractalFunction(2, CONST, 1.0)
    rep = functional_clt_experiment(
        f, variance_profile(2, CONST, n), 1.0, n, list(ts), x_samples=n_pts, seed=0
    )
    paths = fclt_paths(f, n, idx, n_pts, seed=0)
    ok = all(rep.find(f"var_t={t:g}").passed for t in ts)
    parts = []
    checks = [(f"var_t={t:g}", i, i, row, row) for row, (t, i) in enumerate(zip(ts, idx))]
    checks.append(("cov_t=0.5,1", 20, 40, 1, 2))
    for name, i, j, a, b in checks:
        value = rep.find(name).value
        exact = float(fclt_covariance(i, j)) / n
        se = covariance_se(paths[a], paths[b])
        ok = ok and abs(value - exact) <= 4.0 * se
        parts.append(f"{name} {value:.4f} (exact {exact:.4f} +- {4 * se:.4f})")
    detail = ", ".join(parts)
    assert record_criterion(10, ok, detail), detail


def test_criterion_11_digit_tail_bound():
    n_pts = 100_000
    mx = uniform_mantissas(stream(0), n_pts)
    k0 = match_depth_grid(3, mx, 12)
    kh = match_depth_grid(3, (mx + np.uint64(1 << 52)) & np.uint64(GRID - 1), 12)
    gap = 12 - np.minimum(k0, kh)
    ok = True
    worst = ""
    for j in range(1, 7):
        phat = float(np.mean(gap >= j))
        se = math.sqrt(phat * (1.0 - phat) / n_pts)
        bound = 2.0 * 3.0 ** (1 - j) + 3.0 * se
        if phat > bound:
            ok = False
            worst = f"j={j}: {phat:.5f} > {bound:.5f}"
    detail = worst or "P(gap >= j) within bound for j = 1..6"
    assert record_criterion(11, ok, detail), detail


def test_criterion_12_blocking_and_correction():
    scheme = build_blocks(CONST, 1.0, 14)
    boundaries_ok = scheme.boundaries[:6].tolist() == [0, 1, 2, 4, 6, 9]
    horizon = int(scheme.boundaries[-1])
    params = WalkParams(0.75, CONST, horizon)
    tol = 1e-10
    cap = 2 * scheme.n_blocks * tol
    xis = np.empty((200, scheme.n_blocks))
    worst_resid = 0.0
    for i in range(200):
        path = simulate(params, seed=0, stream_id=i)
        dec = martingale_blocks(params, scheme, path, tol=tol)
        worst_resid = max(worst_resid, abs(dec.residual))
        xis[i] = dec.xi
    se = xis.std(axis=0, ddof=1) / math.sqrt(xis.shape[0])
    z_max = float(np.max(np.abs(xis.mean(axis=0)) / se))
    ok = boundaries_ok and worst_resid <= cap and z_max <= 3.0
    detail = (
        f"boundaries {'ok' if boundaries_ok else 'wrong'}, "
        f"telescoping {worst_resid:.3g} <= {cap:.3g}, max |z| {z_max:.2f}"
    )
    assert record_criterion(12, ok, detail), detail
