"""Monte Carlo and exact experiments for the walk and fractal limit theorems.

Each experiment returns an `ExperimentReport` whose numbers depend only on
the seed manifest: replica i always draws from Philox stream (seed, i), the
Brownian oracle replicas from streams offset by the replica count, so worker
counts and scheduling cannot change a single bit of the output.

The experiments mirror the limit theorems they probe:

* `clt_experiment`: S_n/s_n against the standard normal (KS distance).
* `lil_experiment`: running maximum of S_n / sqrt(2 D_n loglog D_n) with the
  denominator D_n one of exact s_n^2, (p/(1-p)) A_n, or plain A_n, checked
  against fixed bands, always next to a Brownian oracle on the exact
  variance clock.
* `chung_experiment`: running minimum of sqrt(loglog s_n^2 / s_n^2) max|S_k|,
  walk vs Brownian medians.
* `modulus_experiment`: normalized increments (f(x+h)-f(x))/(h sqrt(sigma(h)))
  at uniform x against the normal, plus the slope-walk correspondence.
* `functional_clt_experiment`: finite-dimensional marginals of rescaled
  increment paths against Brownian variances/covariances.

Bands and thresholds are fixed sanity checks, not calibrated to the horizon
and not assertions of the asymptotic constants; the loglog scale reaches its
limits far beyond any desk-size horizon.  At n = 10^6, Brownian motion on
the walk's clock lands in the default LIL bands only 56-66% of the time, so
agreement between walk and oracle is the checkable claim.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from .fractal import FractalFunction, scale_index
from .reports import ExperimentReport, make_manifest, statistic
from .rng import GRID, stream, uniform_mantissas
from .walks import (
    WalkParams,
    _draw_signs,
    exact_second_moment,
    second_moment_profile,
    variance_ratio_bound,
)
from .weights import WeightSequence

__all__ = [
    "VarianceProfile",
    "RegularVariationError",
    "variance_profile",
    "brownian_path",
    "ks_statistic",
    "clt_experiment",
    "lil_experiment",
    "chung_experiment",
    "modulus_experiment",
    "functional_clt_experiment",
    "sup_increment_trace",
    "LIL_NORMALIZATIONS",
]

_E_SQUARED = math.e**2
CHUNG_CONSTANT = math.pi / math.sqrt(8.0)

# denominator D_n of the LIL statistic S_n / sqrt(2 D_n loglog D_n)
LIL_NORMALIZATIONS = ("exact_s", "scaled_A", "plain_A")


class RegularVariationError(ValueError):
    """The variance profile is not regularly varying with the claimed index."""


# -- variance profile ---------------------------------------------------------


@dataclass(frozen=True)
class VarianceProfile:
    """V_n = Var w_n(x) for uniform x, with a log-scale interpolant.

    For even r the slope signs are i.i.d. fair signs and V_n = A_n exactly;
    for odd r they form the one-step-memory chain at p_r = (r+1)/(2r), so V_n
    is the exact second moment at alpha = 1/r.
    """

    r: int
    weights: WeightSequence
    p_memory: float
    values: np.ndarray  # V_1..V_n_max

    @property
    def n_max(self) -> int:
        return self.values.size

    def grid_value(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max}, got {n}")
        return float(self.values[n - 1])

    def sigma_l(self, h) -> float:
        """Interpolant with sigma_l(r^-n) = V_n exactly.

        Exact powers of 1/r (as Fractions, or floats that convert exactly)
        return the grid value with no interpolation error; other h are
        log-linear between grid points and constant beyond the ends.
        """
        if isinstance(h, (np.floating, np.integer)):
            h = h.item()
        hq = Fraction(h)
        if not 0 < hq < 1:
            raise ValueError(f"h must be in (0, 1), got {h}")
        m = scale_index(self.r, hq)
        if hq * self.r**m == 1 and 1 <= m <= self.n_max:  # h = r^-m exactly
            return float(self.values[m - 1])
        t = -math.log(float(hq)) / math.log(self.r)
        if t <= 1.0:
            return float(self.values[0])
        if t >= self.n_max:
            return float(self.values[-1])
        lo = int(t)
        frac = t - lo
        return float((1.0 - frac) * self.values[lo - 1] + frac * self.values[lo])


def variance_profile(r: int, seq: WeightSequence, n_max: int) -> VarianceProfile:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    r = int(r)
    if r % 2 == 0:
        p_mem = 0.5
        values = seq.energies(n_max).copy()
    else:
        p_mem = (r + 1) / (2 * r)
        values = second_moment_profile(p_mem, seq, n_max)
    if np.any(np.diff(values) < 0):
        raise ValueError(
            "variance profile is not non-decreasing; no valid interpolant"
        )
    values.flags.writeable = False
    return VarianceProfile(r=r, weights=seq, p_memory=p_mem, values=values)


# -- reference process and statistics ----------------------------------------


def brownian_path(times, seed: int = 0, stream_id: int = 0) -> np.ndarray:
    """Standard Brownian motion sampled at the given times.

    Increments are independent Gaussians with variance equal to the time
    gaps (the first gap is from 0, so B(0) = 0 is implicit).  Deterministic
    given (seed, stream).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if t[0] < 0:
        raise ValueError(f"times must start at >= 0, got {t[0]}")
    gaps = np.diff(t, prepend=0.0)
    if np.any(gaps < 0):
        raise ValueError("times must be non-decreasing")
    rng = stream(seed, stream_id)
    return _brownian_from_rng(rng, np.sqrt(gaps))


def _brownian_from_rng(rng: np.random.Generator, step_sd: np.ndarray) -> np.ndarray:
    """Brownian path whose k-th increment has standard deviation step_sd[k]."""
    path = rng.standard_normal(step_sd.size)
    np.multiply(path, step_sd, out=path)
    return np.cumsum(path, out=path)


def ks_statistic(samples) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    cdf = ndtr(x)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


def _map_streams(fn, count: int, workers: int | None) -> list:
    """fn(i) for i in 0..count-1, merged in index order regardless of workers.

    workers=None runs one thread per CPU this process may run on.
    """
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    workers = min(workers, count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _quantiles(x: np.ndarray, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> list[float]:
    return [float(v) for v in np.quantile(x, qs)]


# -- long paths, one block at a time --------------------------------------------

_BLOCK = 1 << 16  # steps per block: a replica's buffers take about 1 MB


def _walk_steps(rng: np.random.Generator, p: float, a: np.ndarray):
    """Weighted steps a_k X_k in blocks of reused buffers, as (start, block).

    The same numbers as `a * _draw_signs(rng, p, a.size)`: the blocks draw
    the same Philox uniforms in order, and the running flip parity carries
    into the next block.
    """
    n = a.size
    u = np.empty(min(n, _BLOCK))
    flips = np.empty(u.size, dtype=bool)
    steps = np.empty(u.size)
    parity = 0
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        ub, fb, xb = u[:m], flips[:m].view(np.uint8), steps[:m]
        rng.random(out=ub)
        np.greater_equal(ub, p, out=flips[:m])
        if start == 0:
            fb[0] = ub[0] >= 0.5  # first draw doubles as the fair initial sign
        fb[0] ^= parity
        np.bitwise_xor.accumulate(fb, out=fb)
        parity = fb[-1]
        np.multiply(fb, -2.0, out=xb)
        np.add(xb, 1.0, out=xb)
        np.multiply(xb, a[start:start + m], out=xb)
        yield start, xb


def _oracle_steps(rng: np.random.Generator, step_sd: np.ndarray):
    """Gaussian increments with sd step_sd[k] in blocks, as (start, block).

    The same numbers as the increments `_brownian_from_rng` sums.
    """
    n = step_sd.size
    buf = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        b = buf[:min(_BLOCK, n - start)]
        rng.standard_normal(out=b)
        np.multiply(b, step_sd[start:start + b.size], out=b)
        yield start, b


def _prefix_sums(blocks):
    """Running sums of the step blocks, in place, as (start, block).

    The carry enters each block's first step before the cumsum, so every
    partial sum is the same float addition `np.cumsum` of the whole path
    makes; adding it to the block's sums afterwards would round differently.
    The caller may overwrite a block: the carry is read before it is yielded.
    """
    carry = 0.0
    for start, b in blocks:
        if start:  # the first sum is the first step itself, even -0.0
            b[0] += carry
        np.cumsum(b, out=b)
        carry = b[-1]
        yield start, b


def _from_index(i0: int, start: int, block: np.ndarray) -> tuple[int, np.ndarray]:
    """The part of a block at path index >= i0, and its offset from i0."""
    skip = max(i0 - start, 0)
    return start + skip - i0, block[skip:]


# -- CLT ----------------------------------------------------------------------


def clt_experiment(
    params: WalkParams,
    replicas: int = 10_000,
    seed: int = 0,
    ks_tol: float = 0.02,
    workers: int = 1,
) -> ExperimentReport:
    """KS distance of S_n/s_n (s_n exact) to the standard normal."""
    replicas = int(replicas)
    if replicas < 1_000:
        raise ValueError(f"need >= 1000 replicas, got {replicas}")
    n = params.horizon
    a = params.weights.values(n)
    s_n = math.sqrt(exact_second_moment(params.p, params.weights, 0, n))

    def one(i: int) -> float:
        x = _draw_signs(stream(seed, i), params.p, n)
        return float(a @ x) / s_n

    samples = np.array(_map_streams(one, replicas, workers))
    ks = ks_statistic(samples)
    se_mean = float(np.std(samples, ddof=1) / math.sqrt(replicas))

    config = {
        "experiment": "clt",
        "p": params.p,
        "weights": params.weights.spec,
        "n": n,
        "replicas": replicas,
        "seed": seed,
        "ks_tol": ks_tol,
    }
    report = ExperimentReport(
        name="clt",
        params=config,
        manifest=make_manifest(config, seed, streams=replicas, replicas=replicas),
    )
    report.statistics.append(
        statistic("ks_distance", ks, {"max": ks_tol}, detail=f"s_n={s_n:.6g}")
    )
    report.statistics.append(statistic("sample_mean", float(np.mean(samples))))
    report.statistics.append(statistic("sample_std", float(np.std(samples, ddof=1))))
    report.statistics.append(statistic("se_mean", se_mean))
    report.attachments["normalized_sums"] = {
        "columns": ["replica", "value"],
        "rows": [[i, float(v)] for i, v in enumerate(samples)],
    }
    return report


# -- LIL family ---------------------------------------------------------------


def _lil_denominator(params: WalkParams, normalization: str) -> np.ndarray:
    n = params.horizon
    if normalization == "exact_s":
        return second_moment_profile(params.p, params.weights, n)
    energies = params.weights.energies(n)
    if normalization == "scaled_A":
        return (params.p / (1.0 - params.p)) * energies
    if normalization == "plain_A":
        return energies.copy()
    raise ValueError(
        f"normalization must be one of {LIL_NORMALIZATIONS}, got {normalization!r}"
    )


def _default_band(params: WalkParams, normalization: str) -> tuple[tuple[float, float], float]:
    if normalization == "plain_A":
        hi = math.sqrt(variance_ratio_bound(params.p)) * 1.1
        return (0.0, hi), 0.95
    return (0.5, 1.2), 0.90


_COVER_EDGES = np.linspace(-0.9, 0.9, 10)  # nine width-0.2 bins


def _lil_terminal(sums, i0: int, scale: np.ndarray, coverage: bool) -> tuple[float, bool]:
    """max S_k / scale[k - i0] over k >= i0, and whether it visits all nine bins.

    Once every bin has been seen the histogram is skipped: coverage can only
    turn true.
    """
    top = -math.inf
    seen = np.zeros(_COVER_EDGES.size - 1, dtype=bool)
    covered = False
    for start, b in sums:
        off, trace = _from_index(i0, start, b)
        if trace.size == 0:
            continue
        np.divide(trace, scale[off:off + trace.size], out=trace)
        top = max(top, float(np.max(trace)))
        if coverage and not covered:
            seen |= np.histogram(trace, bins=_COVER_EDGES)[0] > 0
            covered = bool(seen.all())
    return top, covered


def _chung_terminal(sums, i0: int, coef: np.ndarray) -> float:
    """min over k >= i0 of coef[k - i0] max_{j<=k} |S_j|."""
    runmax = 0.0
    low = math.inf
    for start, b in sums:
        np.abs(b, out=b)
        b[0] = np.maximum(b[0], runmax)
        np.maximum.accumulate(b, out=b)
        runmax = b[-1]
        off, tail = _from_index(i0, start, b)
        if tail.size:
            np.multiply(coef[off:off + tail.size], tail, out=tail)
            low = min(low, float(np.min(tail)))
    return low


def lil_config(
    params: WalkParams,
    replicas: int = 50,
    seed: int = 0,
    normalization: str = "exact_s",
    band: tuple[float, float] | None = None,
    min_fraction: float | None = None,
    coverage: bool | None = None,
) -> dict:
    """The config `lil_experiment` hashes into its manifest, defaults resolved.

    The default band and fraction depend on the normalization; coverage is
    tracked by default for exact_s only.
    """
    if normalization not in LIL_NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {LIL_NORMALIZATIONS}, got {normalization!r}"
        )
    default_band, default_frac = _default_band(params, normalization)
    lo, hi = default_band if band is None else band
    return {
        "experiment": "lil",
        "p": params.p,
        "weights": params.weights.spec,
        "n": params.horizon,
        "replicas": int(replicas),
        "seed": seed,
        "normalization": normalization,
        "band": [lo, hi],
        "min_fraction": default_frac if min_fraction is None else min_fraction,
        "coverage": normalization == "exact_s" if coverage is None else coverage,
    }


def lil_experiment(
    params: WalkParams,
    replicas: int = 50,
    seed: int = 0,
    normalization: str = "exact_s",
    band: tuple[float, float] | None = None,
    min_fraction: float | None = None,
    coverage: bool | None = None,
    workers: int | None = None,
) -> ExperimentReport:
    """Terminal running max of S_n / sqrt(2 D_n loglog D_n) across seeds.

    The statistic starts at the first index where D_n > e^2 (loglog is not
    usable earlier).  A Brownian oracle on the exact-variance clock runs
    through the identical denominators and grid, and the band verdicts apply
    to both; coverage (the normalized path visiting all nine width-0.2 bins
    of [-0.9, 0.9]) is tracked for the exact-s_n normalization by default.

    Each path is drawn and reduced in blocks, so a replica holds about 1 MB;
    `workers` defaults to one thread per usable CPU (at most `replicas`)
    and never changes the report.
    """
    replicas = int(replicas)
    n = params.horizon
    if n < 100_000:
        raise ValueError(f"LIL runs need horizon >= 1e5, got {n}")
    config = lil_config(params, replicas, seed, normalization, band, min_fraction, coverage)
    lo, hi = config["band"]
    min_fraction, coverage = config["min_fraction"], config["coverage"]
    den = _lil_denominator(params, normalization)
    valid = den > _E_SQUARED
    if not valid.any():
        raise ValueError("denominator never exceeds e^2; horizon too short")
    i0 = int(np.argmax(valid))
    if not np.all(den[i0:] > _E_SQUARED):
        raise ValueError("denominator dips below e^2 after first crossing it")
    scale = np.sqrt(2.0 * den[i0:] * np.log(np.log(den[i0:])))
    if normalization == "exact_s":
        s_sq = den
    else:
        s_sq = second_moment_profile(params.p, params.weights, n)
    gaps = np.diff(s_sq, prepend=0.0)
    if np.any(gaps < 0):
        raise ValueError("exact variance clock is not monotone; no Brownian oracle")
    step_sd = np.sqrt(gaps)
    a = params.weights.values(n)

    def walk_one(i: int) -> tuple[float, bool]:
        steps = _walk_steps(stream(seed, i), params.p, a)
        return _lil_terminal(_prefix_sums(steps), i0, scale, coverage)

    def oracle_one(i: int) -> float:
        steps = _oracle_steps(stream(seed, replicas + i), step_sd)
        return _lil_terminal(_prefix_sums(steps), i0, scale, False)[0]

    walk_results = _map_streams(walk_one, replicas, workers)
    walk_terminals = np.array([t for t, _ in walk_results])
    covered_frac = float(np.mean([c for _, c in walk_results])) if coverage else None
    oracle_terminals = np.array(_map_streams(oracle_one, replicas, workers))

    walk_frac = float(np.mean((walk_terminals >= lo) & (walk_terminals <= hi)))
    oracle_frac = float(np.mean((oracle_terminals >= lo) & (oracle_terminals <= hi)))

    report = ExperimentReport(
        name="lil",
        params=config,
        manifest=make_manifest(config, seed, streams=2 * replicas, replicas=replicas),
    )
    band_tol = {"min": min_fraction}
    detail = f"band=[{lo:.4g},{hi:.4g}], start_index={i0 + 1}"
    report.statistics.append(
        statistic("walk_fraction_in_band", walk_frac, band_tol, detail=detail)
    )
    report.statistics.append(
        statistic("oracle_fraction_in_band", oracle_frac, band_tol, detail=detail)
    )
    report.statistics.append(statistic("walk_median", float(np.median(walk_terminals))))
    report.statistics.append(
        statistic("oracle_median", float(np.median(oracle_terminals)))
    )
    if coverage:
        report.statistics.append(
            statistic(
                "coverage_fraction",
                covered_frac,
                {"min": 0.80},
                detail="all nine width-0.2 bins of [-0.9, 0.9] visited",
            )
        )
    report.attachments["terminals"] = {
        "columns": ["replica", "walk", "oracle"],
        "rows": [
            [i, float(w), float(o)]
            for i, (w, o) in enumerate(zip(walk_terminals, oracle_terminals))
        ],
    }
    report.notes.append(
        "quantiles walk: " + repr(_quantiles(walk_terminals))
    )
    report.notes.append(
        "quantiles oracle: " + repr(_quantiles(oracle_terminals))
    )
    return report


def chung_experiment(
    params: WalkParams,
    replicas: int = 50,
    seed: int = 0,
    median_tol: float = 0.15,
    workers: int | None = None,
) -> ExperimentReport:
    """Running-min of sqrt(loglog s_n^2 / s_n^2) max_{k<=n} |S_k|.

    The walk's median terminal running-min across seeds is compared to the
    matched Brownian oracle (same clock s_k^2, same start index); the oracle
    itself is checked against a wide band around pi/sqrt(8).

    Each path is drawn and reduced in blocks, so a replica holds about 1 MB;
    `workers` defaults to one thread per usable CPU (at most `replicas`)
    and never changes the report.
    """
    replicas = int(replicas)
    n = params.horizon
    if n < 100_000:
        raise ValueError(f"Chung runs need horizon >= 1e5, got {n}")
    s_sq = second_moment_profile(params.p, params.weights, n)
    valid = s_sq > _E_SQUARED
    if not valid.any():
        raise ValueError("s_n^2 never exceeds e^2; horizon too short")
    i0 = int(np.argmax(valid))
    if not np.all(s_sq[i0:] > _E_SQUARED):
        raise ValueError("s_n^2 dips below e^2 after first crossing it")
    coef = np.sqrt(np.log(np.log(s_sq[i0:])) / s_sq[i0:])
    gaps = np.diff(s_sq, prepend=0.0)
    if np.any(gaps < 0):
        raise ValueError("exact variance clock is not monotone; no Brownian oracle")
    step_sd = np.sqrt(gaps)
    a = params.weights.values(n)

    def walk_one(i: int) -> float:
        steps = _walk_steps(stream(seed, i), params.p, a)
        return _chung_terminal(_prefix_sums(steps), i0, coef)

    def oracle_one(i: int) -> float:
        steps = _oracle_steps(stream(seed, replicas + i), step_sd)
        return _chung_terminal(_prefix_sums(steps), i0, coef)

    walk_terminals = np.array(_map_streams(walk_one, replicas, workers))
    oracle_terminals = np.array(_map_streams(oracle_one, replicas, workers))
    walk_median = float(np.median(walk_terminals))
    oracle_median = float(np.median(oracle_terminals))
    oracle_band = (0.8 * CHUNG_CONSTANT, 1.4 * CHUNG_CONSTANT)
    oracle_frac = float(
        np.mean(
            (oracle_terminals >= oracle_band[0]) & (oracle_terminals <= oracle_band[1])
        )
    )

    config = {
        "experiment": "chung",
        "p": params.p,
        "weights": params.weights.spec,
        "n": n,
        "replicas": replicas,
        "seed": seed,
        "median_tol": median_tol,
    }
    report = ExperimentReport(
        name="chung",
        params=config,
        manifest=make_manifest(config, seed, streams=2 * replicas, replicas=replicas),
    )
    report.statistics.append(
        statistic(
            "median_abs_difference",
            abs(walk_median - oracle_median),
            {"max": median_tol},
            detail=f"walk={walk_median:.4f}, oracle={oracle_median:.4f}",
        )
    )
    report.statistics.append(statistic("walk_median", walk_median))
    report.statistics.append(statistic("oracle_median", oracle_median))
    report.statistics.append(
        statistic(
            "oracle_fraction_near_constant",
            oracle_frac,
            {"min": 0.90},
            detail=f"band=[0.8, 1.4] * pi/sqrt(8) = [{oracle_band[0]:.4f}, {oracle_band[1]:.4f}]",
        )
    )
    report.statistics.append(statistic("reference_constant", CHUNG_CONSTANT))
    report.attachments["terminals"] = {
        "columns": ["replica", "walk", "oracle"],
        "rows": [
            [i, float(w), float(o)]
            for i, (w, o) in enumerate(zip(walk_terminals, oracle_terminals))
        ],
    }
    return report


# -- fractal-side experiments --------------------------------------------------


def _exact_mantissa_step(h: Fraction) -> int:
    """h as a count of 2^-53 grid cells, rounded to nearest."""
    step = round(h * GRID)
    if step < 1:
        raise ValueError(f"h={h} is below the 2^-53 grid resolution")
    return int(step)


def modulus_experiment(
    f: FractalFunction,
    profile: VarianceProfile,
    h_grid,
    x_samples: int = 100_000,
    seed: int = 0,
    ks_tol: float = 0.02,
    eps: float = 1e-12,
) -> ExperimentReport:
    """Normalized increments (f(x+h) - f(x)) / (h sqrt(sigma(h))) vs normal.

    One Philox stream of uniform grid x per h.  Each h also records the
    slope-walk correspondence: quantiles of (f(x+h) - f(x))/h - w_{m(h)}(x).
    KS verdicts apply only for m(h) >= 2; at m = 1 there are no asymptotics
    and the row is report-only.
    """
    hs = [Fraction(h.item() if isinstance(h, np.floating) else h) for h in h_grid]
    if not hs:
        raise ValueError("h_grid must be non-empty")
    if any(hs[i] <= hs[i + 1] for i in range(len(hs) - 1)):
        raise ValueError("h_grid must be strictly decreasing")
    if hs[0] >= Fraction(1, f.r) or hs[-1] <= 0:
        raise ValueError(f"h_grid must lie inside (0, 1/{f.r})")
    x_samples = int(x_samples)

    rows = []
    stats = []
    notes = []
    for i, hq in enumerate(hs):
        rng = stream(seed, i)
        mx = uniform_mantissas(rng, x_samples)
        my = (mx + np.uint64(_exact_mantissa_step(hq))) & np.uint64(GRID - 1)
        vx = f.eval_grid(mx, eps)
        vy = f.eval_grid(my, eps)
        m = scale_index(f.r, hq)
        sig = profile.sigma_l(hq)
        h_float = float(hq)
        inc = (vy - vx) / h_float
        ks = ks_statistic(inc / math.sqrt(sig))
        walk = f.walk_value_grid(mx, m)
        resid_q = _quantiles(inc - walk)
        label = f"h=r^-{m}" if hq * f.r**m == 1 else f"h~r^-{m}"
        tol = {"max": ks_tol} if m >= 2 else None
        stats.append(
            statistic(
                f"ks_{i}",
                ks,
                tol,
                detail=f"{label}, sigma_l={sig:.6g}, m={m}",
            )
        )
        if m < 2:
            notes.append(f"h index {i}: m(h)={m} < 2, no verdict (no asymptotics)")
        rows.append([str(hq), m, sig, ks] + resid_q)

    config = {
        "experiment": "modulus",
        "r": f.r,
        "weights": f.weights.spec,
        "delta": f.delta,
        "h_grid": [str(h) for h in hs],
        "x_samples": x_samples,
        "seed": seed,
        "ks_tol": ks_tol,
        "eps": eps,
    }
    report = ExperimentReport(
        name="modulus",
        params=config,
        manifest=make_manifest(config, seed, streams=len(hs), replicas=x_samples),
    )
    report.statistics.extend(stats)
    report.notes.extend(notes)
    report.attachments["increments"] = {
        "columns": [
            "h",
            "m",
            "sigma_l",
            "ks",
            "resid_q05",
            "resid_q25",
            "resid_q50",
            "resid_q75",
            "resid_q95",
        ],
        "rows": rows,
    }
    return report


def functional_clt_experiment(
    f: FractalFunction,
    profile: VarianceProfile,
    beta: float,
    n: int,
    t_grid,
    x_samples: int = 100_000,
    seed: int = 0,
    var_tol: float = 0.05,
    precondition_tol: float = 0.05,
    eps: float = 1e-12,
) -> ExperimentReport:
    """Finite-dimensional marginals of rescaled increment paths vs Brownian.

    Paths are t -> (f(x + r^-idx(t)) - f(x)) / (r^-idx(t) sqrt(V_n)) with
    idx(t) = floor(n t^{1/beta}); under regular variation (checked first:
    V_idx/V_n within 5% of t relative) the marginals tend to centered
    Gaussians with Var = t and Cov = min(s, t).  Those are limits: at depth
    n, each sawtooth term kinked inside an increment costs variance and
    covariance.  For r = 2 and unit weights the covariance of indices i < j
    falls short of i/V_n by (2 - 2^{1-i})/V_n up to O(2^{i-j}), which puts
    Cov(t=0.5, t=1) at n = 40 at 0.45000, the floor of the default band.
    """
    beta = float(beta)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n = int(n)
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0 or ts[-1] > 1:
        raise ValueError("t_grid must lie inside (0, 1]")
    idx = [int(math.floor(n * t ** (1.0 / beta))) for t in ts]
    if idx[0] < 1:
        raise ValueError(f"t={ts[0]} gives index 0; increase n or t")
    if idx[-1] > profile.n_max:
        raise ValueError("profile too short for the requested horizon")
    v_n = profile.grid_value(n)
    for t, i in zip(ts, idx):
        ratio = profile.grid_value(i) / v_n
        if abs(ratio / t - 1.0) > precondition_tol:
            raise RegularVariationError(
                f"V_{i}/V_{n} = {ratio:.4g} deviates from t = {t} by more than "
                f"{precondition_tol:.0%}: the profile is not regularly varying "
                f"with index {beta}"
            )

    x_samples = int(x_samples)
    mx = uniform_mantissas(stream(seed, 0), x_samples)
    vx = f.eval_grid(mx, eps)
    sqrt_vn = math.sqrt(v_n)
    paths = np.empty((len(ts), x_samples))
    for row, i in enumerate(idx):
        hq = Fraction(1, f.r**i)
        my = (mx + np.uint64(_exact_mantissa_step(hq))) & np.uint64(GRID - 1)
        vy = f.eval_grid(my, eps)
        paths[row] = (vy - vx) / (float(hq) * sqrt_vn)

    config = {
        "experiment": "fclt",
        "r": f.r,
        "weights": f.weights.spec,
        "delta": f.delta,
        "beta": beta,
        "n": n,
        "t_grid": ts,
        "x_samples": x_samples,
        "seed": seed,
        "var_tol": var_tol,
        "eps": eps,
    }
    report = ExperimentReport(
        name="fclt",
        params=config,
        manifest=make_manifest(config, seed, streams=1, replicas=x_samples),
    )
    rows = []
    for row, (t, i) in enumerate(zip(ts, idx)):
        var = float(np.var(paths[row], ddof=1))
        report.statistics.append(
            statistic(
                f"var_t={t:g}",
                var,
                {"target": t, "abs": var_tol},
                detail=f"idx={i}",
            )
        )
        rows.append([t, i, var])
    for a_i in range(len(ts)):
        for b_i in range(a_i + 1, len(ts)):
            cov = float(np.cov(paths[a_i], paths[b_i], ddof=1)[0, 1])
            target = min(ts[a_i], ts[b_i])
            report.statistics.append(
                statistic(
                    f"cov_t={ts[a_i]:g},{ts[b_i]:g}",
                    cov,
                    {"target": target, "abs": var_tol},
                )
            )
    report.attachments["marginals"] = {
        "columns": ["t", "index", "variance"],
        "rows": rows,
    }
    return report


def sup_increment_trace(f: FractalFunction, x, h_grid, eps: float = 1e-10):
    """Running sup of |f(x+T) - f(x)|/T over the sampled T larger than h.

    Returns (h, trace) where trace[i] is the sup over grid values T > h[i].
    Non-decreasing as h shrinks by construction (the sup runs over a growing
    set); the liminf constant itself is out of reach at desk scale.
    """
    hs = [Fraction(h.item() if isinstance(h, np.floating) else h) for h in h_grid]
    if any(hs[i] <= hs[i + 1] for i in range(len(hs) - 1)):
        raise ValueError("h_grid must be strictly decreasing")
    if len(hs) < 2:
        raise ValueError("need at least two grid values")
    fx = f.eval(x, eps).value
    ratios = []
    for t in hs:
        ft = f.eval(Fraction(x.item() if isinstance(x, np.floating) else x) + t, eps).value
        ratios.append(abs(ft - fx) / float(t))
    trace = np.maximum.accumulate(np.array(ratios[:-1]))
    return np.array([float(h) for h in hs[1:]]), trace
