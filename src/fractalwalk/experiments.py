"""Monte Carlo and exact experiments for the walk and fractal limit theorems.

Each experiment returns an `ExperimentReport` whose numbers depend only on
the seed manifest: replica i always draws from Philox stream (seed, i), the
Brownian oracle replicas from streams offset by the replica count, so thread
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

`SPECS` holds one `Spec` per CLI experiment: its config keys with their
defaults, its seed manifest's stream and replica counts, and its runner.
The CLI parser, config normalization, run manifests and every report's
params are read from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .blocking import build_blocks
from .fractal import FractalFunction, _exact, _map_threads, scale_index
from .reports import ExperimentReport, SeedManifest, make_manifest, statistic
from .rng import GRID, stream, uniform_mantissas
from .walks import (
    WalkParams,
    _check_p,
    _draw_signs,
    exact_second_moment,
    second_moment_profile,
    simulate,
    variance_ratio_bound,
)
from .weights import WeightSequence, _as_positive_int, growth_report, validate_assumptions

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
    "SPECS",
]

_E_SQUARED = math.e**2
CHUNG_CONSTANT = math.pi / math.sqrt(8.0)

# denominator D_n of the LIL statistic S_n / sqrt(2 D_n loglog D_n)
LIL_NORMALIZATIONS = ("exact_s", "scaled_A", "plain_A")

# largest relative gap |V_idx / (V_n t) - 1| the fclt precondition accepts
_PRECONDITION_TOL = 0.05


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
        hq = _exact(h)
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
    n_max = _as_positive_int(n_max, "n_max")
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


def _require_finite(clock, what: str) -> None:
    """Refuse a variance clock that overflowed: no normalization or oracle."""
    if not np.all(np.isfinite(clock)):
        raise ValueError(
            f"{what} is not finite: the weights overflow float64 by this horizon"
        )


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
) -> ExperimentReport:
    """KS distance of S_n/s_n (s_n exact) to the standard normal."""
    replicas = int(replicas)
    if replicas < 1_000:
        raise ValueError(f"need >= 1000 replicas, got {replicas}")
    n = params.horizon
    a = params.weights.values(n)
    with np.errstate(over="ignore", invalid="ignore"):
        s_n = math.sqrt(exact_second_moment(params.p, params.weights, 0, n))
    _require_finite(s_n, "s_n")

    def one(i: int) -> float:
        x = _draw_signs(stream(seed, i), params.p, n)
        return float(a @ x) / s_n

    samples = np.array(_map_threads(one, replicas))
    ks = ks_statistic(samples)
    se_mean = float(np.std(samples, ddof=1) / math.sqrt(replicas))

    report = _new_report(_config("clt", params, replicas=replicas, seed=seed, ks_tol=ks_tol))
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
    return energies.copy()  # plain_A


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


def _resolve_lil(cfg: dict) -> dict:
    """A lil config with the defaults that depend on its normalization filled.

    The band and fraction default per normalization; coverage is tracked for
    exact_s only.
    """
    normalization = cfg["normalization"]
    if normalization not in LIL_NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {LIL_NORMALIZATIONS}, got {normalization!r}"
        )
    if normalization == "plain_A":
        band, fraction = (0.0, math.sqrt(variance_ratio_bound(cfg["p"])) * 1.1), 0.95
    else:
        band, fraction = (0.5, 1.2), 0.90
    if cfg["band"] is not None:
        band = tuple(cfg["band"])
    if len(band) != 2:
        raise ValueError(f"band needs two values lo,hi, got {list(band)}")
    if cfg["min_fraction"] is not None:
        fraction = cfg["min_fraction"]
    return {**cfg, "band": list(band), "min_fraction": fraction,
            "coverage": normalization == "exact_s"}


def lil_experiment(
    params: WalkParams,
    replicas: int = 50,
    seed: int = 0,
    normalization: str = "exact_s",
    band: tuple[float, float] | None = None,
    min_fraction: float | None = None,
) -> ExperimentReport:
    """Terminal running max of S_n / sqrt(2 D_n loglog D_n) across seeds.

    The statistic starts at the first index where D_n > e^2 (loglog is not
    usable earlier).  A Brownian oracle on the exact-variance clock runs
    through the identical denominators and grid, and the band verdicts apply
    to both; coverage (the normalized path visiting all nine width-0.2 bins
    of [-0.9, 0.9]) is tracked for the exact-s_n normalization only.

    Each path is drawn and reduced in blocks, so a replica holds about 1 MB,
    and the replicas run on one thread per usable CPU (at most `replicas`).
    """
    replicas = int(replicas)
    n = params.horizon
    if n < 100_000:
        raise ValueError(f"LIL runs need horizon >= 1e5, got {n}")
    config = _config("lil", params, replicas=replicas, seed=seed, normalization=normalization,
                     band=band, min_fraction=min_fraction)
    lo, hi = config["band"]
    min_fraction, coverage = config["min_fraction"], config["coverage"]
    with np.errstate(over="ignore", invalid="ignore"):
        den = _lil_denominator(params, normalization)
    _require_finite(den, f"the {normalization} denominator")
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
        with np.errstate(over="ignore", invalid="ignore"):
            s_sq = second_moment_profile(params.p, params.weights, n)
        _require_finite(s_sq, "the exact variance clock s_k^2")
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

    walk_results = _map_threads(walk_one, replicas)
    walk_terminals = np.array([t for t, _ in walk_results])
    covered_frac = float(np.mean([c for _, c in walk_results])) if coverage else None
    oracle_terminals = np.array(_map_threads(oracle_one, replicas))

    walk_frac = float(np.mean((walk_terminals >= lo) & (walk_terminals <= hi)))
    oracle_frac = float(np.mean((oracle_terminals >= lo) & (oracle_terminals <= hi)))

    report = _new_report(config)
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
) -> ExperimentReport:
    """Running-min of sqrt(loglog s_n^2 / s_n^2) max_{k<=n} |S_k|.

    The walk's median terminal running-min across seeds is compared to the
    matched Brownian oracle (same clock s_k^2, same start index); the oracle
    itself is checked against a wide band around pi/sqrt(8).

    Each path is drawn and reduced in blocks, so a replica holds about 1 MB,
    and the replicas run on one thread per usable CPU (at most `replicas`).
    """
    replicas = int(replicas)
    n = params.horizon
    if n < 100_000:
        raise ValueError(f"Chung runs need horizon >= 1e5, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        s_sq = second_moment_profile(params.p, params.weights, n)
    _require_finite(s_sq, "the exact variance clock s_k^2")
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

    walk_terminals = np.array(_map_threads(walk_one, replicas))
    oracle_terminals = np.array(_map_threads(oracle_one, replicas))
    walk_median = float(np.median(walk_terminals))
    oracle_median = float(np.median(oracle_terminals))
    oracle_band = (0.8 * CHUNG_CONSTANT, 1.4 * CHUNG_CONSTANT)
    oracle_frac = float(
        np.mean(
            (oracle_terminals >= oracle_band[0]) & (oracle_terminals <= oracle_band[1])
        )
    )

    report = _new_report(
        _config("chung", params, replicas=replicas, seed=seed, median_tol=median_tol)
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
    hs = [_exact(h) for h in h_grid]
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

    report = _new_report(
        _config("modulus", f, h_grid=[str(h) for h in hs], x_samples=x_samples, seed=seed,
                ks_tol=ks_tol, eps=eps)
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
        if abs(ratio / t - 1.0) > _PRECONDITION_TOL:
            raise RegularVariationError(
                f"V_{i}/V_{n} = {ratio:.4g} deviates from t = {t} by more than "
                f"{_PRECONDITION_TOL:.0%}: the profile is not regularly varying "
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

    report = _new_report(
        _config("fclt", f, beta=beta, n=n, t_grid=ts, x_samples=x_samples, seed=seed,
                var_tol=var_tol, eps=eps)
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
    hs = [_exact(h) for h in h_grid]
    if any(hs[i] <= hs[i + 1] for i in range(len(hs) - 1)):
        raise ValueError("h_grid must be strictly decreasing")
    if len(hs) < 2:
        raise ValueError("need at least two grid values")
    fx = f.eval(x, eps).value
    ratios = []
    for t in hs:
        ft = f.eval(_exact(x) + t, eps).value
        ratios.append(abs(ft - fx) / float(t))
    trace = np.maximum.accumulate(np.array(ratios[:-1]))
    return np.array([float(h) for h in hs[1:]]), trace


# -- experiment specs ------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One experiment's config schema and runner: the one place its keys live.

    `defaults` lists every config key, in flag order, with its default; every
    key enters the run hash.  `streams` and `replicas` give the seed
    manifest's counts for a config, `run` runs a normalized config, and
    `resolve` fills the defaults that depend on other keys.
    """

    defaults: dict
    run: Callable[[dict], ExperimentReport]
    streams: Callable[[dict], int] = lambda cfg: 0
    replicas: Callable[[dict], int] = lambda cfg: 1
    resolve: Callable[[dict], dict] = lambda cfg: cfg

    def manifest(self, config: dict) -> SeedManifest:
        """Seed manifest of a resolved config."""
        return make_manifest(
            config, config.get("seed", 0), self.streams(config), self.replicas(config)
        )


def _config(name: str, source, **values) -> dict:
    """The resolved config of a run of `name`: its spec's keys, from these values.

    `source`, the run's WalkParams or FractalFunction, supplies p, weights
    and n, or r, weights and delta.
    """
    if isinstance(source, WalkParams):
        values.update(p=source.p, weights=source.weights.spec, n=source.horizon)
    else:
        values.update(r=source.r, weights=source.weights.spec, delta=source.delta)
    spec = SPECS[name]
    return spec.resolve({"experiment": name, **{k: values[k] for k in spec.defaults}})


def _new_report(config: dict) -> ExperimentReport:
    """An empty report with the config as params and the spec's manifest."""
    name = config["experiment"]
    return ExperimentReport(name=name, params=config, manifest=SPECS[name].manifest(config))


def _walk_params(cfg: dict) -> WalkParams:
    return WalkParams(
        p=cfg["p"], weights=WeightSequence.from_spec(cfg["weights"]), horizon=cfg["n"]
    )


def _fractal(cfg: dict) -> FractalFunction:
    return FractalFunction(
        r=cfg["r"], weights=WeightSequence.from_spec(cfg["weights"]), delta=cfg["delta"]
    )


def _run_eval(cfg: dict) -> ExperimentReport:
    res = _fractal(cfg).eval(Fraction(cfg["x"]), cfg["eps"])
    print(res.value)
    report = _new_report(cfg)
    report.statistics.append(
        statistic(
            "certified_error",
            res.error_bound,
            {"max": cfg["eps"]},
            detail=f"value={res.value!r}, terms={res.terms}",
        )
    )
    return report


def _run_simulate(cfg: dict) -> ExperimentReport:
    path = simulate(_walk_params(cfg), cfg["seed"], cfg["stream"])
    report = _new_report(cfg)
    report.statistics.append(statistic("terminal_sum", float(path.sums[-1])))
    report.statistics.append(statistic("terminal_sign", float(path.signs[-1])))
    report.attachments["path"] = {
        "columns": ["k", "sign", "sum"],
        "rows": [
            [k + 1, int(path.signs[k]), float(path.sums[k + 1])]
            for k in range(path.horizon)
        ],
    }
    print(f"simulated n={path.horizon}, S_n={path.sums[-1]:g}")
    return report


def _run_blocks(cfg: dict) -> ExperimentReport:
    p = None if cfg["p"] is None else _check_p(cfg["p"])
    seq = WeightSequence.from_spec(cfg["weights"])
    scheme = build_blocks(seq, cfg["delta"], cfg["count"])
    report = _new_report(cfg)
    report.statistics.append(statistic("boundaries", float(scheme.boundaries.size)))
    rows = []
    delays = None if p is None else scheme.delays_for(2.0 * p - 1.0)
    for j in range(scheme.boundaries.size):
        row = [j + 1, int(scheme.boundaries[j]), float(scheme.energies[j])]
        row.append(int(delays[j]) if delays is not None else "")
        row.append(float(scheme.block_energies[j]) if j < scheme.n_blocks else "")
        rows.append(row)
    report.attachments["blocks"] = {
        "columns": ["j", "h_j", "energy_at_h_j", "delay", "block_energy"],
        "rows": rows,
    }
    print("boundaries:", ", ".join(str(int(b)) for b in scheme.boundaries))
    return report


def _run_validate_weights(cfg: dict) -> ExperimentReport:
    seq = WeightSequence.from_spec(cfg["weights"])
    rep = validate_assumptions(seq, cfg["delta"], cfg["n_max"])
    growth = growth_report(seq, cfg["delta"], cfg["q"], cfg["n0"], cfg["n_max"])
    report = _new_report(cfg)
    report.statistics.append(
        statistic(
            "assumptions_pass",
            1.0 if rep.passed else 0.0,
            {"min": 1.0},
            detail=f"K_hat={rep.k_hat:.6g} at n={rep.worst_index}, "
            f"tail_slope={rep.tail_slope:.3g}",
        )
    )
    report.statistics.append(
        statistic(
            "growth_pass",
            1.0 if growth.passed else 0.0,
            {"min": 1.0},
            detail=f"poly_sup={growth.poly_sup:.6g}, exp_ok={growth.exp_ok}, "
            f"n0_min={growth.n0_min}",
        )
    )
    report.statistics.append(statistic("k_hat", rep.k_hat))
    report.statistics.append(statistic("energy_final", rep.energy_final))
    return report


def _run_modulus(cfg: dict) -> ExperimentReport:
    f = _fractal(cfg)
    hs = [Fraction(h) for h in cfg["h_grid"]]
    n_max = max(scale_index(f.r, h) for h in hs) + 1
    profile = variance_profile(f.r, f.weights, n_max)
    return modulus_experiment(
        f, profile, hs, cfg["x_samples"], cfg["seed"], cfg["ks_tol"], cfg["eps"]
    )


def _run_fclt(cfg: dict) -> ExperimentReport:
    f = _fractal(cfg)
    profile = variance_profile(f.r, f.weights, cfg["n"])
    return functional_clt_experiment(
        f, profile, cfg["beta"], cfg["n"], cfg["t_grid"], cfg["x_samples"], cfg["seed"],
        cfg["var_tol"], eps=cfg["eps"],
    )


SPECS = {
    "eval": Spec(
        {"r": 2, "weights": "const", "delta": 1.0, "x": "0.5", "eps": 1e-12}, _run_eval
    ),
    "simulate": Spec(
        {"p": 0.75, "weights": "const", "n": 1000, "seed": 0, "stream": 0},
        _run_simulate,
        streams=lambda cfg: 1,
    ),
    "blocks": Spec(
        {"weights": "const", "delta": 1.0, "count": 6, "p": None}, _run_blocks
    ),
    "validate-weights": Spec(
        {"weights": "const", "delta": 1.0, "n_max": 10_000, "q": 2.0, "n0": None},
        _run_validate_weights,
    ),
    "clt": Spec(
        {"p": 0.75, "weights": "const", "n": 5000, "replicas": 10_000, "seed": 0,
         "ks_tol": 0.02},
        lambda cfg: clt_experiment(
            _walk_params(cfg), cfg["replicas"], cfg["seed"], cfg["ks_tol"]
        ),
        streams=lambda cfg: cfg["replicas"],
        replicas=lambda cfg: cfg["replicas"],
    ),
    "lil": Spec(
        {"p": 0.75, "weights": "const", "n": 1_000_000, "replicas": 50, "seed": 0,
         "normalization": "exact_s", "band": None, "min_fraction": None},
        lambda cfg: lil_experiment(
            _walk_params(cfg), cfg["replicas"], cfg["seed"], cfg["normalization"],
            cfg["band"], cfg["min_fraction"],
        ),
        streams=lambda cfg: 2 * cfg["replicas"],
        replicas=lambda cfg: cfg["replicas"],
        resolve=_resolve_lil,
    ),
    "chung": Spec(
        {"p": 0.75, "weights": "const", "n": 1_000_000, "replicas": 50, "seed": 0,
         "median_tol": 0.15},
        lambda cfg: chung_experiment(
            _walk_params(cfg), cfg["replicas"], cfg["seed"], cfg["median_tol"]
        ),
        streams=lambda cfg: 2 * cfg["replicas"],
        replicas=lambda cfg: cfg["replicas"],
    ),
    "modulus": Spec(
        {"r": 2, "weights": "const", "delta": 1.0, "h_grid": "2^-10,2^-20",
         "x_samples": 100_000, "seed": 0, "ks_tol": 0.02, "eps": 1e-12},
        _run_modulus,
        streams=lambda cfg: len(cfg["h_grid"]),
        replicas=lambda cfg: cfg["x_samples"],
    ),
    "fclt": Spec(
        {"r": 2, "weights": "const", "delta": 1.0, "beta": 1.0, "n": 40,
         "t_grid": "0.25,0.5,1", "x_samples": 100_000, "seed": 0, "var_tol": 0.05,
         "eps": 1e-12},
        _run_fclt,
        streams=lambda cfg: 1,
        replicas=lambda cfg: cfg["x_samples"],
    ),
}
