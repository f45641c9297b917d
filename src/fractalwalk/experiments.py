"""The limit-theorem experiments, their config schema and its parser.

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

The thread map and the lockstep engine of `lil` and `chung` live in `paths`,
the KS statistic in `stats`, and f's variance profile and grid increments
in `fractal`.  `SPECS` holds one `Spec` per CLI experiment, read off its
runner's signature: its config keys with their defaults, its seed
manifest's stream and replica counts, and the runner's name.
`normalize_config` gives a config its canonical form, with one parser per
key.  The CLI runs it on flags and config files, and each library
experiment on its own arguments before it reads any, so a library call and
the CLI run of the same values write the same params, manifest and bytes.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import fractal, paths
from .blocking import build_blocks
from .fractal import FractalFunction, scale_index, variance_profile
from .reports import ExperimentReport, SeedManifest, make_manifest, statistic
from .rng import _streams, stream, uniform_mantissas
from .stats import _quantiles, ks_statistic
from .walks import (
    WalkParams,
    _check_p,
    _draw_signs,
    exact_second_moment,
    second_moment_profile,
    simulate,
    variance_ratio_bound,
)
from .weights import (
    _UNIT,
    WeightSequence,
    _as_int,
    _require_finite,
    growth_report,
    validate_assumptions,
)

__all__ = [
    "RegularVariationError",
    "clt_experiment",
    "lil_experiment",
    "chung_experiment",
    "modulus_experiment",
    "functional_clt_experiment",
]

_E_SQUARED = math.e**2
CHUNG_CONSTANT = math.pi / math.sqrt(8.0)

# denominator D_n of the LIL statistic S_n / sqrt(2 D_n loglog D_n)
LIL_NORMALIZATIONS = ("exact_s", "scaled_A", "plain_A")

# largest relative gap |V_idx / (V_n t) - 1| the fclt precondition accepts
_PRECONDITION_TOL = 0.05


class RegularVariationError(ValueError):
    """The variance profile is not regularly varying with the claimed index."""


def _brownian_from_rng(rng: np.random.Generator, step_sd: np.ndarray) -> np.ndarray:
    """Brownian path whose k-th increment has standard deviation step_sd[k].

    No run calls it (`paths._lockstep` draws the oracles); it stays only
    because `perfbench/tracing.py` wraps it (ROADMAP item 1).
    """
    return np.cumsum(rng.standard_normal(step_sd.size) * step_sd)


def _require_variance(var: float, what: str) -> None:
    """Refuse a normalization by zero: the weights give no variance there."""
    if var == 0.0:
        raise ValueError(f"{what} = 0: the weights give no variance to normalize by")


def _clock(params: WalkParams, normalization: str = "exact_s") -> np.ndarray:
    """D_1..D_n: exact s_k^2, (p/(1-p)) A_k or plain A_k; refused if it overflowed."""
    n = params.horizon
    with np.errstate(over="ignore", invalid="ignore"):
        if normalization == "exact_s":
            clock = second_moment_profile(params.p, params.weights, n)
        elif normalization == "scaled_A":
            clock = (params.p / (1.0 - params.p)) * params.weights.energies(n)
        else:  # plain_A
            clock = params.weights.energies(n)
    _require_finite(clock, f"the {normalization} variance clock")
    return clock


# -- CLT ----------------------------------------------------------------------

# replicas per clt task: each task keys its streams in one pass and re-keys
# one Philox per replica; the report does not depend on it
_CLT_CHUNK = 250


def clt_experiment(
    params: WalkParams,
    replicas: int = 10_000,
    seed: int = 0,
    ks_tol: float = 0.02,
) -> ExperimentReport:
    """KS distance of S_n/s_n (s_n exact) to the standard normal.

    A task draws its replicas in blocks of `paths._BLOCK // n` rows (at least
    one), one path per row: short numpy ops do not overlap under the GIL,
    and one sign scan over the whole block lets the two threads of a 2-vCPU
    machine gain where per-replica scans of 5,000 steps did not.  Each row
    is weighted in place and summed by `np.add.reduce` along the row, the
    order numpy takes for `np.add.reduce(a * x)` on the row alone, on any
    CPU; a BLAS dot or product would leave the order to the kernel that
    OpenBLAS picks at run time.
    """
    config = _config("clt", params, replicas=replicas, seed=seed, ks_tol=ks_tol)
    replicas, seed, ks_tol = config["replicas"], config["seed"], config["ks_tol"]
    if replicas < 1_000:
        raise ValueError(f"need >= 1000 replicas, got {replicas}")
    n = params.horizon
    a = params.weights.values(n)
    with np.errstate(over="ignore", invalid="ignore"):
        s_n = math.sqrt(exact_second_moment(params.p, params.weights, 0, n))
    _require_finite(s_n, "s_n")
    _require_variance(s_n, "s_n")
    rows = max(1, paths._BLOCK // n)

    def chunk(c: int) -> np.ndarray:
        lo = c * _CLT_CHUNK
        hi = min(lo + _CLT_CHUNK, replicas)
        streams = _streams(seed, lo, hi)
        sums = []
        for start in range(lo, hi, rows):
            block = _draw_signs(streams, params.p, (min(rows, hi - start), n))
            block *= a
            sums.append(np.add.reduce(block, axis=1) / s_n)
        return np.concatenate(sums)

    samples = np.concatenate(paths._map_threads(chunk, -(-replicas // _CLT_CHUNK)))
    ks = ks_statistic(samples)
    se_mean = float(np.std(samples, ddof=1) / math.sqrt(replicas))

    report = _new_report(config)
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


def _start_index(clock: np.ndarray, what: str) -> int:
    """First index where the clock exceeds e^2 (loglog is not usable before).

    Refuses a clock that never gets there or dips back under e^2 later.
    """
    valid = clock > _E_SQUARED
    if not valid.any():
        raise ValueError(f"{what} never exceeds e^2; horizon too short")
    i0 = int(np.argmax(valid))
    if not np.all(clock[i0:] > _E_SQUARED):
        raise ValueError(f"{what} dips below e^2 after first crossing it")
    return i0


def _require_monotone(clock) -> None:
    """Refuse a variance clock with a negative gap: its oracle has no step sd.

    On a finite clock, s_k^2 < s_{k-1}^2 is exactly s_k^2 - s_{k-1}^2 < 0, so
    this is np.any(np.diff(clock, prepend=0.0) < 0) without the diff array.
    """
    if clock[0] < 0.0 or np.any(clock[1:] < clock[:-1]):
        raise ValueError("exact variance clock is not monotone; no Brownian oracle")


def _terminals(walk, oracle) -> dict:
    """The per-replica walk and oracle terminals as an attachment."""
    return {
        "columns": ["replica", "walk", "oracle"],
        "rows": [[i, float(w), float(o)] for i, (w, o) in enumerate(zip(walk, oracle))],
    }


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
    if not band[0] <= band[1]:  # also refuses NaN
        raise ValueError(f"band needs lo <= hi, got {list(band)}")
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

    `paths._lockstep` draws the walks and oracles a block at a time on one
    thread per usable CPU, and lil's reducer divides by each block's
    sqrt(2 D_k loglog D_k), computed once for all paths.  A run holds the
    weights and its clocks whole, 8 bytes a step each, and a few MB more.
    """
    config = _config("lil", params, replicas=replicas, seed=seed, normalization=normalization,
                     band=band, min_fraction=min_fraction)
    replicas = _as_int(config["replicas"], "replicas", 1)
    n = params.horizon
    if n < 100_000:
        raise ValueError(f"LIL runs need horizon >= 1e5, got {n}")
    seed, normalization, (lo, hi) = config["seed"], config["normalization"], config["band"]
    min_fraction, coverage = config["min_fraction"], config["coverage"]
    den = _clock(params, normalization)
    i0 = _start_index(den, "denominator")
    s_sq = den if normalization == "exact_s" else _clock(params)
    _require_monotone(s_sq)

    def block(start: int, stop: int):
        first = max(start, i0)
        scale = np.sqrt(2.0 * den[first:stop] * np.log(np.log(den[first:stop])))
        return lambda path, sums, walk: paths._lil_block(
            path, sums[first - start:], scale, coverage and walk)

    out = paths._lockstep(params.p, params.weights.values(n), s_sq, replicas, seed, block)
    walk_terminals = np.array([path.top for path in out[:replicas]])
    oracle_terminals = np.array([path.top for path in out[replicas:]])
    covered = [path.seen.all() for path in out[:replicas]]
    covered_frac = float(np.mean(covered)) if coverage else None

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
    report.statistics.append(statistic("oracle_median", float(np.median(oracle_terminals))))
    if coverage:
        report.statistics.append(
            statistic(
                "coverage_fraction",
                covered_frac,
                {"min": 0.80},
                detail="all nine width-0.2 bins of [-0.9, 0.9] visited",
            )
        )
    report.attachments["terminals"] = _terminals(walk_terminals, oracle_terminals)
    report.notes.append("quantiles walk: " + repr(_quantiles(walk_terminals)))
    report.notes.append("quantiles oracle: " + repr(_quantiles(oracle_terminals)))
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

    `paths._lockstep` draws the walks and oracles a block at a time on one
    thread per usable CPU, and chung's reducer scales by each block's
    sqrt(loglog s_k^2 / s_k^2), computed once for all paths.  A run holds
    the weights and the clock whole, 16 bytes a step, and a few MB more.
    """
    config = _config("chung", params, replicas=replicas, seed=seed, median_tol=median_tol)
    replicas = _as_int(config["replicas"], "replicas", 1)
    seed, median_tol = config["seed"], config["median_tol"]
    n = params.horizon
    if n < 100_000:
        raise ValueError(f"Chung runs need horizon >= 1e5, got {n}")
    s_sq = _clock(params)
    i0 = _start_index(s_sq, "s_n^2")
    _require_monotone(s_sq)

    def block(start: int, stop: int):
        first = max(start, i0)
        coef = np.sqrt(np.log(np.log(s_sq[first:stop])) / s_sq[first:stop])
        return lambda path, sums, walk: paths._chung_block(path, sums, first - start, coef)

    out = paths._lockstep(params.p, params.weights.values(n), s_sq, replicas, seed, block)
    walk_terminals = np.array([path.low for path in out[:replicas]])
    oracle_terminals = np.array([path.low for path in out[replicas:]])
    walk_median = float(np.median(walk_terminals))
    oracle_median = float(np.median(oracle_terminals))
    oracle_band = (0.8 * CHUNG_CONSTANT, 1.4 * CHUNG_CONSTANT)
    oracle_frac = float(
        np.mean(
            (oracle_terminals >= oracle_band[0]) & (oracle_terminals <= oracle_band[1])
        )
    )

    report = _new_report(config)
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
    report.attachments["terminals"] = _terminals(walk_terminals, oracle_terminals)
    return report


# -- fractal-side experiments --------------------------------------------------


def modulus_experiment(
    f: FractalFunction,
    h_grid="2^-10,2^-20",
    x_samples: int = 100_000,
    seed: int = 0,
    ks_tol: float = 0.02,
    eps: float = 1e-12,
) -> ExperimentReport:
    """Normalized increments (f(x+h) - f(x)) / (h sqrt(sigma(h))) vs normal.

    One Philox stream of uniform grid x per h.  Each h also records the
    slope-walk correspondence: quantiles of (f(x+h) - f(x))/h - w_{m(h)}(x).
    KS verdicts apply only for m(h) >= 2; at m = 1 there are no asymptotics
    and the row is report-only.  sigma is f's own variance profile, to one
    level past the smallest h.  Each scale is one task, grid calls and all,
    on one thread per usable CPU, smallest h first; it depends only on its h
    and stream, so the report depends neither on the CPU count nor on order.
    """
    config = _config("modulus", f, h_grid=h_grid, x_samples=x_samples, seed=seed,
                     ks_tol=ks_tol, eps=eps)
    x_samples, seed, ks_tol, eps = (config[k] for k in ("x_samples", "seed", "ks_tol", "eps"))
    if x_samples < 10:  # the fewest samples ks_statistic takes
        raise ValueError(f"need at least 10 x samples, got {x_samples}")
    hs = [Fraction(h) for h in config["h_grid"]]
    if not hs:
        raise ValueError("h_grid must be non-empty")
    if any(hs[i] <= hs[i + 1] for i in range(len(hs) - 1)):
        raise ValueError("h_grid must be strictly decreasing")
    if hs[0] >= Fraction(1, f.r) or hs[-1] <= 0:
        raise ValueError(f"h_grid must lie inside (0, 1/{f.r})")
    profile = variance_profile(f.r, f.weights, scale_index(f.r, hs[-1]) + 1)
    sigmas = [profile.sigma_l(hq) for hq in hs]
    for hq, sig in zip(hs, sigmas):
        _require_variance(sig, f"sigma_l({hq})")

    def scale_row(i: int) -> tuple:
        """Scale i's statistics: KS distance and residual quantiles."""
        hq = hs[i]
        mx = uniform_mantissas(stream(seed, i), x_samples)
        inc = f.increment_grid(mx, [hq], eps)[0]
        inc /= float(hq)
        m = scale_index(f.r, hq)
        sig = sigmas[i]
        ks = ks_statistic(inc / math.sqrt(sig))
        inc -= f.walk_value_grid(mx, m)
        return m, sig, ks, _quantiles(inc)

    # a row's walk takes m(h) terms, so the rows grow dearer down the grid;
    # queued dearest first, the last row to finish is a cheap one
    last = len(hs) - 1
    stats = paths._map_threads(lambda j: scale_row(last - j), len(hs))[::-1]
    report = _new_report(config)
    rows = []
    for i, (hq, (m, sig, ks, resid_q)) in enumerate(zip(hs, stats)):
        label = f"h=r^-{m}" if hq * f.r**m == 1 else f"h~r^-{m}"
        tol = {"max": ks_tol} if m >= 2 else None
        report.statistics.append(
            statistic(f"ks_{i}", ks, tol, detail=f"{label}, sigma_l={sig:.6g}, m={m}")
        )
        if m < 2:
            report.notes.append(f"h index {i}: m(h)={m} < 2, no verdict (no asymptotics)")
        rows.append([str(hq), m, sig, ks] + resid_q)

    report.attachments["increments"] = {
        "columns": ["h", "m", "sigma_l", "ks", "resid_q05", "resid_q25", "resid_q50",
                    "resid_q75", "resid_q95"],
        "rows": rows,
    }
    return report


def functional_clt_experiment(
    f: FractalFunction,
    beta: float = 1.0,
    n: int = 40,
    t_grid="0.25,0.5,1",
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
    V is f's own variance profile to depth n.  The points run in blocks of
    `fractal._EVAL_BLOCK` on one thread per usable CPU; no number depends on
    the block or thread that computes it.
    """
    config = _config("fclt", f, beta=beta, n=n, t_grid=t_grid, x_samples=x_samples,
                     seed=seed, var_tol=var_tol, eps=eps)
    beta, n, ts, x_samples, seed, var_tol, eps = (
        config[k] for k in ("beta", "n", "t_grid", "x_samples", "seed", "var_tol", "eps")
    )
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if x_samples < 2:  # a sample variance needs two
        raise ValueError(f"need at least 2 x samples, got {x_samples}")
    if not ts or ts[0] <= 0 or ts[-1] > 1:
        raise ValueError("t_grid must lie inside (0, 1]")
    idx = [int(math.floor(n * t ** (1.0 / beta))) for t in ts]
    if idx[0] < 1:
        raise ValueError(f"t={ts[0]} gives index 0; increase n or t")
    if len(set(idx)) < len(idx):
        raise ValueError(f"t_grid {ts} gives indices {idx}; each t needs its own index")
    profile = variance_profile(f.r, f.weights, n)
    v_n = profile.grid_value(n)
    _require_variance(v_n, f"V_{n}")
    for t, i in zip(ts, idx):
        ratio = profile.grid_value(i) / v_n
        if abs(ratio / t - 1.0) > _PRECONDITION_TOL:
            raise RegularVariationError(
                f"V_{i}/V_{n} = {ratio:.4g} deviates from t = {t} by more than "
                f"{_PRECONDITION_TOL:.0%}: the profile is not regularly varying "
                f"with index {beta}"
            )

    mx = uniform_mantissas(stream(seed, 0), x_samples)
    sqrt_vn = math.sqrt(v_n)
    hs = [Fraction(1, f.r**i) for i in idx]
    scales = np.array([[float(hq) * sqrt_vn] for hq in hs])
    incs = np.empty((len(ts), x_samples))
    block = fractal._EVAL_BLOCK

    def fill(b: int) -> None:
        part = slice(b * block, (b + 1) * block)
        np.divide(f.increment_grid(mx[part], hs, eps), scales, out=incs[:, part])

    paths._map_threads(fill, -(-x_samples // block))
    # the moments below read the increments only, and np.cov copies two rows
    del mx

    report = _new_report(config)
    rows = []
    for row, (t, i) in enumerate(zip(ts, idx)):
        var = float(np.var(incs[row], ddof=1))
        report.statistics.append(
            statistic(f"var_t={t:g}", var, {"target": t, "abs": var_tol}, detail=f"idx={i}")
        )
        rows.append([t, i, var])
    for a_i in range(len(ts)):
        for b_i in range(a_i + 1, len(ts)):
            cov = float(np.cov(incs[a_i], incs[b_i], ddof=1)[0, 1])
            target = min(ts[a_i], ts[b_i])
            report.statistics.append(
                statistic(f"cov_t={ts[a_i]:g},{ts[b_i]:g}", cov, {"target": target, "abs": var_tol})
            )
    report.attachments["marginals"] = {"columns": ["t", "index", "variance"], "rows": rows}
    return report


# -- experiment specs ------------------------------------------------------------


def _run_eval(f: FractalFunction, x="0.5", eps: float = 1e-12) -> ExperimentReport:
    config = _config("eval", f, x=x, eps=eps)
    res = f.eval(Fraction(config["x"]), config["eps"])
    print(res.value)
    report = _new_report(config)
    report.statistics.append(
        statistic(
            "certified_error",
            res.error_bound,
            {"max": config["eps"]},
            detail=f"value={res.value!r}, terms={res.terms}",
        )
    )
    return report


def _run_simulate(params: WalkParams, seed: int = 0, stream: int = 0) -> ExperimentReport:
    config = _config("simulate", params, seed=seed, stream=stream)
    path = simulate(params, config["seed"], config["stream"])
    report = _new_report(config)
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


def _run_blocks(weights=_UNIT, delta: float = 1.0, count: int = 6,
                p: float | None = None) -> ExperimentReport:
    config = _config("blocks", weights=weights, delta=delta, count=count, p=p)
    p = None if config["p"] is None else _check_p(config["p"])
    seq = WeightSequence.from_spec(config["weights"])
    scheme = build_blocks(seq, config["delta"], config["count"])
    report = _new_report(config)
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


def _run_validate_weights(weights=_UNIT, delta: float = 1.0, n_max: int = 10_000,
                          q: float = 2.0, n0: int | None = None) -> ExperimentReport:
    cfg = _config("validate-weights", weights=weights, delta=delta, n_max=n_max, q=q, n0=n0)
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


@dataclass(frozen=True)
class Spec:
    """One experiment's config schema and runner.

    `defaults` lists every config key, in flag order, with its default: the
    keys the runner's `source` (WalkParams, FractalFunction or None) is built
    from, then the runner's `keywords` with the defaults its signature
    declares, the one place they are written.  Every key enters the
    run hash.  `streams` and `replicas` give the seed manifest's counts for a
    config, and `resolve` fills the defaults that depend on other keys.
    """

    runner: str  # the runner's name in this module
    source: type | None
    defaults: dict
    keywords: tuple
    streams: Callable[[dict], int] = lambda cfg: 0
    replicas: Callable[[dict], int] = lambda cfg: 1
    resolve: Callable[[dict], dict] = lambda cfg: cfg

    def run(self, cfg: dict) -> ExperimentReport:
        """Run a normalized config: its source built, every other key by keyword.

        The runner is looked up on this module at each call, so a wrapper set
        on the module attribute (the benchmark's tracer) sees every run.
        """
        args = [] if self.source is None else [_source(self.source, cfg)]
        return globals()[self.runner](*args, **{k: cfg[k] for k in self.keywords})

    def manifest(self, config: dict) -> SeedManifest:
        """Seed manifest of a resolved config."""
        return make_manifest(
            config, config.get("seed", 0), self.streams(config), self.replicas(config)
        )


def _spec(runner, source=None, n=None, **counts) -> Spec:
    """The spec of `runner`, whose first parameter is its source if it has one.

    A walk's horizon n defaults per experiment, so it is given here; the
    source's other keys default to p = 0.75 or r = 2, const weights and
    delta = 1.
    """
    keys = {WalkParams: {"p": 0.75, "weights": _UNIT, "n": n},
            FractalFunction: {"r": 2, "weights": _UNIT, "delta": 1.0}}.get(source, {})
    params = list(inspect.signature(runner).parameters.values())[source is not None:]
    keywords = {param.name: param.default for param in params}
    return Spec(runner.__name__, source, {**keys, **keywords}, tuple(keywords), **counts)


def _source(kind: type, cfg: dict):
    """The WalkParams or FractalFunction a config's source keys describe."""
    weights = WeightSequence.from_spec(cfg["weights"])
    if kind is WalkParams:
        return WalkParams(p=cfg["p"], weights=weights, horizon=cfg["n"])
    return FractalFunction(r=cfg["r"], weights=weights, delta=cfg["delta"])


def _config(name: str, source=None, **values) -> dict:
    """The resolved config of a library run of `name`, from these values.

    `source`, the run's WalkParams or FractalFunction if it has one, supplies
    p, weights and n, or r, weights and delta.  The values pass through the
    same `normalize_config` a CLI run does, so both write the same params.
    """
    if isinstance(source, WalkParams):
        values.update(p=source.p, weights=source.weights.spec, n=source.horizon)
    elif source is not None:
        values.update(r=source.r, weights=source.weights.spec, delta=source.delta)
    return SPECS[name].resolve(normalize_config({"experiment": name, **values}))


def _new_report(config: dict) -> ExperimentReport:
    """An empty report with the config as params and the spec's manifest."""
    name = config["experiment"]
    return ExperimentReport(name=name, params=config, manifest=SPECS[name].manifest(config))


SPECS = {
    "eval": _spec(_run_eval, FractalFunction),
    "simulate": _spec(_run_simulate, WalkParams, n=1000, streams=lambda cfg: 1),
    "blocks": _spec(_run_blocks),
    "validate-weights": _spec(_run_validate_weights),
    "clt": _spec(clt_experiment, WalkParams, n=5000, streams=lambda cfg: cfg["replicas"],
                 replicas=lambda cfg: cfg["replicas"]),
    "lil": _spec(lil_experiment, WalkParams, n=1_000_000, streams=lambda cfg: 2 * cfg["replicas"],
                 replicas=lambda cfg: cfg["replicas"], resolve=_resolve_lil),
    "chung": _spec(chung_experiment, WalkParams, n=1_000_000,
                   streams=lambda cfg: 2 * cfg["replicas"], replicas=lambda cfg: cfg["replicas"]),
    "modulus": _spec(modulus_experiment, FractalFunction, streams=lambda cfg: len(cfg["h_grid"]),
                     replicas=lambda cfg: cfg["x_samples"]),
    "fclt": _spec(functional_clt_experiment, FractalFunction, streams=lambda cfg: 1,
                  replicas=lambda cfg: cfg["x_samples"]),
}


# -- config values ----------------------------------------------------------------


class UsageError(ValueError):
    """Bad flags or config values; the CLI maps it to exit code 1."""


# Python's default limit on the digits of an int it converts to text
_MAX_STEP_DIGITS = 4300


def parse_step(text) -> Fraction:
    """Step size: 'r^-k', 'num/den' or a decimal; a UsageError names one it cannot read.

    An 'r^k' whose power would pass `_MAX_STEP_DIGITS` decimal digits is
    refused before it is computed: the config stores the step as text.
    """
    if isinstance(text, Fraction):
        return text
    s = str(text).strip()
    try:
        if "^" in s:
            base, _, expo = s.partition("^")
            base, expo = int(base), int(expo)
            if abs(base) < 2 or abs(expo) * math.log10(abs(base)) < _MAX_STEP_DIGITS:
                return Fraction(base) ** expo
        elif "/" in s:
            return Fraction(s)
        else:
            return Fraction(float(s))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"cannot read the step {s!r}: not r^-k, num/den or a decimal") from None
    raise UsageError(
        f"cannot read the step {s!r}: its power has more than {_MAX_STEP_DIGITS} digits"
    )


def _parse_list(text, parser=float) -> list:
    """A comma-separated string, a scalar or any other iterable, item by item."""
    if isinstance(text, str) or not np.iterable(text):
        text = [v for v in str(text).split(",") if v.strip()]
    return [parser(v) for v in text]


def _finite(val) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise UsageError(f"{val} is not a finite number")
    return x


def _count(val) -> int:
    """An integer, refused rather than truncated if it has a fractional part.

    A string `int` refuses is read as an exact `Fraction`, so "1e3" and
    "1000.0" count 1000, as the JSON number 1e3 does.  One beyond float
    range is refused first, as JSON's 1e400 (inf) is, so that `Fraction`
    never builds a huge power of ten.  The rest is `_as_int`'s, as in a library call.
    """
    try:
        num = val
        if isinstance(val, str):
            try:
                num = int(val)
            except ValueError:
                if not math.isfinite(float(val)):
                    raise OverflowError(val) from None
                num = Fraction(val)
        return _as_int(num, "count")
    except (ValueError, OverflowError):
        raise UsageError(f"{val} is not an integer") from None


# each config key's parser, whichever experiments have it; a key not listed
# keeps its value as given
_PARSERS = {
    # every spelling of a weight spec is stored as the spec its run writes
    "weights": lambda val: WeightSequence.from_spec(val).spec,
    "x": lambda val: str(parse_step(val)),
    "h_grid": lambda val: [str(h) for h in _parse_list(val, parse_step)],
    "t_grid": lambda val: sorted(_parse_list(val, _finite)),
    "band": _parse_list,
    **dict.fromkeys(
        ("r", "n", "n_max", "n0", "count", "replicas", "seed", "stream", "x_samples"), _count
    ),
    **dict.fromkeys(
        ("p", "delta", "eps", "ks_tol", "q", "beta", "var_tol", "median_tol", "min_fraction"),
        _finite,
    ),
}


def normalize_config(raw: dict) -> dict:
    """Validated canonical config: defaults filled, types fixed, keys sorted.

    The one parser of config values: CLI runs and library calls both pass
    through it.  Idempotent, so canonical configs round-trip through JSON
    byte-identically.
    """
    if "experiment" not in raw:
        raise UsageError("config needs an 'experiment' key")
    kind = str(raw["experiment"])
    if kind not in SPECS:
        raise UsageError(f"unknown experiment {kind!r}; choose from {tuple(SPECS)}")
    defaults = SPECS[kind].defaults
    unknown = set(raw) - set(defaults) - {"experiment"}
    if unknown:
        raise UsageError(f"unknown config keys for {kind}: {sorted(unknown)}")
    cfg = {"experiment": kind}
    for key, default in defaults.items():
        val = raw.get(key, default)
        if val is None and default is not None:
            raise UsageError(f"{key} needs a value, got null")
        try:
            cfg[key] = val if val is None or key not in _PARSERS else _PARSERS[key](val)
        except ValueError as err:  # a parser's refusal is a usage error
            raise UsageError(str(err)) from None
    return cfg


def manifest(config: dict) -> SeedManifest:
    """Canonical seed manifest for a config (without running it)."""
    cfg = normalize_config(config)
    spec = SPECS[cfg["experiment"]]
    return spec.manifest(spec.resolve(cfg))
