"""Deterministic step-weight sequences and their energy bookkeeping.

A weight sequence is the deterministic part a_1, a_2, ... of a walk with
variable step length.  The running energy A_n = sum_{k<=n} a_k^2 drives every
normalization downstream, so it is cached once per sequence and accumulated
in extended precision; the per-step identity A_n - A_{n-1} = a_n^2 then holds
to 1e-12 relative even after 10^4 steps.

Two diagnostics live here as well.  `validate_assumptions` checks the pair of
standing hypotheses on a finite horizon: the energy diverges, and the last
step is small against it, a_n^2 = O(A_n^{1-delta}).  An O-statement is not
falsifiable at finite n, so the check reports the observed constant
K_hat = max_n a_n^2 / A_n^{1-delta} (with 0/0 := 0) together with a trend fit
over the trailing window, and the verdict is explicitly heuristic.  A trend
passes when its log-log slope is at most `_SLOPE_TOL` = 0.01: the tolerance
is positive because a strict zero would reject a bounded ratio that drifts
slightly on the finite window, purely on fit noise.
`growth_report` examines the two growth consequences used by the blocking
construction: A_n = O(n^{1/delta}) and the doubling bound A_{n+k} <= A_n q^k
from some index n0 on.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "WeightSequence",
    "AssumptionReport",
    "GrowthReport",
    "validate_assumptions",
    "growth_report",
]


# largest log-log slope of a trailing trend that still counts as bounded
_SLOPE_TOL = 0.01


def _as_positive_int(n, name: str) -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


def _check_delta(delta) -> float:
    """delta as a float, refused outside (0, 1]."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return float(delta)


@dataclass(frozen=True)
class WeightSequence:
    """Lazily evaluated weight sequence with a shared energy cache.

    Build one through the classmethods (`constant`, `power`, ...) or from a
    serializable spec dict via `from_spec`; `explicit` sequences are zero
    beyond their stored values.
    """

    kind: str
    params: dict = field(default_factory=dict)
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False, default=None)
    _cache: dict = field(repr=False, compare=False, default_factory=dict)
    _lock: threading.Lock = field(repr=False, compare=False, default_factory=threading.Lock)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float = 1.0) -> "WeightSequence":
        c = float(c)
        return cls("constant", {"c": c}, lambda k: np.full(k.shape, c))

    @classmethod
    def power(cls, exponent: float) -> "WeightSequence":
        e = float(exponent)
        return cls("power", {"exponent": e}, lambda k: k.astype(float) ** e)

    @classmethod
    def alternating(cls) -> "WeightSequence":
        # +1, -1, +1, ... starting at k = 1
        return cls("alternating", {}, lambda k: np.where(k % 2 == 1, 1.0, -1.0))

    @classmethod
    def odd_indicator(cls) -> "WeightSequence":
        # 1, 0, 1, 0, ...: half the steps are null moves
        return cls("odd_indicator", {}, lambda k: (k % 2 == 1).astype(float))

    @classmethod
    def geometric(cls, base: float) -> "WeightSequence":
        b = float(base)
        if b <= 0:
            raise ValueError(f"geometric base must be positive, got {b}")

        def fn(k: np.ndarray) -> np.ndarray:
            # b**k overflows float64 near k ~ 710/log(b); leave inf in place,
            # energies past that point are unusable and callers see it
            with np.errstate(over="ignore"):
                return b ** k.astype(float)

        return cls("geometric", {"base": b}, fn)

    @classmethod
    def explicit(cls, values) -> "WeightSequence":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("explicit weights need a non-empty 1-d array")
        vals = vals.copy()
        vals.flags.writeable = False

        def fn(k: np.ndarray) -> np.ndarray:
            out = np.zeros(k.shape)
            inside = k <= vals.size
            out[inside] = vals[k[inside] - 1]
            return out

        return cls("explicit", {"values": [float(v) for v in vals]}, fn)

    @classmethod
    def from_spec(cls, spec: dict) -> "WeightSequence":
        kind = spec.get("kind")
        params = {k: v for k, v in spec.items() if k != "kind"}
        makers = {
            "constant": cls.constant,
            "power": cls.power,
            "alternating": cls.alternating,
            "odd_indicator": cls.odd_indicator,
            "geometric": cls.geometric,
            "explicit": cls.explicit,
        }
        if kind not in makers:
            raise ValueError(f"unknown weight kind {kind!r}")
        return makers[kind](**params)

    @property
    def spec(self) -> dict:
        """Serializable description, inverse of `from_spec`."""
        return {"kind": self.kind, **self.params}

    @property
    def length(self) -> int | None:
        """Number of stored values for explicit sequences, else None."""
        if self.kind == "explicit":
            return len(self.params["values"])
        return None

    # -- evaluation and cache ----------------------------------------------

    def _cached(self, n: int, key: str) -> np.ndarray:
        """The cached "values" or "energies" array, covering at least n terms.

        Energies are accumulated on their first request, from the cached
        values: walk code that reads only the values never pays for them.
        """
        with self._lock:
            have = self._cache.get("n", 0)
            if have < n:
                grow = max(n, 2 * have, 64)
                k = np.arange(1, grow + 1, dtype=np.int64)
                vals = np.asarray(self._fn(k), dtype=float)
                vals.flags.writeable = False
                self._cache.clear()
                self._cache.update(n=grow, values=vals)
            if key not in self._cache:
                # longdouble partial sums keep the A_n - A_{n-1} = a_n^2
                # identity testable at 1e-12 relative for 1e4+ terms
                acc = np.cumsum(np.square(self._cache["values"].astype(np.longdouble)))
                # an energy past float64's range becomes inf, as callers expect
                with np.errstate(over="ignore"):
                    energies = acc.astype(float)
                energies.flags.writeable = False
                self._cache["energies"] = energies
            return self._cache[key]

    def values(self, n: int) -> np.ndarray:
        """Read-only array (a_1, ..., a_n)."""
        n = _as_positive_int(n, "n")
        return self._cached(n, "values")[:n]

    def a(self, k: int) -> float:
        """Single weight a_k, k >= 1."""
        k = _as_positive_int(k, "k")
        return float(self.values(k)[k - 1])

    def energies(self, n: int) -> np.ndarray:
        """Read-only array (A_1, ..., A_n) of partial energies."""
        n = _as_positive_int(n, "n")
        return self._cached(n, "energies")[:n]

    def partial_energy(self, n: int) -> float:
        """A_n = sum_{k<=n} a_k^2, with A_0 = 0."""
        if n == 0:
            return 0.0
        return float(self.energies(n)[-1])


def _ratio_sequence(vals: np.ndarray, energies: np.ndarray, delta: float) -> np.ndarray:
    """a_n^2 / A_n^{1-delta} with the 0/0 := 0 convention.

    Its maximum is K_hat, the measured constant of a_n^2 <= K A_n^{1-delta}
    that every geometric tail closure and `validate_assumptions` use.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = np.square(vals)
        if delta == 1.0:
            return sq
        ratios = sq / energies ** (1.0 - delta)
    ratios[sq == 0.0] = 0.0
    return ratios


def _growth_ok(energies: np.ndarray, log_q: float) -> bool:
    """A_{m+1} <= A_m e^{log_q} at every step of the window, up to 1e-12.

    A NaN log step (inf - inf after overflow) counts as a violation.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        dg = np.diff(np.log(energies))
    return not (dg.size and (np.isnan(dg).any() or np.max(dg) > log_q + 1e-12))


def _trailing_slope(ratios: np.ndarray, n_max: int) -> float:
    """Log-log trend of the ratio sequence over the last quarter of indices."""
    lo = max(1, (3 * n_max) // 4)
    ks = np.arange(lo, n_max + 1)
    window = ratios[lo - 1 : n_max]
    keep = np.isfinite(window) & (window > 0)
    if keep.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(ks[keep].astype(float)), np.log(window[keep]), 1)[0])


@dataclass(frozen=True)
class AssumptionReport:
    delta: float
    n_max: int
    k_hat: float
    worst_index: int
    tail_slope: float
    energy_final: float
    passed: bool


def validate_assumptions(
    seq: WeightSequence,
    delta: float,
    n_max: int = 10_000,
) -> AssumptionReport:
    """Finite-horizon check that a_n^2 = O(A_n^{1-delta}).

    Reports K_hat = max_{n<=n_max} a_n^2 / A_n^{1-delta} and the log-log slope
    of that ratio over the trailing quarter of indices.  Verdict: K_hat finite
    and slope <= `_SLOPE_TOL`.
    """
    delta = _check_delta(delta)
    n_max = _as_positive_int(n_max, "n_max")
    vals = seq.values(n_max)
    energies = seq.energies(n_max)
    ratios = _ratio_sequence(vals, energies, delta)
    bad = ~np.isfinite(ratios)
    if bad.any():
        # inf/inf from float overflow means the ratio genuinely diverged
        worst = int(np.argmax(bad)) + 1
        k_hat = float("inf")
    elif np.all(ratios == 0.0):
        k_hat, worst = 0.0, 1
    else:
        worst = int(np.argmax(ratios)) + 1
        k_hat = float(ratios[worst - 1])
    slope = _trailing_slope(ratios, n_max)
    passed = bool(np.isfinite(k_hat) and slope <= _SLOPE_TOL)
    return AssumptionReport(
        delta=delta,
        n_max=n_max,
        k_hat=k_hat,
        worst_index=worst,
        tail_slope=slope,
        energy_final=float(energies[-1]),
        passed=passed,
    )


@dataclass(frozen=True)
class GrowthReport:
    delta: float
    q: float
    n0: int | None
    n_max: int
    poly_sup: float
    poly_sup_index: int
    poly_trend_slope: float
    poly_bounded: bool
    exp_ok: bool
    n0_min: int | None
    passed: bool


def growth_report(
    seq: WeightSequence,
    delta: float,
    q: float,
    n0: int | None = None,
    n_max: int = 10_000,
) -> GrowthReport:
    """Check the two growth consequences the blocking construction relies on.

    Polynomial bound: A_n = O(n^{1/delta}), judged by the sup and trailing
    trend of A_n / n^{1/delta}.  Doubling bound: A_{n+k} <= A_n q^k for all
    n >= n0, equivalent to log A_n - n log q being non-increasing from n0 on.
    The bound is asymptotic, so when n0 is not pinned the verdict accepts any
    admissible starting index on the horizon; `n0_min` reports the smallest
    one (None if the last step still violates it).
    """
    delta = _check_delta(delta)
    if q <= 1.0:
        raise ValueError(f"q must be > 1, got {q}")
    n_max = _as_positive_int(n_max, "n_max")
    if n0 is not None:
        n0 = _as_positive_int(n0, "n0")
        if n0 >= n_max:
            raise ValueError(f"need n0 < n_max, got n0={n0}, n_max={n_max}")
    energies = seq.energies(n_max)

    ks = np.arange(1, n_max + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        poly_ratio = energies / ks ** (1.0 / delta)
    sup_idx = int(np.nanargmax(poly_ratio)) + 1
    poly_sup = float(poly_ratio[sup_idx - 1])
    poly_slope = _trailing_slope(poly_ratio, n_max)
    poly_bounded = bool(np.isfinite(poly_sup) and poly_slope <= _SLOPE_TOL)

    # A_{n+k} <= A_n q^k for all n >= n0 iff g is non-increasing from n0 on;
    # nan steps (inf - inf after overflow) count as violations
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(energies) - ks * np.log(q)
        dg = np.diff(g)
    steps_up = np.where((dg > 1e-12) | np.isnan(dg))[0]  # g[i+1] > g[i], i = n-1
    if steps_up.size == 0:
        n0_min: int | None = 1
    elif steps_up[-1] + 2 <= n_max - 1:
        n0_min = int(steps_up[-1] + 2)
    else:
        n0_min = None
    if n0 is None:
        exp_ok = n0_min is not None
    else:
        exp_ok = steps_up[steps_up + 1 >= n0].size == 0

    return GrowthReport(
        delta=delta,
        q=float(q),
        n0=n0,
        n_max=n_max,
        poly_sup=poly_sup,
        poly_sup_index=sup_idx,
        poly_trend_slope=poly_slope,
        poly_bounded=poly_bounded,
        exp_ok=bool(exp_ok),
        n0_min=n0_min,
        passed=bool(poly_bounded and exp_ok),
    )
