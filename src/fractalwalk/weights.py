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

import json
import math
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


# each weight kind: its compact names, its parameter (None if it has none)
# and whether a spec must give it
_KINDS = {
    "constant": (("const", "constant"), "c", False),
    "power": (("power",), "exponent", True),
    "alternating": (("alternating",), None, False),
    "odd_indicator": (("odd", "odd-indicator"), None, False),
    "geometric": (("geometric",), "base", True),
    "explicit": (("explicit",), "values", True),
}
_COMPACT = {name: kind for kind, (names, _, _) in _KINDS.items() for name in names}
# the weights every run defaults to: unit weights
_UNIT = "const"


def _as_int(val, name: str, lo: int | None = None) -> int:
    """val as an int; a bool, a value with a fractional part or one below lo is refused."""
    if type(val) is not int:  # a plain int, the common case, skips the conversion
        try:
            whole = int(val) == val and not isinstance(val, (bool, np.bool_))
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"{name} must be an integer, got {val!r}")
        val = int(val)
    if lo is not None and val < lo:
        raise ValueError(f"{name} must be >= {lo}, got {val}")
    return val


def _read_param(kind: str, name: str, val):
    """A spec's parameter as the float, or for explicit the floats, it names."""
    try:
        if name == "values":
            return [float(v) for v in (val.split(",") if isinstance(val, str) else val)]
        return float(val)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} weights cannot read {name}={val!r}") from None


def _check_finite(kind: str, values) -> None:
    """Refuse a NaN or infinite weight parameter, naming the weight kind."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{kind} weights need finite parameters")


def _check_delta(delta) -> float:
    """delta as a float, refused outside (0, 1]."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return float(delta)


@dataclass(frozen=True)
class WeightSequence:
    """Lazily evaluated weight sequence with a shared energy cache.

    Build one through the classmethods (`constant`, `power`, ...) or from a
    spec via `from_spec`; `explicit` sequences are zero
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
        _check_finite("constant", c)
        return cls("constant", {"c": c}, lambda k: np.full(k.shape, c))

    @classmethod
    def power(cls, exponent: float) -> "WeightSequence":
        e = float(exponent)
        _check_finite("power", e)
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
        _check_finite("geometric", b)
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
        _check_finite("explicit", vals)
        vals = vals.copy()
        vals.flags.writeable = False

        def fn(k: np.ndarray) -> np.ndarray:
            out = np.zeros(k.shape)
            inside = k <= vals.size
            out[inside] = vals[k[inside] - 1]
            return out

        return cls("explicit", {"values": [float(v) for v in vals]}, fn)

    @classmethod
    def from_spec(cls, spec) -> "WeightSequence":
        """The sequence a spec names; the one reader of weight specs.

        A spec is a dict or JSON object holding `kind` and that kind's
        parameter, or a compact string: `const[:c]`, `power:e`, `alternating`,
        `odd` (or `odd-indicator`), `geometric:b`, `explicit:v1,v2,...`.
        An unknown kind, and a parameter that is unknown, missing or not a
        number, are refused with a ValueError naming the kind.  `spec` of the
        result is the canonical form of every spelling.
        """
        if isinstance(spec, str) and spec.strip().startswith("{"):
            spec = json.loads(spec)
        elif isinstance(spec, str):
            name, _, arg = spec.strip().partition(":")
            kind = _COMPACT.get(name.replace("_", "-").lower())
            if kind is None:
                raise ValueError(f"unknown weight spec {spec!r}")
            if arg and _KINDS[kind][1] is None:
                raise ValueError(f"{kind} weights take no parameter, got {spec!r}")
            spec = {"kind": kind, _KINDS[kind][1]: arg} if arg else {"kind": kind}
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown weight spec {spec!r}")
        _, param, required = _KINDS[kind]
        extra = sorted(set(spec) - {"kind", param}, key=str)
        if extra:
            raise ValueError(f"{kind} weights take no parameter {extra[0]!r}")
        if required and param not in spec:
            raise ValueError(f"{kind} weights need a value for {param!r}")
        args = [_read_param(kind, param, spec[param])] if param in spec else []
        return getattr(cls, kind)(*args)

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
        n = _as_int(n, "n", 1)
        return self._cached(n, "values")[:n]

    def a(self, k: int) -> float:
        """Single weight a_k, k >= 1."""
        k = _as_int(k, "k", 1)
        return float(self.values(k)[k - 1])

    def energies(self, n: int) -> np.ndarray:
        """Read-only array (A_1, ..., A_n) of partial energies."""
        n = _as_int(n, "n", 1)
        return self._cached(n, "energies")[:n]

    def partial_energy(self, n: int) -> float:
        """A_n = sum_{k<=n} a_k^2, with A_0 = 0."""
        if _as_int(n, "n", 0) == 0:
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


def _tail_constant(seq: WeightSequence, n: int, pad: int, delta: float,
                   log_q: float | None) -> float:
    """sqrt(K_hat) A_n^{(1-delta)/2}, the constant of a geometric tail past n.

    K_hat and the growth A_{m+1} <= A_m e^{log_q} from m = n on are measured
    on [1, n + pad]; inf when K_hat is not finite or the growth check fails.
    log_q None skips the growth check.  Each caller keeps its own pad, rate
    and factors.
    """
    energies = seq.energies(n + pad)
    k_hat = float(np.max(_ratio_sequence(seq.values(n + pad), energies, delta)))
    if not np.isfinite(k_hat) or not (log_q is None or _growth_ok(energies[n - 1:], log_q)):
        return math.inf
    return math.sqrt(k_hat) * float(energies[n - 1]) ** ((1.0 - delta) / 2.0)


def _trailing_slope(ratios: np.ndarray, n_max: int) -> float:
    """Log-log trend of the ratio sequence over the last quarter of indices.

    The least-squares slope in closed form, sum(x y) / sum(x x) with x the
    centred log index, summed by `np.add.reduce` in numpy's own order on any
    CPU, where a polynomial fit would solve through LAPACK.
    """
    lo = max(1, (3 * n_max) // 4)
    ks = np.arange(lo, n_max + 1)
    window = ratios[lo - 1 : n_max]
    keep = np.isfinite(window) & (window > 0)
    if keep.sum() < 2:
        return 0.0
    x = np.log(ks[keep].astype(float))
    x -= x.mean()
    return float(np.add.reduce(x * np.log(window[keep])) / np.add.reduce(x * x))


@dataclass(frozen=True)
class AssumptionReport:
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
    n_max = _as_int(n_max, "n_max", 2)  # a trailing trend needs two points
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
        k_hat=k_hat,
        worst_index=worst,
        tail_slope=slope,
        energy_final=float(energies[-1]),
        passed=passed,
    )


@dataclass(frozen=True)
class GrowthReport:
    poly_sup: float
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
    n_max = _as_int(n_max, "n_max", 2)
    if n0 is not None:
        n0 = _as_int(n0, "n0", 1)
        if n0 >= n_max:
            raise ValueError(f"need n0 < n_max, got n0={n0}, n_max={n_max}")
    energies = seq.energies(n_max)

    ks = np.arange(1, n_max + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        poly_ratio = energies / ks ** (1.0 / delta)
    poly_sup = float(poly_ratio[np.nanargmax(poly_ratio)])
    poly_bounded = bool(np.isfinite(poly_sup) and _trailing_slope(poly_ratio, n_max) <= _SLOPE_TOL)

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
        poly_sup=poly_sup,
        poly_bounded=poly_bounded,
        exp_ok=bool(exp_ok),
        n0_min=n0_min,
        passed=bool(poly_bounded and exp_ok),
    )
