"""One-step-memory sign walks with deterministic step weights.

The chain X_1, X_2, ... takes values in {-1, +1}: X_1 is a fair sign, and
each later step repeats its predecessor with probability p, flips with 1-p.
With alpha = 2p - 1 the correlations are E[X_k X_l] = alpha^{|l-k|}, the
variance of any weighted sum is sandwiched between (1-|alpha|)/(1+|alpha|)
and (1+|alpha|)/(1-|alpha|) times the weight energy, and the chain is
phi-mixing with phi(m) = |alpha|^m / 2.

The walk itself is S_n = sum_{k<=n} a_k X_k.  Second moments of its
increments are computed exactly in O(n) by running the linear recursion
T_k = alpha (T_{k-1} + a_{k-1}) for the cross terms.  In floats each step is
evaluated as alpha*a_{k-1} + alpha*T_{k-1}, two rounded products and one
rounded sum with no fused multiply-add (`_cross_accumulator` covers zero and
infinite weights).  That is the order scipy's lfilter used when the reports
were first computed, and any other order changes their last bits.

`doob_decompose` rewrites the walk as a martingale plus controlled drift:
d_k = X_k - alpha X_{k-1} are martingale differences, and

  S_n = M_n/(1-alpha) + (alpha/(1-alpha)) [sum_{k<n} (a_{k+1}-a_k) X_k - a_n X_n]

with M_n = sum a_k d_k.  The identity is algebraic, so the reported residual
is pure float noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream
from .weights import WeightSequence, _as_positive_int

__all__ = [
    "WalkParams",
    "WalkPath",
    "DoobDecomposition",
    "simulate",
    "exact_cross_moment",
    "exact_second_moment",
    "second_moment_profile",
    "variance_ratio_bound",
    "phi_mixing_coefficient",
    "odd_indicator_second_moment",
    "odd_indicator_limit_ratio",
    "doob_decompose",
]


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"memory parameter p must be in (0, 1), got {p}")
    return p


@dataclass(frozen=True)
class WalkParams:
    """Chain parameters: repeat probability p, step weights, horizon n."""

    p: float
    weights: WeightSequence
    horizon: int

    def __post_init__(self):
        _check_p(self.p)
        object.__setattr__(self, "horizon", _as_positive_int(self.horizon, "horizon"))

    @property
    def alpha(self) -> float:
        """One-step correlation 2p - 1."""
        return 2.0 * self.p - 1.0


@dataclass(frozen=True)
class WalkPath:
    """One realization: signs X_1..X_n and prefix sums S_0..S_n."""

    signs: np.ndarray  # int8, length n
    sums: np.ndarray  # float64, length n+1, sums[0] = 0
    seed: int
    stream_id: int

    @property
    def horizon(self) -> int:
        return self.signs.size


def _draw_signs(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """X_1..X_n as float64 +-1: fair start, then repeat w.p. p."""
    u = rng.random(n)
    flips = (u >= p).view(np.uint8)
    flips[0] = u[0] >= 0.5  # first draw doubles as the fair initial sign
    # X_k = (-1)^(number of flips up to k): a running parity of the flip bits
    return 1.0 - 2.0 * np.bitwise_xor.accumulate(flips)


def simulate(params: WalkParams, seed: int, stream_id: int = 0) -> WalkPath:
    """Simulate one path on its own Philox stream.

    Each prefix sum satisfies S_k - S_{k-1} = a_k X_k by construction; with
    integer-valued weights the float64 sums are exact until they pass 2^53.
    """
    rng = stream(seed, stream_id)
    x = _draw_signs(rng, params.p, params.horizon)
    a = params.weights.values(params.horizon)
    sums = np.concatenate(([0.0], np.cumsum(a * x)))
    return WalkPath(
        signs=x.astype(np.int8),
        sums=sums,
        seed=int(seed),
        stream_id=int(stream_id),
    )


def exact_cross_moment(p: float, k: int, l: int) -> float:
    """E[X_k X_l] = alpha^{|l-k|}."""
    _check_p(p)
    if k < 1 or l < 1:
        raise ValueError("indices must be >= 1")
    alpha = 2.0 * p - 1.0
    return float(alpha ** abs(l - k))


def _cross_accumulator(a: np.ndarray, alpha: float) -> np.ndarray:
    """T_j = sum_{i<j} a_i alpha^{j-i}, one sequential step per weight.

    Step j is lfilter's transposed direct-form step for the filter
    [0, alpha] / [1, -alpha]: T_j = U_j + 0*a_j, then
    U_{j+1} = alpha*a_j + alpha*T_j, with U_1 = 0 and every operation rounded
    on its own, so the output matches scipy.signal.lfilter in every bit but
    the sign of a NaN.  The 0*a_j term keeps lfilter's sign on zero entries
    and its NaN from the first infinite weight on; without it an overflowing
    geometric sequence gives inf where the reports have NaN.  The recursion
    cannot be vectorized without reordering the sums, and a Python loop
    spares every process the ~1 s import of scipy.signal for this one call.
    """
    alpha = float(alpha)

    def steps(xs):
        u = 0.0
        for x in xs:
            t = u + 0.0 * x
            yield t
            u = alpha * x + alpha * t

    return np.fromiter(steps(a.tolist()), dtype=float, count=a.size)


def second_moment_profile(p: float, weights: WeightSequence, n: int) -> np.ndarray:
    """Exact (E[S_1^2], ..., E[S_n^2]) in O(n).

    E[S_m^2] = sum_{j<=m} a_j (a_j + 2 T_j) with the cross accumulator T.
    """
    _check_p(p)
    alpha = 2.0 * p - 1.0
    a = weights.values(n)
    t = _cross_accumulator(a, alpha)
    inc = a * (a + 2.0 * t)
    return np.cumsum(inc.astype(np.longdouble)).astype(float)


def exact_second_moment(p: float, weights: WeightSequence, m: int, n: int) -> float:
    """E[(S_n - S_m)^2] for the window (m, n], exact, in O(n - m).

    Runs the cross-term recursion on the window's weights.
    """
    _check_p(p)
    m, n = int(m), int(n)
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    alpha = 2.0 * p - 1.0
    a = weights.values(n)[m:]
    t = _cross_accumulator(a, alpha)
    return float(np.sum((a * (a + 2.0 * t)).astype(np.longdouble)))


def variance_ratio_bound(p: float) -> float:
    """K(p) = max(p, 1-p) / min(p, 1-p), the variance sandwich constant.

    For any weights, E[S_n^2] lies in [A_n / K(p), A_n K(p)]: the correlation
    matrix alpha^{|i-j|} has eigenvalues between (1-|alpha|)/(1+|alpha|) and
    (1+|alpha|)/(1-|alpha|).
    """
    _check_p(p)
    return float(max(p / (1.0 - p), (1.0 - p) / p))


def phi_mixing_coefficient(p: float, m: int) -> float:
    """phi(m) = |2p - 1|^m / 2, the uniform mixing rate at lag m."""
    _check_p(p)
    if m < 1:
        raise ValueError(f"lag m must be >= 1, got {m}")
    return float(abs(2.0 * p - 1.0) ** m / 2.0)


def odd_indicator_second_moment(p: float, n: int) -> float:
    """E[S_n^2] for weights 1,0,1,0,...: closed form over the active steps.

    With c = ceil(n/2) active steps at lag-2 correlation alpha^2,
    E[S_n^2] = c + 2 sum_{i<c} (c - i) alpha^{2i}.
    """
    _check_p(p)
    n = _as_positive_int(n, "n")
    alpha = 2.0 * p - 1.0
    c = (n + 1) // 2
    i = np.arange(1, c)
    return float(c + 2.0 * np.sum((c - i) * alpha ** (2 * i)))


def odd_indicator_limit_ratio(p: float) -> float:
    """Limit of E[S_n^2] / A_n for the odd-indicator weights.

    Equals (1 + alpha^2) / (1 - alpha^2) = (2p^2 - 2p + 1) / (2p(1-p)); the
    square root is the matching law-of-iterated-logarithm constant.
    """
    _check_p(p)
    alpha2 = (2.0 * p - 1.0) ** 2
    return float((1.0 + alpha2) / (1.0 - alpha2))


@dataclass(frozen=True)
class DoobDecomposition:
    """Walk split S = M/(1-alpha) + drift, with martingale increments d."""

    diffs: np.ndarray  # d_k = X_k - alpha X_{k-1}, X_0 := 0
    martingale: np.ndarray  # M_n = sum_{k<=n} a_k d_k
    drift_interior: np.ndarray  # (alpha/(1-alpha)) sum_{k<n} (a_{k+1}-a_k) X_k
    drift_boundary: np.ndarray  # (alpha/(1-alpha)) a_n X_n
    residuals: np.ndarray  # S_n - M_n/(1-alpha) - interior + boundary

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def doob_decompose(params: WalkParams, path: WalkPath) -> DoobDecomposition:
    """Martingale-plus-drift split of a simulated path, checked pointwise."""
    alpha = params.alpha
    n = path.horizon
    x = path.signs.astype(np.float64)
    a = params.weights.values(n)
    d = x - alpha * np.concatenate(([0.0], x[:-1]))
    m = np.cumsum(a * d)
    coef = alpha / (1.0 - alpha)
    interior = coef * np.concatenate(
        ([0.0], np.cumsum((a[1:] - a[:-1]) * x[:-1]))
    )
    boundary = coef * a * x
    residuals = path.sums[1:] - m / (1.0 - alpha) - interior + boundary
    return DoobDecomposition(
        diffs=d,
        martingale=m,
        drift_interior=interior,
        drift_boundary=boundary,
        residuals=residuals,
    )
