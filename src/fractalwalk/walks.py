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
were first computed, and any other order changes their last bits, so the
recursion runs one step at a time.  Each step is a function of its state and
weight alone: on a run of equal weights, once the state repeats its bits
from one or two steps before, every later step repeats too, and the rest of
the run is filled in without computing it, bit for bit the same.

`doob_decompose` rewrites the walk as a martingale plus controlled drift:
d_k = X_k - alpha X_{k-1} are martingale differences, and

  S_n = M_n/(1-alpha) + (alpha/(1-alpha)) [sum_{k<n} (a_{k+1}-a_k) X_k - a_n X_n]

with M_n = sum a_k d_k.  The identity is algebraic, so the reported residual
is pure float noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .weights import WeightSequence, _as_int, _running_sum

__all__ = [
    "WalkParams",
    "WalkPath",
    "DoobDecomposition",
    "simulate",
    "exact_second_moment",
    "second_moment_profile",
    "variance_ratio_bound",
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
        object.__setattr__(self, "horizon", _as_int(self.horizon, "horizon", 1))

    @property
    def alpha(self) -> float:
        """One-step correlation 2p - 1."""
        return 2.0 * self.p - 1.0


@dataclass(frozen=True)
class WalkPath:
    """One realization: signs X_1..X_n and prefix sums S_0..S_n."""

    signs: np.ndarray  # int8, length n
    sums: np.ndarray  # float64, length n+1, sums[0] = 0

    @property
    def horizon(self) -> int:
        return self.signs.size


def _draw_signs(rng, p: float, shape, last=None) -> np.ndarray:
    """X_1..X_n as float64 +-1: fair start, then repeat w.p. p.

    One uniform per step; the step flips when it is >= p.  `shape` n draws
    one path from the Generator `rng`.  `last` is None to start the path: its
    first draw doubles as the fair initial sign.  Otherwise `last` is the +-1
    sign a previous piece of the path ended on, so a path drawn in pieces is
    the same as one drawn whole.  `shape` (rows, n) draws one whole path per
    row: `rng` is then an iterator that yields one Generator per row, and
    each row takes all its draws before the next Generator is taken, so one
    re-keyed Philox may serve every row.
    """
    u = np.empty(shape)
    if u.ndim == 1:
        rng.random(out=u)
    else:
        for row in u:
            next(rng).random(out=row)
    flips = u >= p
    if last is not None:
        flips[0] ^= last < 0
    elif u.ndim == 1:
        flips[0] = u[0] >= 0.5
    else:
        flips[:, 0] = u[:, 0] >= 0.5
    # X_k = (-1)^(number of flips up to k): a running parity of the flip bits,
    # taken in one flat scan over all rows.  It writes into the first byte of
    # each of u's doubles, which are not read again.  numpy holds the GIL
    # through an in-place accumulate and through one along an axis of a 2-D
    # array: two threads each taking 13 rows of 5,000 steps from the compare
    # to the +-1 map ran 0.92-1.01x one thread with the scan along axis 1,
    # 1.52-1.91x with it flat (2-vCPU VM).  The stride-8 output also runs at
    # 1.1 ns a step against 3.1 ns for a contiguous one.
    parities = np.bitwise_xor.accumulate(flips.reshape(-1).view(np.uint8),
                                         out=u.reshape(-1).view(np.uint8)[::8])
    out = np.multiply(parities.reshape(u.shape), -2.0)
    out += 1.0
    if u.ndim == 1:
        return out
    # A row's scan started from the parity the row before ended on, the sign
    # of that row's last step: multiplying by it (+-1, exact) takes it out.
    out[1:] *= out[:-1, -1:].copy()
    return out


def simulate(params: WalkParams, seed: int, stream_id: int = 0) -> WalkPath:
    """Simulate one path on its own Philox stream.

    Each prefix sum satisfies S_k - S_{k-1} = a_k X_k by construction; with
    integer-valued weights the float64 sums are exact until they pass 2^53.
    """
    rng = stream(seed, stream_id)
    x = _draw_signs(rng, params.p, params.horizon)
    a = params.weights.values(params.horizon)
    sums = np.concatenate(([0.0], np.cumsum(a * x)))
    return WalkPath(signs=x.astype(np.int8), sums=sums)


# Runs of equal weights shorter than this stay on the plain loop: at
# p = 2/3-3/4 and weight 1 the state repeats only after 35-56 steps.
_MIN_RUN = 64


def _steps(xs, alpha: float, u: float):
    """The outputs T of the recursion along the weights xs, from state u."""
    for x in xs:
        t = u + 0.0 * x
        yield t
        u = alpha * x + alpha * t


def _equal_runs(a: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) of each run of at least `_MIN_RUN` weights equal bit for bit."""
    bits = a.view(np.int64)
    same = bits[1:] == bits[:-1]
    if not same.any():
        return []
    # same[i] says a[i+1] repeats a[i]; a stretch same[s:e] is the run a[s:e+1]
    edges = np.flatnonzero(np.diff(same, prepend=False, append=False)).reshape(-1, 2)
    return [(lo, hi + 1) for lo, hi in edges.tolist() if hi + 1 - lo >= _MIN_RUN]


def _constant_run(out: np.ndarray, x: float, lo: int, hi: int, u: float,
                  alpha: float) -> float:
    """Steps lo..hi-1 of the recursion on the one weight x into out; the state after.

    Each step is a function of its state u_j and weight alone, so once u_j
    has the bits of u_{j-2}, every later step of the run repeats the one two
    steps before it: the outputs alternate T_{j-2}, T_{j-1} and are filled in
    by two slice assignments, with every bit the loop would give.  A state
    that repeats its predecessor (period 1) is caught one step later.  NaN
    never compares equal, so a NaN state stays on the loop.
    """
    ts = []
    back2 = back1 = None  # the states two steps and one step back
    for _ in range(lo, hi):
        if u == back2 and (u != 0.0 or math.copysign(1.0, u) == math.copysign(1.0, back2)):
            break
        t = u + 0.0 * x
        ts.append(t)
        back2, back1, u = back1, u, alpha * x + alpha * t
    j = lo + len(ts)
    out[lo:j] = ts
    if j == hi:
        return u
    out[j:hi:2] = ts[-2]
    out[j + 1:hi:2] = ts[-1]
    return back2 if (hi - j) % 2 == 0 else back1


def _cross_accumulator(a: np.ndarray, alpha: float) -> np.ndarray:
    """T_j = sum_{i<j} a_i alpha^{j-i}, one sequential step per weight.

    Step j is lfilter's transposed direct-form step for the filter
    [0, alpha] / [1, -alpha]: T_j = U_j + 0*a_j, then
    U_{j+1} = alpha*a_j + alpha*T_j, with U_1 = 0 and every operation rounded
    on its own, so the output matches scipy.signal.lfilter in every bit but
    the sign of a NaN.  The 0*a_j term keeps lfilter's sign on zero entries
    and its NaN from the first infinite weight on; without it an overflowing
    geometric sequence gives inf where the reports have NaN.  Reordering the
    sums to vectorize would change their last bits, so the steps run in a
    Python loop, which also spares every process the ~1 s import of
    scipy.signal.  On a run of weights equal bit for bit the state reaches a
    fixed point (or, for alpha < 0, may reach a 2-cycle): in 56 steps at
    p = 0.75 and weight 1, about 30,000 at p = 0.9995.  From there
    `_constant_run` fills the rest of the run without looping, with the very
    bits the loop would compute, since each step depends only on its state
    and its weight.
    """
    alpha = float(alpha)
    out = np.empty(a.size)
    u, done = 0.0, 0
    for lo, hi in [*_equal_runs(a), (a.size, a.size)]:
        if done < lo:
            out[done:lo] = np.fromiter(_steps(a[done:lo].tolist(), alpha, u),
                                       dtype=float, count=lo - done)
            # the state after the stretch, by the loop's own products and sum
            u = alpha * float(a[lo - 1]) + alpha * float(out[lo - 1])
        if lo < hi:
            u = _constant_run(out, float(a[lo]), lo, hi, u, alpha)
        done = hi
    return out


def _moment_increments(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a_j (a_j + 2 T_j) in longdouble: the steps of E[S_j^2] along weights a."""
    return (a * (a + 2.0 * t)).astype(np.longdouble)


def second_moment_profile(p: float, weights: WeightSequence, n: int) -> np.ndarray:
    """Exact (E[S_1^2], ..., E[S_n^2]) in O(n), as running sums of the increments.

    `weights._running_sum` sums the increments in longdouble one block at a
    time, the same helper as the energies, into the array that held the
    cross terms T, so the profile takes 8 bytes a step besides the weights.
    """
    _check_p(p)
    a = weights.values(n)
    out = _cross_accumulator(a, 2.0 * p - 1.0)
    return _running_sum(lambda part: _moment_increments(a[part], out[part]), out)


def exact_second_moment(p: float, weights: WeightSequence, m: int, n: int) -> float:
    """E[(S_n - S_m)^2] for the window (m, n], exact, in O(n - m).

    Runs the cross-term recursion on the window's weights.  The increments
    are summed by `np.sum`, which rounds otherwise than the running sums of
    `second_moment_profile`, so the two are not interchangeable bit for bit.
    """
    _check_p(p)
    m, n = _as_int(m, "m"), _as_int(n, "n")
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    a = weights.values(n)[m:]
    return float(np.sum(_moment_increments(a, _cross_accumulator(a, 2.0 * p - 1.0))))


def variance_ratio_bound(p: float) -> float:
    """K(p) = max(p, 1-p) / min(p, 1-p), the variance sandwich constant.

    For any weights, E[S_n^2] lies in [A_n / K(p), A_n K(p)]: the correlation
    matrix alpha^{|i-j|} has eigenvalues between (1-|alpha|)/(1+|alpha|) and
    (1+|alpha|)/(1-|alpha|).
    """
    _check_p(p)
    return float(max(p / (1.0 - p), (1.0 - p) / p))


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
