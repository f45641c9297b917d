"""Weighted base-r sawtooth series with certified evaluation.

The central object is f(x) = sum_{k>=1} (a_k / r^{k-1}) d(r^{k-1} x), where
d is the distance to the nearest integer and (a_k) a deterministic weight
sequence.  Everything here is organized around exact base-r digit arithmetic:

* scalar points are reduced to rationals and their digits extracted with
  integer arithmetic, so sawtooth values, slope signs, and digit match depths
  carry no rounding error at all;
* bulk evaluation runs on the 2^-53 mantissa grid, where one uint64 per point
  tracks frac(r^{k-1} x) exactly for r <= 2048 (r * 2^53 < 2^64).  The grid
  evaluators take the points in blocks with buffers of block size, so every
  term is a pass over cache-resident arrays rather than a fresh allocation
  the size of the input.  They run on the calling thread and start none;
  every point sees the same float operations in the same order whatever its
  block, so the experiments that call them map their own independent work
  (scales, point blocks) over threads without changing a byte.

Evaluation returns a value together with a certified error bound: terms are
summed until their size triggers a geometric tail closure, whose constants
are measured on a finite window of the weights (with a safety factor of two)
under the standing hypothesis a_k^2 <= K A_k^{1-delta}.  Scalar and grid
evaluation both add a float64 accumulation allowance to the tail bound and
refuse an eps the sum of the two cannot meet.

`decompose_increment` splits f(x+h) - f(x) into the three regimes that drive
everything downstream: a linear part h * w(x) governed by the slope-sign walk
w, a midrange of indices where the pair (x, x+h) straddles sawtooth kinks,
and a certified small tail.  `increment_grid` gives the grid increments the
experiments test, and `variance_profile` f's own V_n = Var w_n.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import walks  # looked up at call time, so a wrapper set on walks sees each call
from .rng import GRID, MANTISSA_BITS
from .weights import WeightSequence, _as_int, _check_delta, _require_finite, _tail_constant

__all__ = [
    "CertificationError",
    "Certificate",
    "EvalResult",
    "FractalFunction",
    "IncrementDecomposition",
    "sign_walk",
    "sign_walk_grid",
    "match_depth",
    "match_depth_shifted",
    "match_depth_grid",
    "scale_index",
    "VarianceProfile",
    "variance_profile",
]

# grid digit extraction multiplies a 53-bit residue by r inside uint64
MAX_GRID_BASE = 2048
_MASK = np.uint64(GRID - 1)
_SHIFT = np.uint64(MANTISSA_BITS)
_HALF_GRID = np.uint64(GRID // 2)
_GRID = np.uint64(GRID)
# points per block of `walk_value_grid`: the block's residues and its
# (n, block) slope signs stay in cache across all terms
_WALK_BLOCK = 16384
# points per block of `eval_grid`: a block's residues, distances and output,
# 24 bytes a point (1.5 MB), stay in a core's 2 MB of L2 across all terms.
# Median s of 7 one-thread calls on 10^6 points, unit weights, eps 1e-12, on
# a 2-vCPU Xeon VM, for 4096 / 16384 / 65536 / 131072 / 262144-point blocks:
#   r = 2 (tent kernel)      0.082 / 0.052 / 0.048 / 0.075 / 0.101
#   r = 3 (general kernel)   0.136 / 0.089 / 0.064 / 0.074 / 0.097
_EVAL_BLOCK = 65536
# `certificate` treats a series it cannot close within this many terms as
# non-convergent at the requested accuracy
_MAX_TERMS = 20_000


class CertificationError(RuntimeError):
    """No error certificate attainable at the requested accuracy."""


def _check_base(r: int) -> int:
    return _as_int(r, "base r", 2)


def _check_grid_base(r: int) -> np.uint64:
    r = _check_base(r)
    if r > MAX_GRID_BASE:
        raise ValueError(f"grid arithmetic supports r <= {MAX_GRID_BASE}, got {r}")
    return np.uint64(r)


def _check_mantissas(m: np.ndarray) -> np.ndarray:
    """m, a uint64 array, refused unless every mantissa lies on the grid.

    Grid points are x = m * 2^-53 with 0 <= m < 2^53; a larger m is no point
    of [0, 1), and the grid kernels would return numbers no sawtooth sum can
    take for it.
    """
    if m.size and m.max() >= _GRID:
        raise ValueError(
            f"grid mantissas must lie below 2^{MANTISSA_BITS}, got {int(m.max())}"
        )
    return m


def _exact_mantissa_step(h: Fraction) -> int:
    """h as a count of 2^-53 grid cells, rounded to nearest."""
    step = round(h * GRID)
    if step < 1:
        raise ValueError(f"h={h} is below the 2^-53 grid resolution")
    return int(step)


def _exact(x) -> Fraction:
    """x as an exact Fraction (floats convert exactly, numpy scalars too)."""
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return Fraction(x)


def _as_unit_fraction(x) -> Fraction:
    """x reduced mod 1 as an exact Fraction."""
    f = _exact(x)
    return f - (f.numerator // f.denominator)


# -- scalar digit machinery (exact rational arithmetic) ----------------------


def sign_walk(r: int, x, n: int) -> np.ndarray:
    """Slope signs (psi_1^+, ..., psi_n^+) at x, exact, as an int8 array."""
    r = _check_base(r)
    n = _as_int(n, "n", 1)
    f = _as_unit_fraction(x)
    num, den = f.numerator, f.denominator
    out = np.empty(n, dtype=np.int8)
    for k in range(n):
        out[k] = 1 if 2 * num < den else -1
        num = num * r % den
    return out


def sign_walk_grid(r: int, mantissas: np.ndarray, n: int) -> np.ndarray:
    """Slope signs for grid points, shape (n, len(mantissas)), int8.

    Row k-1 holds psi_k^+ at x = m * 2^-53 for each mantissa m.
    """
    ru = _check_grid_base(r)
    n = _as_int(n, "n", 1)
    res = _check_mantissas(np.array(mantissas, dtype=np.uint64, ndmin=1))
    out = np.empty((n, res.size), dtype=np.int8)
    rising = out.view(bool)
    for k in range(n):
        np.less(res, _HALF_GRID, out=rising[k])
        res *= ru
        res &= _MASK
    # 1/0 rising flags -> slope signs +1/-1
    out *= 2
    out -= 1
    return out


def scale_index(r: int, h) -> int:
    """The m >= 0 with r^-(m+1) < h <= r^-m, by exact comparison."""
    r = _check_base(r)
    h = _exact(h)
    if not 0 < h <= 1:
        raise ValueError(f"h must lie in (0, 1], got {h}")
    # h <= r^-m  <=>  h.numerator * r^m <= h.denominator
    m = 0
    num, den = h.numerator * r, h.denominator
    while num <= den:
        m += 1
        num *= r
    return m


def match_depth(r: int, x, h) -> int:
    """Digit match depth k0 of x and x+h in base r.

    k0 = k means the first k digits agree and digit k+1 differs; k0 = 0 means
    the first digits already differ; k0 = -1 means x+h wrapped past 1, so
    even the integer parts disagree.
    """
    r = _check_base(r)
    fx = _as_unit_fraction(x)
    h = _exact(h)
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    den = math.lcm(fx.denominator, h.denominator)
    rx = fx.numerator * (den // fx.denominator)
    ry = rx + h.numerator * (den // h.denominator)
    if ry >= den:
        return -1
    return _match_depth(r, rx, ry, den, scale_index(r, h))


def _match_depth(r: int, rx: int, ry: int, den: int, m: int) -> int:
    """Match depth of rx/den < ry/den < 1, whose difference has scale index m."""
    for k in range(1, m + 3):
        dx, rx = divmod(rx * r, den)
        dy, ry = divmod(ry * r, den)
        if dx != dy:
            return k - 1
    raise AssertionError("digit streams of x and x+h agree past depth m+2")


def match_depth_shifted(r: int, x, h) -> int:
    """Match depth of the half-shifted pair: digits of x+1/2 vs x+h+1/2.

    For odd r the kinks of psi_k at half-integer multiples of r^-(k-1) do not
    sit on the digit grid; this shifted depth detects them.
    """
    fx = _as_unit_fraction(x)
    return match_depth(r, fx + Fraction(1, 2), h)


def match_depth_grid(r: int, mantissas: np.ndarray, ell: int) -> np.ndarray:
    """Match depths k0(x, x + r^-ell) for grid points, via carry propagation.

    Adding r^-ell increments digit ell, and the carry swallows every trailing
    digit equal to r-1: with i* the last index <= ell whose digit is not r-1,
    k0 = i* - 1, or -1 when all of the first ell digits are r-1 (wrap).
    """
    ru = _check_grid_base(r)
    ell = _as_int(ell, "ell", 1)
    m = _check_mantissas(np.ascontiguousarray(mantissas, dtype=np.uint64))
    top = np.uint64(int(ru) - 1)
    last_nonmax = np.zeros(m.size, dtype=np.int64)
    res = m.copy()
    for i in range(1, ell + 1):
        t = res * ru
        dig = t >> _SHIFT
        np.putmask(last_nonmax, dig != top, i)
        res = t & _MASK
    return last_nonmax - 1


def _eval_grid_block(m: np.ndarray, val: np.ndarray, scales: list, ru: np.uint64) -> None:
    """Add sum_k scale_k d(r^{k-1} x) to val for the grid points m.

    The term order and the seven uint64/float ops per term are fixed, so a
    point's value does not depend on its block or on the thread that runs it.
    `eval_grid` runs it for r != 2, and at r = 2 where `_tent_exact` fails.
    """
    res = m.copy()
    dist = np.empty_like(res)
    # each distance is converted to float in place, element for element, so
    # the buffers take 16 bytes a point, not 24
    term = dist.view(np.float64)
    for scale in scales:
        if scale is not None:
            np.subtract(_GRID, res, out=dist)
            np.minimum(res, dist, out=dist)
            term[...] = dist
            np.multiply(scale, term, out=term)
            np.add(val, term, out=val)
        np.multiply(res, ru, out=res)
        np.bitwise_and(res, _MASK, out=res)


def _eval_tent_block(m: np.ndarray, val: np.ndarray, a: np.ndarray) -> None:
    """`_eval_grid_block` at r = 2, on the tent map of the scaled distances.

    With d_k = min(res_k, 2^53 - res_k), the distance e_k = 2^(1-k-53) d_k
    follows e_1 = 2^-53 d_1 and e_{k+1} = min(e_k, 2^-k - e_k), since
    d(2y) = min(2 d(y), 1 - 2 d(y)).  Every step is exact in float64 while
    k <= 1022, so term k, a_k e_k, rounds the real number scale_k d_k that
    `_eval_grid_block` rounds whenever its scale_k is exact (`_tent_exact`).
    That takes three float ops a term, four where a_k is not 1, and zero
    weights skip the term but still advance e.
    """
    dist = np.subtract(_GRID, m)
    np.minimum(m, dist, out=dist)
    # converted to float in place, as in `_eval_grid_block`: two buffers
    e = dist.view(np.float64)
    e[...] = dist
    e *= 2.0**-53
    tmp = np.empty_like(e)
    for k, a_k in enumerate(a, 1):
        if k > 1:
            np.subtract(2.0 ** (1 - k), e, out=tmp)
            np.minimum(e, tmp, out=e)
        if a_k == 1.0:
            np.add(val, e, out=val)
        elif a_k:
            np.multiply(a_k, e, out=tmp)
            np.add(val, tmp, out=val)


def _tent_exact(r: int, terms: int, scales: list) -> bool:
    """Whether `_eval_tent_block` gives the bytes of `_eval_grid_block`."""
    # the tent recursion is the doubling map, r = 2; e_k is exact while
    # k <= 1022; and a_k e_k rounds the number scale_k d_k only where
    # scale_k = a_k 2^(1-k) / 2^53 was not rounded itself, that is where it
    # is not subnormal
    return r == 2 and terms <= 1022 and all(
        s is None or abs(s) >= sys.float_info.min for s in scales
    )


def _integer_weights(a: np.ndarray) -> list[int] | None:
    """a as Python ints if every a_k is an integer and sum |a_k| <= 2^53, else None.

    Under both conditions every partial sum of the a_k psi_k is an integer of
    size at most 2^53, exact in float64, so the walk needs no float product.
    """
    if not (np.isfinite(a).all() and (a == np.trunc(a)).all()):
        return None
    ints = [int(a_k) for a_k in a.tolist()]
    return ints if sum(map(abs, ints)) <= GRID else None


# -- certified evaluation -----------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Truncation budget: first `terms` terms leave a tail <= tail_bound."""

    terms: int
    tail_bound: float
    term_abs_sum: float  # sum of |a_k| r^{1-k} / 2 over kept terms


@dataclass(frozen=True)
class EvalResult:
    value: float
    error_bound: float
    terms: int


@dataclass(frozen=True)
class IncrementDecomposition:
    """f(x+h) - f(x) = linear + midrange + tail + residual.

    linear   = h * sum_{k <= k_lin} a_k psi_k^+(x): indices where both points
               sit on one affine piece of psi_k (k_lin from the match depths);
    midrange = indices k_lin < k <= m, m the scale index of h;
    tail     = m < k <= terms, exactly 0 when h = r^-m (psi_k then has period
               dividing h);
    residual = the two truncation tails, |residual| <= 4 * eps.
    """

    x: float
    h: float
    eps: float
    m: int
    k0: int
    k0_shifted: int
    k_lin: int
    terms: int
    walk_value: float
    linear: float
    midrange: float
    tail: float
    increment: float
    residual: float


@dataclass(frozen=True)
class FractalFunction:
    """f = sum a_k psi_k in base r, with certified evaluation.

    delta enters only through the tail certificates: they presume the weight
    hypothesis a_k^2 <= K A_k^{1-delta} at this delta (checked empirically by
    `validate_assumptions`), with constants measured on a finite window and a
    twofold safety margin.
    """

    r: int
    weights: WeightSequence
    delta: float = 1.0
    _certs: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "r", _check_base(self.r))
        _check_delta(self.delta)

    # -- certificates ---------------------------------------------------------

    def certificate(self, eps: float) -> Certificate:
        """Truncation point N with certified tail bound <= eps/2.

        Terms are added until |a_N| r^{1-N} / 2 falls under the trigger
        eps (1 - 1/r) / 8; from there a geometric closure is attempted: with
        K_hat and the growth of A measured on [1, N + pad],

          tail <= (sqrt(K_hat)/2) A_N^{(1-delta)/2} r^{1-N} rho/(1-rho),

        rho = r^{-1/2} (for delta < 1, using A_{N+j} <= A_N r^{j/(1-delta)})
        or rho = 1/r with A-factor 1 (delta = 1, |a_k| <= sqrt(K_hat)).  The
        closure is doubled for safety; if it never lands under eps/2 within
        `_MAX_TERMS` terms the series is treated as non-convergent at this
        accuracy.
        """
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if eps < 1e-13:
            raise ValueError(
                f"eps={eps} is below the float64 evaluation floor (1e-13)"
            )
        key = float(eps)
        cached = self._certs.get(key)
        if cached is not None:
            return cached

        r = self.r
        budget = 0.5 * eps
        trigger = budget * (1.0 - 1.0 / r) / 4.0
        finite = self.weights.length
        t_abs = 0.0
        next_attempt = 1
        n = 0
        while n < _MAX_TERMS:
            n += 1
            a_n = self.weights.a(n)
            term_bound = 0.5 * abs(a_n) * r ** (1 - n)
            t_abs += term_bound
            if finite is not None and n >= finite:
                cert = Certificate(terms=n, tail_bound=0.0, term_abs_sum=t_abs)
                break
            if term_bound > trigger or n < next_attempt:
                continue
            bound = self._closure_bound(n)
            if bound <= budget:
                cert = Certificate(terms=n, tail_bound=bound, term_abs_sum=t_abs)
                break
            next_attempt = n + 8
        else:
            raise CertificationError(
                f"no tail certificate at eps={eps} within {_MAX_TERMS} terms; "
                "the series may diverge or the weights grow too fast for "
                f"delta={self.delta}"
            )
        self._certs[key] = cert
        return cert

    def _closure_bound(self, n: int) -> float:
        r, delta = self.r, self.delta
        # growth A_{m+1} <= A_m q past n, q = r^{1/(1-delta)}; none at delta = 1
        log_q = None if delta == 1.0 else math.log(r) / (1.0 - delta)
        c = _tail_constant(self.weights, n, max(64, n // 4), delta, log_q)
        if delta == 1.0:
            return 2.0 * (0.5 * c * r ** (1 - n) * r / (r - 1.0))
        rho = r ** -0.5
        return 2.0 * (0.5 * c * r ** (1 - n) * rho / (1.0 - rho))

    def _certified(self, eps: float) -> tuple[Certificate, float]:
        """The certificate at eps and its error bound; refuses an eps out of reach."""
        cert = self.certificate(eps)
        # the tail plus the accumulated rounding of <= cert.terms fused multiply-adds
        allowance = 8.0 * (cert.terms + 1) * 2.0**-53 * (1.0 + cert.term_abs_sum)
        bound = cert.tail_bound + allowance
        if bound > eps:
            raise CertificationError(
                f"float64 accumulation allowance {allowance:.3e} exceeds the "
                f"eps={eps} budget; increase eps"
            )
        return cert, bound

    # -- evaluation -----------------------------------------------------------

    def _terms(self, a: list, num: int, den: int) -> tuple[list[float], list[bool]]:
        """Terms and slopes at x = num/den in [0, 1), for the weights a = (a_1, ..., a_n).

        The terms are the floats a_k d(r^{k-1} x) / r^{k-1}, 0.0 where
        a_k = 0; the slopes say where psi_k^+(x) = +1 (2 frac(r^{k-1} x) < 1).
        d comes from exact integer digit residues, and int / int division
        rounds correctly, so a term does not depend on the denominator x is
        written over.
        """
        r = self.r
        terms, rising = [], []
        scaled_den = den  # den r^(k-1)
        for a_k in a:
            up = 2 * num < den
            rising.append(up)
            # (num if up else den - num) is min(num, den - num)
            terms.append(a_k * ((num if up else den - num) / scaled_den) if a_k else 0.0)
            num = num * r % den
            scaled_den *= r
        return terms, rising

    def eval(self, x, eps: float = 1e-12) -> EvalResult:
        """f(x) with a certified absolute error bound <= eps.

        x may be a float, int, or Fraction; digits are processed exactly, so
        the only error sources are the certified truncation tail and the
        correctly-rounded term summation.
        """
        cert, bound = self._certified(eps)
        a = self.weights.values(cert.terms).tolist()
        f = _as_unit_fraction(x)
        terms, _ = self._terms(a, f.numerator, f.denominator)
        value = math.fsum(terms)
        return EvalResult(value=value, error_bound=bound, terms=cert.terms)

    def eval_grid(self, mantissas: np.ndarray, eps: float = 1e-12) -> np.ndarray:
        """f at grid points x = m * 2^-53, certified like `eval`.

        Residues frac(r^{k-1} x) stay exact in uint64 throughout.  The terms
        are accumulated in order k = 1, 2, ..., so the float allowance of
        `eval` covers the rounding, and the result differs from the true
        value by at most tail_bound + allowance <= eps; an eps that bound
        cannot meet raises `CertificationError`.

        The points are taken `_EVAL_BLOCK` at a time, on the calling thread.
        Every point sees the same float operations whatever its block, so a
        caller may cut its points anywhere and map the pieces over threads,
        as `functional_clt_experiment` does, without changing a byte.

        At r = 2 the blocks run `_eval_tent_block`, three or four float ops a
        term in place of seven, wherever `_tent_exact` shows that it rounds
        every term as `_eval_grid_block` does.
        """
        cert, _ = self._certified(eps)
        ru = _check_grid_base(self.r)
        m = _check_mantissas(np.ascontiguousarray(mantissas, dtype=np.uint64))
        a = self.weights.values(cert.terms)
        # a_k r^{1-k} / 2^53 for k = 1..terms, None where a_k = 0 (skipped)
        scales = []
        coef = 1.0
        for k in range(cert.terms):
            scales.append(a[k] * coef / float(GRID) if a[k] else None)
            coef /= self.r
        tent = _tent_exact(self.r, cert.terms, scales)
        val = np.zeros(m.size, dtype=np.float64)
        for start in range(0, m.size, _EVAL_BLOCK):
            part = slice(start, start + _EVAL_BLOCK)
            if tent:
                _eval_tent_block(m[part], val[part], a)
            else:
                _eval_grid_block(m[part], val[part], scales, ru)
        return val

    def walk_value(self, x, n: int) -> float:
        """w_n(x) = sum_{k<=n} a_k psi_k^+(x), the weighted slope-sign walk."""
        signs = sign_walk(self.r, x, n)
        a = self.weights.values(n)
        return float(math.fsum(a * signs))

    def walk_value_grid(self, mantissas: np.ndarray, n: int) -> np.ndarray:
        """w_n at grid points x = m * 2^-53: w += a_k psi_k for k = 1..n.

        Points are taken `_WALK_BLOCK` at a time, so the full (n, len(m))
        sign matrix is never built, and each block's int8 sign rows are added
        in order of k, so a point's value does not depend on the points that
        come with it.  Where `_integer_weights` admits the weights, the rows
        are summed in the narrowest integer type that holds sum |a_k|: every
        partial sum is then an integer of size at most 2^53, so the result is
        the exact w_n, the number a float sum gives in any order.  Other
        weights are summed in float64, in the same order.  At n = 48 a
        16384-point block took 0.25 ms in int16 (2-vCPU Xeon VM).

        The blocks run on the calling thread, as `eval_grid`'s do; their
        per-row ops span one block row and are too short to overlap under
        the GIL.  `modulus_experiment` runs its scales on one thread per CPU.
        """
        _check_grid_base(self.r)
        m = _check_mantissas(np.ascontiguousarray(mantissas, dtype=np.uint64))
        a = self.weights.values(n)
        weights = _integer_weights(a)
        if weights is None:
            weights, acc_type = a.tolist(), np.float64
        else:
            total = sum(map(abs, weights))
            acc_type = next(t for t in (np.int16, np.int32, np.int64)
                            if total <= np.iinfo(t).max)
        out = np.empty(m.size, dtype=np.float64)
        for start in range(0, m.size, _WALK_BLOCK):
            signs = sign_walk_grid(self.r, m[start : start + _WALK_BLOCK], n)
            acc = np.zeros(signs.shape[1], dtype=acc_type)
            tmp = np.empty_like(acc)
            for a_k, row in zip(weights, signs):
                if a_k == 1:
                    acc += row
                elif a_k == -1:
                    acc -= row
                elif a_k:
                    np.multiply(row, acc_type(a_k), out=tmp)
                    acc += tmp
            out[start : start + acc.size] = acc
        return out

    # -- increments -----------------------------------------------------------

    def increment_grid(self, mantissas: np.ndarray, hs, eps: float = 1e-12) -> np.ndarray:
        """f(x + h) - f(x) at grid points x = m * 2^-53, one row per h in hs.

        Each h is rounded to the nearest whole number of grid cells (refused
        below one) and x + h wraps past 1, where f repeats.  f(x) is
        evaluated once for all rows, and each row is the float difference of
        two `eval_grid` values, each certified to eps.  The first call at an
        eps computes f's certificate, and later calls only read it.
        """
        m = np.ascontiguousarray(mantissas, dtype=np.uint64)
        steps = [np.uint64(_exact_mantissa_step(_exact(h))) for h in hs]
        fx = self.eval_grid(m, eps)
        rows = np.empty((len(steps), fx.size))
        for row, step in zip(rows, steps):
            np.subtract(self.eval_grid((m + step) & _MASK, eps), fx, out=row)
        return rows

    def decompose_increment(self, x, h, eps: float = 1e-12) -> IncrementDecomposition:
        """Split f(x+h) - f(x) into linear, midrange, and tail parts.

        The linear regime ends at k_lin = k0 for even r and min(k0, k0_hat)
        for odd r, where the half-shifted depth k0_hat tracks the kinks at
        half-integer multiples of r^-(k-1).  All sawtooth differences are
        computed from exact digit residues; the residual carries only the two
        truncation tails, so |residual| <= 4 eps.
        """
        cert = self.certificate(eps)
        r = self.r
        fx = _as_unit_fraction(x)
        hq = _exact(h)
        if hq <= 0:
            raise ValueError(f"h must be positive, got {h}")
        if hq >= Fraction(1, r):
            raise ValueError(f"h must be < 1/r, got {h}")
        m = scale_index(r, hq)
        # x, h and x+h as numerators over one even denominator, which holds
        # x+1/2 too; x+h wraps past 1 onto rx + rh - den
        den = math.lcm(2, fx.denominator, hq.denominator)
        rx = fx.numerator * (den // fx.denominator)
        rh = hq.numerator * (den // hq.denominator)
        wrapped = rx + rh >= den
        ry = rx + rh - den if wrapped else rx + rh
        sx = (rx + den // 2) % den
        k0 = -1 if wrapped else _match_depth(r, rx, ry, den, m)
        k0_hat = -1 if wrapped or sx + rh >= den else _match_depth(r, sx, sx + rh, den, m)
        k_lin = k0 if r % 2 == 0 else min(k0, k0_hat)
        k_lin = max(k_lin, 0)

        # evaluate to max(cert.terms, m) so the three pieces and the increment
        # truncate at the same depth; extra terms only shrink the tail.  A
        # zero weight gives 0.0 terms, which leave every fsum unchanged.
        a = self.weights.values(max(cert.terms, m)).tolist()
        x_terms, rising = self._terms(a, rx, den)
        y_terms, _ = self._terms(a, ry, den)
        # k_lin <= m: digits of x and x+h cannot agree past the scale of h
        walk = math.fsum(a_k if up else -a_k for a_k, up in zip(a[:k_lin], rising))
        linear = float(hq) * walk

        diffs = [vy - vx for vx, vy in zip(x_terms, y_terms)]
        midrange = math.fsum(diffs[k_lin:m])  # k_lin < k <= m
        tail = math.fsum(diffs[m:])
        increment = math.fsum(y_terms) - math.fsum(x_terms)
        residual = increment - (linear + midrange + tail)
        return IncrementDecomposition(
            x=float(fx),
            h=float(hq),
            eps=float(eps),
            m=m,
            k0=k0,
            k0_shifted=k0_hat,
            k_lin=k_lin,
            terms=cert.terms,
            walk_value=walk,
            linear=linear,
            midrange=midrange,
            tail=tail,
            increment=increment,
            residual=residual,
        )


# -- variance profile ---------------------------------------------------------


@dataclass(frozen=True)
class VarianceProfile:
    """V_n = Var w_n(x) for uniform x, with a log-scale interpolant.

    For even r the slope signs are i.i.d. fair signs and V_n = A_n exactly;
    for odd r they form the one-step-memory chain at p_r = (r+1)/(2r), so V_n
    is the exact second moment at alpha = 1/r.
    """

    r: int
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
    n_max = _as_int(n_max, "n_max", 1)
    r = _check_base(r)
    with np.errstate(over="ignore", invalid="ignore"):
        if r % 2 == 0:
            values = seq.energies(n_max).copy()
        else:
            values = walks.second_moment_profile((r + 1) / (2 * r), seq, n_max)
    _require_finite(values, f"the variance profile to depth {n_max}")
    if np.any(np.diff(values) < 0):
        raise ValueError(
            "variance profile is not non-decreasing; no valid interpolant"
        )
    values.flags.writeable = False
    return VarianceProfile(r=r, values=values)
