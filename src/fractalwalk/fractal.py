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
  the size of the input.  `eval_grid` runs its blocks on one thread per
  usable CPU; every point sees the same float operations in the same order
  whatever its block and thread, so the bytes do not depend on the CPU
  count.

Evaluation returns a value together with a certified error bound: terms are
summed until their size triggers a geometric tail closure, whose constants
are measured on a finite window of the weights (with a safety factor of two)
under the standing hypothesis a_k^2 <= K A_k^{1-delta}.  Scalar and grid
evaluation both add a float64 accumulation allowance to the tail bound and
refuse an eps the sum of the two cannot meet.

`decompose_increment` splits f(x+h) - f(x) into the three regimes that drive
everything downstream: a linear part h * w(x) governed by the slope-sign walk
w, a midrange of indices where the pair (x, x+h) straddles sawtooth kinks,
and a certified small tail.
"""
from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .rng import GRID, MANTISSA_BITS
from .weights import WeightSequence, _check_delta, _growth_ok, _ratio_sequence

__all__ = [
    "CertificationError",
    "Certificate",
    "EvalResult",
    "FractalFunction",
    "IncrementDecomposition",
    "dist_nearest_int",
    "sawtooth_slope",
    "sign_walk",
    "sign_walk_grid",
    "match_depth",
    "match_depth_shifted",
    "match_depth_grid",
    "scale_index",
]

# grid digit extraction multiplies a 53-bit residue by r inside uint64
MAX_GRID_BASE = 2048
_MASK = np.uint64(GRID - 1)
_SHIFT = np.uint64(MANTISSA_BITS)
_HALF_GRID = np.uint64(GRID // 2)
_GRID = np.uint64(GRID)
# points per block of `walk_value_grid`: the block's residues and its
# (n, block) sign buffer stay in cache across all terms
_WALK_BLOCK = 16384
# most points per block of `eval_grid`.  Its threads overlap only while numpy
# runs with the GIL released, so each of the seven ops per term must outlast
# the GIL hand-off; at 16384 points an op takes about 6 us, and two threads
# ran no faster than one.  Median s of 9 passes over the grid part of the
# perfbench fractal_grid workload (modulus r = 2, 3, 10 and fclt), on a
# 2-vCPU Xeon VM with 2 MB of L2 a core:
#   one thread, 16384-point blocks                          2.79
#   two threads, 16384 / 32768 / 65536 / 131072-point blocks
#                                              2.75 / 2.10 / 2.08 / 2.30
# Past 65536 points a block's buffers and output, 24 bytes a point, outgrow
# L2.
_EVAL_BLOCK = 65536
# `certificate` treats a series it cannot close within this many terms as
# non-convergent at the requested accuracy
_MAX_TERMS = 20_000


class CertificationError(RuntimeError):
    """No error certificate attainable at the requested accuracy."""


def _check_base(r: int) -> int:
    r = int(r)
    if r < 2:
        raise ValueError(f"base r must be an integer >= 2, got {r}")
    return r


def _check_grid_base(r: int) -> np.uint64:
    r = _check_base(r)
    if r > MAX_GRID_BASE:
        raise ValueError(f"grid arithmetic supports r <= {MAX_GRID_BASE}, got {r}")
    return np.uint64(r)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_threads(fn, count: int) -> list:
    """[fn(i) for i in range(count)], in index order, on one thread per usable CPU.

    The calling thread is one of them and takes indices from the same queue:
    it starts at once instead of waiting for a fresh thread to start, which
    cost `eval_grid` up to 5 ms a call on a 2-vCPU VM, and it takes over the
    indices of a helper that starts late.  The helper threads live for this
    call only.
    """
    threads = min(_usable_cpus(), count)
    if threads <= 1:
        return [fn(i) for i in range(count)]
    todo = queue.SimpleQueue()
    for i in range(count):
        todo.put(i)
    out = [None] * count

    def drain() -> None:
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            out[i] = fn(i)

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
    for helper in helpers:
        helper.result()
    return out


def _exact(x) -> Fraction:
    """x as an exact Fraction (floats convert exactly, numpy scalars too)."""
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return Fraction(x)


def _as_unit_fraction(x) -> Fraction:
    """x reduced mod 1 as an exact Fraction."""
    f = _exact(x)
    return f - (f.numerator // f.denominator)


def dist_nearest_int(x):
    """d(x): distance from x to the nearest integer, vectorized."""
    x = np.asarray(x, dtype=float)
    fr = x - np.floor(x)
    out = np.minimum(fr, 1.0 - fr)
    return out if out.ndim else float(out)


# -- scalar digit machinery (exact rational arithmetic) ----------------------


def _sawtooth_frac(r: int, k: int, x) -> Fraction:
    r = _check_base(r)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    f = _as_unit_fraction(x)
    num = f.numerator * r ** (k - 1) % f.denominator
    return Fraction(num, f.denominator)


def sawtooth_slope(r: int, k: int, x) -> int:
    """Right-hand slope sign of psi_k at x: +1 on the rising half of each
    tooth (frac in [0, 1/2)), -1 on the falling half (frac in [1/2, 1))."""
    fr = _sawtooth_frac(r, k, x)
    return 1 if 2 * fr.numerator < fr.denominator else -1


def sign_walk(r: int, x, n: int) -> np.ndarray:
    """Slope signs (psi_1^+, ..., psi_n^+) at x, exact, as an int8 array."""
    r = _check_base(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    m = np.ascontiguousarray(mantissas, dtype=np.uint64)
    out = np.empty((n, m.size), dtype=np.int8)
    res = m.copy()
    for k in range(n):
        out[k] = np.where(res < _HALF_GRID, 1, -1).astype(np.int8)
        res = (res * ru) & _MASK
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
    fy = fx + h
    if fy >= 1:
        return -1
    m = scale_index(r, h)
    den = math.lcm(fx.denominator, fy.denominator)
    rx = fx.numerator * (den // fx.denominator)
    ry = fy.numerator * (den // fy.denominator)
    for k in range(1, m + 3):
        tx, ty = rx * r, ry * r
        if tx // den != ty // den:
            return k - 1
        rx, ry = tx % den, ty % den
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
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    m = np.ascontiguousarray(mantissas, dtype=np.uint64)
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
        if int(self.r) != self.r:
            raise ValueError(f"base r must be an integer, got {self.r}")
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
        pad = max(64, n // 4)
        scan = n + pad
        energies = self.weights.energies(scan)
        k_hat = float(np.max(_ratio_sequence(self.weights.values(scan), energies, delta)))
        if not np.isfinite(k_hat):
            return math.inf
        if delta == 1.0:
            raw = 0.5 * math.sqrt(k_hat) * r ** (1 - n) * r / (r - 1.0)
            return 2.0 * raw
        # growth check A_{m+1} <= A_m * q on the scanned window, q = r^{1/(1-delta)}
        if not _growth_ok(energies[n - 1 :], math.log(r) / (1.0 - delta)):
            return math.inf
        rho = r ** -0.5
        a_n_energy = float(energies[n - 1])
        raw = (
            0.5
            * math.sqrt(k_hat)
            * a_n_energy ** ((1.0 - delta) / 2.0)
            * r ** (1 - n)
            * rho
            / (1.0 - rho)
        )
        return 2.0 * raw

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

    def eval(self, x, eps: float = 1e-12) -> EvalResult:
        """f(x) with a certified absolute error bound <= eps.

        x may be a float, int, or Fraction; digits are processed exactly, so
        the only error sources are the certified truncation tail and the
        correctly-rounded term summation.
        """
        cert, bound = self._certified(eps)
        f = _as_unit_fraction(x)
        num, den = f.numerator, f.denominator
        r = self.r
        a = self.weights.values(cert.terms)
        terms = []
        rpow = 1
        for k in range(cert.terms):
            d_num = min(num, den - num)
            if d_num and a[k]:
                terms.append(a[k] * (d_num / (den * rpow)))
            num = num * r % den
            rpow *= r
        value = math.fsum(terms)
        return EvalResult(value=value, error_bound=bound, terms=cert.terms)

    def eval_grid(self, mantissas: np.ndarray, eps: float = 1e-12) -> np.ndarray:
        """f at grid points x = m * 2^-53, certified like `eval`.

        Residues frac(r^{k-1} x) stay exact in uint64 throughout.  The terms
        are accumulated in order k = 1, 2, ..., so the float allowance of
        `eval` covers the rounding, and the result differs from the true
        value by at most tail_bound + allowance <= eps; an eps that bound
        cannot meet raises `CertificationError`.

        The points are cut into equal blocks of at most `_EVAL_BLOCK`, and
        one thread per usable CPU (the caller's included) takes the blocks in
        turn.  Every point sees the same float operations whatever its block
        and thread, so the result does not depend on the CPU count.
        """
        cert, _ = self._certified(eps)
        ru = _check_grid_base(self.r)
        m = np.ascontiguousarray(mantissas, dtype=np.uint64)
        a = self.weights.values(cert.terms)
        # a_k r^{1-k} / 2^53 for k = 1..terms, None where a_k = 0 (skipped)
        scales = []
        coef = 1.0
        for k in range(cert.terms):
            scales.append(a[k] * coef / float(GRID) if a[k] else None)
            coef /= self.r
        val = np.zeros(m.size, dtype=np.float64)
        blocks = -(-m.size // _EVAL_BLOCK)
        width = -(-m.size // blocks) if blocks else 0

        def run_block(i: int) -> None:
            part = slice(i * width, (i + 1) * width)
            _eval_grid_block(m[part], val[part], scales, ru)

        _map_threads(run_block, blocks)
        return val

    def walk_value(self, x, n: int) -> float:
        """w_n(x) = sum_{k<=n} a_k psi_k^+(x), the weighted slope-sign walk."""
        signs = sign_walk(self.r, x, n)
        a = self.weights.values(n)
        return float(math.fsum(a * signs))

    def walk_value_grid(self, mantissas: np.ndarray, n: int) -> np.ndarray:
        """w_n at grid points x = m * 2^-53: a @ sign_walk_grid(r, m, n).

        Points are taken `_WALK_BLOCK` at a time: the block's slope signs fill
        a reused (n, _WALK_BLOCK) float buffer, so the full (n, len(m)) sign
        matrix is never built.  The product always spans a multiple of 8
        points: OpenBLAS on one or two threads then sums every point with the
        same kernel (no remainder rows, and the thread split lands on a
        multiple of 4), so a point's value does not depend on its position or
        on how many points come with it.

        It stays on one Python thread, unlike `eval_grid`: its per-row ops
        span one block row and are too short to overlap under the GIL, and
        the product already runs on OpenBLAS threads.  Two contiguous shares
        on two threads took 32-38 ms against 29 ms on one (n = 48, 200k
        points, medians of 15).
        """
        ru = _check_grid_base(self.r)
        m = np.ascontiguousarray(mantissas, dtype=np.uint64)
        a = self.weights.values(n)
        out = np.empty(m.size, dtype=np.float64)
        width = min(_WALK_BLOCK, -(-m.size // 8) * 8)
        res = np.zeros(width, dtype=np.uint64)
        falling = np.empty(width, dtype=bool)
        signs = np.empty((n, width), dtype=np.float64)
        for start in range(0, m.size, _WALK_BLOCK):
            stop = min(start + _WALK_BLOCK, m.size)
            cols = -(-(stop - start) // 8) * 8
            res_b, falling_b, signs_b = res[:cols], falling[:cols], signs[:, :cols]
            # padding columns keep residues of an earlier block, or zeros
            res_b[: stop - start] = m[start:stop]
            for k in range(n):
                np.greater_equal(res_b, _HALF_GRID, out=falling_b)
                signs_b[k] = falling_b
                np.multiply(res_b, ru, out=res_b)
                np.bitwise_and(res_b, _MASK, out=res_b)
            # 0/1 falling flags -> slope signs +1/-1, exactly
            np.multiply(signs_b, -2.0, out=signs_b)
            np.add(signs_b, 1.0, out=signs_b)
            out[start:stop] = (a @ signs_b)[: stop - start]
        return out

    # -- increments -----------------------------------------------------------

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
        fy = fx + hq
        wrapped = fy >= 1
        if wrapped:
            fy -= 1

        m = scale_index(r, hq)
        k0 = -1 if wrapped else match_depth(r, fx, hq)
        k0_hat = match_depth_shifted(r, fx, hq) if not wrapped else -1
        k_lin = k0 if r % 2 == 0 else min(k0, k0_hat)
        k_lin = max(k_lin, 0)

        # evaluate to max(cert.terms, m) so the three pieces and the increment
        # truncate at the same depth; extra terms only shrink the tail
        n_terms = max(cert.terms, m)
        a = self.weights.values(n_terms)
        den = math.lcm(fx.denominator, fy.denominator)
        rx = fx.numerator * (den // fx.denominator)
        ry = fy.numerator * (den // fy.denominator)

        walk = self.walk_value(fx, k_lin) if k_lin else 0.0
        linear = float(hq) * walk

        mid_terms, tail_terms, x_terms, y_terms = [], [], [], []
        rpow = 1
        for k in range(1, n_terms + 1):
            dx = min(rx, den - rx)
            dy = min(ry, den - ry)
            if a[k - 1]:
                denom = den * rpow
                vx = a[k - 1] * (dx / denom)
                vy = a[k - 1] * (dy / denom)
                x_terms.append(vx)
                y_terms.append(vy)
                if k_lin < k <= m:
                    mid_terms.append(vy - vx)
                elif k > m:
                    tail_terms.append(vy - vx)
            rx, ry = rx * r % den, ry * r % den
            rpow *= r

        value_x = math.fsum(x_terms)
        value_y = math.fsum(y_terms)
        midrange = math.fsum(mid_terms)
        tail = math.fsum(tail_terms)
        increment = value_y - value_x
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
