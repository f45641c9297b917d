"""Fractal surface: certified evaluation, digit machinery, increment algebra."""
import dataclasses
import math
import random
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from fractalwalk import (
    FractalFunction,
    WeightSequence,
    match_depth,
    match_depth_shifted,
    match_depth_grid,
    scale_index,
    sign_walk,
    sign_walk_grid,
    stream,
    uniform_mantissas,
)
from fractalwalk import fractal
from fractalwalk.fractal import _EVAL_BLOCK, _WALK_BLOCK
from fractalwalk.rng import GRID

from finite_depth import grid_difference

CONST = WeightSequence.constant()


def test_sawtooth_slope_signs():
    assert sign_walk(2, 0.1, 1)[0] == 1
    assert sign_walk(2, 0.6, 1)[0] == -1
    # frac(3 * 0.2) = 0.6 lands on the falling branch
    assert sign_walk(3, 0.2, 2)[1] == -1


def test_eval_dyadic_points():
    f = FractalFunction(2, CONST)
    assert f.eval(0.5, eps=1e-12).value == pytest.approx(0.5, abs=1e-12)
    assert f.eval(0.25, eps=1e-12).value == pytest.approx(0.5, abs=1e-12)


def test_eval_third_against_series_oracle():
    """Value at 1/3 checked against an independent 200-term partial sum."""
    f = FractalFunction(2, CONST)
    got = f.eval(Fraction(1, 3), eps=1e-12)
    # dist(2^{k-1}/3, Z) = 1/3 for every k, so the series telescopes to 2/3;
    # keep the oracle honest by summing terms rather than using that closed form
    partial = sum(
        Fraction(1, 2 ** (k - 1)) * min({0: Fraction(0), 1: Fraction(1, 3), 2: Fraction(1, 3)}[(2 ** (k - 1)) % 3], Fraction(1, 2))
        for k in range(1, 201)
    )
    tail = Fraction(1, 2**198)  # |a_k d(.)| <= 2^{-(k-1)}/2 summed past k=200
    assert abs(got.value - float(partial)) <= float(tail) + got.error_bound
    assert got.value == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_eval_certified_error_is_honest():
    f = FractalFunction(2, WeightSequence.power(0.5), delta=0.5)
    coarse = f.eval(0.372, eps=1e-6)
    fine = f.eval(0.372, eps=1e-12)
    assert abs(coarse.value - fine.value) <= coarse.error_bound + fine.error_bound
    assert coarse.error_bound <= 1e-6


def test_eval_rejects_unreachable_eps():
    # the float accumulation allowance alone can exceed a too-small budget
    from fractalwalk import CertificationError

    f = FractalFunction(2, WeightSequence.power(0.5), delta=0.5)
    with pytest.raises(CertificationError):
        f.eval(0.372, eps=1e-13)


def test_finite_weights_certify_every_term_with_zero_tail():
    f = FractalFunction(3, WeightSequence.explicit([1, 0.5, 2]))
    cert = f.certificate(1e-12)
    assert (cert.terms, cert.tail_bound) == (3, 0.0)
    x = Fraction(1, 7)
    exact = 0
    for k, a_k in enumerate([1, Fraction(1, 2), 2]):
        frac = x * 3**k % 1
        exact += a_k * min(frac, 1 - frac) / 3**k
    got = f.eval(x)
    assert abs(got.value - exact) <= got.error_bound


def test_closure_bound_is_infinite_without_a_closure():
    # a_k^2 overflows on the scanned window: K_hat is not finite
    f = FractalFunction(2, WeightSequence.geometric(2.0), delta=0.5)
    assert f._closure_bound(500) == math.inf
    # K_hat is finite, but A grows by 9 a step against q = 2^{1/(1-delta)} = 4
    f = FractalFunction(2, WeightSequence.geometric(3.0), delta=0.5)
    assert f._closure_bound(10) == math.inf
    assert math.isfinite(FractalFunction(2, CONST)._closure_bound(10))


def test_eval_rejects_fractional_base():
    with pytest.raises(ValueError):
        FractalFunction(2.5, CONST)


def test_eval_grid_matches_scalar():
    rng = stream(11)
    mant = uniform_mantissas(rng, 40)
    for r in (2, 3):
        f = FractalFunction(r, CONST)
        grid_vals = f.eval_grid(mant, eps=1e-10)
        for i in range(mant.size):
            x = Fraction(int(mant[i]), GRID)
            res = f.eval(x, eps=1e-10)
            assert abs(grid_vals[i] - res.value) <= 1e-10 + res.error_bound


def _eval_grid_reference(f, mantissas, eps):
    """The full-array loop eval_grid ran before it was blocked."""
    cert = f.certificate(eps)
    m = np.ascontiguousarray(mantissas, dtype=np.uint64)
    a = f.weights.values(cert.terms)
    val = np.zeros(m.size, dtype=np.float64)
    res = m.copy()
    coef = 1.0
    for k in range(cert.terms):
        if a[k]:
            d_num = np.minimum(res, GRID - res).astype(np.float64)
            val += (a[k] * coef / float(GRID)) * d_num
        res = (res * np.uint64(f.r)) & np.uint64(GRID - 1)
        coef /= f.r
    return val


GRID_WEIGHTS = [
    (CONST, 1.0),
    (WeightSequence.power(0.5), 0.5),
    (WeightSequence.odd_indicator(), 1.0),
]


@pytest.mark.parametrize("r", [2, 3, 10, 2048])
@pytest.mark.parametrize("weights,delta", GRID_WEIGHTS, ids=["constant", "power", "odd"])
def test_eval_grid_blocks_match_reference(r, weights, delta):
    """Byte for byte at sizes around the block edges.

    The reference is elementwise, so its prefix is the prefix's reference.
    """
    f = FractalFunction(r, weights, delta=delta)
    B = _EVAL_BLOCK
    mant = uniform_mantissas(stream(14), 3 * B + 7)
    want = _eval_grid_reference(f, mant, 1e-12)
    for size in (0, 1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7):
        got = f.eval_grid(mant[:size], eps=1e-12)
        assert got.shape == (size,)
        assert got.tobytes() == want[:size].tobytes(), size


def test_eval_grid_strided_input_matches_reference():
    f = FractalFunction(3, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(15), 4 * _EVAL_BLOCK + 10)[::3]
    assert not mant.flags.c_contiguous
    want = _eval_grid_reference(f, mant, 1e-12)
    assert f.eval_grid(mant, eps=1e-12).tobytes() == want.tobytes()


def test_eval_grid_concurrent_callers_match_serial():
    """Two caller threads on one function get the bytes of serial calls."""
    mants = [uniform_mantissas(stream(18, i), 2 * _EVAL_BLOCK + 1) for i in range(2)]
    serial = FractalFunction(2, WeightSequence.power(0.5), delta=0.5)
    want = [serial.eval_grid(m, eps=1e-12).tobytes() for m in mants]
    # a fresh function, so both callers also race to fill the certificate cache
    f = FractalFunction(2, WeightSequence.power(0.5), delta=0.5)
    got = [None, None]
    start = threading.Barrier(2, timeout=10)

    def call(i):
        start.wait()
        got[i] = f.eval_grid(mants[i], eps=1e-12).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_grid_kernels_start_no_threads(monkeypatch):
    """The grid kernels run on the caller's thread; only experiments map."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    f = FractalFunction(3, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(19), 3 * _EVAL_BLOCK + 1)
    f.eval_grid(mant, eps=1e-12)
    f.walk_value_grid(mant, 20)
    assert started == []


def _general_kernel(f, mantissas, eps):
    """`eval_grid` on one block of the general kernel, whatever the base."""
    scales = []
    coef = 1.0
    for a_k in f.weights.values(f.certificate(eps).terms):
        scales.append(a_k * coef / float(GRID) if a_k else None)
        coef /= f.r
    m = np.ascontiguousarray(mantissas, dtype=np.uint64)
    val = np.zeros(m.size)
    fractal._eval_grid_block(m, val, scales, np.uint64(f.r))
    return val, scales


EDGE_MANTISSAS = [0, 1, 2, 2**51, 2**52 - 1, 2**52, 2**52 + 1, 3 * 2**51, 2**53 - 2, 2**53 - 1]
TENT_WEIGHTS = {
    "const": (CONST, 1.0),
    "power:0.5": (WeightSequence.power(0.5), 0.5),
    "power:-0.3": (WeightSequence.power(-0.3), 1.0),
    "odd": (WeightSequence.odd_indicator(), 1.0),
    "geometric:1.1": (WeightSequence.geometric(1.1), 0.5),
    "mixed": (WeightSequence.explicit([1.0, 0.0, 0.3, 1.0, -2.5, 0.0, 1.0, 7.0]), 1.0),
}


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("name", TENT_WEIGHTS)
def test_eval_grid_tent_kernel_matches_general_kernel(name, eps):
    """At r = 2, `eval_grid` runs the tent recursion and keeps every byte."""
    weights, delta = TENT_WEIGHTS[name]
    f = FractalFunction(2, weights, delta=delta)
    mant = np.concatenate([np.array(EDGE_MANTISSAS, dtype=np.uint64),
                           uniform_mantissas(stream(19), 20_000)])
    want, scales = _general_kernel(f, mant, eps)
    assert fractal._tent_exact(2, f.certificate(eps).terms, scales)
    assert f.eval_grid(mant, eps=eps).tobytes() == want.tobytes()


# eight-fold weight jumps every 32 terms: the energy more than quadruples
# inside every window the tail closure looks at, so at delta = 0.5 it never
# closes and the certificate keeps all 1056 terms
_PAST_1022 = WeightSequence.explicit([8.0 ** (k // 32) if k % 32 == 0 else 0.0
                                      for k in range(1, 1057)])
TENT_GUARDS = {
    # one term, a_1 2^-53 subnormal
    "subnormal-scale": (WeightSequence.explicit([3e-300]), 1.0, 1e-12),
    "past-1022-terms": (_PAST_1022, 0.5, 1e-8),
}


def guard_case_matches_general_kernel(name: str) -> bool:
    """`eval_grid` at r = 2 gives the general kernel's bytes on a guard case."""
    weights, delta, eps = TENT_GUARDS[name]
    f = FractalFunction(2, weights, delta=delta)
    mant = np.concatenate([np.array(EDGE_MANTISSAS, dtype=np.uint64),
                           uniform_mantissas(stream(20), 2_000)])
    return f.eval_grid(mant, eps=eps).tobytes() == _general_kernel(f, mant, eps)[0].tobytes()


@pytest.mark.parametrize("name", TENT_GUARDS)
def test_eval_grid_outside_the_tent_guard_matches_general_kernel(name):
    weights, delta, eps = TENT_GUARDS[name]
    f = FractalFunction(2, weights, delta=delta)
    _, scales = _general_kernel(f, [], eps)
    assert not fractal._tent_exact(2, f.certificate(eps).terms, scales)
    assert guard_case_matches_general_kernel(name)


def test_eval_grid_rejects_unreachable_eps():
    # the float accumulation allowance alone can exceed a too-small budget
    from fractalwalk import CertificationError

    f = FractalFunction(2, WeightSequence.power(0.5), delta=0.5)
    with pytest.raises(CertificationError):
        f.eval_grid(np.zeros(4, dtype=np.uint64), eps=1e-13)


def test_eval_grid_base_cap():
    f = FractalFunction(4096, CONST)
    with pytest.raises(ValueError):
        f.eval_grid(np.zeros(4, dtype=np.uint64), eps=1e-6)


def test_sign_walk_at_zero():
    assert sign_walk(2, 0, 3).tolist() == [1, 1, 1]


def test_sign_walk_three_quarters():
    # digits of 0.75 base 2: frac >= 1/2 at both depths
    assert sign_walk(2, 0.75, 2).tolist() == [-1, -1]


@pytest.mark.parametrize("r", [2, 3, 10, fractal.MAX_GRID_BASE])
def test_sign_walk_grid_matches_scalar(r):
    """Exact signs, on a strided view too, with the input left as it was.

    2048 is the largest base whose residue times r still fits in uint64.
    """
    mant = uniform_mantissas(stream(12), 100)
    for view in (mant[:50], mant[::2]):
        before = view.copy()
        grid = sign_walk_grid(r, view, 8)
        np.testing.assert_array_equal(view, before)
        for i in range(view.size):
            x = Fraction(int(view[i]), GRID)
            np.testing.assert_array_equal(grid[:, i], sign_walk(r, x, 8))


def test_grid_walks_refuse_a_base_past_the_uint64_range():
    message = "^grid arithmetic supports r <= 2048, got 2049$"
    f = FractalFunction(2049, CONST)
    with pytest.raises(ValueError, match=message):
        sign_walk_grid(2049, [1], 3)
    for size in (0, 5):
        with pytest.raises(ValueError, match=message):
            f.walk_value_grid(np.arange(size, dtype=np.uint64), 3)


def test_sign_walk_distribution_is_fair_iid():
    """First ten binary slope signs over 1e5 uniform points: chi-square at 1%."""
    rng = stream(0)
    mant = uniform_mantissas(rng, 100_000)
    signs = sign_walk_grid(2, mant, 10)
    bits = (signs > 0).astype(np.int64)
    cell = np.zeros(mant.size, dtype=np.int64)
    for k in range(10):
        cell = (cell << 1) | bits[k]
    counts = np.bincount(cell, minlength=1024)
    expected = mant.size / 1024.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, 1023)


def test_walk_value_examples():
    assert FractalFunction(2, CONST).walk_value(0, 5) == 5.0
    f_lin = FractalFunction(2, WeightSequence.power(1.0))
    signs = sign_walk(2, 0.75, 2)
    assert f_lin.walk_value(0.75, 2) == float(signs @ np.array([1.0, 2.0]))
    f_zero = FractalFunction(2, WeightSequence.constant(0.0))
    assert f_zero.walk_value(0.9, 7) == 0.0


def test_walk_value_grid_matches_scalar():
    rng = stream(13)
    mant = uniform_mantissas(rng, 30)
    f = FractalFunction(3, WeightSequence.power(0.5), delta=0.5)
    grid = f.walk_value_grid(mant, 6)
    for i in range(mant.size):
        x = Fraction(int(mant[i]), GRID)
        assert grid[i] == pytest.approx(f.walk_value(x, 6), rel=1e-12)


def _walk_value_in_order(f, mant, n):
    """w += a_k psi_k for k = 1..n in float64, over the full sign matrix."""
    w = np.zeros(mant.size)
    for a_k, row in zip(f.weights.values(n), sign_walk_grid(f.r, mant, n)):
        w += a_k * row.astype(float)
    return w


@pytest.mark.parametrize("n", [1, 20, 48])
def test_walk_value_grid_blocks_match_reference(n):
    """Byte for byte against the in-order sum over the full sign matrix."""
    f = FractalFunction(3, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(16), 2 * _WALK_BLOCK + 8)
    for size in (0, 8, _WALK_BLOCK, 2 * _WALK_BLOCK + 8):
        got = f.walk_value_grid(mant[:size], n)
        assert got.tobytes() == _walk_value_in_order(f, mant[:size], n).tobytes(), size


def test_walk_value_grid_at_the_largest_grid_base_matches_reference():
    f = FractalFunction(fractal.MAX_GRID_BASE, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(18), _WALK_BLOCK + 8)
    for size in (8, _WALK_BLOCK + 8):
        got = f.walk_value_grid(mant[:size], 20)
        assert got.tobytes() == _walk_value_in_order(f, mant[:size], 20).tobytes(), size


@pytest.mark.parametrize("n", [1, 20, 48])
def test_walk_value_grid_does_not_depend_on_the_batch(n):
    """A point's value is the same in any slice of the input, ragged ones too."""
    f = FractalFunction(2, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(17), 3 * _WALK_BLOCK + 7)
    whole = f.walk_value_grid(mant, n)
    B = _WALK_BLOCK
    for lo, hi in [(0, 1), (3, 8), (5, B + 4), (B - 3, 3 * B + 1)]:
        got = f.walk_value_grid(mant[lo:hi], n)
        assert got.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def _walk_value_gemv(f, mant, n):
    """One BLAS product, which sums in an order of its own kernel's choosing."""
    return f.weights.values(n) @ sign_walk_grid(f.r, mant, n).astype(float)


_INTEGER_WEIGHTS = {
    "const": "const",
    "const-3": "const:3",
    "alternating": "alternating",
    "odd-zero-weights": "odd",
    # int32 sums
    "explicit": "explicit:-7,0,12,1,-1,300,-40000,5",
    # sum |a_k| = 2^53 exactly, the largest the integer path takes, in int64
    "explicit-2^53": f"explicit:{2**51},{-2**51},{2**51},{2**51 - 1},1",
}


@pytest.mark.parametrize("spec", _INTEGER_WEIGHTS.values(), ids=_INTEGER_WEIGHTS)
@pytest.mark.parametrize("r", [2, 3])
def test_walk_value_grid_integer_weights_give_the_gemv_bytes(spec, r):
    weights = WeightSequence.from_spec(spec)
    n = weights.length or 40
    assert fractal._integer_weights(weights.values(n)) is not None
    f = FractalFunction(r, weights)
    mant = uniform_mantissas(stream(21), _WALK_BLOCK + 13)
    assert f.walk_value_grid(mant, n).tobytes() == _walk_value_gemv(f, mant, n).tobytes()


@pytest.mark.parametrize(
    "spec",
    ["power:0.5", f"explicit:{2**52},{2**52 - 1},2", "explicit:1,0.5", "explicit:1,1e300,-1e300"],
    ids=["power", "sum-2^53+1", "half", "sum-overflows"],
)
def test_walk_value_grid_other_weights_sum_in_order_in_float64(spec):
    # weights the integer loop refuses are summed in float64, in order of k
    weights = WeightSequence.from_spec(spec)
    n = weights.length or 40
    assert fractal._integer_weights(weights.values(n)) is None
    f = FractalFunction(2, weights, delta=0.5)
    mant = uniform_mantissas(stream(22), 2 * _WALK_BLOCK + 8)
    assert f.walk_value_grid(mant, n).tobytes() == _walk_value_in_order(f, mant, n).tobytes()


@pytest.mark.parametrize("r", [2, 3])
def test_increment_grid_rows_match_two_eval_grid_calls(r):
    # 1/(r^5 + 1) is no whole number of grid cells; x + h wraps past 1 for
    # the points above 1 - h
    f = FractalFunction(r, WeightSequence.power(0.5), 0.5)
    mant = uniform_mantissas(stream(23), 1000)
    hs = [Fraction(1, r**2), Fraction(1, r**5 + 1), Fraction(1, 2**40)]
    rows = f.increment_grid(mant, hs)
    assert rows.shape == (3, mant.size)
    for row, h in zip(rows, hs):
        assert row.tobytes() == grid_difference(f, mant, h).tobytes()
    with pytest.raises(ValueError, match=r"^h=1/18014398509481985 is below the 2\^-53 grid"):
        f.increment_grid(mant, [Fraction(1, 2**54 + 1)])


_OFF_GRID = [2**53 + 5, 2**60, 2**64 - 1]


@pytest.mark.parametrize("m", _OFF_GRID)
@pytest.mark.parametrize("r", [2, 3])
def test_grid_functions_refuse_mantissas_past_the_grid(r, m):
    f = FractalFunction(r, CONST)
    mant = np.array([0, m, 5], dtype=np.uint64)
    calls = [
        lambda: f.eval_grid(mant),
        lambda: f.walk_value_grid(mant, 3),
        lambda: f.increment_grid(mant, [Fraction(1, 8)]),
        lambda: sign_walk_grid(r, mant, 3),
        lambda: match_depth_grid(r, mant, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^grid mantissas must lie below 2\\^53, got {m}$"):
            call()


def test_scale_index():
    assert scale_index(2, Fraction(1, 4)) == 2
    assert scale_index(3, Fraction(1, 9)) == 2
    assert scale_index(3, Fraction(1, 10)) == 2
    assert scale_index(2, Fraction(1, 3)) == 1


def _scale_index_fraction_loop(r, h):
    """The m with r^-(m+1) < h <= r^-m, by repeated Fraction products."""
    m = 0
    acc = h * r
    while acc.numerator <= acc.denominator:
        m += 1
        acc *= r
    return m


@pytest.mark.parametrize("r", [2, 3, 10, 2048])
def test_scale_index_matches_fraction_loop(r):
    hs = []
    for m in range(61):
        p = Fraction(1, r**m)
        hs += [p, p + Fraction(1, GRID), p - Fraction(1, GRID)]
    rng = random.Random(r)
    for _ in range(300):
        den = rng.randint(1, 10 ** rng.randint(1, 40))
        hs.append(Fraction(rng.randint(1, den), den))
    hs = [h for h in hs if 0 < h <= 1]
    assert len(hs) > 200
    for h in hs:
        assert scale_index(r, h) == _scale_index_fraction_loop(r, h), h


def test_match_depth_examples():
    assert match_depth(2, 0, Fraction(1, 4)) == 1
    # crossing the integer boundary kills even the zeroth digit
    assert match_depth(2, 0.9, Fraction(1, 5)) == -1
    assert match_depth(3, Fraction(1, 3), Fraction(1, 9)) == 1


def test_match_depth_shifted_is_a_half_turn():
    assert match_depth_shifted(3, 0, Fraction(1, 9)) == match_depth(
        3, Fraction(1, 2), Fraction(1, 9)
    )
    assert match_depth_shifted(3, Fraction(1, 2), Fraction(1, 27)) == match_depth(
        3, 0, Fraction(1, 27)
    )


def test_match_depth_grid_matches_scalar():
    rng = stream(14)
    mant = uniform_mantissas(rng, 200)
    ell = 5
    got = match_depth_grid(3, mant, ell)
    h = Fraction(1, 3**ell)
    for i in range(mant.size):
        x = Fraction(int(mant[i]), GRID)
        assert got[i] == match_depth(3, x, h)


def test_match_depth_never_exceeds_scale_index():
    rng = stream(15)
    mant = uniform_mantissas(rng, 500)
    for ell in (1, 3, 7):
        k0 = match_depth_grid(2, mant, ell)
        assert int(k0.max()) <= scale_index(2, Fraction(1, 2**ell))


def test_decompose_increment_identity():
    f = FractalFunction(2, CONST)
    d = f.decompose_increment(Fraction(1, 3), Fraction(1, 64), eps=1e-12)
    assert abs(d.residual) <= 4e-12
    assert d.walk_value * float(d.h) == pytest.approx(d.linear, rel=1e-12)


def test_decompose_rejects_large_step():
    f = FractalFunction(2, CONST)
    with pytest.raises(ValueError):
        f.decompose_increment(0.0, Fraction(1, 2))


def test_matched_prefix_moves_linearly():
    """Sawtooth pieces below the linear depth shift by exactly h times the slope.

    For an odd base the distance-to-integer kinks sit at half-cells too, so
    the exact-linearity depth is min(k0, k0_hat), not k0 alone.
    """
    def psi(k: int, y: Fraction) -> Fraction:
        # distance from 3^(k-1) y to the nearest integer, exact
        fr = 3 ** (k - 1) * y % 1
        return min(fr, 1 - fr)

    rng = stream(16)
    for _ in range(25):
        x = Fraction(int(rng.integers(0, GRID)), GRID)
        ell = int(rng.integers(2, 10))
        h = Fraction(1, 3**ell)
        k_lin = min(match_depth(3, x, h), match_depth_shifted(3, x, h))
        slopes = sign_walk(3, x, max(k_lin, 1))
        for k in range(1, k_lin + 1):
            assert psi(k, x + h) - psi(k, x) == h * 3 ** (k - 1) * int(slopes[k - 1])


def test_tail_vanishes_at_grid_step():
    # h = r^-m makes every tail sawtooth difference cancel exactly
    f = FractalFunction(3, CONST)
    for x in (Fraction(1, 7), Fraction(3, 11), 0.6180339887):
        d = f.decompose_increment(x, Fraction(1, 3**9), eps=1e-12)
        assert d.tail == 0.0


def test_decompose_residual_band_random_panel():
    rng = stream(17)
    f = FractalFunction(2, CONST)
    for _ in range(50):
        x = float(rng.random())
        expo = int(rng.integers(2, 30))
        d = f.decompose_increment(x, Fraction(1, 2**expo), eps=1e-12)
        assert abs(d.residual) <= 4e-12


def _reference_terms(f, x: Fraction, n: int) -> list:
    num, den = x.numerator, x.denominator
    terms = []
    rpow = 1
    for a_k in f.weights.values(n).tolist():
        terms.append(a_k * (min(num, den - num) / (den * rpow)) if a_k else 0.0)
        num = num * f.r % den
        rpow *= f.r
    return terms


def _decompose_reference(f, x, h, eps):
    """`decompose_increment` as it ran on Fractions, with the public depth functions."""
    cert = f.certificate(eps)
    r = f.r
    fx = Fraction(x) % 1
    hq = Fraction(h)
    fy = fx + hq
    wrapped = fy >= 1
    if wrapped:
        fy -= 1
    m = scale_index(r, hq)
    k0 = -1 if wrapped else match_depth(r, fx, hq)
    k0_hat = match_depth_shifted(r, fx, hq) if not wrapped else -1
    k_lin = max(k0 if r % 2 == 0 else min(k0, k0_hat), 0)
    walk = float(math.fsum(f.weights.values(k_lin) * sign_walk(r, fx, k_lin))) if k_lin else 0.0
    linear = float(hq) * walk
    n_terms = max(cert.terms, m)
    x_terms, y_terms = _reference_terms(f, fx, n_terms), _reference_terms(f, fy, n_terms)
    diffs = [vy - vx for vx, vy in zip(x_terms, y_terms)]
    midrange = math.fsum(diffs[k_lin:m])
    tail = math.fsum(diffs[m:])
    increment = math.fsum(y_terms) - math.fsum(x_terms)
    return fractal.IncrementDecomposition(
        x=float(fx), h=float(hq), eps=float(eps), m=m, k0=k0, k0_shifted=k0_hat,
        k_lin=k_lin, terms=cert.terms, walk_value=walk, linear=linear, midrange=midrange,
        tail=tail, increment=increment, residual=increment - (linear + midrange + tail),
    )


def _fields(d) -> list:
    """Every field, floats as hex, so bytes and the sign of zero count."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(d)]


def test_decompose_increment_matches_reference_at_criterion_5_points():
    for r, expo_hi in ((2, 20), (3, 12), (10, 8)):
        f = FractalFunction(r, CONST, 1.0)
        rng = stream(5, r)
        ms = rng.integers(0, GRID, size=1_000)
        expos = rng.integers(2, expo_hi + 1, size=1_000)
        for m, e in zip(ms, expos):
            x, h = Fraction(int(m), GRID), Fraction(1, r ** int(e))
            assert _fields(f.decompose_increment(x, h)) == \
                _fields(_decompose_reference(f, x, h, 1e-12)), (r, x, h)


DECOMPOSE_WEIGHTS = [
    (CONST, 1.0),
    (WeightSequence.power(0.5), 0.5),
    (WeightSequence.odd_indicator(), 1.0),
    (WeightSequence.explicit([1.0, 0.0, -2.0, 0.5, 0.0, 0.0, 3.0]), 1.0),
]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 10])
def test_decompose_increment_matches_reference(r):
    """Wrapped x+h, h off the powers of 1/r, x = 0 and 1/2, floats and Fractions."""
    rng = random.Random(r)
    cases = [(0, Fraction(1, r**3)), (Fraction(1, 2), Fraction(1, r**2)),
             (Fraction(1, 2), Fraction(1, 3 * r)), (0.0, 1e-3 / r),
             (Fraction(r - 1, r), Fraction(1, 2 * r)), (0.999, Fraction(1, r**4))]
    for _ in range(60):
        den = rng.randint(2, 10 ** rng.randint(1, 25))
        x = Fraction(rng.randint(-den, 2 * den), den) if rng.random() < 0.7 else rng.random()
        h = Fraction(1, r ** rng.randint(2, 30)) if rng.random() < 0.4 else \
            Fraction(rng.randint(1, den - 1), den * r)
        cases.append((x, h))
    for weights, delta in DECOMPOSE_WEIGHTS:
        f = FractalFunction(r, weights, delta=delta)
        for eps in (1e-12, 1e-6):
            for x, h in cases:
                assert _fields(f.decompose_increment(x, h, eps)) == \
                    _fields(_decompose_reference(f, x, h, eps)), (x, h, eps)
    assert any(Fraction(x) % 1 + Fraction(h) >= 1 for x, h in cases)


_F = FractalFunction(2, CONST, 1.0)
FRACTAL_REFUSALS = {
    "scale-index-h-0": (lambda: scale_index(2, 0), "h must lie in (0, 1], got 0"),
    "scale-index-h-above-1": (lambda: scale_index(2, Fraction(3, 2)),
                              "h must lie in (0, 1], got 3/2"),
    "match-depth-h-0": (lambda: match_depth(2, 0.5, 0), "h must be positive, got 0"),
    "decompose-increment-h-negative": (lambda: _F.decompose_increment(0.5, -0.25),
                                       "h must be positive, got -0.25"),
    "certificate-eps-0": (lambda: _F.certificate(0.0), "eps must be positive, got 0.0"),
    "certificate-eps-below-floor": (
        lambda: _F.certificate(1e-14), "eps=1e-14 is below the float64 evaluation floor (1e-13)"
    ),
}


@pytest.mark.parametrize("call,message", FRACTAL_REFUSALS.values(), ids=FRACTAL_REFUSALS)
def test_fractal_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("x,exact", [(np.float32(0.375), Fraction(3, 8)), (np.int64(3), 3)],
                         ids=["float32", "int64"])
def test_eval_reads_numpy_scalars_exactly(x, exact):
    assert _F.eval(x) == _F.eval(exact)
