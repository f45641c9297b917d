"""Fractal surface: certified evaluation, digit machinery, increment algebra."""
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from fractalwalk import (
    FractalFunction,
    WeightSequence,
    dist_nearest_int,
    match_depth,
    match_depth_shifted,
    match_depth_grid,
    sawtooth_slope,
    scale_index,
    sign_walk,
    sign_walk_grid,
    stream,
    uniform_mantissas,
)
from fractalwalk import fractal
from fractalwalk.fractal import _EVAL_BLOCK, _WALK_BLOCK
from fractalwalk.rng import GRID

CONST = WeightSequence.constant()


def test_dist_nearest_int_values():
    assert dist_nearest_int(0.3) == pytest.approx(0.3)
    assert dist_nearest_int(0.5) == 0.5
    assert dist_nearest_int(1.7) == pytest.approx(0.3)


def test_sawtooth_slope_signs():
    assert sawtooth_slope(2, 1, 0.1) == 1
    assert sawtooth_slope(2, 1, 0.6) == -1
    # frac(3 * 0.2) = 0.6 lands on the falling branch
    assert sawtooth_slope(3, 2, 0.2) == -1


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


CPU_COUNTS = (1, 2, 3)


@pytest.mark.parametrize("r", [2, 3, 10, 2048])
@pytest.mark.parametrize("weights,delta", GRID_WEIGHTS, ids=["constant", "power", "odd"])
def test_eval_grid_blocks_match_reference(r, weights, delta, monkeypatch):
    """Byte for byte at sizes around the block edges, on 1, 2 and 3 threads.

    The reference is elementwise, so its prefix is the prefix's reference.
    """
    f = FractalFunction(r, weights, delta=delta)
    B = _EVAL_BLOCK
    mant = uniform_mantissas(stream(14), 3 * B + 7)
    want = _eval_grid_reference(f, mant, 1e-12)
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(fractal, "_usable_cpus", lambda: cpus)
        for size in (0, 1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7):
            got = f.eval_grid(mant[:size], eps=1e-12)
            assert got.shape == (size,)
            assert got.tobytes() == want[:size].tobytes(), (cpus, size)


def test_eval_grid_strided_input_matches_reference(monkeypatch):
    f = FractalFunction(3, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(15), 4 * _EVAL_BLOCK + 10)[::3]
    assert not mant.flags.c_contiguous
    want = _eval_grid_reference(f, mant, 1e-12)
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(fractal, "_usable_cpus", lambda: cpus)
        assert f.eval_grid(mant, eps=1e-12).tobytes() == want.tobytes(), cpus


def test_eval_grid_concurrent_callers_match_serial(monkeypatch):
    """Two caller threads on one function, each running its blocks on two
    threads, get the bytes of serial calls."""
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 2)
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


def test_sign_walk_grid_matches_scalar():
    rng = stream(12)
    mant = uniform_mantissas(rng, 50)
    for r in (2, 3):
        grid = sign_walk_grid(r, mant, 8)
        for i in range(mant.size):
            x = Fraction(int(mant[i]), GRID)
            np.testing.assert_array_equal(grid[:, i], sign_walk(r, x, 8))


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


@pytest.mark.parametrize("n", [1, 20, 48])
def test_walk_value_grid_blocks_match_reference(n):
    """Byte for byte against one product with the full sign matrix.

    The sizes are multiples of 8, where that product, too, has no remainder
    rows for BLAS to sum in another order.
    """
    f = FractalFunction(3, WeightSequence.power(0.5), delta=0.5)
    mant = uniform_mantissas(stream(16), 2 * _WALK_BLOCK + 8)
    a = f.weights.values(n)
    for size in (0, 8, _WALK_BLOCK, 2 * _WALK_BLOCK + 8):
        got = f.walk_value_grid(mant[:size], n)
        want = a @ sign_walk_grid(3, mant[:size], n).astype(float)
        assert got.tobytes() == want.tobytes(), size


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
    from fractalwalk.fractal import _sawtooth_frac

    def dist(fr: Fraction) -> Fraction:
        return min(fr, 1 - fr)

    rng = stream(16)
    for _ in range(25):
        x = Fraction(int(rng.integers(0, GRID)), GRID)
        ell = int(rng.integers(2, 10))
        h = Fraction(1, 3**ell)
        k_lin = min(match_depth(3, x, h), match_depth_shifted(3, x, h))
        for k in range(1, k_lin + 1):
            lhs = dist(_sawtooth_frac(3, k, x + h)) - dist(_sawtooth_frac(3, k, x))
            assert lhs == h * 3 ** (k - 1) * sawtooth_slope(3, k, x)


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
