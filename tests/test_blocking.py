"""Blocking scheme, block moments, and the martingale correction."""
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from fractalwalk import (
    BlockConstructionError,
    CertificationError,
    GordinDecomposition,
    WalkParams,
    WeightSequence,
    block_statistics,
    blocking,
    build_blocks,
    exact_second_moment,
    gordin_corrector,
    martingale_blocks,
    second_moment_profile,
    simulate,
)
from test_cli import _kernel_env

CONST = WeightSequence.constant()


def test_boundaries_constant_weights():
    scheme = build_blocks(CONST, 1.0, 6)
    assert scheme.boundaries.tolist() == [0, 1, 2, 4, 6, 9]
    # cumulative energy at each boundary equals the boundary itself here
    assert scheme.energies.tolist() == [0.0, 1.0, 2.0, 4.0, 6.0, 9.0]


def test_boundaries_are_minimal():
    """One index earlier must fail the energy threshold, strictly."""
    seq = WeightSequence.power(0.5)
    scheme = build_blocks(seq, 0.8, 30)
    b = scheme.boundaries
    en = seq.energies(int(b[-1]) + 1)
    exponent = 1.0 - 0.8 / 2.0
    for j in range(1, scheme.n_blocks):
        base = en[b[j] - 1]
        target = base**exponent
        reached = en[b[j + 1] - 1] - base
        assert reached >= target
        if b[j + 1] - 1 > b[j]:
            assert en[b[j + 1] - 2] - base < target


def test_block_energy_growth_band():
    # (B_{n+1} - B_n) / sqrt(B_n) settles into a unit-order band
    scheme = build_blocks(CONST, 1.0, 130)
    b = scheme.energies
    big = b[:-1] >= 100.0
    ratio = np.diff(b)[big] / np.sqrt(b[:-1][big])
    assert ratio.size > 0
    assert ratio.min() >= 0.8 and ratio.max() <= 1.5


def test_count_guard():
    with pytest.raises(ValueError):
        build_blocks(CONST, 1.0, 1)


def test_finite_weights_exhaust():
    seq = WeightSequence.explicit([1.0, 1.0, 1.0])
    with pytest.raises(BlockConstructionError):
        build_blocks(seq, 1.0, 10)


def test_max_index_guard(monkeypatch):
    monkeypatch.setattr(blocking, "_MAX_INDEX", 500)
    with pytest.raises(BlockConstructionError, match="no index below 500"):
        build_blocks(CONST, 0.1, 40)


def test_delays_from_boundary_energies():
    scheme = build_blocks(CONST, 1.0, 6)
    assert scheme.delays_for(0.5).tolist() == [1, 1, 25, 49, 63, 77]
    assert scheme.delays_for(0.0).tolist() == [1] * 6
    for alpha in (1.0, -1.0, 2.0):
        with pytest.raises(ValueError):
            scheme.delays_for(alpha)


def test_overflowing_boundary_energy_is_refused():
    # 4^k passes float64's range near k = 512, long before 2000 boundaries
    with pytest.raises(BlockConstructionError, match="overflow"):
        build_blocks(WeightSequence.geometric(2.0), 1.0, 2000)


def test_block_sums_memoryless_variances():
    scheme = build_blocks(CONST, 1.0, 8)
    params = WalkParams(0.5, CONST, int(scheme.boundaries[-1]))
    path = simulate(params, seed=4)
    stats = block_statistics(params, scheme, path)
    np.testing.assert_allclose(stats.sigma_sq, np.diff(scheme.boundaries).astype(float))


def test_first_block_variance():
    scheme = build_blocks(CONST, 1.0, 6)
    params = WalkParams(0.75, CONST, int(scheme.boundaries[-1]))
    path = simulate(params, seed=5)
    stats = block_statistics(params, scheme, path)
    assert stats.sigma_sq[0] == pytest.approx(1.0)


def test_block_sums_telescope_to_walk():
    scheme = build_blocks(WeightSequence.power(0.5), 1.0, 12)
    horizon = int(scheme.boundaries[-1])
    params = WalkParams(0.7, WeightSequence.power(0.5), horizon)
    for seed in range(3):
        path = simulate(params, seed=seed)
        stats = block_statistics(params, scheme, path)
        assert stats.y.sum() == pytest.approx(path.sums[horizon], rel=1e-12)


def test_gordin_memoryless_is_zero():
    scheme = build_blocks(CONST, 1.0, 6)
    params = WalkParams(0.5, CONST, 10)
    g = gordin_corrector(params, scheme, 3)
    assert g.value == 0.0 and g.tail_bound == 0.0


def test_gordin_finite_weights_exact():
    seq = WeightSequence.explicit([1.0, 1.0])
    scheme = build_blocks(seq, 1.0, 3)
    params = WalkParams(0.75, seq, 2)
    j_last = scheme.boundaries.size
    assert int(scheme.boundaries[j_last - 1]) == 2
    g = gordin_corrector(params, scheme, j_last)
    # no weight mass past the boundary: the series is empty and certain
    assert g.value == 0.0
    assert g.tail_bound == 0.0


def test_gordin_geometric_series():
    scheme = build_blocks(CONST, 1.0, 6)
    params = WalkParams(0.75, CONST, 10)
    g = gordin_corrector(params, scheme, 3)
    assert g.value == pytest.approx(0.5, abs=1e-10)
    assert g.tail_bound <= 1e-10


def test_gordin_tail_bound_covers_truncation():
    seq = WeightSequence.power(0.3)
    scheme = build_blocks(seq, 1.0, 8)
    params = WalkParams(0.8, seq, 10)
    loose = gordin_corrector(params, scheme, 4, tol=1e-4)
    tight = gordin_corrector(params, scheme, 4, tol=1e-12)
    assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound


def gordin_tail_covers_truncation(p: float) -> bool:
    """Whether u_5 of power(0.25) weights at delta = 0.5 is certified honestly.

    delta < 1 scales the closure by A^{(1-delta)/2}.  alpha^2001 underflows,
    so the 2000-term sum is the whole series: its part past the corrector's
    terms is the truncation the tail bound certifies, and the corrector's sum
    must match the kept head within the rounding bound of a sum of its terms.
    """
    seq = WeightSequence.power(0.25)
    scheme = build_blocks(seq, 0.5, 12)
    params = WalkParams(p, seq, 10)
    g = gordin_corrector(params, scheme, 5)
    h = int(scheme.boundaries[4])
    terms = seq.values(h + 2000)[h:] * params.alpha ** np.arange(2, 2002.0)
    kept, rest = terms[:g.terms], terms[g.terms:]
    rounding = g.terms * 2.0**-53 * math.fsum(np.abs(kept))
    return (0.0 < math.fsum(rest) <= g.tail_bound <= 1e-10
            and abs(g.value - math.fsum(kept)) <= rounding)


@pytest.mark.parametrize("p", [0.75, 0.9])
def test_gordin_tail_bound_covers_truncation_below_delta_one(p):
    assert gordin_tail_covers_truncation(p)


def test_gordin_tail_scans_a_pad_of_its_own_terms():
    # a_k = k at delta = 1 makes K_hat the square of the last scanned index.
    # The corrector scans max(64, K // 4) past h_j + K; the certificate's rule,
    # max(64, n // 4) past its n terms, would scan further here.
    seq = WeightSequence.power(1.0)
    scheme = build_blocks(seq, 1.0, 8)
    params = WalkParams(0.9, seq, 10)
    g = gordin_corrector(params, scheme, 8, tol=1e-14)
    end = int(scheme.boundaries[7]) + g.terms
    assert end // 4 > max(64, g.terms // 4)
    rho = abs(params.alpha)
    closure = 2.0 * rho ** (g.terms + 1) * rho / (1.0 - rho)
    assert math.isclose(g.tail_bound, (end + max(64, g.terms // 4)) * closure, rel_tol=1e-12)


def test_gordin_refuses_energy_growth_past_one_over_alpha():
    # A_{m+1}/A_m tends to 2.25 > 1/|alpha| = 2: no geometric closure exists
    seq = WeightSequence.geometric(1.5)
    with pytest.raises(CertificationError):
        gordin_corrector(WalkParams(0.75, seq, 10), build_blocks(seq, 0.5, 12), 5)


def test_gordin_budget_exhaustion():
    params = WalkParams(0.99, CONST, 10)
    scheme = build_blocks(CONST, 1.0, 6)
    with pytest.raises(CertificationError):
        gordin_corrector(params, scheme, 1, tol=1e-300)


def test_xi_equals_block_sums_when_memoryless():
    scheme = build_blocks(CONST, 1.0, 8)
    params = WalkParams(0.5, CONST, int(scheme.boundaries[-1]))
    path = simulate(params, seed=6)
    dec = martingale_blocks(params, scheme, path)
    np.testing.assert_array_equal(dec.xi, dec.y)
    assert dec.residual == 0.0


def test_telescoping_identity():
    scheme = build_blocks(CONST, 1.0, 14)
    horizon = int(scheme.boundaries[-1])
    params = WalkParams(0.75, CONST, horizon)
    tol = 1e-10
    for seed in range(5):
        path = simulate(params, seed=seed)
        dec = martingale_blocks(params, scheme, path, tol=tol)
        assert abs(dec.residual) <= 2 * scheme.n_blocks * tol


def _martingale_blocks_per_j(params, scheme, path, tol):
    """Reference: one certified corrector per boundary, at this path's anchor."""
    stats = block_statistics(params, scheme, path)
    m = scheme.n_blocks
    u = np.zeros(m + 1)
    tails = np.zeros(m + 1)
    for j in range(2, m + 2):
        h_j = int(scheme.boundaries[j - 1])
        anchor = float(path.signs[h_j - 1])
        g = gordin_corrector(params, scheme, j, tol=tol)
        # memoryless: u_j is +0.0 whatever the anchor, never -0.0
        u[j - 1] = anchor * g.value if params.alpha != 0.0 else g.value
        tails[j - 1] = g.tail_bound
    xi = stats.y - u[:-1] + u[1:]
    residual = float(np.sum(stats.y) - (np.sum(xi) + u[0] - u[-1]))
    return GordinDecomposition(xi=xi, u=u, y=stats.y, tail_bounds=tails, residual=residual)


EXPLICIT = WeightSequence.explicit([1.0 + 0.5 * (k % 3) for k in range(80)])


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize(
    "weights, count", [(CONST, 14), (EXPLICIT, 12)], ids=["const", "explicit"]
)
def test_martingale_blocks_matches_per_j_reference(p, weights, count):
    scheme = build_blocks(weights, 1.0, count)
    params = WalkParams(p, weights, int(scheme.boundaries[-1]))
    for tol in (1e-10, 1e-20):  # two plans on one scheme; 1e-20 needs more terms
        for i in range(20):
            path = simulate(params, seed=3, stream_id=i)
            got = martingale_blocks(params, scheme, path, tol=tol)
            want = _martingale_blocks_per_j(params, scheme, path, tol)
            for name in ("xi", "u", "y", "tail_bounds"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()


# weights whose corrector terms a BLAS dot once summed in its kernel's own
# order: (weights, count, tol), and the sha256 of the plan certified at
# p = 0.75, its values u_j / X_{h_j} and then its tail bounds
_PLAN_CASES = {
    "power:0.3": (WeightSequence.power(0.3), 30, 1e-8),
    "explicit": (EXPLICIT, 12, 1e-10),
}
_PLAN_DIGESTS = {
    "power:0.3": "29f14217ba139a70f389b25f58b306eba89fdd3c60b8e06c66990c55f2be43aa",
    "explicit": "f4d3c78c0032ccd713ddda5c0861c396b1cda417f0cc447c23fd8557e620ab0e",
}


def _plan_digests() -> dict:
    digests = {}
    for name, (weights, count, tol) in _PLAN_CASES.items():
        scheme = build_blocks(weights, 1.0, count)
        params = WalkParams(0.75, weights, int(scheme.boundaries[-1]))
        u, tails = blocking._corrector_plan(params, scheme, tol)
        digests[name] = hashlib.sha256(u.tobytes() + tails.tobytes()).hexdigest()
    return digests


@functools.cache
def _plan_digests_under(kernel: str) -> dict:
    if kernel == "this-process":
        return _plan_digests()
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, test_blocking; print(json.dumps(test_blocking._plan_digests()))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
             **_kernel_env(kernel)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# The power:0.3 pin was recorded with numpy's AVX512_SKX power loop, which
# rounds some k ** -0.3 otherwise than the scalar loop: there the weights
# themselves move, before the corrector sees them.
_SCALAR_POWER = pytest.mark.xfail(
    strict=True, reason="power:0.3 weights from np.power's scalar loop differ in the last bit"
)


@pytest.mark.parametrize(
    "kernel,name",
    [
        pytest.param(kernel, name, id=f"{kernel}-{name}",
                     marks=_SCALAR_POWER if name == "power:0.3" and (
                         kernel == "numpy-without-avx512" or not __cpu_features__.get("AVX512_SKX"))
                     else ())
        for kernel in ("this-process", "openblas-prescott", "numpy-without-avx512")
        for name in _PLAN_CASES
    ],
)
def test_corrector_plans_hold_on_other_cpu_kernels(kernel, name):
    assert _plan_digests_under(kernel)[name] == _PLAN_DIGESTS[name]


def test_martingale_blocks_certifies_once_per_scheme(monkeypatch):
    calls = []
    real = blocking.gordin_corrector

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(blocking, "gordin_corrector", counting)
    scheme = build_blocks(CONST, 1.0, 51)
    params = WalkParams(0.75, CONST, int(scheme.boundaries[-1]))
    for i in range(200):
        martingale_blocks(params, scheme, simulate(params, seed=2, stream_id=i))
    assert sorted(calls) == list(range(2, scheme.n_blocks + 2))


def test_martingale_blocks_uncertifiable_tol_raises_every_call():
    scheme = build_blocks(CONST, 1.0, 14)
    params = WalkParams(0.75, CONST, int(scheme.boundaries[-1]))
    path = simulate(params, seed=0)
    for _ in range(3):
        with pytest.raises(CertificationError):
            martingale_blocks(params, scheme, path, tol=1e-300)
        # a plan certified at another tol must not stand in for this one
        dec = martingale_blocks(params, scheme, path, tol=1e-10)
        assert abs(dec.residual) <= 2 * scheme.n_blocks * 1e-10


def test_corrected_blocks_are_centered():
    """Per-block and pooled means of xi over 1e4 paths sit within 3 SE of 0.

    The max over 50 per-block z-scores trips 3 SE for about one seed in
    eight under the true hypothesis; this frozen stream family is checked
    against both readings.
    """
    scheme = build_blocks(CONST, 1.0, 51)
    horizon = int(scheme.boundaries[-1])
    params = WalkParams(0.75, CONST, horizon)
    xis = np.empty((10_000, scheme.n_blocks))
    for i in range(10_000):
        path = simulate(params, seed=1, stream_id=i)
        xis[i] = martingale_blocks(params, scheme, path).xi
    se = xis.std(axis=0, ddof=1) / np.sqrt(xis.shape[0])
    z = np.abs(xis.mean(axis=0)) / se
    assert float(z.max()) <= 3.0
    flat = xis.ravel()
    assert abs(flat.mean()) <= 3.0 * flat.std(ddof=1) / np.sqrt(flat.size)


def test_variance_matching_across_boundaries():
    """Exact block variances track the s^2 increments once blocks are long."""
    scheme = build_blocks(CONST, 1.0, 220)
    b = scheme.boundaries
    prof = second_moment_profile(0.75, CONST, int(b[-1]))
    checked = 0
    for j in range(scheme.n_blocks):
        if scheme.energies[j] < 1e4:
            continue
        sig = exact_second_moment(0.75, CONST, int(b[j]), int(b[j + 1]))
        s_lo = prof[int(b[j]) - 1]
        s_hi = prof[int(b[j + 1]) - 1]
        assert abs((s_hi - s_lo) / sig - 1.0) <= 0.05
        checked += 1
    assert checked >= 2


def test_gordin_size_diagnostic_bounded():
    scheme = build_blocks(CONST, 1.0, 60)
    params = WalkParams(0.75, CONST, int(scheme.boundaries[-1]))
    worst = 0.0
    for j in range(2, scheme.boundaries.size + 1):
        g = gordin_corrector(params, scheme, j)
        db = scheme.energies[j - 1] - scheme.energies[j - 2]
        denom = np.sqrt(db) * scheme.energies[j - 1] ** (-1.0 / 8.0)
        worst = max(worst, abs(g.value) / denom)
    assert worst < 2.0


def test_block_lln_over_seeds():
    """Sum of squared block sums approximates the walk variance at scale."""
    scheme = build_blocks(CONST, 1.0, 210)
    horizon = int(scheme.boundaries[-1])
    params = WalkParams(0.75, CONST, horizon)
    s_sq = exact_second_moment(0.75, CONST, 0, horizon)
    assert scheme.energies[-1] >= 1e4
    vals = []
    for seed in range(20):
        path = simulate(params, seed=7, stream_id=seed)
        stats = block_statistics(params, scheme, path)
        vals.append(float(np.sum(stats.y**2)))
    assert abs(float(np.mean(vals)) - s_sq) / s_sq <= 0.1


_SCHEME = build_blocks(CONST, 1.0, 6)  # boundaries 0, 1, 2, 4, 6, 9
BLOCKING_REFUSALS = {
    "corrector-j-0": (
        lambda: gordin_corrector(WalkParams(0.75, CONST, 10), _SCHEME, 0),
        "boundary index j must be in 1..6",
    ),
    "corrector-j-past-M+1": (
        lambda: gordin_corrector(WalkParams(0.75, CONST, 10), _SCHEME, 7),
        "boundary index j must be in 1..6",
    ),
    "martingale-blocks-short-path": (
        lambda: martingale_blocks(WalkParams(0.75, CONST, 5), _SCHEME,
                                  simulate(WalkParams(0.75, CONST, 5), 0)),
        "path horizon 5 shorter than last boundary 9",
    ),
    "block-statistics-short-path": (
        lambda: block_statistics(WalkParams(0.75, CONST, 3), _SCHEME,
                                 simulate(WalkParams(0.75, CONST, 3), 0)),
        "path horizon 3 shorter than last boundary 9",
    ),
    "block-statistics-weight-mismatch": (
        lambda: block_statistics(WalkParams(0.75, WeightSequence.power(1.0), 20), _SCHEME,
                                 simulate(WalkParams(0.75, WeightSequence.power(1.0), 20), 0)),
        "walk and blocking scheme use different weights",
    ),
}


@pytest.mark.parametrize("call,message", BLOCKING_REFUSALS.values(), ids=BLOCKING_REFUSALS)
def test_blocking_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
