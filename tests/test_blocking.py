"""Blocking scheme, block moments, and the martingale correction."""
import numpy as np
import pytest

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


def test_max_index_guard():
    with pytest.raises(BlockConstructionError):
        build_blocks(CONST, 0.1, 40, max_index=500)


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


def test_block_statistics_horizon_guard():
    scheme = build_blocks(CONST, 1.0, 8)
    params = WalkParams(0.75, CONST, 3)
    path = simulate(params, seed=0)
    with pytest.raises(ValueError):
        block_statistics(params, scheme, path)


def test_block_statistics_weight_mismatch_guard():
    scheme = build_blocks(CONST, 1.0, 6)
    params = WalkParams(0.75, WeightSequence.power(1.0), 20)
    path = simulate(params, seed=0)
    with pytest.raises(ValueError):
        block_statistics(params, scheme, path)


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
    up = gordin_corrector(params, scheme, 3, anchor_sign=1.0)
    dn = gordin_corrector(params, scheme, 3, anchor_sign=-1.0)
    assert up.value == pytest.approx(0.5, abs=1e-10)
    assert dn.value == pytest.approx(-0.5, abs=1e-10)
    assert up.tail_bound <= 1e-10


def test_gordin_tail_bound_covers_truncation():
    seq = WeightSequence.power(0.3)
    scheme = build_blocks(seq, 1.0, 8)
    params = WalkParams(0.8, seq, 10)
    loose = gordin_corrector(params, scheme, 4, tol=1e-4)
    tight = gordin_corrector(params, scheme, 4, tol=1e-12, max_terms=1 << 16)
    assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound


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
        g = gordin_corrector(params, scheme, j, anchor_sign=anchor, tol=tol)
        u[j - 1] = g.value
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
