"""Weight sequences: generators, energy cache, and assumption checks."""
import math
import re
import tracemalloc

import numpy as np
import pytest

from fractalwalk import WeightSequence, growth_report, validate_assumptions
from fractalwalk.weights import _growth_ok, _ratio_sequence


def test_partial_energy_constant():
    assert WeightSequence.constant().partial_energy(5) == 5.0


def test_partial_energy_linear():
    # 1 + 4 + 9
    assert WeightSequence.power(1.0).partial_energy(3) == 14.0


def test_partial_energy_odd_indicator():
    seq = WeightSequence.odd_indicator()
    assert seq.values(4).tolist() == [1.0, 0.0, 1.0, 0.0]
    assert seq.partial_energy(4) == 2.0


def test_partial_energy_empty_prefix():
    assert WeightSequence.constant().partial_energy(0) == 0.0


def test_energies_match_cumsum():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2.0, 2.0, 50)
    seq = WeightSequence.explicit(a)
    np.testing.assert_allclose(seq.energies(50), np.cumsum(a**2), rtol=1e-13)


# each kind's weights as an int64 index array 1..n once gave them
OLD_INDEX_FORMULAS = {
    "constant": (WeightSequence.constant(2.5), lambda k: np.full(k.shape, 2.5)),
    "power0.3": (WeightSequence.power(0.3), lambda k: k.astype(float) ** 0.3),
    "power0.5": (WeightSequence.power(0.5), lambda k: k.astype(float) ** 0.5),
    "alternating": (WeightSequence.alternating(),
                    lambda k: np.where(k % 2 == 1, 1.0, -1.0)),
    "odd_indicator": (WeightSequence.odd_indicator(),
                      lambda k: (k % 2 == 1).astype(float)),
    "geometric": (WeightSequence.geometric(1.02), lambda k: 1.02 ** k.astype(float)),
    "explicit": (WeightSequence.explicit([3.0, -0.5, 7.25]),
                 lambda k: np.where(k <= 3, np.array([3.0, -0.5, 7.25])[np.minimum(k, 3) - 1],
                                    0.0)),
}


@pytest.mark.parametrize("n", [1, 64, 2**16 + 3])
@pytest.mark.parametrize("seq,old", OLD_INDEX_FORMULAS.values(), ids=OLD_INDEX_FORMULAS)
def test_weights_from_a_count_match_the_index_formula(seq, old, n):
    with np.errstate(over="ignore"):
        want = old(np.arange(1, n + 1, dtype=np.int64))
    assert seq._fn(n).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make",
    [
        WeightSequence.constant,
        lambda: WeightSequence.power(0.3),
        lambda: WeightSequence.explicit(np.random.default_rng(5).uniform(-2.0, 2.0, 10_000)),
        lambda: WeightSequence.geometric(2.0),  # its energies pass float64's range at k = 512
    ],
    ids=["const", "power0.3", "random", "overflow"],
)
def test_energies_summed_in_blocks_match_one_cumsum(make, monkeypatch):
    # blocks of 7: a carry that entered a block after its cumsum would round
    # the longdouble sums otherwise
    monkeypatch.setattr("fractalwalk.weights._SUM_BLOCK", 7)
    seq = make()
    a = seq.values(10_000)
    with np.errstate(over="ignore"):
        want = np.cumsum(np.square(a.astype(np.longdouble))).astype(float)
    assert seq.energies(10_000).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "call,limit",
    [
        (lambda n: WeightSequence.constant().values(n), 9),
        (lambda n: WeightSequence.power(0.3).energies(n), 24),
    ],
    ids=["constant-values", "energies"],
)
def test_weight_arrays_peak_bytes_a_step(call, limit):
    # the values (8 bytes a step) and the energies (8) and one block at a time
    n = 10**6
    tracemalloc.start()
    try:
        call(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit * n


def test_values_cache_is_read_only():
    seq = WeightSequence.constant()
    v = seq.values(10)
    with pytest.raises(ValueError):
        v[0] = 7.0
    # a longer request must not disturb earlier reads
    w = seq.values(100)
    np.testing.assert_array_equal(w[:10], v)


def test_energies_do_not_depend_on_request_order():
    # energies are accumulated lazily from the cached values; the bytes must
    # not depend on which accessor ran first or on how the cache grew
    def fresh():
        return WeightSequence.power(0.3)

    ref = fresh().energies(1000).tobytes()
    seq = fresh()
    seq.values(1000)
    assert seq.energies(1000).tobytes() == ref
    seq = fresh()
    seq.values(10)
    assert seq.energies(1000).tobytes() == ref
    seq = fresh()
    seq.energies(10)
    seq.values(1000)
    assert seq.energies(1000).tobytes() == ref
    assert seq.energies(10).tobytes() == fresh().energies(10).tobytes()


def test_explicit_zero_extension():
    seq = WeightSequence.explicit([1.0, 2.0])
    assert seq.length == 2
    # indices past the stored block are zero weights, not an error
    assert seq.values(4).tolist() == [1.0, 2.0, 0.0, 0.0]
    assert seq.partial_energy(100) == 5.0


def test_single_weight_accessor():
    assert WeightSequence.power(2.0).a(3) == 9.0


def test_from_spec_round_trip():
    for seq in (
        WeightSequence.constant(),
        WeightSequence.power(0.5),
        WeightSequence.alternating(),
        WeightSequence.odd_indicator(),
        WeightSequence.geometric(0.5),
        WeightSequence.explicit([1.0, 0.0, 2.0]),
    ):
        clone = WeightSequence.from_spec(seq.spec)
        assert clone.spec == seq.spec
        np.testing.assert_array_equal(clone.values(3), seq.values(3))


@pytest.mark.parametrize(
    "kind,make",
    [
        ("constant", lambda v: WeightSequence.constant(v)),
        ("power", lambda v: WeightSequence.power(v)),
        ("geometric", lambda v: WeightSequence.geometric(v)),
        ("explicit", lambda v: WeightSequence.explicit([1.0, v, 2.0])),
    ],
    ids=["constant", "power", "geometric", "explicit"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_parameters_are_refused(kind, make, value):
    # const:inf once simulated a walk of NaN sums, and explicit:1,nan
    # certified an error bound of NaN
    with pytest.raises(ValueError, match=f"^{kind} weights need finite parameters"):
        make(value)


def test_validate_constant_unit_ratio():
    # a_n^2 / A_n^0 == 1 everywhere, so the certified constant is exactly 1
    rep = validate_assumptions(WeightSequence.constant(), delta=1.0, n_max=100)
    assert rep.passed
    assert rep.k_hat == 1.0


def test_validate_geometric_growth_fails():
    rep = validate_assumptions(WeightSequence.geometric(2.0), delta=0.5, n_max=60)
    assert not rep.passed


def test_validate_linear_weights_pass():
    # a_n^2 = n^2 against A_n^{2/3} ~ (n^3/3)^{2/3}: bounded ratio
    rep = validate_assumptions(WeightSequence.power(1.0), delta=1.0 / 3.0, n_max=10_000)
    assert rep.passed
    assert np.isfinite(rep.k_hat)


def test_k_hat_dominates_every_ratio():
    seq = WeightSequence.power(1.0)
    delta = 1.0 / 3.0
    rep = validate_assumptions(seq, delta, n_max=500)
    a = seq.values(500)
    energies = seq.energies(500)
    ratios = a**2 / energies ** (1.0 - delta)
    assert rep.k_hat >= ratios.max() - 1e-12


def test_growth_constant_weights():
    rep = growth_report(WeightSequence.constant(), delta=1.0, q=2.0, n0=1, n_max=100)
    assert rep.passed
    assert rep.poly_sup == pytest.approx(1.0)


def test_growth_linear_weights():
    rep = growth_report(WeightSequence.power(1.0), delta=1.0 / 3.0, q=2.0, n_max=1000)
    assert rep.passed


def test_growth_geometric_base_two_vs_q_three():
    # A_{n+1}/A_n -> 4 > 3, so the energy outruns q^n and the polynomial
    # envelope alike; both verdicts must come back negative.
    rep = growth_report(WeightSequence.geometric(2.0), delta=1.0, q=3.0, n_max=40)
    assert not rep.exp_ok
    assert not rep.poly_bounded
    assert not rep.passed


def test_growth_geometric_within_budget():
    # same weights against q=5 > 4: exponential envelope holds
    rep = growth_report(WeightSequence.geometric(2.0), delta=1.0, q=5.0, n_max=40)
    assert rep.exp_ok


def test_one_point_horizon_is_refused():
    # a trend fitted to one point reads slope 0 and passed geometric weights
    seq = WeightSequence.geometric(3.0)
    with pytest.raises(ValueError, match="n_max must be >= 2"):
        validate_assumptions(seq, delta=1.0, n_max=1)
    with pytest.raises(ValueError, match="n_max must be >= 2"):
        growth_report(seq, delta=1.0, q=2.0, n_max=1)
    assert not validate_assumptions(seq, delta=1.0, n_max=2).passed


# -- tail-closure helpers ------------------------------------------------------


def test_ratio_sequence_zero_weight_over_zero_energy_is_zero():
    # 0/0 := 0: leading zero weights have zero energy and must not give NaN
    vals = np.array([0.0, 0.0, 2.0, 0.0])
    ratios = _ratio_sequence(vals, np.cumsum(vals**2), 0.5)
    assert ratios.tolist() == [0.0, 0.0, 2.0, 0.0]


def test_ratio_sequence_delta_one_is_the_squared_weight():
    vals = np.array([3.0, -2.0, 0.0])
    assert _ratio_sequence(vals, np.array([9.0, 13.0, 13.0]), 1.0).tolist() == [9.0, 4.0, 0.0]


def test_growth_ok_refuses_the_nan_steps_of_an_overflowed_energy():
    energies = WeightSequence.geometric(2.0).energies(700)
    assert np.isinf(energies[600])
    log_q = math.log(5.0)  # A_{m+1} / A_m tends to 4
    assert _growth_ok(energies[:500], log_q)
    # past the overflow every log step is inf - inf = NaN: a violation
    assert not _growth_ok(energies[600:], log_q)


def test_growth_ok_slack_is_1e_minus_12():
    energies = np.array([1.0, 2.0])
    step = float(np.log(2.0))
    assert _growth_ok(energies, step)
    assert _growth_ok(energies, step - 5e-13)  # over log q, inside the slack
    assert not _growth_ok(energies, step - 2e-12)


CONST = WeightSequence.constant()
WEIGHTS_REFUSALS = {
    "delta-above-one": (lambda: validate_assumptions(CONST, 1.5),
                        "delta must be in (0, 1], got 1.5"),
    "delta-zero": (lambda: growth_report(CONST, 0.0, 2.0), "delta must be in (0, 1], got 0.0"),
    "geometric-negative": (lambda: WeightSequence.from_spec("geometric:-1"),
                           "geometric base must be positive, got -1.0"),
    "explicit-empty": (lambda: WeightSequence.explicit([]),
                       "explicit weights need a non-empty 1-d array"),
    "alternating-with-a-parameter": (lambda: WeightSequence.from_spec("alternating:3"),
                                     "alternating weights take no parameter, got 'alternating:3'"),
    "unknown-kind": (lambda: WeightSequence.from_spec({"kind": "nope"}),
                     "unknown weight spec {'kind': 'nope'}"),
    "growth-q-one": (lambda: growth_report(CONST, 1.0, 1.0), "q must be > 1, got 1.0"),
    "growth-n0-at-n-max": (lambda: growth_report(CONST, 1.0, 2.0, n0=10, n_max=10),
                           "need n0 < n_max, got n0=10, n_max=10"),
}


@pytest.mark.parametrize("call,message", WEIGHTS_REFUSALS.values(), ids=WEIGHTS_REFUSALS)
def test_weights_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_all_zero_weights_pass_with_a_zero_constant():
    # every ratio is 0/0 := 0, so K_hat is 0 at the first index
    rep = validate_assumptions(WeightSequence.constant(0.0), 0.5, n_max=10)
    assert (rep.k_hat, rep.worst_index, rep.tail_slope, rep.passed) == (0.0, 1, 0.0, True)
