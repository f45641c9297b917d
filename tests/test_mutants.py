"""Mutants that the checks of the package must kill.

Each case replaces one private function with a copy or a wrapper that drops
one rule, runs the check that rule guards and asserts that it fails, and runs
the same check on the unpatched package and asserts that it passes, so a case
cannot "kill" its mutant on a broken baseline.  Functions are patched on their
module with `raising=True`, and dict entries only once the key is asserted
present, so a rename fails here rather than leaving a mutant unapplied.
`origin` names the change that added the rule.
"""
import dataclasses
import hashlib
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstwo

from fractalwalk import (
    FractalFunction,
    WalkParams,
    WeightSequence,
    blocking,
    chung_experiment,
    experiments,
    fractal,
    lil_experiment,
    paths,
    rng,
    validate_assumptions,
    walks,
    weights,
)
from fractalwalk.experiments import UsageError, manifest, normalize_config
from finite_depth import grid_difference, increment_law
from test_blocking import gordin_tail_covers_truncation
from test_cli import _GOLDEN_OUTPUTS, _LIBRARY_CALLS
from test_fractal import _walk_value_in_order, guard_case_matches_general_kernel
from test_limits import (
    POWER,
    _signs,
    fclt_moments_match_exact,
    lockstep_sums,
    screen_matches_histogram,
)
from test_rng import LEFT_PART_WAY, rekeyed_draws_match
from test_walks import CONST, clock_matches_lfilter

ALPHA = 1e-3  # the level of the acceptance tests' statistical checks


def _growth_ok_without_nan_check(energies, log_q):
    with np.errstate(divide="ignore", invalid="ignore"):
        dg = np.diff(np.log(energies))
    return not (dg.size and np.max(dg) > log_q + 1e-12)


def _growth_ok_without_slack(energies, log_q):
    with np.errstate(divide="ignore", invalid="ignore"):
        dg = np.diff(np.log(energies))
    return not (dg.size and (np.isnan(dg).any() or np.max(dg) > log_q))


def _ratio_sequence_without_zero_over_zero(vals, energies, delta):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = np.square(vals)
        if delta == 1.0:
            return sq
        return sq / energies ** (1.0 - delta)


def _raw_weights(val):
    """The old weights parser: a dict spec is stored as given."""
    return dict(val) if isinstance(val, dict) else WeightSequence.from_spec(val).spec


def _truncating_count(val):
    return int(float(val))


def _rekey_keeping_buffer_position(bit_generator, key):
    state = bit_generator.state
    state["state"] = {"counter": np.zeros(4, np.uint64), "key": key}
    bit_generator.state = state


def _constant_run_within_an_ulp(out, x, lo, hi, u, alpha):
    """`walks._constant_run` with a fill that starts on states 1 ulp apart."""
    ts = []
    back2 = back1 = None
    for _ in range(lo, hi):
        if back2 is not None and abs(u - back2) <= math.ulp(back2):
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


def _mark_bins_between_min_and_max(trace, seen):
    """`paths._mark_bins` that takes every bin between the min and max as seen."""
    lo, hi = float(np.min(trace)), float(np.max(trace))
    if math.isnan(lo):
        first, last = -1, seen.size
    else:
        first, last = paths._bin_of(lo), paths._bin_of(hi)
    seen[max(first, 0):min(last, seen.size - 1) + 1] = True


_LOCKSTEP = paths._lockstep


def _lockstep_with_oracles_on_walk_streams(p, a, s_sq, replicas, seed, block):
    """`paths._lockstep` with oracle i on stream i, not replicas + i."""
    stream = rng.stream
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "stream", lambda key, i: stream(key, i % replicas))
        return _LOCKSTEP(p, a, s_sq, replicas, seed, block)


_WALK_BLOCK = paths._walk_block


def _walk_block_shrunk(path, p, a):
    """`paths._walk_block` with the walk steps divided by an extra sqrt(3)."""
    return _WALK_BLOCK(path, p, a) / math.sqrt(3.0)


def _start_index_without_dip_check(clock, what):
    valid = clock > experiments._E_SQUARED
    if not valid.any():
        raise ValueError(f"{what} never exceeds e^2; horizon too short")
    return int(np.argmax(valid))


def _tail_constant_without_energy_factor(seq, n, pad, delta, log_q):
    """`weights._tail_constant` with A_n^{(1-delta)/2} set to 1."""
    energies = seq.energies(n + pad)
    k_hat = float(np.max(weights._ratio_sequence(seq.values(n + pad), energies, delta)))
    if not np.isfinite(k_hat) or not (log_q is None or weights._growth_ok(energies[n - 1:], log_q)):
        return math.inf
    return math.sqrt(k_hat)


_EVAL_GRID_BLOCK = fractal._eval_grid_block


def _eval_grid_block_without_term_5(m, val, scales, ru):
    _EVAL_GRID_BLOCK(m, val, [None if k == 4 else s for k, s in enumerate(scales)], ru)


_EVAL_TENT_BLOCK = fractal._eval_tent_block


def _eval_tent_block_without_term_5(m, val, a):
    _EVAL_TENT_BLOCK(m, val, [0.0 if k == 4 else a_k for k, a_k in enumerate(a)])


def _tent_exact_without_guard(r, terms, scales):
    return r == 2


def _integer_weights_rounding(a):
    """`fractal._integer_weights` that admits every weight, rounded to an integer."""
    return [round(a_k) for a_k in a.tolist()]


def _walk_value_grid_matches_in_order_sum() -> bool:
    f = FractalFunction(3, WeightSequence.power(0.5), 0.5)
    mant = rng.uniform_mantissas(rng.stream(16), 64)
    return f.walk_value_grid(mant, 20).tobytes() == _walk_value_in_order(f, mant, 20).tobytes()


_EXACT_MANTISSA_STEP = fractal._exact_mantissa_step


def _mantissa_step_of_half(h):
    """The grid step of h / 2: fclt's increments at 2^-(idx+1), still scaled by 2^idx."""
    return _EXACT_MANTISSA_STEP(h / 2)


_DRAW_SIGNS = walks._draw_signs


def _draw_signs_forgetting_last(source, p, shape, last=None):
    """`walks._draw_signs` that starts every piece of a path on a fair sign."""
    return _DRAW_SIGNS(source, p, shape)


def _sum_block_adding_the_carry_after(path, b):
    s = np.cumsum(b)
    if path.carry is not None:
        s += path.carry
    path.carry = s[-1]
    return s


def _coverage_for_every_normalization(cfg):
    return {**experiments._resolve_lil(cfg), "coverage": True}


def _clock_past_the_fixed_point_matches() -> bool:
    # alpha = 0.999: about 30,000 steps until the state repeats its bits
    return clock_matches_lfilter(0.9995, CONST, 10**5)


def _screen_sees_a_jump() -> bool:
    return screen_matches_histogram([-0.85, 0.85])


def _increments_follow_exact_law(r: int) -> Callable[[], bool]:
    def check() -> bool:
        # criterion 7 at h = r^-8 on 5000 points
        f = FractalFunction(r, CONST, 1.0)
        h = Fraction(1, r**8)
        mx = rng.uniform_mantissas(rng.stream(0), 5000)
        fit = increment_law(r, 8).distance_to_sample(grid_difference(f, mx, h) / float(h))
        return fit <= float(kstwo.isf(ALPHA, mx.size))
    return check


def _lil_walk_matches_oracle() -> bool:
    # criterion 8's two-sample KS of walk against oracle terminals, at n = 10^5
    rep = lil_experiment(WalkParams(0.75, CONST, 100_000), replicas=50, seed=0)
    rows = np.array(rep.attachments["terminals"]["rows"])
    return bool(ks_2samp(rows[:, 1], rows[:, 2]).pvalue >= ALPHA)


def _fclt_moments_match() -> bool:
    return fclt_moments_match_exact(1000, 5)


def _clock_is_refused(seq: WeightSequence, p: float, message: str) -> Callable[[], bool]:
    def check() -> bool:
        # the mutants run on through the NaN scales the check keeps out
        with np.errstate(all="ignore"):
            try:
                chung_experiment(WalkParams(p, seq, 100_000), replicas=1)
            except ValueError as err:
                return message in str(err)
        return False
    return check


def _gordin_tail_covers_truncation() -> bool:
    return gordin_tail_covers_truncation(0.9)


def _walk_blocks_match_whole_path() -> bool:
    # two blocks of power(0.3) steps: their sums round, so a carry added after
    # the cumsum shows, and a walk that restarts its second block on a fair
    # sign departs from the whole path in one of the three
    params = WalkParams(0.7, POWER, 2 * paths._BLOCK)
    a = POWER.values(params.horizon)
    got = lockstep_sums(params, 3, 4)
    return all(
        got[i].tobytes() == np.cumsum(a * _signs(rng.stream(4, i), 0.7, params.horizon)).tobytes()
        for i in range(3)
    )


def _report_matches_golden(name: str) -> Callable[[], bool]:
    def check() -> bool:
        text = _LIBRARY_CALLS[name]().to_json() + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        return digest == _GOLDEN_OUTPUTS[name]["report.json"]
    return check


def _nan_steps_fail_growth() -> bool:
    # past the overflow of 4^k energies every log step is inf - inf = NaN
    energies = WeightSequence.geometric(2.0).energies(700)
    return not weights._growth_ok(energies[600:], math.log(5.0))


def _growth_within_slack_passes() -> bool:
    return bool(weights._growth_ok(np.array([1.0, 2.0]), math.log(2.0) - 5e-13))


def _leading_zero_weights_pass() -> bool:
    # ratios 0/0 at the two zero-energy steps; K_hat is 2 under 0/0 := 0
    seq = WeightSequence.explicit([0.0, 0.0, 2.0, 0.0])
    return validate_assumptions(seq, delta=0.5, n_max=4).passed


def _weight_spellings_share_a_run() -> bool:
    default = manifest({"experiment": "blocks"}).hash
    return manifest({"experiment": "blocks", "weights": {"kind": "constant"}}).hash == default


def _fractional_horizon_is_refused() -> bool:
    try:
        normalize_config({"experiment": "clt", "n": 2.7})
    except UsageError:
        return True
    return False


def _rekey_after_a_mid_buffer_stop() -> bool:
    return rekeyed_draws_match(LEFT_PART_WAY["doubles-mid-buffer"])


def _zero_variance_is_refused() -> bool:
    # the mutant runs on to a report of NaNs; its divide warns on the map's
    # threads, which numpy's errstate does not reach
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            experiments.clt_experiment(WalkParams(0.75, WeightSequence.explicit([0.0]), 100),
                                       replicas=1000)
        except ValueError as err:
            return str(err).startswith("s_n = 0")
    return False


def _overflowing_profile_is_refused() -> bool:
    # geometric:1.9 energies pass float64's range near k = 553; the mutant's
    # monotone check then meets inf - inf
    with np.errstate(all="ignore"):
        try:
            fractal.variance_profile(2, WeightSequence.geometric(1.9), 1200)
        except ValueError as err:
            return str(err).startswith("the variance profile to depth 1200 is not finite")
    return False


def _on_module(module, name: str, replacement):
    return lambda mp: mp.setattr(module, name, replacement, raising=True)


def _as_parser(key: str, replacement):
    # the parsers dict holds the function objects, so the entry is patched
    def patch(mp):
        assert key in experiments._PARSERS
        mp.setitem(experiments._PARSERS, key, replacement)
    return patch


def _as_resolver(name: str, replacement):
    # a spec holds its resolver function, so the spec entry is replaced
    def patch(mp):
        assert name in experiments.SPECS
        mp.setitem(experiments.SPECS, name,
                   dataclasses.replace(experiments.SPECS[name], resolve=replacement))
    return patch


@dataclass(frozen=True)
class Mutant:
    origin: str
    patch: Callable  # applies the mutant through a monkeypatch fixture
    check: Callable[[], bool]


_TAIL_CLOSURE = "tail-closure checks, commit 206180f"
_ONE_READER = "one reader per weight spec and per integer"
_REKEY = "clt streams keyed in one pass and re-keyed on one Philox"
_STREAMED = "lil and chung streamed in blocks, one thread per CPU"
_AROUND_THE_DRAWS = "walk_mc's work around the Philox draws cut, bit for bit"
_FINITE_SIZE = "finite-size references for criteria 7, 8 and 10, commit b246b1f"
_WRITTEN_ONCE = "lil/chung clock checks and the tail closure written once, commit 094f4dc"
_ONE_DRAW = "one sign draw for every walk, each block a fresh array"
_TENT = "r = 2 grid terms on the exact tent recursion"
_INTEGER_WALKS = "modulus scales on threads, integer-weight slope walks summed exactly"
_ZERO_VARIANCE = "one Gordin corrector path; zero variance refused before any draw"
_FINITE_PROFILE = "one chain walk and one oracle in the engine; an overflowed profile refused"

MUTANTS = {
    "growth-ok-no-nan-check": Mutant(
        _TAIL_CLOSURE, _on_module(weights, "_growth_ok", _growth_ok_without_nan_check),
        _nan_steps_fail_growth,
    ),
    "growth-ok-no-slack": Mutant(
        _TAIL_CLOSURE, _on_module(weights, "_growth_ok", _growth_ok_without_slack),
        _growth_within_slack_passes,
    ),
    "ratio-sequence-no-zero-over-zero": Mutant(
        _TAIL_CLOSURE,
        _on_module(weights, "_ratio_sequence", _ratio_sequence_without_zero_over_zero),
        _leading_zero_weights_pass,
    ),
    "weights-parser-stores-raw-dict": Mutant(
        _ONE_READER, _as_parser("weights", _raw_weights), _weight_spellings_share_a_run,
    ),
    "count-reader-truncates": Mutant(
        _ONE_READER, _as_parser("n", _truncating_count), _fractional_horizon_is_refused,
    ),
    "rekey-keeps-buffer-position": Mutant(
        _REKEY, _on_module(rng, "_rekey", _rekey_keeping_buffer_position),
        _rekey_after_a_mid_buffer_stop,
    ),
    "lil-oracle-on-walk-streams": Mutant(
        _STREAMED,
        _on_module(paths, "_lockstep", _lockstep_with_oracles_on_walk_streams),
        _report_matches_golden("lil-100000-2-1"),
    ),
    "lil-coverage-for-plain-A": Mutant(
        _STREAMED, _as_resolver("lil", _coverage_for_every_normalization),
        _report_matches_golden("lil-100000-2-plain_A"),
    ),
    "clock-fill-within-an-ulp": Mutant(
        _AROUND_THE_DRAWS, _on_module(walks, "_constant_run", _constant_run_within_an_ulp),
        _clock_past_the_fixed_point_matches,
    ),
    "coverage-screen-untested-bins": Mutant(
        _AROUND_THE_DRAWS,
        _on_module(paths, "_mark_bins", _mark_bins_between_min_and_max),
        _screen_sees_a_jump,
    ),
    "eval-grid-drops-term-5": Mutant(
        _FINITE_SIZE,
        _on_module(fractal, "_eval_grid_block", _eval_grid_block_without_term_5),
        # r = 3: at r = 2 eval_grid runs the tent kernel instead
        _increments_follow_exact_law(3),
    ),
    "lil-walk-over-sqrt-3": Mutant(
        _FINITE_SIZE,
        _on_module(paths, "_walk_block", _walk_block_shrunk),
        _lil_walk_matches_oracle,
    ),
    "fclt-increments-at-half-h": Mutant(
        _FINITE_SIZE,
        _on_module(fractal, "_exact_mantissa_step", _mantissa_step_of_half),
        _fclt_moments_match,
    ),
    "tail-constant-without-energy-factor": Mutant(
        _WRITTEN_ONCE,
        _on_module(blocking, "_tail_constant", _tail_constant_without_energy_factor),
        _gordin_tail_covers_truncation,
    ),
    "start-index-without-dip-check": Mutant(
        _WRITTEN_ONCE,
        _on_module(experiments, "_start_index", _start_index_without_dip_check),
        # s_1^2 = 9, then alpha = -0.98 cancels it down to 0.36 for good
        _clock_is_refused(WeightSequence.explicit([3.0, 3.0]), 0.01, "dips below e^2"),
    ),
    "oracles-without-monotone-check": Mutant(
        _WRITTEN_ONCE,
        _on_module(experiments, "_require_monotone", lambda clock: None),
        # s_2^2 = 0.4 < s_1^2 = 1
        _clock_is_refused(CONST, 0.1, "not monotone"),
    ),
    "draw-signs-forgets-last": Mutant(
        _ONE_DRAW,
        _on_module(walks, "_draw_signs", _draw_signs_forgetting_last),
        _walk_blocks_match_whole_path,
    ),
    "prefix-sums-add-the-carry-after": Mutant(
        _ONE_DRAW,
        _on_module(paths, "_sum_block", _sum_block_adding_the_carry_after),
        _walk_blocks_match_whole_path,
    ),
    "eval-grid-tent-drops-term-5": Mutant(
        _TENT,
        _on_module(fractal, "_eval_tent_block", _eval_tent_block_without_term_5),
        _increments_follow_exact_law(2),
    ),
    "tent-kernel-without-guard": Mutant(
        _TENT, _on_module(fractal, "_tent_exact", _tent_exact_without_guard),
        # one weight whose scale a_1 2^-53 is subnormal, so the general kernel
        # rounds it where the tent kernel's a_1 e_1 does not
        lambda: guard_case_matches_general_kernel("subnormal-scale"),
    ),
    "integer-walk-takes-any-weights": Mutant(
        _INTEGER_WALKS, _on_module(fractal, "_integer_weights", _integer_weights_rounding),
        _walk_value_grid_matches_in_order_sum,
    ),
    "zero-variance-not-refused": Mutant(
        _ZERO_VARIANCE, _on_module(experiments, "_require_variance", lambda var, what: None),
        _zero_variance_is_refused,
    ),
    "variance-profile-overflow-not-refused": Mutant(
        _FINITE_PROFILE, _on_module(fractal, "_require_finite", lambda values, what: None),
        _overflowing_profile_is_refused,
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, monkeypatch):
    mutant = MUTANTS[name]
    assert mutant.check(), f"{name}: the check fails on the unpatched package"
    mutant.patch(monkeypatch)
    assert not mutant.check(), f"{name} ({mutant.origin}) survives its check"
