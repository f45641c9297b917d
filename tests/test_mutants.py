"""Mutants that the checks of the package must kill.

Each case replaces one private function with a copy that drops one rule,
runs the check that rule guards and asserts that it fails, and runs the same
check on the unpatched package and asserts that it passes, so a case cannot
"kill" its mutant on a broken baseline.  Functions are patched on their
module with `raising=True`, and dict entries only once the key is asserted
present, so a rename fails here rather than leaving a mutant unapplied.
`origin` names the change that added the rule.
"""
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from fractalwalk import WeightSequence, experiments, rng, validate_assumptions, weights
from fractalwalk.experiments import UsageError, manifest, normalize_config
from test_rng import LEFT_PART_WAY, rekeyed_draws_match


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


def _on_module(module, name: str, replacement):
    return lambda mp: mp.setattr(module, name, replacement, raising=True)


def _as_parser(key: str, replacement):
    # the parsers dict holds the function objects, so the entry is patched
    def patch(mp):
        assert key in experiments._PARSERS
        mp.setitem(experiments._PARSERS, key, replacement)
    return patch


@dataclass(frozen=True)
class Mutant:
    origin: str
    patch: Callable  # applies the mutant through a monkeypatch fixture
    check: Callable[[], bool]


_TAIL_CLOSURE = "tail-closure checks, commit 206180f"
_ONE_READER = "one reader per weight spec and per integer"
_REKEY = "clt streams keyed in one pass and re-keyed on one Philox"

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
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, monkeypatch):
    mutant = MUTANTS[name]
    assert mutant.check(), f"{name}: the check fails on the unpatched package"
    mutant.patch(monkeypatch)
    assert not mutant.check(), f"{name} ({mutant.origin}) survives its check"
