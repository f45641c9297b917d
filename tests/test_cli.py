"""Command-line surface: weight-spec parsing, config canon, exit codes, layout."""
import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fractalwalk import (
    FractalFunction,
    WalkParams,
    WeightSequence,
    build_blocks,
    exact_second_moment,
    experiments,
    growth_report,
    paths,
    rng,
    scale_index,
    sign_walk,
    sign_walk_grid,
    stream,
    variance_profile,
    walks,
)
from fractalwalk.cli import EXPERIMENTS, UsageError, main, normalize_config, run
from fractalwalk.experiments import manifest, parse_step
from fractalwalk.reports import canonical_json


# -- weight spec parsing ------------------------------------------------------


def test_parse_weight_spec_names():
    assert WeightSequence.from_spec("const").spec == {"kind": "constant", "c": 1.0}
    assert WeightSequence.from_spec("const:2.5").spec == {"kind": "constant", "c": 2.5}
    assert WeightSequence.from_spec("power:0.5").spec == {"kind": "power", "exponent": 0.5}
    assert WeightSequence.from_spec("alternating").spec == {"kind": "alternating"}
    assert WeightSequence.from_spec("odd").spec == {"kind": "odd_indicator"}
    assert WeightSequence.from_spec("odd-indicator").spec == {"kind": "odd_indicator"}
    assert WeightSequence.from_spec("geometric:2").spec == {"kind": "geometric", "base": 2.0}
    assert WeightSequence.from_spec("explicit:1,2,3").spec == {
        "kind": "explicit",
        "values": [1.0, 2.0, 3.0],
    }


def test_parse_weight_spec_json_and_dict():
    spec = {"kind": "power", "exponent": 1.0}
    assert WeightSequence.from_spec(json.dumps(spec)).spec == spec
    assert WeightSequence.from_spec(spec).spec == spec


def test_parse_weight_spec_errors():
    with pytest.raises(UsageError):
        normalize_config({"experiment": "clt", "weights": "power"})
    with pytest.raises(UsageError):
        normalize_config({"experiment": "clt", "weights": "bogus"})


@pytest.mark.parametrize(
    "spec,err",
    [
        ('{"kind":"power","exponent":0.5,"foo":1}', "power weights take no parameter 'foo'"),
        ('{"kind":"power"}', "power weights need a value for 'exponent'"),
        ('{"kind":"power","exponent":[0.5]}', "power weights cannot read exponent=[0.5]"),
        ('{"kind":"explicit","values":[[1,2]]}', "explicit weights cannot read values=[[1, 2]]"),
    ],
    ids=["unknown-key", "missing-parameter", "list-parameter", "nested-values"],
)
def test_malformed_json_weight_spec_is_refused_in_one_line(spec, err, tmp_path, capsys):
    # each once ended in a TypeError traceback from the weight constructor
    args = ["simulate", "--n", "10", "--weights", spec, "--outdir", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + err]
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize(
    "args",
    [["modulus", "--h-grid", "1/0"], ["eval", "--x", "1/0"], ["eval", "--x", "2^-0.5"],
     ["eval", "--x", "2^-100000"], ["modulus", "--h-grid", "10^-10000000"]],
    ids=["h-grid-1/0", "x-1/0", "x-2^-0.5", "x-2^-100000", "h-grid-10^-10000000"],
)
def test_unreadable_steps_are_refused_in_one_line(args, tmp_path, capsys):
    # 1/0 once died in a ZeroDivisionError traceback, and 2^-0.5 printed
    # int()'s complaint about '-0.5' without naming the step; 2^-100000
    # printed Python's int-to-text digit limit without naming the step, and
    # 10^-10000000 spent seconds computing its power first
    assert main(args + ["--outdir", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot read the step '{args[-1]}'")


def test_parse_step():
    assert parse_step("2^-20") == Fraction(1, 2**20)
    assert parse_step("1/8") == Fraction(1, 8)
    assert parse_step("0.25") == Fraction(1, 4)
    assert parse_step(Fraction(3, 7)) == Fraction(3, 7)
    assert parse_step("2^-14284") == Fraction(1, 2**14284)  # 4300 digits
    with pytest.raises(UsageError, match="more than 4300 digits"):
        parse_step("2^-14285")


# -- config canon -------------------------------------------------------------


def test_normalize_config_idempotent():
    cfg = normalize_config({"experiment": "clt", "p": "0.6", "replicas": "2000"})
    assert cfg["p"] == 0.6 and cfg["replicas"] == 2000
    assert normalize_config(cfg) == cfg


def test_normalize_config_round_trips_through_json():
    cfg = normalize_config(
        {"experiment": "modulus", "h_grid": "2^-5,2^-9", "x_samples": "500"}
    )
    text = canonical_json(cfg)
    assert canonical_json(normalize_config(json.loads(text))) == text


def test_normalize_config_rejects_unknown():
    with pytest.raises(UsageError):
        normalize_config({"experiment": "clt", "bogus_key": 1})
    with pytest.raises(UsageError):  # thread counts are not configurable
        normalize_config({"experiment": "clt", "workers": 4})
    with pytest.raises(UsageError):
        normalize_config({"experiment": "nonesuch"})
    with pytest.raises(UsageError):
        normalize_config({"p": 0.5})


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "clt", "replicas": None, "n": 100},
        {"experiment": "clt", "p": None, "n": 100, "replicas": 1000},
        {"experiment": "modulus", "h_grid": None},
        {"experiment": "lil", "normalization": None},
    ],
    ids=["clt-replicas", "clt-p", "modulus-h-grid", "lil-normalization"],
)
def test_null_is_refused_where_the_default_is_not_null(raw):
    # a JSON null once passed normalization and crashed the run with a TypeError
    key = next(k for k, v in raw.items() if v is None)
    with pytest.raises(UsageError, match=f"^{key} needs a value"):
        normalize_config(raw)


def test_null_keeps_a_null_default():
    for kind, keys in [("lil", ("band", "min_fraction")), ("blocks", ("p",)),
                       ("validate-weights", ("n0",))]:
        raw = {"experiment": kind, **dict.fromkeys(keys)}
        assert normalize_config(raw) == normalize_config({"experiment": kind})


@pytest.mark.parametrize("value", [2.7, "2.7", 1e400, math.nan, "ten", [5], "1e400"])
def test_counts_are_refused_rather_than_truncated(value):
    with pytest.raises(UsageError, match="is not an integer"):
        normalize_config({"experiment": "clt", "n": value})


def test_integral_counts_keep_their_hash():
    # JSON reads 1e6 as a float; it names the same run as 1000000
    raw = json.loads('{"experiment": "lil", "n": 1e6, "replicas": 50.0}')
    assert normalize_config(raw) == normalize_config({"experiment": "lil"})
    assert manifest(raw).hash == manifest({"experiment": "lil"}).hash
    # and a flag, a string, names it as the JSON number does
    for n in ("1e3", "1000.0", 1e3):
        assert manifest({"experiment": "clt", "n": n}).hash == \
            manifest({"experiment": "clt", "n": "1000"}).hash


def test_library_call_refuses_a_fractional_count():
    with pytest.raises(UsageError, match="1000.9 is not an integer"):
        experiments.clt_experiment(WalkParams(0.75, WeightSequence.constant(), 100),
                                   replicas=1000.9)


@pytest.mark.parametrize("value", [2.7, True], ids=["fractional", "boolean"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: WalkParams(0.75, _CONST, v),
        lambda v: _CONST.values(v),
        lambda v: _CONST.energies(v),
        lambda v: variance_profile(v, _CONST, 5),
        lambda v: variance_profile(3, _CONST, v),
        lambda v: build_blocks(_CONST, 1.0, v),
        lambda v: exact_second_moment(0.75, _CONST, v, 10),
        lambda v: exact_second_moment(0.75, _CONST, 0, v),
        lambda v: sign_walk(v, Fraction(1, 3), 5),
        lambda v: sign_walk_grid(2, [1], v),
        lambda v: scale_index(v, Fraction(1, 8)),
        lambda v: growth_report(_CONST, 1.0, 2.0, n_max=v),
        lambda v: growth_report(_CONST, 1.0, 2.0, n0=v, n_max=100),
        lambda v: stream(v),
    ],
    ids=["WalkParams-horizon", "values", "energies", "variance_profile-r",
         "variance_profile-n_max", "build_blocks-count", "exact_second_moment-m",
         "exact_second_moment-n", "sign_walk-r", "sign_walk_grid-n", "scale_index-r",
         "growth_report-n_max", "growth_report-n0", "stream-seed"],
)
def test_library_calls_refuse_a_non_integral_count(call, value):
    # each once ran at the truncated value: WalkParams(0.75, w, 2.7) at
    # horizon 2, variance_profile(3.9, w, 5) at r = 3, stream(1.5) as stream(1)
    with pytest.raises(ValueError, match=f"must be an integer, got {value}"):
        call(value)


@pytest.mark.parametrize(
    "call,err",
    [
        (lambda: sign_walk_grid(2, [1], -1), "n must be >= 1, got -1"),
        (lambda: sign_walk_grid(2, [1], 0), "n must be >= 1, got 0"),
        (lambda: WalkParams(0.75, _CONST, 0), "horizon must be >= 1, got 0"),
        (lambda: stream(0, -1), "stream_id must be >= 0, got -1"),
    ],
    ids=["sign_walk_grid-negative-n", "sign_walk_grid-zero-n", "WalkParams-zero-horizon",
         "stream-negative-id"],
)
def test_library_calls_refuse_a_count_below_its_bound(call, err):
    # sign_walk_grid once raised numpy's "negative dimensions" for n = -1
    with pytest.raises(ValueError, match=err):
        call()


@pytest.mark.parametrize(
    "config,err",
    [
        ({"replicas": None, "n": 100}, "error: replicas needs a value, got null"),
        ({"p": None, "n": 100, "replicas": 1000}, "error: p needs a value, got null"),
        ({"n": 2.7, "replicas": 1000}, "error: 2.7 is not an integer"),
        ({"n": True, "replicas": 1000}, "error: True is not an integer"),
    ],
    ids=["null-replicas", "null-p", "fractional-n", "boolean-n"],
)
def test_config_file_values_are_refused_in_one_line(config, err, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["clt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [err]
    assert not list(tmp_path.rglob("report.json"))


def test_config_file_null_p_runs_blocks_without_delays(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"p": None, "count": 5}))
    assert main(["blocks", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0


# manifest hash of each experiment's default config, recorded before the
# defaults moved into the runners' signatures
_DEFAULT_HASHES = {
    "eval": "b6056e30e0ab25a215a2d5b9147c49479921396e517f51f6b855636f5788010d",
    "simulate": "1c8d5729c7c54b1eceb4867d762e385f32c3b09a341000c9432acd22d934e290",
    "blocks": "0efd30ca7c8ebe91d2b1b641b2b76d087e09f231299340b6bbe37715aef38cc2",
    "validate-weights": "9466d95a7c811bb0e27bb574ddd98c2fe7f4a353da144f6ca49374fffa8f2d9c",
    "clt": "9c7c95c7eb920d2e0a6c2237cf16bfec080ab57a8e4e0fca4b61751e6317ccb5",
    "lil": "e6f5020185531543fde6470021977f78e3e20f02b7733c5a3f2889bcd09fc506",
    "chung": "885262c4d95bb3a9aaa679a58e09033312c47d67f663e2ec469adf2143e6034d",
    "modulus": "dbd170464032ce3b4784d5b7700d268f12144d1260c5cedaad56e2e79b26d764",
    "fclt": "c1b958f0d9a5718f02719d3c992667bd1918cb6b17c5b2fe8869f93a4eac0679",
}


@pytest.mark.parametrize(
    "name,fn", [(name, getattr(experiments, spec.runner)) for name, spec in experiments.SPECS.items()]
)
def test_experiment_defaults_match_cli_defaults(name, fn):
    # a CLI run with no flags and a library call that passes no keyword both
    # name the recorded default run, so a changed, added or dropped default
    # fails here
    spec = experiments.SPECS[name]
    cli_config = normalize_config({"experiment": name})
    assert manifest(cli_config).hash == _DEFAULT_HASHES[name]
    source = [] if spec.source is None else [experiments._source(spec.source, cli_config)]
    keywords = list(inspect.signature(fn).parameters.values())[len(source):]
    library_config = experiments._config(name, *source, **{p.name: p.default for p in keywords})
    assert spec.manifest(library_config).hash == _DEFAULT_HASHES[name]


def test_manifest_hash_ignores_workers(monkeypatch):
    # the thread count is the usable-CPU count, never part of the config
    base = {"experiment": "clt", "p": 0.75, "replicas": 2000}
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    m1 = manifest(base)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 4)
    m4 = manifest(base)
    assert m1.hash == m4.hash
    assert manifest(normalize_config(base)).hash == m1.hash
    with pytest.raises(UsageError):
        manifest({**base, "workers": 4})
    bumped = manifest({**base, "replicas": 4000})
    assert bumped.hash != m1.hash


# one small config per experiment, plus the lil defaults that depend on the
# normalization and an explicit band
_SMALL_CONFIGS = [
    {"experiment": "eval", "x": "1/3"},
    {"experiment": "simulate", "n": 50, "seed": 2},
    {"experiment": "blocks", "count": 8, "p": 0.75},
    {"experiment": "validate-weights", "n_max": 500},
    {"experiment": "clt", "n": 100, "replicas": 1000, "seed": 1},
    {"experiment": "lil", "n": 100_000, "replicas": 2, "seed": 1},
    {"experiment": "lil", "n": 100_000, "replicas": 2, "normalization": "plain_A"},
    {"experiment": "lil", "n": 100_000, "replicas": 2, "band": "0.4,1.3",
     "min_fraction": 0.5},
    {"experiment": "chung", "n": 100_000, "replicas": 2, "seed": 1},
    {"experiment": "modulus", "h_grid": "2^-3,2^-6", "x_samples": 1000},
    {"experiment": "fclt", "n": 12, "x_samples": 1000},
]


def _config_id(config: dict) -> str:
    return "-".join(f"{v}" for v in config.values())


def test_small_configs_cover_every_experiment():
    assert {c["experiment"] for c in _SMALL_CONFIGS} == set(EXPERIMENTS)


# the small configs of clt, chung and modulus again, with power:0.5 weights:
# with unit weights every walk sum is an exact integer in any order, so only
# non-integer weights pin the order of a float sum
_POWER_CONFIGS = [
    {"experiment": "clt", "n": 100, "replicas": 1000, "seed": 1, "weights": "power:0.5"},
    {"experiment": "chung", "n": 100_000, "replicas": 2, "seed": 1, "weights": "power:0.5"},
    {"experiment": "modulus", "r": 3, "delta": 0.5, "h_grid": "3^-2,3^-5", "x_samples": 1000,
     "weights": "power:0.5"},
]

# an unsorted t_grid, decimal steps and JSON weight specs, which the run
# stores in canonical form
_UNCANONICAL_CONFIGS = [
    {"experiment": "fclt", "n": 12, "x_samples": 1000, "t_grid": "1,0.5"},
    {"experiment": "modulus", "h_grid": "0.1,0.01", "x_samples": 1000},
    {"experiment": "clt", "n": 100, "replicas": 1000, "seed": 1,
     "weights": {"kind": "constant"}},
    {"experiment": "blocks", "count": 8, "p": 0.75, "weights": {"kind": "constant", "c": 1}},
]


@pytest.mark.parametrize(
    "config", _SMALL_CONFIGS + _POWER_CONFIGS + _UNCANONICAL_CONFIGS, ids=_config_id
)
def test_manifest_predicts_the_written_manifest(config, tmp_path, capsys):
    predicted = manifest(config)
    run(config, outdir=tmp_path)
    (report_path,) = (tmp_path / config["experiment"]).glob("*/report.json")
    report = json.loads(report_path.read_text())
    assert report["manifest"] == predicted.to_dict()
    assert report["manifest_hash"] == predicted.hash
    assert report_path.parent.name == predicted.hash[:12]


@pytest.mark.parametrize(
    "config", _SMALL_CONFIGS + _POWER_CONFIGS + _UNCANONICAL_CONFIGS, ids=_config_id
)
def test_run_opens_exactly_the_manifests_streams(config, tmp_path, monkeypatch, capsys):
    # `manifest.streams` is written in each spec apart from the code that
    # opens the streams; record every (seed, id) opened, one at a time by
    # `stream` or a range at once by `_stream_keys`
    opened = []
    open_stream, stream_keys = rng.stream, rng._stream_keys

    def recording_stream(seed, stream_id=0):
        opened.append((seed, stream_id))
        return open_stream(seed, stream_id)

    def recording_keys(seed, lo, hi):
        opened.extend((seed, i) for i in range(lo, hi))
        return stream_keys(seed, lo, hi)

    for module in (rng, walks, experiments):
        monkeypatch.setattr(module, "stream", recording_stream)
    monkeypatch.setattr(rng, "_stream_keys", recording_keys)
    predicted = manifest(config)
    run(config, outdir=tmp_path)
    assert sorted(opened) == [(predicted.seed, i) for i in range(predicted.streams)]


def test_every_spelling_of_the_weights_lands_in_one_directory(tmp_path, capsys):
    # blocks once wrote these three to three directories
    for weights in ("const", '{"kind": "constant"}', '{"kind": "constant", "c": 1}'):
        assert main(["blocks", "--weights", weights, "--outdir", str(tmp_path)]) == 0
    assert [p.name for p in (tmp_path / "blocks").iterdir()] == ["0efd30ca7c8e"]


# sha256 of every file each small config writes; a refactor that changes
# one byte of a report or CSV fails here
_GOLDEN_OUTPUTS = {
    "eval-1/3": {
        "report.json": "1d1cd7b8c37566f1a4d40f8ff8c6dbc122903336efd8f668d60c4efce94907a2",
    },
    "simulate-50-2": {
        "path.csv": "19c605c3cc6596621ac5302f09b368699a0c127e764b03285c16d7036da379b5",
        "report.json": "dc50bf0da92fe498ebe382351060b4fd47c01af554463fcb8e9770e4b4e79c09",
    },
    "blocks-8-0.75": {
        "blocks.csv": "d2381fc6cd53949d8474bc3a4333f8877f6487a4e7d951d36da6f08b19526b80",
        "report.json": "ff2d5de03bb55b8ff0f22ca763e11a3c94aa0609a8297d56f54d31c83388d638",
    },
    "validate-weights-500": {
        "report.json": "802b598581b5413dc9a27745da3d24624a05556c0de8526281153766b6240ad9",
    },
    "clt-100-1000-1": {
        "normalized_sums.csv": "5e9773d96f9b471ae8fd68fcb1829bada2e7f271899bd01a8cbf0a6c969f195f",
        "report.json": "60022f9f46f15ed6a32da520f358915840669af2a4307daa1d1167df2390467f",
    },
    "lil-100000-2-1": {
        "report.json": "4f96e59bab63145374eb5a661ddedad75a1079cad003ea89f3e3f19ce3343c89",
        "terminals.csv": "46d94db61fab569b16b20503b3011e93cb5b6ddbcc46f874ae1a2e65ec2cb973",
    },
    "lil-100000-2-plain_A": {
        "report.json": "777bfb578e99efda0a66396f903d7b39750fb4b2ddc6b6e4d2d764a5faa0ac58",
        "terminals.csv": "1059cb031d625b9c897fa0b2ad5f979eb7ed90b00230d1fdf3af8cbdfb4d389d",
    },
    "lil-100000-2-0.4,1.3-0.5": {
        "report.json": "680fbc4108a69661d2681bdb03d1c0c0a6f090cb29f23dbc04aa1d3835d63cb9",
        "terminals.csv": "86e4524cc0a0342e103a33b1de65770960bb94647450cd00f4d44e85ed364e2f",
    },
    "chung-100000-2-1": {
        "report.json": "3d298cb54839e385f2b3354215e86ee2cbf880786061752e5ffe82d35e7ef7c4",
        "terminals.csv": "507036661335e96d83b7e4119fef4b1bc228cadeec415fca58a4c4caf465da7c",
    },
    "modulus-2^-3,2^-6-1000": {
        "increments.csv": "6e8f48d3d457b0710b161b4357f9c8eab123a943b20f452efed7942fe9d38615",
        "report.json": "4c281c843eac202ea174551b151c00e55c34a5ec2c179ce3ef7b01c18c366ef5",
    },
    "fclt-12-1000": {
        "marginals.csv": "0587d9b1953d084713f4c254840716c39a66b421a93b3a4bcd978bada00206b7",
        "report.json": "a39ad7b3c44e45c08ce05be33a6f6bd4150390642b5e8646561c24926deb6710",
    },
    # the power:0.5 configs, recorded before weight specs and integers got
    # one reader each; clt's sums re-recorded when they left BLAS's ddot for
    # numpy's own order
    "clt-100-1000-1-power:0.5": {
        "normalized_sums.csv": "2d1a25aecb36a6a0d7e5a28f2c239f107bbd589bf97bc55bfee7b99fb9619537",
        "report.json": "8afe6b4c2802d6047a28b5268afb5b713efefba59e64b88523263cf234c2f024",
    },
    "chung-100000-2-1-power:0.5": {
        "report.json": "1d99b3d26b8d08501f6f654a127eff696b325793c7cfb75f6ad03ab5c7dbd5a0",
        "terminals.csv": "69da5ff4a52d7e8e6514cfe2797ba08de9231171b9884e4a3fd71a06bd4691fe",
    },
    "modulus-3-0.5-3^-2,3^-5-1000-power:0.5": {
        "increments.csv": "f07e05e6e1bf599c6967bb600cef18167273c099f20dd15528f43690f053972b",
        "report.json": "3a3bd54918d3e05b46ed90519dd30378b9e15ecbb72960aaa6b6fc9f426106ff",
    },
}


@pytest.mark.parametrize("config", _SMALL_CONFIGS + _POWER_CONFIGS, ids=_config_id)
def test_small_config_outputs_match_goldens(config, tmp_path, capsys):
    run(config, outdir=tmp_path)
    (run_dir,) = [p.parent for p in tmp_path.glob("*/*/report.json")]
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run_dir.iterdir()
    }
    assert digests == _GOLDEN_OUTPUTS[_config_id(config)]


# The same digests on other CPU kernels: OpenBLAS forced to its oldest x86-64
# kernel, and numpy's own loops without their AVX512 dispatch targets (only
# those this CPU has, the ones numpy can switch off).  One subprocess per
# environment runs every config.
_WIDE_SIMD = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _kernel_env(kernel: str) -> dict:
    if kernel == "openblas-prescott":
        return {"OPENBLAS_CORETYPE": "Prescott"}
    from numpy._core._multiarray_umath import __cpu_features__

    return {"NPY_DISABLE_CPU_FEATURES": " ".join(f for f in _WIDE_SIMD if __cpu_features__.get(f))}


_GOLDEN_CONFIGS = {_config_id(c): c for c in _SMALL_CONFIGS + _POWER_CONFIGS}


@functools.cache
def _digests_under(kernel: str) -> dict:
    code = (
        "import hashlib, json, sys, tempfile\n"
        "from pathlib import Path\n"
        "from fractalwalk.cli import run\n"
        "digests = {}\n"
        "for name, config in json.loads(sys.argv[1]).items():\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        run(config, outdir=out)\n"
        "        (run_dir,) = [p.parent for p in Path(out).glob('*/*/report.json')]\n"
        "        digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()\n"
        "                         for p in run_dir.iterdir()}\n"
        "print(json.dumps(digests))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_GOLDEN_CONFIGS)],
        env={**os.environ, "PYTHONPATH": str(src), **_kernel_env(kernel)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_COV_ORDER = pytest.mark.xfail(
    strict=True, reason="fclt's np.cov sums in the BLAS kernel's order (ROADMAP item 1)"
)


@pytest.mark.parametrize(
    "kernel,name",
    [
        pytest.param(kernel, name, id=f"{kernel}-{name}",
                     marks=_COV_ORDER if (kernel, name) == ("openblas-prescott", "fclt-12-1000")
                     else ())
        for kernel in ("openblas-prescott", "numpy-without-avx512")
        for name in _GOLDEN_CONFIGS
    ],
)
def test_small_config_goldens_hold_on_other_cpu_kernels(kernel, name):
    assert _digests_under(kernel)[name] == _GOLDEN_OUTPUTS[name]


# each experiment's runner, by its name on the experiments module
_RUNNERS = {
    "eval": "_run_eval",
    "simulate": "_run_simulate",
    "blocks": "_run_blocks",
    "validate-weights": "_run_validate_weights",
    "clt": "clt_experiment",
    "lil": "lil_experiment",
    "chung": "chung_experiment",
    "modulus": "modulus_experiment",
    "fclt": "functional_clt_experiment",
}


@pytest.mark.parametrize(
    "config",
    list({c["experiment"]: c for c in reversed(_SMALL_CONFIGS)}.values()),
    ids=_config_id,
)
def test_run_calls_the_runner_on_the_experiments_module(config, tmp_path, monkeypatch, capsys):
    # the benchmark's tracer wraps these module attributes; a spec that kept
    # the function objects would bypass its wrappers and zero their counts
    calls = dict.fromkeys(_RUNNERS.values(), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _RUNNERS.values():
        monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
    run(config, outdir=tmp_path)
    expected = _RUNNERS[config["experiment"]]
    assert calls == {name: int(name == expected) for name in calls}


# -- library calls ------------------------------------------------------------

_CONST = WeightSequence.constant()
_LONG = WalkParams(0.75, _CONST, 100_000)
_F = FractalFunction(2, _CONST, 1.0)
_ROOT = WeightSequence.power(0.5)

# the library call with the values of each small config of a library experiment
_LIBRARY_CALLS = {
    "clt-100-1000-1": lambda: experiments.clt_experiment(
        WalkParams(0.75, _CONST, 100), replicas=1000, seed=1
    ),
    "lil-100000-2-1": lambda: experiments.lil_experiment(_LONG, replicas=2, seed=1),
    "lil-100000-2-plain_A": lambda: experiments.lil_experiment(
        _LONG, replicas=2, normalization="plain_A"
    ),
    "lil-100000-2-0.4,1.3-0.5": lambda: experiments.lil_experiment(
        _LONG, replicas=2, band=(0.4, 1.3), min_fraction=0.5
    ),
    "chung-100000-2-1": lambda: experiments.chung_experiment(_LONG, replicas=2, seed=1),
    "modulus-2^-3,2^-6-1000": lambda: experiments.modulus_experiment(
        _F, [Fraction(1, 8), Fraction(1, 64)], x_samples=1000
    ),
    "fclt-12-1000": lambda: experiments.functional_clt_experiment(
        _F, 1.0, 12, [0.25, 0.5, 1.0], x_samples=1000
    ),
    "clt-100-1000-1-power:0.5": lambda: experiments.clt_experiment(
        WalkParams(0.75, _ROOT, 100), replicas=1000, seed=1
    ),
    "chung-100000-2-1-power:0.5": lambda: experiments.chung_experiment(
        WalkParams(0.75, _ROOT, 100_000), replicas=2, seed=1
    ),
    "modulus-3-0.5-3^-2,3^-5-1000-power:0.5": lambda: experiments.modulus_experiment(
        FractalFunction(3, _ROOT, 0.5), [Fraction(1, 9), Fraction(1, 243)], x_samples=1000
    ),
}


@pytest.mark.parametrize(
    "config",
    [c for c in _SMALL_CONFIGS if c["experiment"] in ("clt", "lil", "chung", "modulus", "fclt")]
    + _POWER_CONFIGS,
    ids=_config_id,
)
def test_library_call_writes_the_cli_report(config, tmp_path, capsys):
    run(config, outdir=tmp_path)
    (report_path,) = tmp_path.glob("*/*/report.json")
    report = _LIBRARY_CALLS[_config_id(config)]()
    assert (report.to_json() + "\n").encode() == report_path.read_bytes()


def _forbid_draws(monkeypatch) -> None:
    """Make every place an experiment opens a stream raise: lil and chung
    open theirs through `rng.stream`, clt through `_streams`, and the rest
    through `experiments.stream`."""
    def no_draws(*args):
        raise AssertionError("a random stream was opened")

    for module, name in ((rng, "stream"), (experiments, "stream"), (experiments, "_streams")):
        monkeypatch.setattr(module, name, no_draws)


@pytest.mark.parametrize(
    "call",
    [
        lambda: experiments.clt_experiment(
            WalkParams(0.75, _CONST, 100), replicas=1000, ks_tol=math.nan
        ),
        lambda: experiments.clt_experiment(
            WalkParams(0.75, _CONST, 100), replicas=1000, ks_tol=math.inf
        ),
        lambda: experiments.lil_experiment(_LONG, replicas=2, min_fraction=math.nan),
        lambda: experiments.functional_clt_experiment(
            _F, 1.0, 12, [0.5, 1.0], x_samples=1000, var_tol=math.nan
        ),
        lambda: experiments.modulus_experiment(_F, [Fraction(1, 8)], x_samples=1000, eps=math.inf),
    ],
    ids=["clt-nan-tol", "clt-inf-tol", "lil-nan-fraction", "fclt-nan-tol", "modulus-inf-eps"],
)
def test_library_refuses_non_finite_tolerances(call, monkeypatch):
    # a NaN tolerance once ran clt to FAIL and an infinite one to PASS, where
    # the CLI refused both
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="is not a finite number"):
        call()


# -- exit codes and output ----------------------------------------------------


def test_eval_prints_value(tmp_path, capsys):
    rc = main(["eval", "--x", "0.5", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "0.5"
    assert "certified_error" in out


def test_clt_reference_run(tmp_path):
    rc = main(
        [
            "clt", "--p", "0.75", "--weights", "const", "--n", "5000",
            "--replicas", "10000", "--seed", "7",
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 0
    runs = list((tmp_path / "clt").iterdir())
    assert len(runs) == 1
    assert len(runs[0].name) == 12
    report = json.loads((runs[0] / "report.json").read_text())
    assert report["passed"] is True
    assert (runs[0] / "normalized_sums.csv").exists()


def test_invalid_p_is_usage_error(tmp_path, capsys):
    rc = main(["lil", "--p", "2.0", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0", "1", "1.5"])
def test_blocks_refuses_p_outside_the_unit_interval(p, tmp_path, capsys):
    rc = main(["blocks", "--count", "5", "--p", p, "--outdir", str(tmp_path)])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: memory parameter p must be in (0, 1)")


@pytest.mark.parametrize(
    "args,rc,err",
    [
        (["blocks", "--count", "2000"], 1, "error: energy at boundary"),
        (["eval", "--delta", "0.5"], 1, "error: no tail certificate"),
        (["modulus", "--delta", "0.5"], 1, "error: no tail certificate"),
        (["validate-weights", "--n-max", "2000"], 2, None),
    ],
    ids=["blocks", "eval", "modulus", "validate-weights"],
)
def test_overflowing_weights_refuse_without_warnings(args, rc, err, tmp_path, capsys):
    # 2^k weights overflow float64 energies; each run once printed numpy's
    # RuntimeWarnings, and blocks wrote rows of inf and nan energies
    assert main(args + ["--weights", "geometric:2", "--outdir", str(tmp_path)]) == rc
    lines = capsys.readouterr().err.splitlines()
    if err is None:
        assert lines == []
    else:
        (line,) = lines
        assert line.startswith(err)


@pytest.mark.parametrize(
    "args,err",
    [
        (["lil", "--n", "100000", "--replicas", "0"], "error: replicas must be >= 1"),
        (["lil", "--n", "100000", "--replicas", "-3"], "error: replicas must be >= 1"),
        (["chung", "--n", "100000", "--replicas", "0"], "error: replicas must be >= 1"),
        (["lil", "--n", "100000", "--replicas", "2", "--band", "1.3,0.4"],
         "error: band needs lo <= hi"),
        (["lil", "--n", "100000", "--replicas", "2", "--band", "nan,1"],
         "error: band needs lo <= hi"),
        (["fclt", "--n", "12", "--x-samples", "1"], "error: need at least 2 x samples"),
        (["modulus", "--x-samples", "-5"], "error: need at least 10 x samples"),
        (["clt", "--ks-tol", "nan"], "error: nan is not a finite number"),
        (["lil", "--min-fraction", "nan"], "error: nan is not a finite number"),
        (["chung", "--median-tol", "nan"], "error: nan is not a finite number"),
        (["modulus", "--ks-tol", "nan"], "error: nan is not a finite number"),
        (["fclt", "--var-tol", "nan"], "error: nan is not a finite number"),
        (["fclt", "--beta", "nan"], "error: nan is not a finite number"),
        (["validate-weights", "--q", "nan"], "error: nan is not a finite number"),
        (["clt", "--ks-tol", "inf"], "error: inf is not a finite number"),
        (["eval", "--eps", "inf"], "error: inf is not a finite number"),
        (["validate-weights", "--weights", "geometric:3", "--n-max", "1"],
         "error: n_max must be >= 2"),
        (["simulate", "--weights", "const:inf", "--n", "10"],
         "error: constant weights need finite parameters"),
        (["eval", "--weights", "explicit:1,nan"],
         "error: explicit weights need finite parameters"),
        (["clt", "--weights", "const:nan", "--n", "100", "--replicas", "1000"],
         "error: constant weights need finite parameters"),
        (["clt", "--weights", "explicit:0", "--n", "100", "--replicas", "1000"],
         "error: s_n = 0"),
        (["modulus", "--weights", "explicit:0", "--h-grid", "2^-3", "--x-samples", "100"],
         "error: sigma_l(1/8) = 0"),
        # A_3 = 0 but A_5 = 1: one scale without variance is enough
        (["modulus", "--weights", "explicit:0,0,0,1", "--h-grid", "2^-3,2^-5",
          "--x-samples", "100"], "error: sigma_l(1/8) = 0"),
        (["fclt", "--weights", "explicit:0", "--n", "12", "--x-samples", "100"],
         "error: V_12 = 0"),
        # each once printed numpy's RuntimeWarnings; the first then exited 2
        # with a regular-variation verdict on a V_n that was inf
        (["fclt", "--weights", "geometric:1.9", "--n", "1200", "--x-samples", "100"],
         "error: the variance profile to depth 1200 is not finite"),
        (["modulus", "--weights", "geometric:1.9", "--h-grid", "2^-600", "--x-samples", "100"],
         "error: the variance profile to depth 601 is not finite"),
        (["fclt", "--r", "3", "--weights", "geometric:2.9", "--n", "700", "--x-samples", "100"],
         "error: the variance profile to depth 700 is not finite"),
    ],
    ids=[
        "lil-0", "lil-negative", "chung-0", "lil-band", "lil-nan-band", "fclt", "modulus",
        "clt-nan-tol", "lil-nan-fraction", "chung-nan-tol", "modulus-nan-tol",
        "fclt-nan-tol", "fclt-nan-beta", "validate-weights-nan-q", "clt-inf-tol",
        "eval-inf-eps", "validate-weights-one-point", "simulate-inf-weight",
        "eval-nan-weight", "clt-nan-weight", "clt-zero-variance", "modulus-zero-variance",
        "modulus-one-scale-zero-variance", "fclt-zero-variance", "fclt-overflowed-profile",
        "modulus-overflowed-profile", "fclt-r3-overflowed-profile",
    ],
)
def test_counts_without_a_statistic_are_refused(args, err, tmp_path, capsys, monkeypatch):
    # each run once crashed, passed vacuously, or wrote a report of NaNs or an empty band
    _forbid_draws(monkeypatch)
    assert main(args + ["--outdir", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(err)
    assert not list(tmp_path.rglob("report.json"))


def test_unknown_experiment_is_usage_error(capsys):
    assert main(["nonesuch"]) == 1
    assert main([]) == 1


def test_fclt_precondition_failure_is_check_failure(tmp_path, capsys):
    rc = main(
        [
            "fclt", "--weights", "geometric:1.5", "--delta", "0.5",
            "--x-samples", "100", "--outdir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "regularly varying" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_variance_clock_is_usage_error(tmp_path, capsys):
    # s_n overflows to NaN; this run once exited 2 with a report of NaNs, and
    # then printed numpy's overflow warning before its error line
    rc = main(
        [
            "clt", "--weights", "geometric:2", "--n", "1100",
            "--replicas", "1000", "--seed", "1", "--outdir", str(tmp_path),
        ]
    )
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: s_n is not finite")
    assert not list(tmp_path.rglob("report.json"))


def test_outdir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACTALWALK_OUT", str(tmp_path / "envruns"))
    rc = main(["eval", "--x", "1/3", "--r", "3"])
    assert rc == 0
    assert (tmp_path / "envruns" / "eval").is_dir()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"p": 0.6, "n": 200, "replicas": 1000, "seed": 2})
    )
    rc = main(
        [
            "clt", "--config", str(cfg_path), "--p", "0.7",
            "--outdir", str(tmp_path),
        ]
    )
    assert rc in (0, 2)  # small-sample KS verdict is noisy; not under test here
    runs = list((tmp_path / "clt").iterdir())
    report = json.loads((runs[0] / "report.json").read_text())
    assert report["params"]["p"] == 0.7  # flag beats file
    assert report["params"]["n"] == 200  # file beats default


def test_config_file_holding_a_list_is_refused(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps([{"n": 200}]))
    assert main(["clt", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg_path} does not hold a JSON object"
    ]
    assert not list(tmp_path.rglob("report.json"))


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"nope": 1}))
    rc = main(["clt", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert rc == 1


def test_rerun_layout_is_stable(tmp_path):
    args = [
        "simulate", "--n", "50", "--seed", "3", "--outdir", str(tmp_path),
    ]
    assert main(args) == 0
    first = sorted((tmp_path / "simulate").iterdir())
    assert main(args) == 0
    second = sorted((tmp_path / "simulate").iterdir())
    assert first == second  # same config, same directory, overwritten in place


# -- start-up -----------------------------------------------------------------


def test_cli_leaves_out_scipy(tmp_path):
    # importing scipy.special alone costs about 0.3 s of every process start;
    # the package needs only numpy, neither at import nor inside a run
    src = Path(__file__).resolve().parents[1] / "src"
    runs = [[c["experiment"], f"--outdir={tmp_path}",
             *(f"--{k.replace('_', '-')}={v}" for k, v in c.items() if k != "experiment")]
            for c in _SMALL_CONFIGS if c["experiment"] in ("clt", "modulus")]
    code = (
        "import json, sys\n"
        "from fractalwalk import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == 2 and 1 not in codes  # both ran to a verdict
    assert scipy_modules == []
