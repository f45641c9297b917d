"""Command-line surface: weight-spec parsing, config canon, exit codes, layout."""
import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fractalwalk import experiments, fractal
from fractalwalk.cli import (
    EXPERIMENTS,
    UsageError,
    main,
    manifest,
    normalize_config,
    parse_step,
    parse_weight_spec,
    run,
)
from fractalwalk.reports import canonical_json


# -- weight spec parsing ------------------------------------------------------


def test_parse_weight_spec_names():
    assert parse_weight_spec("const") == {"kind": "constant", "c": 1.0}
    assert parse_weight_spec("const:2.5") == {"kind": "constant", "c": 2.5}
    assert parse_weight_spec("power:0.5") == {"kind": "power", "exponent": 0.5}
    assert parse_weight_spec("alternating") == {"kind": "alternating"}
    assert parse_weight_spec("odd") == {"kind": "odd_indicator"}
    assert parse_weight_spec("odd-indicator") == {"kind": "odd_indicator"}
    assert parse_weight_spec("geometric:2") == {"kind": "geometric", "base": 2.0}
    assert parse_weight_spec("explicit:1,2,3") == {
        "kind": "explicit",
        "values": [1.0, 2.0, 3.0],
    }


def test_parse_weight_spec_json_and_dict():
    spec = {"kind": "power", "exponent": 1.0}
    assert parse_weight_spec(json.dumps(spec)) == spec
    assert parse_weight_spec(spec) == spec


def test_parse_weight_spec_errors():
    with pytest.raises(UsageError):
        parse_weight_spec("power")
    with pytest.raises(UsageError):
        parse_weight_spec("bogus")


def test_parse_step():
    assert parse_step("2^-20") == Fraction(1, 2**20)
    assert parse_step("1/8") == Fraction(1, 8)
    assert parse_step("0.25") == Fraction(1, 4)
    assert parse_step(Fraction(3, 7)) == Fraction(3, 7)


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
    "name,fn",
    [
        ("clt", experiments.clt_experiment),
        ("lil", experiments.lil_experiment),
        ("chung", experiments.chung_experiment),
        ("modulus", experiments.modulus_experiment),
        ("fclt", experiments.functional_clt_experiment),
    ],
)
def test_experiment_defaults_match_cli_defaults(name, fn):
    # the API defaults are the one fact still written outside the spec
    defaults = experiments.SPECS[name].defaults
    for param in inspect.signature(fn).parameters.values():
        if param.default is not param.empty:
            assert param.name in defaults
            assert defaults[param.name] == param.default, param.name


def test_manifest_hash_ignores_workers(monkeypatch):
    # the thread count is the usable-CPU count, never part of the config
    base = {"experiment": "clt", "p": 0.75, "replicas": 2000}
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 1)
    m1 = manifest(base)
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 4)
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


def test_small_configs_cover_every_experiment():
    assert {c["experiment"] for c in _SMALL_CONFIGS} == set(EXPERIMENTS)


@pytest.mark.parametrize(
    "config", _SMALL_CONFIGS, ids=lambda c: "-".join(f"{v}" for v in c.values())
)
def test_manifest_predicts_the_written_manifest(config, tmp_path, capsys):
    predicted = manifest(config)
    run(config, outdir=tmp_path)
    (report_path,) = (tmp_path / config["experiment"]).glob("*/report.json")
    report = json.loads(report_path.read_text())
    assert report["manifest"] == predicted.to_dict()
    assert report["manifest_hash"] == predicted.hash
    assert report_path.parent.name == predicted.hash[:12]


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
}


@pytest.mark.parametrize(
    "config", _SMALL_CONFIGS, ids=lambda c: "-".join(f"{v}" for v in c.values())
)
def test_small_config_outputs_match_goldens(config, tmp_path, capsys):
    run(config, outdir=tmp_path)
    (run_dir,) = [p.parent for p in tmp_path.glob("*/*/report.json")]
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run_dir.iterdir()
    }
    assert digests == _GOLDEN_OUTPUTS["-".join(f"{v}" for v in config.values())]


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


def test_cli_import_leaves_out_scipy_signal():
    # importing scipy.signal alone costs about 1 s of every process start;
    # the package needs only scipy.special at run time
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fractalwalk.cli; print('scipy.signal' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
