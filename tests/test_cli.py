"""Command-line surface: weight-spec parsing, config canon, exit codes, layout."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
    with pytest.raises(UsageError):
        normalize_config({"experiment": "nonesuch"})
    with pytest.raises(UsageError):
        normalize_config({"p": 0.5})


def test_manifest_hash_ignores_workers():
    base = {"experiment": "clt", "p": 0.75, "replicas": 2000}
    m1 = manifest({**base, "workers": 1})
    m4 = manifest({**base, "workers": 4})
    assert m1.hash == m4.hash
    assert manifest(base).hash == m1.hash
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
     "min_fraction": 0.5, "workers": 2},
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
            "--replicas", "10000", "--seed", "7", "--workers", "4",
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_variance_clock_is_usage_error(tmp_path, capsys):
    # s_n overflows to NaN; this run once exited 2 with a report of NaNs
    rc = main(
        [
            "clt", "--weights", "geometric:2", "--n", "1100",
            "--replicas", "1000", "--seed", "1", "--outdir", str(tmp_path),
        ]
    )
    assert rc == 1
    assert "error: s_n is not finite" in capsys.readouterr().err
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
