"""Report schema, tolerance verdicts, manifests, and deterministic reruns."""
import csv
import json

import pytest

from fractalwalk import (
    ExperimentReport,
    SeedManifest,
    WalkParams,
    WeightSequence,
    chung_experiment,
    clt_experiment,
    lil_experiment,
    statistic,
)
from fractalwalk import fractal
from fractalwalk.reports import canonical_json, config_hash, make_manifest

CONST = WeightSequence.constant()


def test_tolerance_verdicts():
    assert statistic("a", 0.5, {"max": 0.6}).passed is True
    assert statistic("a", 0.7, {"max": 0.6}).passed is False
    assert statistic("a", 0.5, {"min": 0.4}).passed is True
    assert statistic("a", 0.3, {"min": 0.4}).passed is False
    assert statistic("a", 0.5, {"band": [0.4, 0.6]}).passed is True
    assert statistic("a", 0.7, {"band": [0.4, 0.6]}).passed is False
    assert statistic("a", 1.04, {"target": 1.0, "abs": 0.05}).passed is True
    assert statistic("a", 1.06, {"target": 1.0, "abs": 0.05}).passed is False
    assert statistic("a", 0.5).passed is None


def test_report_passed_ignores_untoleranced():
    m = make_manifest({"x": 1}, seed=0, streams=1, replicas=1)
    rep = ExperimentReport(name="t", params={"x": 1}, manifest=m)
    rep.statistics.append(statistic("info", 99.0))
    assert rep.passed is True
    rep.statistics.append(statistic("gate", 0.7, {"max": 0.6}))
    assert rep.passed is False


def test_find_missing_statistic():
    m = make_manifest({}, seed=0, streams=1, replicas=1)
    rep = ExperimentReport(name="t", params={}, manifest=m)
    with pytest.raises(KeyError):
        rep.find("absent")


def test_canonical_json_is_order_free():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})
    assert config_hash({"a": 2}) != config_hash({"a": 3})


def test_manifest_hash_tracks_config():
    m1 = make_manifest({"n": 100, "seed": 0}, seed=0, streams=10, replicas=10)
    m2 = make_manifest({"n": 100, "seed": 0}, seed=0, streams=10, replicas=10)
    m3 = make_manifest({"n": 100, "seed": 0}, seed=0, streams=20, replicas=20)
    assert isinstance(m1, SeedManifest)
    assert m1.hash == m2.hash
    assert m1.hash != m3.hash


def test_rerun_is_bit_identical():
    a = clt_experiment(WalkParams(0.75, CONST, 200), replicas=1000, seed=4)
    b = clt_experiment(WalkParams(0.75, CONST, 200), replicas=1000, seed=4)
    assert a.to_json() == b.to_json()
    c = clt_experiment(WalkParams(0.75, CONST, 200), replicas=1000, seed=5)
    assert a.to_json() != c.to_json()


@pytest.mark.parametrize(
    "run",
    [
        lambda: clt_experiment(WalkParams(0.75, CONST, 200), replicas=1000, seed=4),
        lambda: lil_experiment(WalkParams(0.75, CONST, 100_000), replicas=5, seed=4),
        lambda: chung_experiment(WalkParams(0.75, CONST, 100_000), replicas=5, seed=4),
    ],
    ids=["clt", "lil", "chung"],
)
def test_workers_do_not_change_results(run, monkeypatch):
    # the replicas run on one thread per usable CPU
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 1)
    one = run().to_json()
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 3)
    assert run().to_json() == one


def test_run_dir_layout(tmp_path):
    rep = clt_experiment(WalkParams(0.75, CONST, 100), replicas=1000, seed=0)
    dest = rep.run_dir(tmp_path)
    assert dest == tmp_path / "clt" / rep.manifest.hash[:12]
    assert len(rep.manifest.hash[:12]) == 12


def test_save_writes_report_and_csvs(tmp_path):
    rep = clt_experiment(WalkParams(0.75, CONST, 100), replicas=1000, seed=0)
    written = rep.save(tmp_path)
    names = sorted(p.name for p in written)
    assert "report.json" in names
    assert "normalized_sums.csv" in names
    on_disk = json.loads((rep.run_dir(tmp_path) / "report.json").read_text())
    assert on_disk["experiment"] == "clt"
    assert on_disk["manifest_hash"] == rep.manifest.hash
    assert on_disk["passed"] == rep.passed
    assert on_disk["attachments"] == ["normalized_sums"]
    with (rep.run_dir(tmp_path) / "normalized_sums.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replica", "value"]
    assert len(rows) == 1001


def test_saved_json_round_trips(tmp_path):
    rep = clt_experiment(WalkParams(0.75, CONST, 100), replicas=1000, seed=0)
    rep.save(tmp_path)
    text = (rep.run_dir(tmp_path) / "report.json").read_text()
    assert text == rep.to_json() + "\n"
