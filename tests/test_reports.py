"""Report schema, tolerance verdicts, manifests, and deterministic reruns."""
import csv
import json

import numpy as np
import pytest

import sys
import threading
import time

from fractalwalk import (
    ExperimentReport,
    FractalFunction,
    SeedManifest,
    WalkParams,
    WeightSequence,
    chung_experiment,
    clt_experiment,
    functional_clt_experiment,
    lil_experiment,
    modulus_experiment,
    statistic,
)
from fractalwalk import experiments, fractal, paths
from fractalwalk.reports import canonical_json, config_hash, make_manifest

CONST = WeightSequence.constant()
POWER = WeightSequence.from_spec("power:0.5")


def _modulus(r, weights, delta):
    # three scales of each base, the middle one not a power of r
    hs = [f"{r}^-2", f"1/{r**5 + 1}", f"{r}^-9"]
    return lambda: modulus_experiment(FractalFunction(r, weights, delta), hs,
                                      x_samples=5000, seed=4)


def test_tolerance_verdicts():
    assert statistic("a", 0.5, {"max": 0.6}).passed is True
    assert statistic("a", 0.7, {"max": 0.6}).passed is False
    assert statistic("a", 0.5, {"min": 0.4}).passed is True
    assert statistic("a", 0.3, {"min": 0.4}).passed is False
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


def test_canonical_json_writes_non_finite_floats_as_strings():
    obj = {"a": float("nan"), "b": np.float64(-np.inf), 3: (1, 2.5)}
    assert canonical_json(obj) == '{"3":[1,2.5],"a":"nan","b":"-inf"}'


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
        # 1001 replicas: the last clt chunk is short
        lambda: clt_experiment(WalkParams(0.75, WeightSequence.from_spec("power:0.5"), 200),
                               replicas=1001, seed=4),
        lambda: lil_experiment(WalkParams(0.75, CONST, 100_000), replicas=5, seed=4),
        lambda: chung_experiment(WalkParams(0.75, CONST, 100_000), replicas=5, seed=4),
        _modulus(2, CONST, 1.0),
        _modulus(3, CONST, 1.0),
        _modulus(2, POWER, 0.5),
        _modulus(3, POWER, 0.5),
        lambda: functional_clt_experiment(FractalFunction(2, CONST, 1.0), n=12,
                                          x_samples=3000, seed=4),
    ],
    ids=["clt", "clt-power-1001", "lil", "chung", "modulus-r2", "modulus-r3",
         "modulus-r2-power", "modulus-r3-power", "fclt"],
)
def test_workers_do_not_change_results(run, monkeypatch):
    # the replicas, modulus's scales and fclt's point blocks run on one
    # thread per usable CPU; fclt's 3000 points make five blocks here
    monkeypatch.setattr(fractal, "_EVAL_BLOCK", 700)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    one = run().to_json()
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 3)
    assert run().to_json() == one


def test_modulus_on_8_cpus_with_fast_thread_switches_matches_serial(monkeypatch):
    """Three scales on three threads, each eval_grid in eight blocks on its
    row's thread, switched as often as the interpreter allows: the report
    keeps the serial bytes."""
    run = _modulus(3, POWER, 0.5)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    want = run().to_json()
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(fractal, "_EVAL_BLOCK", 625)
    got = []
    worker = threading.Thread(target=lambda: got.append(run().to_json()), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "modulus did not finish within 120 s"
    assert got == [want]


def test_clt_chunk_size_does_not_change_results(monkeypatch):
    def run():
        return clt_experiment(WalkParams(0.75, CONST, 200), replicas=1001, seed=4).to_json()

    one = run()
    monkeypatch.setattr(experiments, "_CLT_CHUNK", 7)
    assert run() == one


def test_clt_block_rows_do_not_change_results(monkeypatch):
    # n = 200 draws a whole 250-replica task as one block; a _BLOCK of 1003
    # makes it blocks of 5 rows and a last block of 1 in the last task
    def run():
        params = WalkParams(0.75, WeightSequence.power(0.3), 200)
        return clt_experiment(params, replicas=1001, seed=4).to_json()

    one = run()
    monkeypatch.setattr(paths, "_BLOCK", 1003)
    assert run() == one


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


def test_map_threads_starts_no_call_after_a_raise_on_4_cpus(monkeypatch):
    """A raising call empties the queue: each of the three other threads
    starts at most the one call whose index it already held."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 4)
    raised = threading.Event()
    late = []

    def fn(i):
        if raised.is_set():
            late.append(i)
        if i == 10:
            raised.set()
            raise ValueError("stop")
        time.sleep(0.002)
        return i

    with pytest.raises(ValueError, match="stop"):
        paths._map_threads(fn, 200)
    assert len(late) <= 3, late


@pytest.mark.parametrize(
    "run",
    [
        # five scales, and 628-point eval_grid blocks, so each row has eight
        # (fclt draws a block's mantissas from a start on a multiple of 4)
        lambda: modulus_experiment(FractalFunction(3, POWER, 0.5),
                                   [f"3^-{e}" for e in (2, 3, 5, 7, 9)],
                                   x_samples=5000, seed=4),
        lambda: functional_clt_experiment(FractalFunction(2, CONST, 1.0), n=12,
                                          x_samples=5000, seed=4),
    ],
    ids=["modulus", "fclt"],
)
def test_grid_experiments_on_4_cpus_start_at_most_3_helpers(run, monkeypatch):
    """The experiment maps its work once, and the grid calls inside run on
    their task's thread, so no more threads compute than there are CPUs."""
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(fractal, "_EVAL_BLOCK", 628)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    run()
    assert 1 <= len(started) <= 3, started
