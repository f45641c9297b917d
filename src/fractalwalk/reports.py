"""Experiment reports: statistics with verdicts, seed manifests, persistence.

A report is a plain tree of JSON-able data.  Every Monte Carlo number in it
is a `Statistic` carrying its tolerance and verdict (or an explicit None for
report-only values), and the `SeedManifest` pins down everything the numbers
depend on: master seed, stream assignment, replica count, software version,
and a hash of the configuration.  Re-running with the same manifest must
reproduce the report byte-for-byte, which is why serialization is canonical
(sorted keys, fixed separators) and thread counts are deliberately absent.

Layout on disk: <outdir>/<experiment>/<manifest-hash>/report.json plus one
CSV per attachment (and optional SVG figures dropped in by the CLI).
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

VERSION = "0.1.0"
SCHEMA = "fractalwalk.report/1"

__all__ = [
    "VERSION",
    "SCHEMA",
    "Statistic",
    "SeedManifest",
    "ExperimentReport",
    "statistic",
    "canonical_json",
    "config_hash",
    "make_manifest",
]


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # inf/nan are not valid JSON
    return obj


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _evaluate(value: float, tolerance: dict | None) -> bool | None:
    if tolerance is None:
        return None
    ok = True
    if "max" in tolerance:
        ok = ok and value <= tolerance["max"]
    if "min" in tolerance:
        ok = ok and value >= tolerance["min"]
    if "band" in tolerance:
        lo, hi = tolerance["band"]
        ok = ok and lo <= value <= hi
    if "target" in tolerance:
        ok = ok and abs(value - tolerance["target"]) <= tolerance["abs"]
    return bool(ok)


@dataclass(frozen=True)
class Statistic:
    """One reported number with its tolerance and verdict.

    passed is None for report-only values (no tolerance attached).
    """

    name: str
    value: float
    tolerance: dict | None = None
    passed: bool | None = None
    detail: str = ""


def statistic(name: str, value, tolerance: dict | None = None, detail: str = "") -> Statistic:
    """Build a Statistic, evaluating the verdict from the tolerance."""
    value = float(value)
    return Statistic(
        name=name,
        value=value,
        tolerance=tolerance,
        passed=_evaluate(value, tolerance),
        detail=detail,
    )


@dataclass(frozen=True)
class SeedManifest:
    """Everything a rerun needs to reproduce a report bit-for-bit."""

    seed: int
    streams: int
    replicas: int
    version: str
    config_hash: str

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


def make_manifest(config: dict, seed: int, streams: int, replicas: int) -> SeedManifest:
    """Manifest for a run; thread counts and output paths must not be in config."""
    return SeedManifest(
        seed=int(seed),
        streams=int(streams),
        replicas=int(replicas),
        version=VERSION,
        config_hash=config_hash(config),
    )


@dataclass
class ExperimentReport:
    name: str
    params: dict
    manifest: SeedManifest
    statistics: list[Statistic] = field(default_factory=list)
    attachments: dict = field(default_factory=dict)  # name -> {columns, rows}
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff no statistic with a tolerance failed."""
        return all(s.passed is not False for s in self.statistics)

    def find(self, name: str) -> Statistic:
        for s in self.statistics:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "experiment": self.name,
            "params": _jsonable(self.params),
            "manifest": self.manifest.to_dict(),
            "manifest_hash": self.manifest.hash,
            "statistics": [asdict(s) for s in self.statistics],
            "notes": list(self.notes),
            "attachments": sorted(self.attachments),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def run_dir(self, outdir) -> Path:
        return Path(outdir) / self.name / self.manifest.hash[:12]

    def save(self, outdir) -> list[Path]:
        """Write report.json and one CSV per attachment; returns the paths."""
        dest = self.run_dir(outdir)
        dest.mkdir(parents=True, exist_ok=True)
        written = []
        report_path = dest / "report.json"
        report_path.write_text(self.to_json() + "\n")
        written.append(report_path)
        for name in sorted(self.attachments):
            table = self.attachments[name]
            path = dest / f"{name}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(table["columns"])
                for row in table["rows"]:
                    writer.writerow(_jsonable(list(row)))
            written.append(path)
        return written
