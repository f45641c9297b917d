"""Command-line entry point: config parsing, runs, reports on disk.

Usage is `fractalwalk <experiment> [flags]` with experiments eval, simulate,
blocks, validate-weights, clt, lil, chung, modulus, fclt.  Every flag has a
default except the experiment itself; `--config FILE` supplies a JSON object
whose keys are the flag names (flags given on the command line win).  The
effective configuration is canonicalized (sorted keys, defaults filled), so
the same inputs always hash to the same manifest and output directory:

    <outdir>/<experiment>/<manifest-hash>/{report.json, *.csv}

outdir comes from --outdir, else $FRACTALWALK_OUT, else ./runs.  Exit codes:
0 all verdicts pass, 2 a check failed, 1 usage or configuration error.

Weight specs are compact strings: const[:c], power:e, alternating,
odd-indicator, geometric:b, explicit:v1,v2,..., or a JSON object.  Step
sizes accept r^-k, rationals, or decimals ("2^-20", "1/531441", "0.25").
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import experiments as ex
from .blocking import BlockConstructionError
from .fractal import CertificationError
from .reports import SeedManifest, canonical_json
from .weights import WeightSequence

EXPERIMENTS = tuple(ex.SPECS)


class UsageError(ValueError):
    """Bad flags or config values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we reserve 2
        raise UsageError(message)


def parse_weight_spec(text) -> dict:
    """Weight spec from a compact string or a JSON object."""
    if isinstance(text, dict):
        return dict(text)
    text = str(text).strip()
    if text.startswith("{"):
        return json.loads(text)
    name, _, arg = text.partition(":")
    name = name.replace("_", "-").lower()
    if name in ("const", "constant"):
        return {"kind": "constant", "c": float(arg) if arg else 1.0}
    if name == "power":
        if not arg:
            raise UsageError("power weights need an exponent, e.g. power:0.5")
        return {"kind": "power", "exponent": float(arg)}
    if name == "alternating":
        return {"kind": "alternating"}
    if name in ("odd", "odd-indicator"):
        return {"kind": "odd_indicator"}
    if name == "geometric":
        if not arg:
            raise UsageError("geometric weights need a base, e.g. geometric:2")
        return {"kind": "geometric", "base": float(arg)}
    if name == "explicit":
        if not arg:
            raise UsageError("explicit weights need values, e.g. explicit:1,2,3")
        return {"kind": "explicit", "values": [float(v) for v in arg.split(",")]}
    raise UsageError(f"unknown weight spec {text!r}")


def parse_step(text) -> Fraction:
    """Step size: 'r^-k', 'num/den', or a decimal string."""
    if isinstance(text, Fraction):
        return text
    s = str(text).strip()
    if "^" in s:
        base, _, expo = s.partition("^")
        return Fraction(int(base)) ** int(expo)
    if "/" in s:
        return Fraction(s)
    return Fraction(float(s))


def _parse_list(text, parser=float) -> list:
    if isinstance(text, (list, tuple)):
        return [parser(v) for v in text]
    return [parser(v) for v in str(text).split(",") if v.strip()]


def _weights(val) -> dict:
    spec = parse_weight_spec(val)
    WeightSequence.from_spec(spec)  # validates
    return spec


def _finite(val) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise UsageError(f"{val} is not a finite number")
    return x


def _optional(parse):
    return lambda val: None if val is None else parse(val)


# each config key's parser, whichever experiments have it; a key not listed
# keeps its value as given
_PARSERS = {
    "weights": _weights,
    "x": lambda val: str(parse_step(val)),
    "h_grid": lambda val: [str(parse_step(v)) for v in _parse_list(val, parse_step)],
    "t_grid": _parse_list,
    "band": _optional(_parse_list),
    **dict.fromkeys(
        ("r", "n", "n_max", "n0", "count", "replicas", "seed", "stream", "x_samples"),
        _optional(int),
    ),
    **dict.fromkeys(
        ("p", "delta", "eps", "ks_tol", "q", "beta", "var_tol", "median_tol", "min_fraction"),
        _optional(_finite),
    ),
}


def normalize_config(raw: dict) -> dict:
    """Validated canonical config: defaults filled, types fixed, keys sorted.

    Idempotent, so canonical configs round-trip through JSON byte-identically.
    """
    if "experiment" not in raw:
        raise UsageError("config needs an 'experiment' key")
    kind = str(raw["experiment"])
    if kind not in ex.SPECS:
        raise UsageError(f"unknown experiment {kind!r}; choose from {EXPERIMENTS}")
    defaults = ex.SPECS[kind].defaults
    unknown = set(raw) - set(defaults) - {"experiment"}
    if unknown:
        raise UsageError(f"unknown config keys for {kind}: {sorted(unknown)}")
    cfg = {"experiment": kind}
    for key, default in defaults.items():
        val = raw.get(key, default)
        cfg[key] = _PARSERS[key](val) if key in _PARSERS else val
    return cfg


def manifest(config: dict) -> SeedManifest:
    """Canonical seed manifest for a config (without running it)."""
    cfg = normalize_config(config)
    spec = ex.SPECS[cfg["experiment"]]
    return spec.manifest(spec.resolve(cfg))


def run(config: dict, outdir=None) -> int:
    """Run one experiment config; writes outputs, prints verdicts.

    Returns the exit status: 0 pass, 2 any check failed, 1 config error.
    """
    cfg = normalize_config(config)
    report = ex.SPECS[cfg["experiment"]].run(cfg)
    out = Path(outdir or os.environ.get("FRACTALWALK_OUT") or "./runs")
    written = report.save(out)
    for s in report.statistics:
        if s.passed is None:
            print(f"[info] {s.name} = {s.value:.6g}" + (f"  ({s.detail})" if s.detail else ""))
        else:
            mark = "PASS" if s.passed else "FAIL"
            tol = canonical_json(s.tolerance)
            print(f"[{mark}] {s.name} = {s.value:.6g}  tol={tol}"
                  + (f"  ({s.detail})" if s.detail else ""))
    for note in report.notes:
        print(f"[note] {note}")
    print(f"report: {written[0]}")
    return 0 if report.passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="fractalwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for kind, spec in ex.SPECS.items():
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--outdir", type=str, default=None)
        for key in spec.defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise UsageError("an experiment is required; see --help")
        raw = {}
        if args.config:
            raw = json.loads(Path(args.config).read_text())
            if not isinstance(raw, dict):
                raise UsageError(f"{args.config} does not hold a JSON object")
        raw["experiment"] = args.experiment
        for key in ex.SPECS[args.experiment].defaults:
            if getattr(args, key) is not None:  # flags win over the file
                raw[key] = getattr(args, key)
        return run(raw, outdir=args.outdir)
    except ex.RegularVariationError as err:  # a ValueError, but a failed check
        print(f"[FAIL] {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, BlockConstructionError, CertificationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
