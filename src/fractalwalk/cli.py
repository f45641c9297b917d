"""Command-line entry point: flags, runs, reports on disk.

Usage is `fractalwalk <experiment> [flags]` with experiments eval, simulate,
blocks, validate-weights, clt, lil, chung, modulus, fclt.  Every flag has a
default except the experiment itself; `--config FILE` supplies a JSON object
whose keys are the flag names (flags given on the command line win).  The
effective configuration is canonicalized by `experiments.normalize_config`
(sorted keys, defaults filled), the normalizer library calls run too, so the
same values always hash to the same manifest and output directory:

    <outdir>/<experiment>/<manifest-hash>/{report.json, *.csv}

outdir comes from --outdir, else $FRACTALWALK_OUT, else ./runs.  Exit codes:
0 all verdicts pass, 2 a check failed, 1 usage or configuration error.

Weight specs are compact strings or JSON objects, all read by
`weights.WeightSequence.from_spec`, which lists the grammar.  Step
sizes accept r^-k, rationals, or decimals ("2^-20", "1/531441", "0.25").
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import experiments as ex
from .blocking import BlockConstructionError
from .experiments import UsageError, normalize_config
from .fractal import CertificationError
from .reports import canonical_json

EXPERIMENTS = tuple(ex.SPECS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we reserve 2
        raise UsageError(message)


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
