"""Command-line entry point: config parsing, runs, reports on disk.

Usage is `fractalwalk <experiment> [flags]` with experiments eval, simulate,
blocks, validate-weights, clt, lil, chung, modulus, fclt.  Every flag has a
default except the experiment itself; `--config FILE` supplies a JSON object
whose keys are the flag names (flags given on the command line win).  The
effective configuration is canonicalized (sorted keys, defaults filled), so
the same inputs always hash to the same manifest and output directory:

    <outdir>/<experiment>/<manifest-hash>/{report.json, *.csv, *.svg}

outdir comes from --outdir, else $FRACTALWALK_OUT, else ./runs.  Exit codes:
0 all verdicts pass, 2 a check failed, 1 usage or configuration error.

Weight specs are compact strings: const[:c], power:e, alternating,
odd-indicator, geometric:b, explicit:v1,v2,..., or a JSON object.  Step
sizes accept r^-k, rationals, or decimals ("2^-20", "1/531441", "0.25").
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import experiments as ex
from .blocking import BlockConstructionError, build_blocks
from .fractal import CertificationError, FractalFunction
from .reports import ExperimentReport, SeedManifest, canonical_json, make_manifest, statistic
from .walks import WalkParams, simulate
from .weights import WeightSequence, growth_report, validate_assumptions

EXPERIMENTS = (
    "eval",
    "simulate",
    "blocks",
    "validate-weights",
    "clt",
    "lil",
    "chung",
    "modulus",
    "fclt",
)

_DEFAULTS: dict[str, dict] = {
    "eval": {"r": 2, "weights": "const", "delta": 1.0, "x": "0.5", "eps": 1e-12},
    "simulate": {"p": 0.75, "weights": "const", "n": 1000, "seed": 0, "stream": 0},
    "blocks": {"weights": "const", "delta": 1.0, "count": 6, "p": None},
    "validate-weights": {
        "weights": "const",
        "delta": 1.0,
        "n_max": 10_000,
        "q": 2.0,
        "n0": None,
    },
    "clt": {
        "p": 0.75,
        "weights": "const",
        "n": 5000,
        "replicas": 10_000,
        "seed": 0,
        "ks_tol": 0.02,
        "workers": 1,
    },
    "lil": {
        "p": 0.75,
        "weights": "const",
        "n": 1_000_000,
        "replicas": 50,
        "seed": 0,
        "normalization": "exact_s",
        "band": None,
        "min_fraction": None,
        "workers": None,
    },
    "chung": {
        "p": 0.75,
        "weights": "const",
        "n": 1_000_000,
        "replicas": 50,
        "seed": 0,
        "median_tol": 0.15,
        "workers": None,
    },
    "modulus": {
        "r": 2,
        "weights": "const",
        "delta": 1.0,
        "h_grid": "2^-10,2^-20",
        "x_samples": 100_000,
        "seed": 0,
        "ks_tol": 0.02,
        "eps": 1e-12,
    },
    "fclt": {
        "r": 2,
        "weights": "const",
        "delta": 1.0,
        "beta": 1.0,
        "n": 40,
        "t_grid": "0.25,0.5,1",
        "x_samples": 100_000,
        "seed": 0,
        "var_tol": 0.05,
        "eps": 1e-12,
    },
}


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


def normalize_config(raw: dict) -> dict:
    """Validated canonical config: defaults filled, types fixed, keys sorted.

    Idempotent, so canonical configs round-trip through JSON byte-identically.
    """
    if "experiment" not in raw:
        raise UsageError("config needs an 'experiment' key")
    kind = str(raw["experiment"])
    if kind not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {kind!r}; choose from {EXPERIMENTS}")
    defaults = _DEFAULTS[kind]
    unknown = set(raw) - set(defaults) - {"experiment"}
    if unknown:
        raise UsageError(f"unknown config keys for {kind}: {sorted(unknown)}")
    cfg = {"experiment": kind}
    for key, default in defaults.items():
        val = raw.get(key, default)
        if key == "weights":
            val = parse_weight_spec(val)
            WeightSequence.from_spec(val)  # validates
        elif key == "x":
            val = str(parse_step(val))
        elif key == "h_grid":
            val = [str(parse_step(v)) for v in _parse_list(val, parse_step)]
        elif key == "t_grid":
            val = _parse_list(val, float)
        elif key == "band":
            val = None if val is None else _parse_list(val, float)
        elif val is not None and key in ("r", "n", "n_max", "n0", "count", "replicas",
                                         "seed", "stream", "x_samples", "workers"):
            val = int(val)
        elif val is not None and key in ("p", "delta", "eps", "ks_tol", "q", "beta",
                                         "var_tol", "median_tol", "min_fraction"):
            val = float(val)
        cfg[key] = val
    return cfg


_STREAMS = {
    "clt": lambda c: c["replicas"],
    "lil": lambda c: 2 * c["replicas"],
    "chung": lambda c: 2 * c["replicas"],
    "modulus": lambda c: len(c["h_grid"]),
    "fclt": lambda c: 1,
    "simulate": lambda c: 1,
}


def manifest(config: dict) -> SeedManifest:
    """Canonical seed manifest for a config (without running it).

    Worker count and output directory are excluded from the hash: they may
    never change the report.
    """
    cfg = normalize_config(config)
    if cfg["experiment"] == "lil":
        # the run hashes its resolved band, fraction and coverage
        hashed = ex.lil_config(**_lil_args(cfg))
    else:
        hashed = {k: v for k, v in cfg.items() if k not in ("workers",)}
    seed = cfg.get("seed", 0) or 0
    streams = _STREAMS.get(cfg["experiment"], lambda c: 0)(cfg)
    replicas = cfg.get("replicas") or cfg.get("x_samples") or 1
    return make_manifest(hashed, seed, streams=streams, replicas=replicas)


# -- experiment runners --------------------------------------------------------


def _walk_params(cfg: dict) -> WalkParams:
    return WalkParams(
        p=cfg["p"], weights=WeightSequence.from_spec(cfg["weights"]), horizon=cfg["n"]
    )


def _fractal(cfg: dict) -> FractalFunction:
    return FractalFunction(
        r=cfg["r"], weights=WeightSequence.from_spec(cfg["weights"]), delta=cfg["delta"]
    )


def _run_eval(cfg: dict) -> ExperimentReport:
    f = _fractal(cfg)
    res = f.eval(Fraction(cfg["x"]), cfg["eps"])
    print(res.value)
    hashed = {k: v for k, v in cfg.items() if k != "workers"}
    report = ExperimentReport(
        name="eval",
        params=cfg,
        manifest=make_manifest(hashed, seed=0, streams=0, replicas=1),
    )
    report.statistics.append(
        statistic(
            "certified_error",
            res.error_bound,
            {"max": cfg["eps"]},
            detail=f"value={res.value!r}, terms={res.terms}",
        )
    )
    return report


def _run_simulate(cfg: dict) -> ExperimentReport:
    params = _walk_params(cfg)
    path = simulate(params, cfg["seed"], cfg["stream"])
    hashed = {k: v for k, v in cfg.items() if k != "workers"}
    report = ExperimentReport(
        name="simulate",
        params=cfg,
        manifest=make_manifest(hashed, cfg["seed"], streams=1, replicas=1),
    )
    report.statistics.append(statistic("terminal_sum", float(path.sums[-1])))
    report.statistics.append(statistic("terminal_sign", float(path.signs[-1])))
    report.attachments["path"] = {
        "columns": ["k", "sign", "sum"],
        "rows": [
            [k + 1, int(path.signs[k]), float(path.sums[k + 1])]
            for k in range(path.horizon)
        ],
    }
    print(f"simulated n={path.horizon}, S_n={path.sums[-1]:g}")
    return report


def _run_blocks(cfg: dict) -> ExperimentReport:
    seq = WeightSequence.from_spec(cfg["weights"])
    scheme = build_blocks(seq, cfg["delta"], cfg["count"])
    hashed = {k: v for k, v in cfg.items() if k != "workers"}
    report = ExperimentReport(
        name="blocks",
        params=cfg,
        manifest=make_manifest(hashed, seed=0, streams=0, replicas=1),
    )
    report.statistics.append(statistic("boundaries", float(scheme.boundaries.size)))
    rows = []
    delays = None
    if cfg.get("p") is not None:
        delays = scheme.delays_for(2.0 * cfg["p"] - 1.0)
    for j in range(scheme.boundaries.size):
        row = [j + 1, int(scheme.boundaries[j]), float(scheme.energies[j])]
        row.append(int(delays[j]) if delays is not None else "")
        if j < scheme.n_blocks:
            row.append(float(scheme.block_energies[j]))
        else:
            row.append("")
        rows.append(row)
    report.attachments["blocks"] = {
        "columns": ["j", "h_j", "energy_at_h_j", "delay", "block_energy"],
        "rows": rows,
    }
    print("boundaries:", ", ".join(str(int(b)) for b in scheme.boundaries))
    return report


def _run_validate_weights(cfg: dict) -> ExperimentReport:
    seq = WeightSequence.from_spec(cfg["weights"])
    rep = validate_assumptions(seq, cfg["delta"], cfg["n_max"])
    growth = growth_report(seq, cfg["delta"], cfg["q"], cfg["n0"], cfg["n_max"])
    hashed = {k: v for k, v in cfg.items() if k != "workers"}
    report = ExperimentReport(
        name="validate-weights",
        params=cfg,
        manifest=make_manifest(hashed, seed=0, streams=0, replicas=1),
    )
    report.statistics.append(
        statistic(
            "assumptions_pass",
            1.0 if rep.passed else 0.0,
            {"min": 1.0},
            detail=f"K_hat={rep.k_hat:.6g} at n={rep.worst_index}, "
            f"tail_slope={rep.tail_slope:.3g}",
        )
    )
    report.statistics.append(
        statistic(
            "growth_pass",
            1.0 if growth.passed else 0.0,
            {"min": 1.0},
            detail=f"poly_sup={growth.poly_sup:.6g}, exp_ok={growth.exp_ok}, "
            f"n0_min={growth.n0_min}",
        )
    )
    report.statistics.append(statistic("k_hat", rep.k_hat))
    report.statistics.append(statistic("energy_final", rep.energy_final))
    return report


def _run_clt(cfg: dict) -> ExperimentReport:
    return ex.clt_experiment(
        _walk_params(cfg),
        replicas=cfg["replicas"],
        seed=cfg["seed"],
        ks_tol=cfg["ks_tol"],
        workers=cfg["workers"],
    )


def _lil_args(cfg: dict) -> dict:
    band = cfg["band"]
    return {
        "params": _walk_params(cfg),
        "replicas": cfg["replicas"],
        "seed": cfg["seed"],
        "normalization": cfg["normalization"],
        "band": None if band is None else (band[0], band[1]),
        "min_fraction": cfg["min_fraction"],
    }


def _run_lil(cfg: dict) -> ExperimentReport:
    return ex.lil_experiment(**_lil_args(cfg), workers=cfg["workers"])


def _run_chung(cfg: dict) -> ExperimentReport:
    return ex.chung_experiment(
        _walk_params(cfg),
        replicas=cfg["replicas"],
        seed=cfg["seed"],
        median_tol=cfg["median_tol"],
        workers=cfg["workers"],
    )


def _run_modulus(cfg: dict) -> ExperimentReport:
    f = _fractal(cfg)
    hs = [parse_step(h) for h in cfg["h_grid"]]
    n_max = max(ex.scale_index(f.r, h) for h in hs) + 1
    profile = ex.variance_profile(f.r, f.weights, n_max)
    return ex.modulus_experiment(
        f,
        profile,
        hs,
        x_samples=cfg["x_samples"],
        seed=cfg["seed"],
        ks_tol=cfg["ks_tol"],
        eps=cfg["eps"],
    )


def _run_fclt(cfg: dict) -> ExperimentReport:
    f = _fractal(cfg)
    profile = ex.variance_profile(f.r, f.weights, cfg["n"])
    return ex.functional_clt_experiment(
        f,
        profile,
        beta=cfg["beta"],
        n=cfg["n"],
        t_grid=cfg["t_grid"],
        x_samples=cfg["x_samples"],
        seed=cfg["seed"],
        var_tol=cfg["var_tol"],
        eps=cfg["eps"],
    )


_RUNNERS = {
    "eval": _run_eval,
    "simulate": _run_simulate,
    "blocks": _run_blocks,
    "validate-weights": _run_validate_weights,
    "clt": _run_clt,
    "lil": _run_lil,
    "chung": _run_chung,
    "modulus": _run_modulus,
    "fclt": _run_fclt,
}


def run(config: dict, outdir=None, plots: bool = False) -> int:
    """Run one experiment config; writes outputs, prints verdicts.

    Returns the exit status: 0 pass, 2 any check failed, 1 config error.
    """
    cfg = normalize_config(config)
    report = _RUNNERS[cfg["experiment"]](cfg)
    out = Path(outdir or os.environ.get("FRACTALWALK_OUT") or "./runs")
    written = report.save(out)
    run_dir = report.run_dir(out)
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
    if plots:
        for p in _render_plots(report, run_dir):
            written.append(p)
    print(f"report: {written[0]}")
    return 0 if report.passed else 2


def _render_plots(report: ExperimentReport, dest: Path) -> list[Path]:
    """Optional SVG figures; skipped with a note if matplotlib is missing."""
    try:
        import matplotlib

        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("[note] matplotlib not installed; skipping plots")
        return []
    paths = []
    fig, ax = plt.subplots(figsize=(5, 3.2))
    if report.name == "clt" and "normalized_sums" in report.attachments:
        vals = np.sort([r[1] for r in report.attachments["normalized_sums"]["rows"]])
        ecdf = np.arange(1, vals.size + 1) / vals.size
        ax.plot(vals, ecdf, lw=1, label="empirical")
        from scipy.special import ndtr

        ax.plot(vals, ndtr(vals), lw=1, ls="--", label="normal")
        ax.set_xlabel("normalized sum")
        ax.legend()
    elif report.name in ("lil", "chung") and "terminals" in report.attachments:
        rows = report.attachments["terminals"]["rows"]
        ax.plot([r[0] for r in rows], [r[1] for r in rows], "o", ms=3, label="walk")
        ax.plot([r[0] for r in rows], [r[2] for r in rows], "x", ms=3, label="oracle")
        ax.set_xlabel("replica")
        ax.legend()
    else:
        cols = [s.name for s in report.statistics if s.passed is not None]
        vals = [s.value for s in report.statistics if s.passed is not None]
        ax.bar(range(len(vals)), vals)
        ax.set_xticks(range(len(vals)), cols, rotation=45, fontsize=6)
    ax.set_title(report.name)
    fig.tight_layout()
    out = dest / f"{report.name}.svg"
    fig.savefig(out)
    plt.close(fig)
    paths.append(out)
    return paths


def _build_parser() -> _Parser:
    parser = _Parser(prog="fractalwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for kind, defaults in _DEFAULTS.items():
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--outdir", type=str, default=None)
        p.add_argument("--plots", action="store_true")
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise UsageError("an experiment is required; see --help")
        file_cfg = {}
        if args.config:
            file_cfg = json.loads(Path(args.config).read_text())
        raw = {"experiment": args.experiment}
        for key in _DEFAULTS[args.experiment]:
            flag_val = getattr(args, key.replace("-", "_"), None)
            if flag_val is not None:
                raw[key] = flag_val
            elif key in file_cfg:
                raw[key] = file_cfg[key]
        extra = set(file_cfg) - set(_DEFAULTS[args.experiment]) - {"experiment"}
        if extra:
            raise UsageError(f"unknown config keys: {sorted(extra)}")
        return run(raw, outdir=args.outdir, plots=args.plots)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ex.RegularVariationError as err:
        print(f"[FAIL] {err}", file=sys.stderr)
        return 2
    except (BlockConstructionError, CertificationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
