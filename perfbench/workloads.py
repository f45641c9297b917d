"""The benchmark's seeded workloads.

Each workload has three parts:

* `inputs(seed)`: everything the run feeds the package, made from the
  workload seed alone.  This is set-up, not timed work.
* `run_pass(inputs, outdir)`: one timed pass through the package's public
  entry points (`cli.run` for experiments, library calls for blocks and
  scalar evaluation).  Every output is checked as it lands.
* `computed(inputs)`: exact work counts derived from the inputs, which
  repeat exactly from run to run.

The package is reached through module attributes looked up at call time
(`cli.run`, `walks.simulate`, ...), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fractalwalk import blocking, cli, fractal, walks, weights

# goldens.json holds output digests recorded at this seed
RECORDED_SEED = 0
GRID = 1 << 53  # uniform points are mantissas on the 2^-53 grid
EPS = 1e-12

# Bytes read plus written per unit of work by the numpy passes of the current
# code, from array sizes alone (caches ignored):
# `_draw_signs`, per step: random writes 8, `u < p` reads 8 and writes 1,
# `where` reads 1 and writes 8, `cumprod` reads 8 and writes 8.  The
# negation applied to half the paths is left out.
DRAW_SIGNS_BYTES_PER_STEP = 8 + 9 + 9 + 16
# `eval_grid`, per point and term: GRID - res 16, minimum 24, astype 16,
# scale 16, accumulate 24, res * r 16, & mask 16; per point and call: the
# residue copy 16 and the zeroed accumulator 8.
EVAL_GRID_BYTES_PER_POINT_TERM = 16 + 24 + 16 + 16 + 24 + 16 + 16
EVAL_GRID_BYTES_PER_POINT_CALL = 16 + 8


@dataclass
class PassResult:
    """Ops attempted and failed in one pass, and digests of its outputs."""

    ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    step_ops: dict = field(default_factory=dict)  # label -> ops of that step
    digests: dict = field(default_factory=dict)  # "label/file" -> sha256
    report_bytes: int = 0

    def attempt(self, label: str, ops: int) -> None:
        self.ops += ops
        self.step_ops[label] = self.step_ops.get(label, 0) + ops

    def fail(self, label: str, ops: int, why: str) -> None:
        self.failed += ops
        self.failures.append(f"{label}: {why}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- CLI experiments -----------------------------------------------------------


def _report_problems(report: dict, files: dict, cfg: dict, status: int,
                     run_dir: Path, rows: dict) -> list[str]:
    problems = []
    if report["experiment"] != cfg["experiment"]:
        problems.append(f"experiment {report['experiment']!r}")
    if report["manifest_hash"][:12] != run_dir.name:
        problems.append("run directory does not match the manifest hash")
    if report["manifest"]["seed"] != cfg["seed"]:
        problems.append("manifest seed differs from the input seed")
    stats = report["statistics"]
    if not stats or not all(isinstance(s["value"], float) and math.isfinite(s["value"])
                            for s in stats):
        problems.append("missing or non-finite statistics")
    verdict = all(s["passed"] is not False for s in stats)
    if report["passed"] is not verdict or status != (0 if verdict else 2):
        problems.append("verdict does not match its statistics or the exit status")
    if sorted(report["attachments"]) != sorted(rows):
        problems.append(f"attachments {report['attachments']}")
    for name, count in rows.items():
        data = files.get(f"{name}.csv")
        got = -1 if data is None else len(data.decode().splitlines()) - 1
        if got != count:
            problems.append(f"{name}.csv has {got} rows, expected {count}")
    return problems


def _cli_step(result: PassResult, label: str, cfg: dict, ops: int, outdir: Path,
              rows: dict) -> Path | None:
    """Run one CLI config, check what it wrote, record digests.

    `rows` maps each expected CSV attachment to its row count.  Exit status
    2 (a FAIL verdict in the report) is a correct output; an exception,
    status 1 or a malformed output fails every op of the step.
    """
    result.attempt(label, ops)
    dest = outdir / label
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.run(cfg, outdir=dest)
    except Exception as err:  # any raise is a failed op, never a crash
        result.fail(label, ops, f"raised {err!r}")
        return None
    if status not in (0, 2):
        result.fail(label, ops, f"exit status {status}")
        return None
    reports = list(dest.glob("*/*/report.json"))
    if len(reports) != 1:
        result.fail(label, ops, f"expected one report.json, found {len(reports)}")
        return None
    run_dir = reports[0].parent
    files = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        files[path.name] = data
        result.digests[f"{label}/{path.name}"] = _sha256(data)
        result.report_bytes += len(data)
    try:
        problems = _report_problems(json.loads(files["report.json"]), files, cfg, status,
                                    run_dir, rows)
    except (ValueError, LookupError, TypeError) as err:
        problems = [f"malformed report: {err!r}"]
    if problems:
        result.fail(label, ops, "; ".join(problems))
        return None
    return run_dir


# -- walk_mc -------------------------------------------------------------------

P = 0.75
CLT_N, CLT_REPLICAS = 5_000, 10_000
LONG_N, LONG_REPLICAS = 1_000_000, 50
CLT_SPOT_CHECKS = 16


def walk_mc_inputs(seed: int) -> dict:
    # CLI defaults written out, so a later change of default cannot change
    # the workload; no `workers` key, so the code's own default applies
    walk = {"p": P, "weights": "const", "seed": seed}
    return {
        "seed": seed,
        "clt": {"experiment": "clt", "n": CLT_N, "replicas": CLT_REPLICAS, **walk},
        "lil": {"experiment": "lil", "n": LONG_N, "replicas": LONG_REPLICAS,
                "normalization": "exact_s", **walk},
        "chung": {"experiment": "chung", "n": LONG_N, "replicas": LONG_REPLICAS, **walk},
    }


def _reference_sign_sum(seed: int, stream_id: int, p: float, n: int) -> int:
    """S_n of one unit-weight walk, drawn straight from its Philox stream.

    X_1 is +1 when the first uniform is below 1/2; X_k repeats X_{k-1} when
    the k-th uniform is below p.  Integer arithmetic, so the sum is exact.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    u = np.random.Generator(np.random.Philox(ss)).random(n)
    parity = np.concatenate(([0], np.cumsum(u[1:] >= p) % 2))
    first = 1 if u[0] < 0.5 else -1
    return int(first * np.sum(1 - 2 * parity))


def _clt_spot_check(result: PassResult, run_dir: Path, seed: int) -> None:
    """The first replicas' normalized sums against an independent reference."""
    alpha = 2.0 * P - 1.0
    lags = np.arange(1, CLT_N, dtype=float)
    s_n = math.sqrt(CLT_N + 2.0 * float(np.sum((CLT_N - lags) * alpha**lags)))
    with (run_dir / "normalized_sums.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1 : CLT_SPOT_CHECKS + 1]
    for row in rows:
        try:
            replica, value = int(row[0]), float(row[1])
        except (ValueError, IndexError):
            result.fail("clt", CLT_N, f"malformed row {row}")
            continue
        want = _reference_sign_sum(seed, replica, P, CLT_N)
        if abs(value * s_n - want) > 1e-9 * s_n:
            result.fail("clt", CLT_N, f"replica {replica}: {value} vs reference {want}/s_n")


def walk_mc_pass(inputs: dict, outdir: Path) -> PassResult:
    result = PassResult()
    clt = inputs["clt"]
    run_dir = _cli_step(result, "clt", clt, CLT_REPLICAS * CLT_N, outdir,
                        {"normalized_sums": CLT_REPLICAS})
    if run_dir is not None:
        _clt_spot_check(result, run_dir, inputs["seed"])
    for label in ("lil", "chung"):
        # one op per step of each walk and of each Brownian oracle path
        _cli_step(result, label, inputs[label], 2 * LONG_REPLICAS * LONG_N, outdir,
                  {"terminals": LONG_REPLICAS})
    return result


def walk_mc_computed(inputs: dict) -> dict:
    steps = CLT_REPLICAS * CLT_N + 2 * LONG_REPLICAS * LONG_N
    return {
        "walks.steps": steps,
        "experiments.oracle_steps": 2 * LONG_REPLICAS * LONG_N,
        "walks.draw_signs_bytes": steps * DRAW_SIGNS_BYTES_PER_STEP,
    }


# -- fractal_grid --------------------------------------------------------------

MODULUS_SWEEPS = ((2, range(4, 49, 4)), (3, range(3, 31, 3)), (10, range(2, 15, 2)))
MODULUS_SAMPLES = 200_000
FCLT_SAMPLES = 1_000_000
FCLT_T = (0.25, 0.5, 0.75, 1.0)
# (base, largest exponent e of h = r^-e) as in acceptance criterion 5
SCALAR_SCALES = ((2, 20), (3, 12), (10, 8))
SCALAR_POINTS = 1_000


def fractal_grid_inputs(seed: int) -> dict:
    fractal_cfg = {"weights": "const", "delta": 1.0, "seed": seed, "eps": EPS}
    modulus = [
        {"experiment": "modulus", "r": r, "h_grid": [f"{r}^-{e}" for e in exps],
         "x_samples": MODULUS_SAMPLES, "ks_tol": 0.02, **fractal_cfg}
        for r, exps in MODULUS_SWEEPS
    ]
    fclt = {"experiment": "fclt", "r": 2, "beta": 1.0, "n": 40, "t_grid": list(FCLT_T),
            "x_samples": FCLT_SAMPLES, "var_tol": 0.05, **fractal_cfg}
    scalar = []
    for r, expo_hi in SCALAR_SCALES:
        rng = np.random.default_rng([seed, r])
        ms = rng.integers(0, GRID, size=SCALAR_POINTS, dtype=np.uint64)
        expos = rng.integers(2, expo_hi + 1, size=SCALAR_POINTS)
        scalar.append((r, [(int(m), int(e)) for m, e in zip(ms, expos)]))
    return {"seed": seed, "modulus": modulus, "fclt": fclt, "scalar": scalar}


def _exact_unit_series(r: int, m: int, depth: int) -> Fraction:
    """sum_{k<=depth} d(r^(k-1) x) / r^(k-1) at x = m/2^53, unit weights, exact."""
    num, res = 0, m
    for _ in range(depth):
        num = num * r + min(res, GRID - res)
        res = res * r % GRID
    return Fraction(num, GRID * r ** (depth - 1))


def _scalar_step(result: PassResult, r: int, points: list) -> None:
    """Certified eval against the exact sum; increment decomposition residual.

    Three evaluations of f per point: f(x), and f(x), f(x+h) inside the
    decomposition.  With unit weights the terms past depth D sum to at most
    r^(1-D) / (2 (r-1)), which the comparison adds to the certified bound.
    """
    label = f"scalar_r{r}"
    result.attempt(label, 3 * len(points))
    f = fractal.FractalFunction(r, weights.WeightSequence.constant(), 1.0)
    for m, e in points:
        x = Fraction(m, GRID)
        try:
            value = f.eval(x, EPS)
            dec = f.decompose_increment(x, Fraction(1, r**e), EPS)
        except Exception as err:  # any raise is a failed op, never a crash
            result.fail(label, 3, f"x={m}/2^53 raised {err!r}")
            continue
        depth = value.terms + 30
        tail = r ** (1 - depth) / (2.0 * (r - 1))
        error = abs(Fraction(value.value) - _exact_unit_series(r, m, depth))
        if not float(error) <= value.error_bound + tail:
            result.fail(label, 3, f"x={m}/2^53: |eval - exact| = {float(error):.3g} "
                                  f"> bound {value.error_bound:.3g}")
        elif not abs(dec.residual) <= 4.0 * EPS:
            result.fail(label, 3, f"x={m}/2^53, h={r}^-{e}: residual {dec.residual:.3g}")


def fractal_grid_pass(inputs: dict, outdir: Path) -> PassResult:
    result = PassResult()
    for cfg in inputs["modulus"]:
        scales = len(cfg["h_grid"])
        # f at x and at x+h for every sample and scale
        _cli_step(result, f"modulus_r{cfg['r']}", cfg, 2 * scales * cfg["x_samples"],
                  outdir, {"increments": scales})
    fclt = inputs["fclt"]
    _cli_step(result, "fclt", fclt, (1 + len(fclt["t_grid"])) * fclt["x_samples"],
              outdir, {"marginals": len(fclt["t_grid"])})
    for r, points in inputs["scalar"]:
        _scalar_step(result, r, points)
    return result


def fractal_grid_computed(inputs: dict) -> dict:
    unit = weights.WeightSequence.constant()
    terms = {}
    point_terms = points = 0
    calls = [(cfg["r"], 2 * len(cfg["h_grid"]), cfg["x_samples"]) for cfg in inputs["modulus"]]
    fclt = inputs["fclt"]
    calls.append((fclt["r"], 1 + len(fclt["t_grid"]), fclt["x_samples"]))
    for r, count, samples in calls:
        if r not in terms:
            terms[r] = fractal.FractalFunction(r, unit, 1.0).certificate(EPS).terms
        point_terms += count * samples * terms[r]
        points += count * samples
    return {
        "fractal.grid_point_terms": point_terms,
        "fractal.eval_grid_bytes": point_terms * EVAL_GRID_BYTES_PER_POINT_TERM
        + points * EVAL_GRID_BYTES_PER_POINT_CALL,
    }


# -- blocks --------------------------------------------------------------------

BLOCK_COUNT = 51
BLOCK_PATHS = 2_000
BLOCK_TOL = 1e-10


def blocks_inputs(seed: int) -> dict:
    # the configuration of tests/test_blocking.py::test_corrected_blocks_are_centered
    return {"seed": seed, "p": P, "delta": 1.0, "count": BLOCK_COUNT,
            "paths": BLOCK_PATHS, "tol": BLOCK_TOL}


def blocks_pass(inputs: dict, outdir: Path) -> PassResult:
    """Corrected block sums of every path; the telescoping residual of each
    path must stay within 2 M tol for M blocks."""
    result = PassResult()
    paths, tol = inputs["paths"], inputs["tol"]
    result.attempt("blocks", paths)
    unit = weights.WeightSequence.constant()
    try:
        scheme = blocking.build_blocks(unit, inputs["delta"], inputs["count"])
        params = walks.WalkParams(inputs["p"], unit, int(scheme.boundaries[-1]))
    except Exception as err:  # any raise is a failed op, never a crash
        result.fail("blocks", paths, f"set-up raised {err!r}")
        return result
    m = scheme.n_blocks
    limit = 2 * m * tol
    xi = np.zeros((paths, m))
    for i in range(paths):
        try:
            path = walks.simulate(params, inputs["seed"], i)
            dec = blocking.martingale_blocks(params, scheme, path, tol=tol)
        except Exception as err:  # any raise is a failed op, never a crash
            result.fail("blocks", 1, f"path {i} raised {err!r}")
            continue
        if dec.xi.shape != (m,) or not np.all(np.isfinite(dec.xi)):
            result.fail("blocks", 1, f"path {i}: xi has shape {dec.xi.shape} or is not finite")
        elif not abs(dec.residual) <= limit:
            result.fail("blocks", 1, f"path {i}: residual {dec.residual:.3g} > {limit:.3g}")
        else:
            xi[i] = dec.xi
    result.digests["blocks/xi"] = _sha256(xi.tobytes())
    return result


def blocks_computed(inputs: dict) -> dict:
    scheme = blocking.build_blocks(
        weights.WeightSequence.constant(), inputs["delta"], inputs["count"]
    )
    steps = inputs["paths"] * int(scheme.boundaries[-1])
    return {
        "walks.steps": steps,
        "blocking.corrector_calls": inputs["paths"] * scheme.n_blocks,
        "walks.draw_signs_bytes": steps * DRAW_SIGNS_BYTES_PER_STEP,
    }


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], dict]
    run_pass: Callable[[dict, Path], PassResult]
    computed: Callable[[dict], dict]


WORKLOADS = {
    "walk_mc": Workload(walk_mc_inputs, walk_mc_pass, walk_mc_computed),
    "fractal_grid": Workload(fractal_grid_inputs, fractal_grid_pass, fractal_grid_computed),
    "blocks": Workload(blocks_inputs, blocks_pass, blocks_computed),
}

COMPUTED_COUNTS = (
    "walks.steps",
    "experiments.oracle_steps",
    "fractal.grid_point_terms",
    "blocking.corrector_calls",
    "walks.draw_signs_bytes",
    "fractal.eval_grid_bytes",
)
