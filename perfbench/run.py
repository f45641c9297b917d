"""Benchmark entry point.

    python3 perfbench/run.py --workload walk_mc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  For one workload it

1. warms the checkout's .pyc files with one untimed set-up process;
2. times set-up (interpreter start until the package is imported and the
   inputs are generated) in fresh processes, and reports the median;
3. runs the workload in one fresh process (perfbench/worker.py) for about
   `--seconds` seconds, checking every output;
4. writes perfbench/results/<workload>_seed<n>_trace<t>.json with an
   environment block, and prints every metric by name with its unit.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, the end-to-end metrics of BENCHMARK.json with `--trace 0`
and its per-layer metrics with `--trace 1`.  `--workload all` runs every
workload in turn and names each metric `<workload>.<metric>`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # four set-up-only processes plus the workload process
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_command(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(command: list[str], timeout: float) -> tuple[float, dict]:
    """Run a worker; return (time it was started, its last stdout line as JSON)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return started, json.loads(lines[-1])


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
        out[name] = size
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, versions: dict) -> dict:
    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": caches,
        "platform": platform.platform(),
        **versions,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "note": "the largest arrays are 1e6 float64 values, 8 MB, against an L3 of "
        f"{caches.get('L3', 'unknown size')}: the working set stays in cache, so "
        "this is not a memory-bandwidth benchmark",
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 bench: dict) -> dict:
    """One workload run: its metrics, the JSON fields and the results file."""
    t_start = time.perf_counter()
    _spawn(_worker_command(workload, seed, "--setup-only"), 120)  # warms .pyc, untimed
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        started, out = _spawn(_worker_command(workload, seed, "--setup-only"), 120)
        setup.append(out["ready"] - started)
    budget = RUN_LIMIT_S - (time.perf_counter() - t_start)
    started, out = _spawn(_worker_command(workload, seed, "--seconds", str(seconds),
                                          "--trace", str(trace)), budget)
    setup.append(out["ready"] - started)
    if not Path(out["package_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported {out['package_file']}, not the checkout's package")

    walls = out["walls"]["plain"]
    measured = {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(out["rates"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if trace:
        measured.update(out["layers"])
        measured["trace.overhead_s"] = out["trace_overhead_s"]
        measured.update({f"computed.{k}": v for k, v in out["computed"].items()})
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        raise BenchError(f"no value for {absent}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    results = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, out["versions"]),
        "threads_max": out["threads_max"],
        "metrics": metrics,
        "passes": {"wall_s": out["walls"], "wall_s_quartiles": _quartiles(walls),
                   "ops_per_pass": out["ops_per_pass"], "setup_s": setup},
        "computed": out["computed"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_frac": out["failed"] / out["attempted"],
        "failures": out["failures"],
        "missing_entry_points": out.get("missing", []),
    }
    (HERE / "results").mkdir(exist_ok=True)
    path = HERE / "results" / f"{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    return results


def _print_human(results: dict) -> None:
    name = results["workload"]
    passes = results["passes"]["wall_s"]
    counts = ", ".join(f"{len(v)} {k}" for k, v in passes.items())
    print(f"{name}: seed {results['seed']}, {counts} pass(es), "
          f"{len(results['passes']['setup_s'])} set-ups")
    for metric, entry in results["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_frac = {results['failed_frac']:.6g} "
          f"({results['failed']} of {results['attempted']} ops)")
    for failure in results["failures"]:
        print(f"  failure: {failure}")
    for missing in results["missing_entry_points"]:
        print(f"  missing entry point: {missing}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fractalwalk" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'fractalwalk'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    try:
        runs = [run_workload(w, args.seed, args.seconds, args.trace, bench) for w in chosen]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for results in runs:
        _print_human(results)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
