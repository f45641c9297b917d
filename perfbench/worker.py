"""One workload process: set-up, timed passes, checks, optional tracing.

Started by run.py with PYTHONPATH pointing at the checkout's `src`:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

It imports the package, makes the inputs and notes the moment it got there
(`ready`, on the system-wide monotonic clock, so the parent can time set-up
from before it started the process).  `--setup-only` stops there.  Otherwise
it runs passes until the next one would overrun `--seconds`; with
`--trace 1` passes alternate untraced and traced, so the tracing overhead is
measured in the same process.  The last line of stdout is a JSON summary.

    python3 perfbench/worker.py --record-goldens

re-records perfbench/goldens.json at the recorded seed.
"""
from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
RESULTS = HERE / "results"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    return parser.parse_args(argv)


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _median(values):
    """Median; for counts, a value that occurred, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _record_goldens(workloads, scratch: Path) -> int:
    seed = workloads.RECORDED_SEED
    goldens = {"seed": seed}
    for name, wl in workloads.WORKLOADS.items():
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        result = wl.run_pass(wl.inputs(seed), scratch)
        if result.failed:
            print(f"{name}: not recorded, {result.failures[:3]}", file=sys.stderr)
            return 1
        goldens[name] = dict(sorted(result.digests.items()))
    shutil.rmtree(scratch, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


def _check_digests(result, expected: dict, source: str) -> None:
    """Charge every op of a step whose output digests differ from `expected`."""
    bad = sorted({key.split("/", 1)[0] for key in set(expected) | set(result.digests)
                  if expected.get(key) != result.digests.get(key)})
    for label in bad:
        result.fail(label, result.step_ops.get(label, 0), f"output differs from {source}")
    result.failed = min(result.failed, result.ops)


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads  # imports the package: part of set-up

    if args.record_goldens:
        return _record_goldens(workloads, RESULTS / "goldens-scratch")
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy as np
    import scipy

    import fractalwalk
    from tracing import Tracer

    outdir = RESULTS / f"outputs-{args.workload}-{args.seed}"
    expected = None
    if args.seed == workloads.RECORDED_SEED:
        expected = json.loads(GOLDENS.read_text()).get(args.workload, {})
    tracer = Tracer() if args.trace else None
    kinds = ("plain", "traced") if args.trace else ("plain",)
    walls = {kind: [] for kind in kinds}
    rates, layers = [], []
    attempted = failed = 0
    failures = []
    threads = _threads()
    last = None
    start = time.perf_counter()
    for n_pass in itertools.count():
        kind = kinds[n_pass % len(kinds)]
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        if kind == "traced":
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = wl.run_pass(inputs, outdir)
        finally:
            wall = time.perf_counter() - t0
            if kind == "traced":
                tracer.uninstall()
        if kind == "traced":
            layers.append(tracer.finish_pass(wall))
        if expected is not None:
            _check_digests(result, expected, "the golden")
        elif last is not None:
            _check_digests(result, last.digests, "the previous pass")
        walls[kind].append(wall)
        if kind == "plain":
            rates.append(result.ops / wall)
        attempted += result.ops
        failed += result.failed
        failures.extend(result.failures[: max(0, 20 - len(failures))])
        threads = max(threads or 0, _threads() or 0) or None
        last = result
        elapsed = time.perf_counter() - start
        next_kind = kinds[(n_pass + 1) % len(kinds)]
        done = all(walls[k] for k in kinds)
        if done and elapsed + _median(walls[next_kind]) > args.seconds:
            break
    shutil.rmtree(outdir, ignore_errors=True)

    summary = {
        "ready": ready,
        "walls": walls,
        "ops_per_pass": last.ops,
        "rates": rates,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads_max": threads,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "fractalwalk": fractalwalk.__version__},
        "computed": {**{k: 0 for k in workloads.COMPUTED_COUNTS},
                     **wl.computed(inputs), "reports.bytes": last.report_bytes},
        "package_file": fractalwalk.__file__,
    }
    if tracer is not None:
        summary["layers"] = {k: _median([p[k] for p in layers]) for k in layers[0]}
        summary["missing"] = tracer.missing
        summary["trace_overhead_s"] = _median(walls["traced"]) - _median(walls["plain"])
        tracer.write(RESULTS / f"{args.workload}_seed{args.seed}_spans.npz")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
