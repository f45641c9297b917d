"""Span tracing installed from outside the package.

`Tracer.install` replaces the package attributes that callers look up at
call time (module functions such as `fractalwalk.experiments.stream`, and
methods such as `FractalFunction.eval_grid`) with wrappers that record one
span per call: (name, start, end, parent).  Spans live in flat arrays while
a pass runs; `finish_pass` turns them into per-entry-point call counts and
self times (a span's duration minus the part its child spans cover), and
`write` saves every span of the run when it ends.

An entry point that no longer exists is listed in `missing` and reports zero
calls; one whose arguments no longer fit its counter is listed as
"<name> (counts)" and reports zero for that count.  Neither stops the run.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


def _draw_signs_counts(args, kwargs, result):
    return {"steps": int(np.size(result))}


def _eval_grid_counts(args, kwargs, result):
    # point-terms the certificate demands: points x certified depth
    self, mantissas = args[0], args[1]
    eps = args[2] if len(args) > 2 else kwargs.get("eps", 1e-12)
    certificate = type(self).certificate
    # call the unwrapped method, so counting adds no certificate span
    terms = getattr(certificate, "__wrapped__", certificate)(self, eps).terms
    return {"point_terms": int(np.size(mantissas)) * int(terms)}


def _gordin_counts(args, kwargs, result):
    j = args[2] if len(args) > 2 else kwargs["j"]
    anchor = args[3] if len(args) > 3 else kwargs.get("anchor_sign", 1.0)
    return {"pairs": (int(j), float(anchor))}


def _save_counts(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in result)}


# name -> (where callers look it up, extra counter or None).  Each place is
# (module, attribute) or (module, class, attribute).
ENTRY_POINTS = {
    "rng.stream": (
        [("fractalwalk.rng", "stream"), ("fractalwalk.walks", "stream"),
         ("fractalwalk.experiments", "stream")],
        None,
    ),
    "rng.uniform_mantissas": (
        [("fractalwalk.rng", "uniform_mantissas"),
         ("fractalwalk.experiments", "uniform_mantissas")],
        None,
    ),
    "walks.draw_signs": (
        [("fractalwalk.walks", "_draw_signs"), ("fractalwalk.experiments", "_draw_signs")],
        _draw_signs_counts,
    ),
    "walks.simulate": ([("fractalwalk.walks", "simulate")], None),
    "walks.exact_second_moment": (
        [("fractalwalk.walks", "exact_second_moment"),
         ("fractalwalk.blocking", "exact_second_moment"),
         ("fractalwalk.experiments", "exact_second_moment")],
        None,
    ),
    "walks.second_moment_profile": (
        [("fractalwalk.walks", "second_moment_profile"),
         ("fractalwalk.blocking", "second_moment_profile"),
         ("fractalwalk.experiments", "second_moment_profile")],
        None,
    ),
    "weights.values": ([("fractalwalk.weights", "WeightSequence", "values")], None),
    "weights.energies": ([("fractalwalk.weights", "WeightSequence", "energies")], None),
    "fractal.eval_grid": (
        [("fractalwalk.fractal", "FractalFunction", "eval_grid")], _eval_grid_counts
    ),
    "fractal.walk_value_grid": (
        [("fractalwalk.fractal", "FractalFunction", "walk_value_grid")], None
    ),
    "fractal.certificate": ([("fractalwalk.fractal", "FractalFunction", "certificate")], None),
    "fractal.eval": ([("fractalwalk.fractal", "FractalFunction", "eval")], None),
    "fractal.decompose_increment": (
        [("fractalwalk.fractal", "FractalFunction", "decompose_increment")], None
    ),
    "blocking.martingale_blocks": ([("fractalwalk.blocking", "martingale_blocks")], None),
    "blocking.gordin_corrector": (
        [("fractalwalk.blocking", "gordin_corrector")], _gordin_counts
    ),
    "blocking.block_statistics": ([("fractalwalk.blocking", "block_statistics")], None),
    "experiments.clt_experiment": ([("fractalwalk.experiments", "clt_experiment")], None),
    "experiments.lil_experiment": ([("fractalwalk.experiments", "lil_experiment")], None),
    "experiments.chung_experiment": ([("fractalwalk.experiments", "chung_experiment")], None),
    "experiments.modulus_experiment": (
        [("fractalwalk.experiments", "modulus_experiment")], None
    ),
    "experiments.functional_clt_experiment": (
        [("fractalwalk.experiments", "functional_clt_experiment")], None
    ),
    "experiments.brownian": ([("fractalwalk.experiments", "_brownian_from_rng")], None),
    "experiments.ks_statistic": ([("fractalwalk.experiments", "ks_statistic")], None),
    "experiments.variance_profile": ([("fractalwalk.experiments", "variance_profile")], None),
    "reports.save": ([("fractalwalk.reports", "ExperimentReport", "save")], _save_counts),
    "cli.normalize_config": ([("fractalwalk.cli", "normalize_config")], None),
    "cli.run": ([("fractalwalk.cli", "run")], None),
}

def _resolve(place):
    """(owner, attribute) for a place, or None when it no longer exists."""
    module_name, *path = place
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, path[-1]):
        return None
    return owner, path[-1]


class Tracer:
    """Records spans around the package's entry points while installed."""

    def __init__(self):
        self.names = list(ENTRY_POINTS)
        self.missing = []
        self._installed = []  # (owner, attribute, original)
        self._stack = [-1]
        self._counts = {}
        self._pairs = set()
        # on entry, indexed by span: name id and parent span
        self._ids = array("l")
        self._parents = array("l")
        # on exit, in closing order: span, start, end
        self._closed = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._done = []  # per finished pass: (starts, ends, parents, ids)

    def install(self) -> None:
        self.missing = []
        for name_id, (name, (places, counter)) in enumerate(ENTRY_POINTS.items()):
            found = False
            for place in places:
                hit = _resolve(place)
                if hit is None:
                    continue
                owner, attr = hit
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name_id, name, original, counter))
                self._installed.append((owner, attr, original))
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, name_id, name, fn, counter):
        # bound methods in locals keep the per-call cost near 1 us
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        ids, add_id, add_parent = self._ids, self._ids.append, self._parents.append
        add_closed, add_start, add_end = (
            self._closed.append, self._starts.append, self._ends.append
        )
        perf = time.perf_counter
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            add_id(name_id)
            add_parent(stack[-1])
            push(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                pop()
                add_closed(idx)
                add_start(t0)
                add_end(t1)
            if counter is not None:
                count(name, counter, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, counter, args, kwargs, result):
        try:
            counts = counter(args, kwargs, result)
        except (LookupError, TypeError, AttributeError, OSError):
            # the entry point's signature or result changed: report, go on
            if f"{name} (counts)" not in self.missing:
                self.missing.append(f"{name} (counts)")
            return
        for key, value in counts.items():
            if key == "pairs":
                self._pairs.add(value)
            else:
                full = f"{name}.{key}"
                self._counts[full] = self._counts.get(full, 0) + value

    def finish_pass(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass just traced; starts the next pass."""
        ids = np.array(self._ids, dtype=np.int64)
        parents = np.array(self._parents, dtype=np.int64)
        closed = np.array(self._closed, dtype=np.int64)
        starts = np.empty(ids.size)
        ends = np.empty(ids.size)
        starts[closed] = self._starts
        ends[closed] = self._ends
        dur = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for name in ("walks.draw_signs.steps", "fractal.eval_grid.point_terms",
                     "reports.save.bytes"):
            out[name] = int(self._counts.get(name, 0))
        steps = out["walks.draw_signs.steps"]
        out["walks.draw_signs.ns_per_step"] = (
            1e9 * out["walks.draw_signs.self_s"] / steps if steps else 0.0
        )
        point_terms = out["fractal.eval_grid.point_terms"]
        out["fractal.eval_grid.ns_per_point_term"] = (
            1e9 * out["fractal.eval_grid.self_s"] / point_terms if point_terms else 0.0
        )
        corrector_calls = out["blocking.gordin_corrector.calls"]
        out["blocking.gordin_corrector.distinct_ratio"] = (
            len(self._pairs) / corrector_calls if corrector_calls else 0.0
        )
        out["weights.self_s"] = out["weights.values.self_s"] + out["weights.energies.self_s"]
        out["trace.spans"] = int(dur.size)
        out["trace.unattributed_s"] = float(wall_s - dur[~nested].sum())
        out["trace.missing"] = len(self.missing)

        self._done.append((starts, ends, parents, ids))
        for recorded in (self._ids, self._parents, self._closed, self._starts, self._ends):
            del recorded[:]
        self._counts = {}
        self._pairs = set()
        return out

    def write(self, path) -> None:
        """Every span of the run as arrays: pass, name id, parent, start, end."""
        if not self._done:
            return
        passes = np.concatenate(
            [np.full(s.size, i, dtype=np.int32) for i, (s, *_rest) in enumerate(self._done)]
        )
        np.savez(
            path,
            names=np.array(self.names),
            pass_index=passes,
            name_id=np.concatenate([d[3] for d in self._done]).astype(np.int16),
            parent=np.concatenate([d[2] for d in self._done]).astype(np.int32),
            start=np.concatenate([d[0] for d in self._done]),
            end=np.concatenate([d[1] for d in self._done]),
        )
