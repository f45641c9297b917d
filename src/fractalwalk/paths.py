"""Long paths one block at a time, and the thread map the experiments share.

A step source takes a Philox generator and yields a path's steps as
(start, block) pairs, each block a fresh array.  `_walks_and_oracles` sums
each replica's walk and oracle block by block for their reducers, so a
replica holds about 2 MB at any horizon.  `rng.stream` and
`walks._draw_signs` are looked up at each call, so a wrapper set on those
module attributes (the benchmark's tracer) sees every draw.
"""
from __future__ import annotations

import bisect
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress

import numpy as np

from . import rng, walks


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_threads(fn, count: int) -> list:
    """[fn(i) for i in range(count)], in index order, on one thread per usable CPU.

    The calling thread is one of them and takes indices from the same queue:
    it starts at once instead of waiting for a fresh thread to start, which
    cost up to 5 ms a call on a 2-vCPU VM, and it takes over the indices of
    a helper that starts late.  The helper threads live for this call only.
    A call that raises empties the queue, so the other threads start no
    further call and the error (a Ctrl-C too) surfaces once their current
    calls end.  Every experiment maps its independent work once, and the
    kernels its fn calls run on the calling thread, so no more threads
    compute than there are CPUs.
    """
    threads = min(_usable_cpus(), count)
    if threads <= 1:
        return [fn(i) for i in range(count)]
    todo = queue.SimpleQueue()
    for i in range(count):
        todo.put(i)
    out = [None] * count

    def drain() -> None:
        try:
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                out[i] = fn(i)
        except BaseException:
            # the other threads then find no index left
            with suppress(queue.Empty):
                while True:
                    todo.get_nowait()
            raise

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
    for helper in helpers:
        helper.result()
    return out


# -- step sources and running sums ---------------------------------------------

_BLOCK = 1 << 16  # steps per block: a replica's arrays take about 2 MB


def _walk_steps(gen: np.random.Generator, p: float, a: np.ndarray):
    """Weighted steps a_k X_k in blocks, as (start, block), each a fresh array.

    The same numbers as `a * _draw_signs(gen, p, a.size)`: the blocks draw
    the same Philox uniforms in order, and each block continues from the sign
    the one before ended on.
    """
    last = None
    for start in range(0, a.size, _BLOCK):
        x = walks._draw_signs(gen, p, min(_BLOCK, a.size - start), last)
        last = x[-1]
        x *= a[start:start + x.size]
        yield start, x


def _oracle_steps(gen: np.random.Generator, step_sd: np.ndarray):
    """Gaussian increments with sd step_sd[k] in blocks, as (start, block)."""
    for start in range(0, step_sd.size, _BLOCK):
        b = gen.standard_normal(min(_BLOCK, step_sd.size - start))
        b *= step_sd[start:start + b.size]
        yield start, b


def _prefix_sums(blocks):
    """Running sums of the step blocks, as (start, block), each a fresh array.

    The carry enters each block's first step before the cumsum, so every
    partial sum is the same float addition `np.cumsum` of the whole path
    makes; adding it to the block's sums afterwards would round differently.
    The caller may overwrite a block: the carry is read before it is yielded.
    """
    carry = 0.0
    for start, b in blocks:
        if start:  # the first sum is the first step itself, even -0.0
            b[0] += carry
        # Out of place: numpy holds the GIL through an in-place accumulate.
        # Two threads each summing 2^16 steps ran 0.84-0.98x one thread in
        # place, 1.55-1.97x out of place (2-vCPU VM).
        s = np.cumsum(b)
        carry = s[-1]
        yield start, s


def _from_index(i0: int, start: int, block: np.ndarray) -> tuple[int, np.ndarray]:
    """The part of a block at path index >= i0, and its offset from i0."""
    skip = max(i0 - start, 0)
    return start + skip - i0, block[skip:]


def _walks_and_oracles(replicas: int, seed: int, walk_steps, oracle_steps,
                       walk_reduce, oracle_reduce) -> tuple[list, list]:
    """Each replica's walk and its oracle, drawn from their step sources and reduced.

    Walk i draws from stream (seed, i) and its oracle from (seed, replicas + i);
    a reducer takes a path's running sums as (start, block) pairs, and the
    results come back in replica order.  The walks and then the oracles run
    as one map, on one thread per usable CPU (at most 2 * `replicas`).
    """
    def path(i: int):
        if i < replicas:
            return walk_reduce(_prefix_sums(walk_steps(rng.stream(seed, i))))
        return oracle_reduce(_prefix_sums(oracle_steps(rng.stream(seed, i))))

    out = _map_threads(path, 2 * replicas)
    return out[:replicas], out[replicas:]


# -- lil and chung reducers ------------------------------------------------------

_COVER_EDGES = np.linspace(-0.9, 0.9, 10)  # nine width-0.2 bins
_EDGES = _COVER_EDGES.tolist()


def _bin_of(x: float) -> int:
    """The cover bin of a non-NaN x: -1 below the first edge, 9 above the last."""
    return 8 if x == _EDGES[-1] else bisect.bisect_right(_EDGES, x) - 1


def _mark_bins(trace: np.ndarray, seen: np.ndarray) -> None:
    """seen |= np.histogram(trace, bins=_COVER_EDGES)[0] > 0, without a sort.

    np.histogram's rules: x lies in bin i when e_i <= x < e_{i+1}, the last
    bin also takes x = e_9, and NaN and +-inf lie in no bin.  It sorts the
    block (456-580 us per 2^16 values).  The min and max (22 us together)
    already place two values, and each bin strictly between theirs is
    tested, with the same comparisons, only while it is unseen.  A NaN
    makes the min and max NaN and places nothing; then every unseen bin is
    tested, and the comparisons, False for NaN, leave it out as np.histogram
    does.
    """
    lo, hi = float(np.min(trace)), float(np.max(trace))
    if math.isnan(lo):
        first, last = -1, seen.size
    else:
        first, last = _bin_of(lo), _bin_of(hi)
        for i in (first, last):
            if 0 <= i < seen.size:
                seen[i] = True
    for i in range(max(first + 1, 0), min(last, seen.size)):
        if not seen[i]:
            below = trace <= _EDGES[i + 1] if i == seen.size - 1 else trace < _EDGES[i + 1]
            seen[i] = np.any(below & (trace >= _EDGES[i]))


def _lil_terminal(sums, i0: int, scale: np.ndarray, coverage: bool) -> tuple[float, bool]:
    """max S_k / scale[k - i0] over k >= i0, and whether it visits all nine bins.

    Once every bin has been seen the screen is skipped: coverage can only
    turn true.
    """
    top = -math.inf
    seen = np.zeros(_COVER_EDGES.size - 1, dtype=bool)
    covered = False
    for start, b in sums:
        off, trace = _from_index(i0, start, b)
        if trace.size == 0:
            continue
        np.divide(trace, scale[off:off + trace.size], out=trace)
        top = max(top, float(np.max(trace)))
        if coverage and not covered:
            _mark_bins(trace, seen)
            covered = bool(seen.all())
    return top, covered


def _running_max(b: np.ndarray, start: float) -> np.ndarray:
    """max(start, |b_0|, ..., |b_k|) for each k, as a fresh float array.

    b is overwritten by |b|.  After np.abs, b holds +0.0, positive finite
    values, +inf or a positive NaN.  With the sign bit clear their float64
    bits order as int64 just as the values do, NaN above inf, so the running
    maximum of the bits is that of the values and a NaN still carries
    forward (if NaNs with other bits met, the one kept could differ, which
    no later step of chung tells apart).
    It ran 272 against 452 us per 2^16 block as floats.  Out of place: numpy
    holds the GIL through an in-place accumulate.  Two threads each scanning
    2^16 values ran 0.92-1.10x one thread in place, 1.88-1.95x out of place
    (2-vCPU VM).
    """
    np.abs(b, out=b)
    b[0] = np.maximum(b[0], start)
    return np.maximum.accumulate(b.view(np.int64)).view(np.float64)


def _chung_terminal(sums, i0: int, coef: np.ndarray) -> float:
    """min over k >= i0 of coef[k - i0] max_{j<=k} |S_j|."""
    runmax = 0.0
    low = math.inf
    for start, b in sums:
        b = _running_max(b, runmax)
        runmax = b[-1]
        off, tail = _from_index(i0, start, b)
        if tail.size:
            np.multiply(coef[off:off + tail.size], tail, out=tail)
            low = min(low, float(np.min(tail)))
    return low
