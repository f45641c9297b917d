"""Long paths one block at a time, and the thread map the experiments share.

`_lockstep` draws lil's and chung's walks and Brownian oracles block-major:
every path of a group takes one block of 2^16 steps per thread map, after
the calling thread has taken the block's weights and clocks from a block
source and computed the arrays that block's paths share.  lil and chung
hand it only the source and their reducers.  The blocks are fresh arrays
that die with their block, and between blocks a path keeps only a `_Path`:
its generator, last sign, sum carry and reducer scalars.  So a run holds a
few MB whatever its horizon.  `rng.stream` and `walks._draw_signs` are
looked up at each call, so a wrapper set on those module attributes (the
benchmark's tracer) sees every draw.
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
    calls end.  The experiments map their independent work once, lil and
    chung once per block, and the kernels fn calls run on the calling
    thread, so no more threads compute than there are CPUs.
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


# -- paths in lockstep ------------------------------------------------------------

_BLOCK = 1 << 16  # steps per block: a path's arrays in flight take about 2 MB
_GROUP = 256  # paths in lockstep at once: a live Generator takes about 2.4 KB


class _Path:
    """What a path keeps between blocks: its generator, last sign and sum carry,
    lil's running maximum and cover bins, and chung's running max and min."""

    __slots__ = ("gen", "last", "carry", "top", "seen", "runmax", "low")

    def __init__(self, gen: np.random.Generator):
        self.gen, self.last, self.carry = gen, None, None
        self.top, self.seen = -math.inf, np.zeros(_COVER_EDGES.size - 1, dtype=bool)
        self.runmax, self.low = 0.0, math.inf


def _lockstep(p: float, source, replicas: int, seed: int, block) -> list:
    """Walk i on stream (seed, i) and its Brownian oracle on (seed, replicas + i).

    source(size) yields, block after block of `size` steps from the first,
    (start, a, s_sq, den): the block's first index, its weights, its exact
    clock and the denominator its reducer reads.  Walk i steps a_k X_k, the
    chain at repeat probability p along the weights; its oracle steps
    Gaussians whose variances are the gaps of the exact clock.  The
    2 * `replicas` paths run in groups of at most `_GROUP`, and each group
    walks the source once: its paths advance together, one block per
    `_map_threads` call.  Before each map the calling thread computes the
    block's oracle step sds, np.sqrt of np.diff of the clock block after the
    previous block's last value (the gaps np.diff(s_sq, prepend=0.0) has
    there), and calls `block(start, den)`.  It returns
    `reduce(path, sums, walk)`, which takes one path's running sums over the
    block (walk is True for the walks) into its `_Path` and may overwrite
    them.  Philox is counter-based, so no number depends on the group size
    or on the order the paths run in.  The paths come back in order, walks
    first, without their generators.
    """
    done = []
    for lo in range(0, 2 * replicas, _GROUP):
        group = _map_threads(lambda j: _Path(rng.stream(seed, lo + j)),
                             min(_GROUP, 2 * replicas - lo))
        last = 0.0
        for start, weights, s_sq, den in source(_BLOCK):
            step_sd = np.diff(s_sq, prepend=last)
            np.sqrt(step_sd, out=step_sd)
            last, reduce = s_sq[-1], block(start, den)

            def advance(j: int) -> None:
                path, walk = group[j], lo + j < replicas
                steps = _walk_block(path, p, weights) if walk else _oracle_block(path, step_sd)
                reduce(path, _sum_block(path, steps), walk)

            _map_threads(advance, len(group))
        for path in group:
            path.gen = None
        done += group
    return done


def _walk_block(path: _Path, p: float, a: np.ndarray) -> np.ndarray:
    """The walk's next steps a_k X_k along the weights a, a fresh array.

    One `_draw_signs` call continues from the sign the block before ended on,
    so the blocks are the steps `a * _draw_signs(gen, p, n)` draws whole.
    """
    x = walks._draw_signs(path.gen, p, a.size, path.last)
    path.last = x[-1]
    x *= a
    return x


def _oracle_block(path: _Path, step_sd: np.ndarray) -> np.ndarray:
    """The oracle's next Gaussian increments with sd step_sd, a fresh array."""
    b = path.gen.standard_normal(step_sd.size)
    b *= step_sd
    return b


def _sum_block(path: _Path, b: np.ndarray) -> np.ndarray:
    """The path's running sums over its next steps b, a fresh array.

    The carry enters the block's first step before the cumsum, so every
    partial sum is the same float addition `np.cumsum` of the whole path
    makes; adding it to the block's sums afterwards would round differently.
    """
    if path.carry is not None:  # the first sum is the first step itself, even -0.0
        b[0] += path.carry
    # Out of place: numpy holds the GIL through an in-place accumulate.
    # Two threads each summing 2^16 steps ran 0.84-0.98x one thread in
    # place, 1.55-1.97x out of place (2-vCPU VM).
    s = np.cumsum(b)
    path.carry = s[-1]
    return s


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


def _lil_block(path: _Path, trace: np.ndarray, scale: np.ndarray, coverage: bool) -> None:
    """Take a block's sums S_k at k >= i0 into path.top = max S_k / scale, in place.

    With coverage, the normalized trace also marks the cover bins it visits;
    once all nine are seen the screen is skipped, since coverage can only
    stay true.
    """
    if trace.size == 0:
        return
    np.divide(trace, scale, out=trace)
    path.top = max(path.top, float(np.max(trace)))
    if coverage and not path.seen.all():
        _mark_bins(trace, path.seen)


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


def _chung_block(path: _Path, b: np.ndarray, skip: int, coef: np.ndarray) -> None:
    """Take a block's sums b into path.low = min coef_k max_{j<=k} |S_j| over its k >= i0.

    The running max covers the whole block; its first `skip` values lie
    before i0, and coef holds the factors of the rest.
    """
    b = _running_max(b, path.runmax)
    path.runmax = b[-1]
    tail = b[skip:]
    if tail.size:
        np.multiply(coef, tail, out=tail)
        path.low = min(path.low, float(np.min(tail)))
