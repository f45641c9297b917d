"""Variance-balanced blocks and the martingale correction.

Splitting the walk at indices where the accumulated step energy crosses
B + B^{1-delta/2} gives blocks whose sums are nearly uncorrelated; the
memory that remains is removed by a per-block corrector built from the
conditional drift of the future given the last sign.  The corrected block
sums are exactly centered, and block sums telescope back to the walk.
"""
import numpy as np

from fractalwalk import (
    WalkParams,
    WeightSequence,
    build_blocks,
    gordin_corrector,
    martingale_blocks,
    simulate,
)

CONST = WeightSequence.constant()

scheme = build_blocks(CONST, delta=1.0, count=10)
print("boundaries:", scheme.boundaries.tolist())
print("delays at alpha=0.5:", scheme.delays_for(0.5).tolist())

horizon = int(scheme.boundaries[-1])
params = WalkParams(0.75, CONST, horizon)

path = simulate(params, seed=0)
dec = martingale_blocks(params, scheme, path)
print(f"sum Y_j = {dec.y.sum():+.6f}, S_n = {path.sums[-1]:+.6f},"
      f" telescoping residual {dec.residual:.2e}")

# corrector size: a geometric series in alpha past each boundary, before
# martingale_blocks multiplies it by the path's sign at the boundary
g = gordin_corrector(params, scheme, 3)
print(f"corrector at block 3 per unit anchor: {g.value:+.6f}  (tail <= {g.tail_bound:.1e})")

# corrected block sums are centered: average xi over many paths
xis = np.array([
    martingale_blocks(params, scheme, simulate(params, seed=0, stream_id=i)).xi
    for i in range(2000)
])
means = xis.mean(axis=0)
ses = xis.std(axis=0, ddof=1) / np.sqrt(xis.shape[0])
print("per-block mean xi (ought to be 0 within noise):")
for j, (m, s) in enumerate(zip(means, ses), start=1):
    flag = "" if abs(m) <= 3 * s else "  <- outside 3 SE"
    print(f"  j={j}: {m:+.4f} +- {s:.4f}{flag}")
