"""Energy-balanced blocking of a walk and its martingale correction.

`build_blocks` cuts the index line into blocks I_j = (h_j, h_{j+1}] whose
energies grow like B_j ~ A_{h_j}^{1 - delta/2}: each boundary is the first
index at which the energy gained since the last boundary reaches that target.
Blocks built this way are long enough to dominate the one-step memory (the
mixing coefficient decays geometrically while block energies grow
polynomially) but short enough that no single block dominates the total
variance.

For a positively correlated chain the block sums Y_j are not orthogonal; the
Gordin corrector

  u_j = X_{h_j} * sum_{k>=1} a_{h_j + k} alpha^{k+1}

is the conditional expectation of the future drift given the state at the
boundary, and xi_j = Y_j - u_j + u_{j+1} telescopes back to the walk exactly:
sum xi_j = sum Y_j - u_1 + u_{M+1}.  The corrector series is truncated with a
certified geometric tail bound.

Only the anchor sign X_{h_j} depends on the path.  `martingale_blocks`
certifies the magnitudes |u_j| once per (scheme, alpha, tol), keeps them on
the scheme, and applies the anchors of each path as one array product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fractal import CertificationError
from .walks import WalkParams, WalkPath, exact_second_moment, second_moment_profile
from .weights import WeightSequence, _check_delta, _growth_ok, _ratio_sequence

__all__ = [
    "BlockConstructionError",
    "BlockingScheme",
    "BlockStats",
    "GordinValue",
    "GordinDecomposition",
    "build_blocks",
    "block_statistics",
    "gordin_corrector",
    "martingale_blocks",
]


class BlockConstructionError(RuntimeError):
    """The weight energy cannot reach the next block target."""


@dataclass(frozen=True)
class BlockingScheme:
    """Boundaries h_1 = 0 < h_2 < ... < h_count and the energies there."""

    weights: WeightSequence
    delta: float
    boundaries: np.ndarray  # int64, starts at 0
    energies: np.ndarray  # float64, A_{h_j} with A_0 = 0
    # (alpha, tol) -> read-only (corrector magnitudes, tail bounds); see
    # `_corrector_plan`.  Not an init field, so `dataclasses.replace` cannot
    # carry plans over to other boundaries.
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_blocks(self) -> int:
        return self.boundaries.size - 1

    @property
    def blocks(self) -> list[tuple[int, int]]:
        b = self.boundaries
        return [(int(b[j]), int(b[j + 1])) for j in range(self.n_blocks)]

    @property
    def block_energies(self) -> np.ndarray:
        """B_j = A_{h_{j+1}} - A_{h_j}."""
        return np.diff(self.energies)

    def delays_for(self, alpha: float) -> np.ndarray:
        """Decoupling delays H_j = floor(24 log B_j / log(1/|alpha|)) + 1.

        One delay per boundary, from the cumulative energy B_j = A_{h_j}.
        After H_j steps the mixing coefficient is below B_j^-24, small enough
        to ignore against any polynomial moment of the block.  Boundaries
        with B_j <= 1 (or a memoryless chain) need no delay: H_j = 1.  A chain
        with |alpha| >= 1 never mixes and is refused.
        """
        if not abs(alpha) < 1.0:
            raise ValueError(f"alpha must be in (-1, 1), got {alpha}")
        b = self.energies
        h = np.ones(b.size, dtype=np.int64)
        if alpha == 0.0:
            return h
        rate = math.log(1.0 / abs(alpha))
        big = b > 1.0
        h[big] = np.floor(24.0 * np.log(b[big]) / rate).astype(np.int64) + 1
        return h


def build_blocks(
    weights: WeightSequence,
    delta: float,
    count: int,
    max_index: int = 10_000_000,
) -> BlockingScheme:
    """Boundaries h_1 = 0, h_{n+1} = min{h > h_n: A_h - A_{h_n} >= A_{h_n}^{1-delta/2}}.

    The first target is 0 (empty-sum convention), so h_2 = 1 always.  Raises
    BlockConstructionError if the energy plateaus below a target, overflows
    float64 at a boundary, or the scan passes max_index.
    """
    delta = _check_delta(delta)
    count = int(count)
    if count < 2:
        raise ValueError(f"count must be >= 2 boundaries, got {count}")
    exponent = 1.0 - delta / 2.0
    finite = weights.length

    cap = max(1024, 4 * count)
    energies = weights.energies(cap)
    bounds = [0]
    b_prev = 0.0
    for _ in range(count - 1):
        h_prev = bounds[-1]
        target = b_prev + (b_prev**exponent if b_prev > 0.0 else 0.0)
        while True:
            idx = int(np.searchsorted(energies, target, side="left"))
            if idx < energies.size:
                break
            if finite is not None and cap >= finite:
                raise BlockConstructionError(
                    f"weights exhausted: energy plateaus at {energies[-1]:.6g} "
                    f"below the block target {target:.6g}"
                )
            if cap >= max_index:
                raise BlockConstructionError(
                    f"no index below {max_index} reaches the block target "
                    f"{target:.6g}"
                )
            cap = min(4 * cap, max_index)
            energies = weights.energies(cap)
        h = max(h_prev + 1, idx + 1)
        bounds.append(h)
        b_prev = float(energies[h - 1])
        if not math.isfinite(b_prev):
            raise BlockConstructionError(
                f"energy at boundary h={h} is {b_prev}: the weights overflow float64"
            )

    boundaries = np.asarray(bounds, dtype=np.int64)
    at = np.concatenate(([0.0], energies[boundaries[1:] - 1]))
    boundaries.flags.writeable = False
    at.flags.writeable = False
    return BlockingScheme(
        weights=weights, delta=delta, boundaries=boundaries, energies=at
    )


def _check_scheme_params(params: WalkParams, scheme: BlockingScheme) -> None:
    if params.weights.spec != scheme.weights.spec:
        raise ValueError("walk and blocking scheme use different weights")


@dataclass(frozen=True)
class BlockStats:
    """Per-block sums of one path and the exact moments to compare against."""

    boundaries: np.ndarray
    y: np.ndarray  # Y_j = S_{h_{j+1}} - S_{h_j}
    sigma_sq: np.ndarray  # E[Y_j^2], exact
    s_sq_boundaries: np.ndarray  # E[S_{h_j}^2] at each boundary


def block_statistics(
    params: WalkParams, scheme: BlockingScheme, path: WalkPath
) -> BlockStats:
    """Block sums of a simulated path next to their exact second moments."""
    _check_scheme_params(params, scheme)
    b = scheme.boundaries
    if path.horizon < b[-1]:
        raise ValueError(
            f"path horizon {path.horizon} shorter than last boundary {b[-1]}"
        )
    y = path.sums[b[1:]] - path.sums[b[:-1]]
    sigma_sq = np.array(
        [
            exact_second_moment(params.p, params.weights, int(lo), int(hi))
            for lo, hi in scheme.blocks
        ]
    )
    profile = second_moment_profile(params.p, params.weights, int(b[-1]))
    s_sq = np.concatenate(([0.0], profile[b[1:] - 1]))
    return BlockStats(boundaries=b, y=y, sigma_sq=sigma_sq, s_sq_boundaries=s_sq)


@dataclass(frozen=True)
class GordinValue:
    value: float
    tail_bound: float
    terms: int


def gordin_corrector(
    params: WalkParams,
    scheme: BlockingScheme,
    j: int,
    anchor_sign: float = 1.0,
    tol: float = 1e-10,
    max_terms: int | None = None,
) -> GordinValue:
    """u_j = anchor * sum_{k>=1} a_{h_j + k} alpha^{k+1}, certified to tol.

    The truncation tail is closed geometrically: with K_hat and the growth
    bound A_{m+1} <= A_m / |alpha| measured on the scanned window,

      |tail| <= sqrt(K_hat) A_{h_j+K}^{(1-delta)/2} |alpha|^{K+1} rho/(1-rho),

    rho = |alpha|^{(1+delta)/2}, doubled for safety.  The budget K doubles
    from 64 up to max_terms, by default 64 + 4*H_j (the decoupling delay at
    the boundary); raises CertificationError if the bound never lands under
    tol within the budget.
    """
    _check_scheme_params(params, scheme)
    if not 1 <= j <= scheme.boundaries.size:
        raise ValueError(f"boundary index j must be in 1..{scheme.boundaries.size}")
    alpha = params.alpha
    if alpha == 0.0:
        return GordinValue(value=0.0, tail_bound=0.0, terms=0)
    if anchor_sign not in (-1.0, 1.0, -1, 1):
        raise ValueError(f"anchor sign must be +-1, got {anchor_sign}")
    if max_terms is None:
        max_terms = 64 + 4 * int(scheme.delays_for(alpha)[j - 1])
    h_j = int(scheme.boundaries[j - 1])
    weights = scheme.weights
    delta = scheme.delta
    finite = weights.length
    abs_a = abs(alpha)
    rho = abs_a ** ((1.0 + delta) / 2.0)

    k_budget = 64
    while True:
        kk = min(k_budget, max_terms)
        if finite is not None and h_j + kk >= finite:
            kk = max(finite - h_j, 1)
            tail = 0.0
        else:
            tail = None
        vals = weights.values(h_j + kk)[h_j:]
        powers = alpha ** np.arange(2, kk + 2, dtype=float)
        value = float(anchor_sign) * float(vals @ powers)
        if tail is None:
            scan = h_j + kk + max(64, kk // 4)
            energies = weights.energies(scan)
            k_hat = float(np.max(_ratio_sequence(weights.values(scan), energies, delta)))
            a_factor = 1.0
            if delta != 1.0:
                a_factor = float(energies[h_j + kk - 1]) ** ((1.0 - delta) / 2.0)
            if np.isfinite(k_hat) and _growth_ok(energies[h_j + kk - 1 :], -math.log(abs_a)):
                tail = (
                    2.0
                    * math.sqrt(k_hat)
                    * a_factor
                    * abs_a ** (kk + 1)
                    * rho
                    / (1.0 - rho)
                )
            else:
                tail = math.inf
        if tail <= tol:
            return GordinValue(value=value, tail_bound=float(tail), terms=kk)
        if kk >= max_terms:
            raise CertificationError(
                f"corrector tail not certified at tol={tol} within {max_terms} terms"
            )
        k_budget *= 2


@dataclass(frozen=True)
class GordinDecomposition:
    """xi_j = Y_j - u_j + u_{j+1}; sum xi = sum Y - u_1 + u_{M+1} exactly."""

    xi: np.ndarray
    u: np.ndarray  # u_1..u_{M+1}; u_1 = 0 (no history before the first block)
    y: np.ndarray
    tail_bounds: np.ndarray
    residual: float  # telescoping check, float noise only


def _corrector_plan(
    params: WalkParams, scheme: BlockingScheme, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Certified u_j at anchor +1 and their tail bounds, j = 1..M+1.

    Computed on the first call for (alpha, tol) and kept read-only on the
    scheme.  A tol that cannot be certified raises before anything is kept,
    so it raises again on every call.
    """
    key = (params.alpha, tol)
    plan = scheme._plans.get(key)
    if plan is None:
        m = scheme.n_blocks
        mags = np.zeros(m + 1)
        tails = np.zeros(m + 1)
        for j in range(2, m + 2):
            g = gordin_corrector(params, scheme, j, anchor_sign=1.0, tol=tol)
            mags[j - 1] = g.value
            tails[j - 1] = g.tail_bound
        mags.flags.writeable = False
        tails.flags.writeable = False
        plan = scheme._plans[key] = (mags, tails)
    return plan


def martingale_blocks(
    params: WalkParams,
    scheme: BlockingScheme,
    path: WalkPath,
    tol: float = 1e-10,
) -> GordinDecomposition:
    """Corrected block sums of one path, anchored at the boundary signs.

    The corrector u_j is evaluated with anchor X_{h_j}, the last sign of the
    preceding block; u_1 uses no anchor and is 0 by convention.  The
    magnitudes are certified once per (scheme, alpha, tol) and the anchors
    of this path applied to them; a sign flip is exact, so u_j is the value
    `gordin_corrector` returns for that anchor, to the bit.
    """
    _check_scheme_params(params, scheme)
    b = scheme.boundaries
    if path.horizon < b[-1]:
        raise ValueError(
            f"path horizon {path.horizon} shorter than last boundary {b[-1]}"
        )
    mags, tails = _corrector_plan(params, scheme, tol)
    y = path.sums[b[1:]] - path.sums[b[:-1]]
    u = np.zeros(b.size)
    if params.alpha != 0.0:  # memoryless: u_j is +0.0, whatever the anchor
        u[1:] = path.signs[b[1:] - 1] * mags[1:]
    xi = y - u[:-1] + u[1:]
    residual = float(np.sum(y) - (np.sum(xi) + u[0] - u[-1]))
    return GordinDecomposition(xi=xi, u=u, y=y, tail_bounds=tails, residual=residual)
