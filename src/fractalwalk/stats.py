"""The standard normal CDF, the KS distance to it, and sample quantiles.

`_ndtr` ports cephes' `ndtr` operation for operation, so it gives scipy's
doubles without importing scipy.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["ks_statistic"]

# cephes' erf/erfc coefficients (Moshier), descending powers
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # erfc(z) is 0 once z^2 > MAXLOG
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule, coefficients in descending powers.

    cephes' p1evl, with an implied leading 1, is `_polevl(x, (1.0, *coef))`:
    its first step x + coef[0] is 1.0 * x + coef[0] exactly.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF, bit for bit as cephes' `ndtr` computes it.

    With x = a/sqrt(2) and z = |x|: 0.5 + 0.5 erf(x) for z < sqrt(1/2),
    otherwise y = 0.5 erfc(z), taken as 1 - y for x > 0.  erf(x) is
    x T(x^2)/U(x^2) for z <= 1 (odd, so erf(z) = |erf(x)|), and
    erfc(z) = 1 - erf(z) for z < 1; from 1 on, erfc(z) = exp(-z^2) P(z)/Q(z)
    below 8 and R/S from 8, with exp from libm (`math.exp`; numpy's exp
    differs in the last bit), and erfc(z) = 0 once z^2 > MAXLOG, decided
    before any polynomial is evaluated so that no infinite z reaches one.
    The same operations in the same order as the C code give the same
    doubles; NaN stays NaN.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    with np.errstate(over="ignore"):
        zz = z * z
    y = np.full_like(z, np.nan)
    inner = z < 1.0
    erf = x[inner] * _polevl(zz[inner], _T) / _polevl(zz[inner], (1.0, *_U))
    y[inner] = np.where(z[inner] < _SQRT1_2, 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    y[zz > _MAXLOG] = 0.0
    for lo, hi, num, den in ((1.0, 8.0, _P, _Q), (8.0, math.inf, _R, _S)):
        band = (z >= lo) & (z < hi) & (zz <= _MAXLOG)
        e = np.array([math.exp(-v) for v in zz[band].tolist()])
        y[band] = 0.5 * (e * _polevl(z[band], num) / _polevl(z[band], (1.0, *den)))
    upper = (z >= _SQRT1_2) & (x > 0)
    y[upper] = 1.0 - y[upper]
    return y


# np.interp on this table is within _SCREEN_ERR of `_ndtr`; see ks_statistic
_SCREEN_X = np.linspace(-9.0, 9.0, 8193)
_SCREEN_CDF = _ndtr(_SCREEN_X)
_SCREEN_ERR = 1.5e-7


def ks_statistic(samples) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF.

    The value is max(max_i (i/n - Phi(x_i)), max_i (Phi(x_i) - (i-1)/n))
    over the sorted samples, each difference one float subtraction with
    Phi from `_ndtr`.  Only the differences near each maximum need the
    exact Phi, so the indices are first screened with d_i = i/n - s(x_i),
    s the linear interpolant of Phi on `_SCREEN_X` (step h = 18/8192),
    clamped to the end values outside [-9, 9].  There |s - Phi| <= h^2/8
    max|Phi''| = h^2/8 phi(1) = 1.46e-7 inside and Phi(-9) = 1.1e-19
    outside.  With a few ulps of 1 for the table's, the interpolant's and
    the subtractions' rounding, d_i is within E = 1.5e-7 of the exact
    i/n - Phi(x_i), and 1/n - d_i within E of the exact
    Phi(x_i) - (i-1)/n.  So the exact maxima sit among the indices with
    d_i within 2E of max d (plus side) or of min d (minus side), and the
    exact differences at those indices alone give the same floats as over
    all n.  A NaN sample gives NaN.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    if np.isnan(x[-1]):  # the sort puts NaN last
        return math.nan
    d = np.arange(1.0, n + 1)
    d /= n
    d -= np.interp(x, _SCREEN_X, _SCREEN_CDF)
    k = np.flatnonzero(d >= d.max() - 2 * _SCREEN_ERR)
    d_plus = np.max((k + 1) / n - _ndtr(x[k]))
    k = np.flatnonzero(d <= d.min() + 2 * _SCREEN_ERR)
    d_minus = np.max(_ndtr(x[k]) - k / n)
    return float(max(d_plus, d_minus))


def _quantiles(x: np.ndarray, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> list[float]:
    # np.quantile partitions its input for each quantile, which on a sorted
    # copy is a quick pass (3.3 ms against 4.8 ms at 200k normals).  The order
    # statistics are the same numbers, so the quantiles are too; only a -0.0
    # among +0.0 may come out with the other sign, and the callers' samples
    # hold no -0.0: grid values and walk sums that cancel give +0.0
    return [float(v) for v in np.quantile(np.sort(x), qs)]
