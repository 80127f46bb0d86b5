"""Statistical analysis: point-biserial correlation with two-sided
p-values, t-based confidence intervals at the fixed 95% level (`CI_LEVEL`)
and box-plot statistics. The per-patient summary features, the mean, std,
min and max of each vital's hourly grid taken along its contiguous rows,
are `synth.patient_feature_table`.

The t-distribution tail probabilities are computed from scratch via the
regularized incomplete beta function so the package has no runtime
dependency on scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "CorrelationResult",
    "point_biserial",
    "confidence_interval",
    "t_sf",
    "t_quantile",
    "boxplot_stats",
]


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: float
    n: int


# ---------------------------------------------------------------------------
# t-distribution machinery (regularized incomplete beta, continued fraction)
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 200
_BETACF_TOL = 1e-12
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # step m has an even term, then an odd one; converged after the odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the symmetry that keeps the continued fraction fast-converging.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """Upper-tail probability P(T > t) of Student's t with df degrees of freedom."""
    if df < 1:
        raise ValidationError(f"t_sf: df must be >= 1, got {df}")
    t = float(t)
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * _betainc(df / 2.0, 0.5, x)
    return tail if t > 0 else 1.0 - tail


@functools.lru_cache(maxsize=256)
def t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t: the value q with P(T <= q) = p.

    Solved by bisection on t_sf; deterministic and accurate to ~1e-12. A
    report asks for the same (p, df) many times, so values are memoized.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"t_quantile: p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    target = 1.0 - p  # upper-tail mass
    lo, hi = 0.0, 1.0
    while t_sf(hi, df) > target:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("t_quantile: bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_sf(mid, df) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Correlation and intervals
# ---------------------------------------------------------------------------

CI_LEVEL = 0.95


def point_biserial(x, y) -> CorrelationResult:
    """Point-biserial correlation of a continuous variable with a binary one.

    r = (M1 - M0) / s_n * sqrt(n1 * n0 / n^2), with s_n the population std
    of x. The two-sided p-value comes from t = r * sqrt((n-2) / (1-r^2))
    against Student's t with n-2 degrees of freedom.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("point_biserial: x and y must be equal-length 1-D")
    n = x.size
    if n < 3:
        raise ValidationError(f"point_biserial: need at least 3 observations, got {n}")
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("point_biserial: labels must be 0 or 1")
    y = y.astype(int)
    n1 = int(y.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValidationError("point_biserial: both label values must be present")
    s = float(np.std(x))
    if s == 0.0:
        raise ValidationError("point_biserial: x is constant, correlation undefined")
    m1 = float(x[y == 1].mean())
    m0 = float(x[y == 0].mean())
    r = (m1 - m0) / s * math.sqrt(n1 * n0 / n**2)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r <= 0.0:
        p = 0.0
    else:
        t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * t_sf(t, n - 2)
    return CorrelationResult(r=r, p=min(p, 1.0), n=n)


def confidence_interval(values) -> tuple[float, float]:
    """Two-sided 95% t confidence interval for the mean: mean +/- t * s / sqrt(n).

    s is the sample standard deviation (divisor n-1).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("confidence_interval: need at least 2 values")
    n = x.size
    mean = float(np.mean(x))
    s = float(np.std(x, ddof=1))
    half = t_quantile((1.0 + CI_LEVEL) / 2.0, n - 1) * s / math.sqrt(n)
    return (mean - half, mean + half)


def boxplot_stats(values) -> dict[str, float]:
    """Box-plot summary: quartiles plus Tukey whiskers clipped to the data."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValidationError("boxplot_stats: empty input")
    q1, med, q3 = (float(q) for q in np.percentile(x, [25, 50, 75]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    return {
        "q1": q1,
        "median": med,
        "q3": q3,
        "whisker_lo": float(inside.min()),
        "whisker_hi": float(inside.max()),
    }
