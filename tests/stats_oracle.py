"""The Student-t tail of `vitalnet.stats` before its Lentz update was
written once, kept verbatim as a bit-for-bit oracle: `_betacf` with the
even and odd updates written out, `t_sf` with its own branch for t = +-inf,
and `confidence_interval` with its `level` argument. `t_quantile` is the
unchanged bisection, here over this file's `t_sf`."""

from __future__ import annotations

import functools
import math

import numpy as np

from vitalnet.errors import ValidationError

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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
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


def confidence_interval(values, level: float = 0.95) -> tuple[float, float]:
    """Two-sided t confidence interval for the mean: mean +/- t * s / sqrt(n).

    s is the sample standard deviation (divisor n-1).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("confidence_interval: need at least 2 values")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence_interval: bad level {level}")
    n = x.size
    mean = float(np.mean(x))
    s = float(np.std(x, ddof=1))
    half = t_quantile((1.0 + level) / 2.0, n - 1) * s / math.sqrt(n)
    return (mean - half, mean + half)
