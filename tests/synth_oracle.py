"""The synthetic generator's recurrences as Python float loops, one path at a
time, a helper of the tests: the oracle that `synth._recur`, which runs a
block of paths at once, must match bit for bit."""

from __future__ import annotations

import numpy as np


def _ar1(rng, n: int, coef: float) -> np.ndarray:
    """Unit-variance stationary AR(1) path of length n."""
    eps = (rng.standard_normal(n) * np.sqrt(1.0 - coef * coef)).tolist()
    x = rng.standard_normal()
    out = [x]
    for e in eps[1:]:  # Python floats: the same float64 operations, in order
        x = coef * x + e
        out.append(x)
    return np.array(out)


def _burst(rng, n: int, rate: float, decay: float, dt_hours: float) -> np.ndarray:
    """Non-negative decaying burst process (sparse exponential impulses)."""
    hits = rng.random(n) < rate * dt_hours
    amps = (rng.exponential(1.0, size=n) * hits).tolist()
    d = decay**dt_hours
    acc = 0.0
    out = []
    for a in amps:
        acc = d * acc + a
        out.append(acc)
    return np.array(out)
