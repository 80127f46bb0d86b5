"""Exact t-SNE: Gaussian-kernel affinities calibrated to a target perplexity
by a binary search on each row's bandwidth, symmetrized joint probabilities,
and KL-divergence gradient descent with early exaggeration, momentum
switching, and adaptive per-coordinate gains.

Exact O(n^2) affinities keep the implementation verifiable at cohort scale;
no Barnes-Hut approximation. The search runs over every unconverged row at
once, with the arithmetic of a search one row at a time. The descent builds
the Student-t kernel and Q once per iteration, right after Y moves, in n x n
buffers allocated once: that pair gives the next iteration's gradient and,
after every KL_EVERY-th iteration and the last, the KL history entry. The
descent never reads the KL, so it is evaluated only where it is recorded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require

PERPLEXITY_TOL = 1e-5
_MAX_SEARCH_ITERS = 200
_P_FLOOR = 1e-12

EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
LEARNING_RATE = 200.0
MIN_GAIN = 0.01
KL_EVERY = 50

# embed holds at most five n x n float64 arrays at once: P, the exaggerated P,
# the kernel's w and q, and one scratch for the gradient multiplier and the KL
# terms (the perplexity search holds fewer). Capping them at 1 GiB admits
# ~5,180 points, past the x4 cohort's ~3,900 windows.
_EMBED_MATRICES = 5
MAX_ROWS = math.isqrt((1 << 30) // (8 * _EMBED_MATRICES))
# 100x the default iteration count, so that one flag cannot buy years of
# descent (an iteration over 216 rows takes ~0.4 ms, over MAX_ROWS far more)
MAX_ITERS = 100_000


@dataclass
class Embedding:
    Y: np.ndarray
    kl_history: list[float]


def _pairwise_sq_dists(x: np.ndarray, out=None, gram=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of `x`, zero diagonal;
    built in the n x n buffer `out`, with `gram` as scratch, when given."""
    sq = np.sum(x * x, axis=1)
    gram = np.matmul(x, x.T, out=gram)
    gram *= 2.0
    # sq_i + sq_j as a row broadcast then a column add: same sums, fewer passes
    d = np.empty_like(gram) if out is None else out
    d[...] = sq
    d += sq[:, None]
    d -= gram
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _check_rows(n: int, what: str) -> None:
    """Reject more than MAX_ROWS points before any n x n array exists."""
    if n > MAX_ROWS:
        raise ValidationError(f"{what}: at most {MAX_ROWS} rows, got {n}")


def _entropy_and_probs(dists: np.ndarray, beta: np.ndarray):
    """Shannon entropies (nats) and probabilities of conditional rows at
    bandwidths `beta`; a row whose weights all underflow has entropy -inf."""
    p = np.multiply(dists, -beta[:, None])
    np.exp(p, out=p)
    total = p.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with total 0
        np.divide(p, total[:, None], out=p)
        # H = log(total) + beta * sum(d * p), one dot product per row
        h = np.log(total) + beta * np.matmul(dists[:, None, :], p[:, :, None])[:, 0, 0]
    h[total <= 0.0] = -np.inf
    return h, p


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic conditional matrix with realized perplexity within
    PERPLEXITY_TOL of the target, via a binary search on each row's Gaussian
    bandwidth, run over every unconverged row at once.

    Rows are checked in index order: the lowest row that is a near-duplicate or
    does not converge raises.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    _check_rows(n, "t-SNE")
    if not 2 <= perplexity < n:
        raise ValidationError(
            f"perplexity must satisfy 2 <= perplexity < n, got {perplexity} for n={n}"
        )
    # row i holds row i's off-diagonal distances (a copy, not a view)
    d = _off_diagonal(_pairwise_sq_dists(x)).reshape(n, n - 1)
    duplicates = np.flatnonzero(d.min(axis=1) < 1e-12)
    # rows past the first duplicate cannot raise first, so they are not searched
    rows = np.arange(duplicates[0] if duplicates.size else n)
    d = d[: rows.size]
    beta, beta_lo, beta_hi = np.ones(rows.size), np.zeros(rows.size), np.full(rows.size, np.inf)
    cond = np.zeros((n, n - 1))
    log_target = np.log(perplexity)
    for _ in range(_MAX_SEARCH_ITERS):
        if not rows.size:
            break
        h, p = _entropy_and_probs(d, beta)
        # compare on the perplexity scale, not log scale
        done = np.abs(np.exp(h) - perplexity) <= PERPLEXITY_TOL
        if done.any():
            cond[rows[done]] = p[done]
            keep = ~done
            rows, d, h = rows[keep], d[keep], h[keep]
            beta, beta_lo, beta_hi = beta[keep], beta_lo[keep], beta_hi[keep]
        wide = h > log_target  # too spread out -> narrow the kernel
        beta, beta_lo, beta_hi = (
            np.where(
                wide,
                np.where(np.isinf(beta_hi), beta * 2.0, 0.5 * (beta + beta_hi)),
                np.where(beta_lo == 0.0, beta / 2.0, 0.5 * (beta + beta_lo)),
            ),
            np.where(wide, beta, beta_lo),
            np.where(wide, beta_hi, beta),
        )
    if rows.size:
        raise ValidationError(f"perplexity calibration did not converge for row {rows[0]}")
    if duplicates.size:
        raise ValidationError(
            f"near-duplicate input rows at index {duplicates[0]}: "
            "squared distance below 1e-12"
        )
    out = np.zeros((n, n))
    _off_diagonal(out)[...] = cond.reshape(n - 1, n)
    return out


def symmetrize(cond: np.ndarray) -> np.ndarray:
    """Joint P = (P_j|i + P_i|j) / (2n), floored off-diagonal for gradient
    stability and renormalized to total mass 1: symmetric, zero diagonal.
    """
    n = cond.shape[0]
    p = (cond + cond.T) / (2.0 * n)
    off = ~np.eye(n, dtype=bool)
    p[off] = np.maximum(p[off], _P_FLOOR)
    np.fill_diagonal(p, 0.0)
    p /= p.sum()
    return p


def joint_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    return symmetrize(conditional_affinities(x, perplexity))


def _student_t_q(y: np.ndarray, out=None):
    """Low-dimensional kernel weights w = 1/(1+d^2) and normalized Q, built in
    `out`, a pair of n x n buffers, when given."""
    w, q = (None, None) if out is None else out
    w = _pairwise_sq_dists(y, out=w, gram=q)
    w += 1.0
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    q = np.divide(w, w.sum(), out=q)
    np.maximum(q, _P_FLOOR, out=q)
    np.fill_diagonal(q, 0.0)
    return w, q


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of square `a` as an (n-1, n) view in row-major
    order, striding past each diagonal slot instead of a boolean mask."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]


def _kl_terms(p: np.ndarray, scratch=None):
    """What KL(P || .) reads of P, taken once per P: its off-diagonal entries
    (a view), the mask of those > 0 (None when all are), and a buffer of their
    shape (the front of the n x n `scratch` when given)."""
    pv = _off_diagonal(p)
    mask = pv > 0
    buf = np.empty(pv.shape) if scratch is None else scratch.reshape(-1)[: pv.size]
    return pv, None if mask.all() else mask, buf.reshape(pv.shape)


def kl_divergence(p: np.ndarray, y: np.ndarray, kernel: tuple | None = None,
                  terms: tuple | None = None) -> float:
    """KL(P || Q) at embedding Y (diagonal and zero entries of P excluded).
    `kernel` is `_student_t_q(y)` and `terms` is `_kl_terms(p)` when the caller
    has already built them."""
    _, q = _student_t_q(y) if kernel is None else kernel
    pv, mask, buf = _kl_terms(p) if terms is None else terms
    qv = _off_diagonal(q)
    if mask is not None:
        pv, qv = pv[mask], qv[mask]
        buf = qv
    # sum(pv * log(pv / qv)), in place in the buffer
    np.divide(pv, qv, out=buf)
    np.log(buf, out=buf)
    buf *= pv
    return float(np.sum(buf))


def kl_gradient(p: np.ndarray, y: np.ndarray, kernel: tuple | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """dKL/dY: 4 * sum_j (p_ij - q_ij) * w_ij * (y_i - y_j). `kernel` is
    `_student_t_q(y)` when the caller has already built it; `out` is an n x n
    buffer for the multiplier (p - q) * w."""
    w, q = _student_t_q(y) if kernel is None else kernel
    mult = np.subtract(p, q, out=out)
    mult *= w
    # grad_i = 4 * (sum_j mult_ij) y_i - 4 * sum_j mult_ij y_j
    return 4.0 * (mult.sum(axis=1)[:, None] * y - mult @ y)


def embed(
    x: np.ndarray,
    perplexity: float = 30.0,
    iters: int = 1000,
    seed: int = 0,
) -> Embedding:
    """Project X to 2-D by KL descent with early exaggeration (x12 for the
    first 250 iterations), momentum 0.5 then 0.8 after iteration 250, and
    adaptive gains; deterministic per seed. `kl_history` holds the KL after
    every KL_EVERY-th iteration and after the last.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        raise ValidationError(f"embed: need at least 4 rows, got {n}")
    _check_rows(n, "embed")
    require("embed: iters", iters, numbers.Integral, 1, MAX_ITERS)
    if seed < 0:
        raise ValidationError(f"embed: seed must be >= 0, got {seed}")
    p = joint_affinities(x, perplexity)
    p_exaggerated = p * EARLY_EXAGGERATION
    # one scratch serves the gradient multiplier and the KL terms: the KL is
    # taken after the kernel is built and before the next gradient
    w, q, scratch = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    terms = _kl_terms(p, scratch)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 1e-4
    kernel = _student_t_q(y, (w, q))
    update = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_history: list[float] = []
    for it in range(1, iters + 1):
        early = it <= EXAGGERATION_ITERS
        grad = kl_gradient(p_exaggerated if early else p, y, kernel, scratch)
        momentum = MOMENTUM_EARLY if early else MOMENTUM_LATE
        gains = np.where((update * grad) < 0.0, gains + 0.2, gains * 0.8)
        np.clip(gains, MIN_GAIN, None, out=gains)
        update = momentum * update - LEARNING_RATE * gains * grad
        y = y + update
        y = y - y.mean(axis=0)
        kernel = _student_t_q(y, kernel)
        if it % KL_EVERY == 0 or it == iters:
            kl_history.append(kl_divergence(p, y, kernel, terms))
    return Embedding(Y=y, kl_history=kl_history)
