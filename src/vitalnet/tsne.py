"""Exact t-SNE: Gaussian-kernel affinities calibrated to a target perplexity
by per-row binary search, symmetrized joint probabilities, and KL-divergence
gradient descent with early exaggeration, momentum switching, and adaptive
per-coordinate gains.

Exact O(n^2) affinities keep the implementation verifiable at cohort scale;
no Barnes-Hut approximation. The descent builds the Student-t kernel and Q
once per iteration, right after Y moves: that pair gives the iteration's KL
history entry and the next iteration's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PERPLEXITY_TOL = 1e-5
_MAX_SEARCH_ITERS = 200
_P_FLOOR = 1e-12

EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
LEARNING_RATE = 200.0
MIN_GAIN = 0.01


@dataclass
class AffinityMatrix:
    """Symmetric joint probabilities P (zero diagonal, total mass 1)."""

    P: np.ndarray
    perplexity: float

    def __post_init__(self):
        n = self.P.shape[0]
        if self.P.shape != (n, n):
            raise ValidationError("affinity matrix must be square")


@dataclass
class Embedding:
    Y: np.ndarray
    kl_history: list[float]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _row_entropy_and_probs(dist_row: np.ndarray, beta: float):
    """Shannon entropy (nats) and probabilities of one conditional row."""
    w = np.exp(-dist_row * beta)
    total = w.sum()
    if total <= 0.0:
        return -np.inf, w
    p = w / total
    # H = log(total) + beta * sum(d * p)
    h = np.log(total) + beta * float(np.dot(dist_row, p))
    return h, p


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic conditional matrix with realized perplexity within
    PERPLEXITY_TOL of the target, via per-row binary search on the Gaussian
    bandwidth.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 2 <= perplexity < n:
        raise ValidationError(
            f"perplexity must satisfy 2 <= perplexity < n, got {perplexity} for n={n}"
        )
    dists = _pairwise_sq_dists(x)
    off_diag = ~np.eye(n, dtype=bool)
    cond = np.zeros((n, n))
    log_target = np.log(perplexity)
    for i in range(n):
        row = dists[i][off_diag[i]]
        if float(np.min(row)) < 1e-12:
            raise ValidationError(
                f"near-duplicate input rows at index {i}: squared distance below 1e-12"
            )
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        converged = False
        for _ in range(_MAX_SEARCH_ITERS):
            h, p = _row_entropy_and_probs(row, beta)
            # compare on the perplexity scale, not log scale
            if abs(np.exp(h) - perplexity) <= PERPLEXITY_TOL:
                converged = True
                break
            if h > log_target:  # too spread out -> narrow the kernel
                beta_lo = beta
                beta = beta * 2.0 if np.isinf(beta_hi) else 0.5 * (beta + beta_hi)
            else:
                beta_hi = beta
                beta = beta / 2.0 if beta_lo == 0.0 else 0.5 * (beta + beta_lo)
        if not converged:
            raise ValidationError(
                f"perplexity calibration did not converge for row {i}"
            )
        cond[i][off_diag[i]] = p
    return cond


def symmetrize(cond: np.ndarray, perplexity: float = 0.0) -> AffinityMatrix:
    """Joint P = (P_j|i + P_i|j) / (2n), floored off-diagonal for gradient
    stability and renormalized to total mass 1.
    """
    n = cond.shape[0]
    p = (cond + cond.T) / (2.0 * n)
    off = ~np.eye(n, dtype=bool)
    p[off] = np.maximum(p[off], _P_FLOOR)
    np.fill_diagonal(p, 0.0)
    p /= p.sum()
    return AffinityMatrix(P=p, perplexity=perplexity)


def joint_affinities(x: np.ndarray, perplexity: float) -> AffinityMatrix:
    return symmetrize(conditional_affinities(x, perplexity), perplexity)


def _student_t_q(y: np.ndarray):
    """Low-dimensional kernel weights w = 1/(1+d^2) and normalized Q."""
    w = _pairwise_sq_dists(y)
    w += 1.0
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    q = w / w.sum()
    np.maximum(q, _P_FLOOR, out=q)
    np.fill_diagonal(q, 0.0)
    return w, q


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of square `a` in row-major order, by striding past
    each diagonal slot instead of a boolean mask."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].ravel()


def kl_divergence(p: np.ndarray, y: np.ndarray, kernel: tuple | None = None) -> float:
    """KL(P || Q) at embedding Y (diagonal and zero entries of P excluded).
    `kernel` is `_student_t_q(y)` when the caller has already built it."""
    _, q = _student_t_q(y) if kernel is None else kernel
    pv, qv = _off_diagonal(p), _off_diagonal(q)
    mask = pv > 0
    if not mask.all():
        pv, qv = pv[mask], qv[mask]
    # sum(pv * log(pv / qv)), in place in the copy qv
    np.divide(pv, qv, out=qv)
    np.log(qv, out=qv)
    qv *= pv
    return float(np.sum(qv))


def kl_gradient(p: np.ndarray, y: np.ndarray, kernel: tuple | None = None) -> np.ndarray:
    """dKL/dY: 4 * sum_j (p_ij - q_ij) * w_ij * (y_i - y_j). `kernel` is
    `_student_t_q(y)` when the caller has already built it."""
    w, q = _student_t_q(y) if kernel is None else kernel
    mult = p - q
    mult *= w
    # grad_i = 4 * (sum_j mult_ij) y_i - 4 * sum_j mult_ij y_j
    return 4.0 * (mult.sum(axis=1)[:, None] * y - mult @ y)


def embed(
    x: np.ndarray,
    perplexity: float = 30.0,
    iters: int = 1000,
    seed: int = 0,
    learning_rate: float = LEARNING_RATE,
) -> Embedding:
    """Project X to 2-D by KL descent with early exaggeration (x12 for the
    first 250 iterations), momentum 0.5 then 0.8 after iteration 250, and
    adaptive gains; deterministic per seed.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        raise ValidationError(f"embed: need at least 4 rows, got {n}")
    if iters < 1:
        raise ValidationError(f"embed: iters must be >= 1, got {iters}")
    if seed < 0:
        raise ValidationError(f"embed: seed must be >= 0, got {seed}")
    p = joint_affinities(x, perplexity).P
    p_exaggerated = p * EARLY_EXAGGERATION
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 1e-4
    kernel = _student_t_q(y)
    update = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_history: list[float] = []
    for it in range(iters):
        early = it < EXAGGERATION_ITERS
        grad = kl_gradient(p_exaggerated if early else p, y, kernel)
        momentum = MOMENTUM_EARLY if early else MOMENTUM_LATE
        flip = (update * grad) < 0.0
        gains[flip] += 0.2
        gains[~flip] *= 0.8
        np.clip(gains, MIN_GAIN, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        y = y + update
        y = y - y.mean(axis=0)
        kernel = _student_t_q(y)
        kl_history.append(kl_divergence(p, y, kernel))
    return Embedding(Y=y, kl_history=kl_history)
