"""Exact t-SNE: Gaussian-kernel affinities calibrated to a target perplexity
by a binary search on each row's bandwidth, symmetrized joint probabilities,
and KL-divergence gradient descent with early exaggeration, momentum
switching, and adaptive per-coordinate gains.

Exact O(n^2) affinities keep the implementation verifiable at cohort scale;
no Barnes-Hut approximation. The search runs over every unconverged row at
once, with the arithmetic of a search one row at a time. The descent works on
the n(n-1)/2 unordered pairs, held in a `pair_table`. It builds the Student-t
kernel once per iteration, right after Y moves, in buffers allocated once:
the kernel gives the next iteration's gradient and, after every KL_EVERY-th
iteration and the last, the KL history entry, which the descent never reads.
The descent calls no BLAS: each step is an elementwise IEEE op or a NumPy sum
in a fixed order, so given the same P, Y has the same bits on every SIMD
level and OpenBLAS core. The search's exp, log and batched row dot are not
fixed in this way, so Y from the same features can still differ by machine.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# embed holds at most five n x n float64 arrays at once. The perplexity search
# holds about four; the full P is freed once its pair table is gathered; the
# descent holds 4.5: the pair tables of P and the exaggerated P, the kernel's
# weights and a scratch (1/2 each), the coordinate differences (1) and the
# wrapped terms (3/2). Capping them at 1 GiB admits ~5,180 points, past the
# x4 cohort's ~3,900 windows.
_EMBED_MATRICES = 5
MAX_ROWS = math.isqrt((1 << 30) // (8 * _EMBED_MATRICES))
# 100x the default iteration count, so that one flag cannot buy years of
# descent (an iteration over 216 rows takes ~0.25 ms, over MAX_ROWS far more)
MAX_ITERS = 100_000


@dataclass
class Embedding:
    Y: np.ndarray
    kl_history: list[float]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of `x`. The diagonal is
    left as computed, ~0 but not always 0: the caller discards it."""
    sq = np.sum(x * x, axis=1)
    gram = np.matmul(x, x.T)
    gram *= 2.0
    # sq_i + sq_j as a row broadcast then a column add: same sums, fewer passes
    d = np.empty_like(gram)
    d[...] = sq
    d += sq[:, None]
    d -= gram
    np.maximum(d, 0.0, out=d)
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
    with np.errstate(over="ignore", invalid="ignore"):
        d = _off_diagonal(_pairwise_sq_dists(x)).reshape(n, n - 1)
    if not np.isfinite(d).all():
        raise ValidationError("t-SNE: squared distances between input rows are not "
                              "finite (inputs overflow float64 or hold NaN/inf)")
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
    p = np.add(cond, cond.T)
    p /= 2.0 * n
    off = _off_diagonal(p)
    np.maximum(off, _P_FLOOR, out=off)
    np.fill_diagonal(p, 0.0)
    p /= p.sum()
    return p


def joint_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    return symmetrize(conditional_affinities(x, perplexity))


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of square `a` as an (n-1, n) view in row-major
    order, striding past each diagonal slot instead of a boolean mask."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]


def pair_table(a: np.ndarray) -> np.ndarray:
    """The entries a[i, (i + k) mod n] of square `a` as an (n // 2, n) table,
    row k - 1 for k = 1 .. n // 2. For symmetric `a` it lists every unordered
    pair {i, j} once, except that when n is even the last row (k = n / 2)
    lists each of its pairs twice, at columns i and i + n / 2."""
    n = a.shape[0]
    table = np.empty((n // 2, n))
    for k in range(1, n // 2 + 1):
        table[k - 1, : n - k] = a.diagonal(k)
        table[k - 1, n - k :] = a.diagonal(k - n)
    return table


def _ordered_pair_sum(table: np.ndarray) -> float:
    """The sum over ordered pairs i != j of a symmetric quantity held in a
    pair table: twice the rows that list each pair once, plus the last row
    when n is even, as it lists its pairs twice already."""
    once = (table.shape[1] - 1) // 2
    return 2.0 * table[:once].sum() + table[once:].sum()


class _Kernel:
    """The Student-t kernel of an n x 2 embedding (n >= 3, as every P from
    `joint_affinities` has) over its unordered pairs, in `pair_table` layout,
    with the buffers that the gradient and the KL write.

    `diff[c, k - 1, i]` is y[(i + k) mod n, c] - y[i, c] (the gradient turns
    it into the pair's term in place), `w` holds the weights 1 / (1 + d^2) and
    `total` their sum over ordered pairs; Q is max(w / total, _P_FLOOR).
    `wrapped` holds the first (n - 1) // 2 rows of terms, each behind a copy
    of its last (n - 1) // 2 entries, and `skewed` reads it so that column j
    of its row k - 1 is the term of pair {(j - k) mod n, j}.
    """

    def __init__(self, n: int):
        m, once = n // 2, (n - 1) // 2
        self.y2 = np.empty((2, 2 * n))  # each coordinate stored twice over
        # a Hankel view: [c, k - 1, i] reads y[(i + k) mod n, c]
        self.shifted = sliding_window_view(self.y2[:, 1:], n, axis=1)[:, :m]
        self.diff = np.empty((2, m, n))
        self.w = np.empty((m, n))
        self.total = 0.0
        self.scratch = np.empty((m, n))
        self.wrapped = np.empty((2, once, n + once))
        # row r starts at column once - 1 - r, so it reads terms[r, (j - r - 1) mod n]
        windows = sliding_window_view(self.wrapped.reshape(2, -1), n, axis=1)
        self.skewed = windows[:, once - 1 :: n + once - 1][:, :once]

    def q(self) -> np.ndarray:
        """Q's pair table, built in the scratch."""
        q = np.divide(self.w, self.total, out=self.scratch)
        return np.maximum(q, _P_FLOOR, out=q)


def _student_t(y: np.ndarray, kernel: _Kernel) -> _Kernel:
    """The kernel of `y`, built in the buffers of `kernel`, a `_Kernel(n)`.
    Every step is an elementwise IEEE op or a NumPy sum in a fixed order, with
    no BLAS call, so its bits do not depend on the CPU's SIMD level or BLAS
    kernels."""
    n = y.shape[0]
    kernel.y2[:, :n] = y.T
    kernel.y2[:, n:] = y.T
    diff = np.subtract(kernel.shifted, kernel.y2[:, None, :n], out=kernel.diff)
    w = np.multiply(diff[0], diff[0], out=kernel.w)
    w += np.multiply(diff[1], diff[1], out=kernel.scratch)
    w += 1.0
    np.divide(1.0, w, out=w)
    kernel.total = _ordered_pair_sum(w)
    return kernel


def kl_divergence(p: np.ndarray, kernel: _Kernel) -> float:
    """KL(P || Q) over ordered pairs i != j with p_ij > 0, where `p` is the
    `pair_table` of the joint P and `kernel` is `_student_t` of the
    embedding Y."""
    # sum(p * log(p / q)), in place in the scratch; p = 0 adds 0
    buf = np.divide(p, kernel.q(), out=kernel.scratch)
    np.log(buf, out=buf, where=buf > 0.0)
    buf *= p
    return float(_ordered_pair_sum(buf))


def kl_gradient(p: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """dKL/dY: 4 * sum_j (p_ij - q_ij) * w_ij * (y_i - y_j), where `p` is the
    `pair_table` of the joint P and `kernel` is `_student_t` of the embedding
    Y. The kernel serves one gradient: its differences become the pairs'
    terms."""
    n = p.shape[1]
    mult = np.subtract(p, kernel.q(), out=kernel.scratch)
    mult *= kernel.w
    # the term t = mult * (y_j - y_i) of pair {i, j = i + k} is 1/4 of
    # -dKL/dy_i and of +dKL/dy_j
    t = kernel.diff
    t *= mult
    once = (n - 1) // 2
    kernel.wrapped[:, :, :once] = t[:, :once, n - once :]
    kernel.wrapped[:, :, once:] = t[:, :once]
    # point j: a column sum of the skewed rows, which leave out the even-n last
    # row, as it lists each of its pairs at both points; point i: a column sum
    # over every row
    grad = kernel.skewed.sum(axis=1)
    grad -= t.sum(axis=1)
    grad *= 4.0
    return grad.T


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
    require("embed: seed", seed, numbers.Integral, 0)
    # the full P is freed once its pair table is gathered
    return _descend(pair_table(joint_affinities(x, perplexity)), iters, seed)


def _descend(p: np.ndarray, iters: int, seed: int) -> Embedding:
    """embed's descent from P's pair table `p`: given the same `p`, the bits
    of Y do not depend on the machine. One `_Kernel` holds the buffers of
    every iteration's kernel."""
    n = p.shape[1]
    p_exaggerated = p * EARLY_EXAGGERATION
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 1e-4
    kernel = _student_t(y, _Kernel(n))
    update = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_history: list[float] = []
    for it in range(1, iters + 1):
        early = it <= EXAGGERATION_ITERS
        grad = kl_gradient(p_exaggerated if early else p, kernel)
        momentum = MOMENTUM_EARLY if early else MOMENTUM_LATE
        gains = np.where((update * grad) < 0.0, gains + 0.2, gains * 0.8)
        np.maximum(gains, MIN_GAIN, out=gains)
        update = momentum * update - LEARNING_RATE * gains * grad
        y = y + update
        y = y - y.sum(axis=0) / n  # what y.mean(axis=0) computes
        _student_t(y, kernel)
        if it % KL_EVERY == 0 or it == iters:
            kl_history.append(kl_divergence(p, kernel))
    return Embedding(Y=y, kl_history=kl_history)
