"""Differentiable layer primitives: 1-D convolution, max-pooling, LSTM,
dense layers, and binary cross-entropy, each with a manual backward pass.

All forward functions operate on batched arrays (leading batch axis) and
return a cache consumed by the matching backward function. The nonlinearities
are fixed: every convolution applies ReLU, and a dense layer applies ReLU or
nothing, as its caller selects.

The LSTM works time-major. Its forward pass projects the inputs of all T
steps in one matmul call, over a time-major view of x, into a (T, B, 4H) gate
buffer; each step adds h @ wh to its slice and overwrites it in place with
the gate values. The i, f and o gates use sigmoid(z) = 0.5 + 0.5 *
tanh(0.5 * z), which cannot overflow, so one scale -> tanh -> scale -> shift
pass covers all four gates. The cache is (x, wx, wh, gates, cs, hs); cs and
hs hold the cell and hidden states of every step as (T+1, B, H) arrays whose
row 0 is the zero initial state. The backward pass derives every step's local
derivatives before its loop, carries only dh and dc through the loop, and
forms dwx, dwh, db and dx from the whole (T, B, 4H) block of gate gradients
afterwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

BCE_EPS = 1e-7


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to stay overflow-free in both tails
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# 1-D convolution (valid cross-correlation along time)
# ---------------------------------------------------------------------------


def _time_windows(x: np.ndarray, width: int, stride: int = 1) -> np.ndarray:
    """Strided view of shape (B, T_out, width, C) over the time axis."""
    b, t, c = x.shape
    t_out = (t - width) // stride + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (b, t_out, width, c), (s0, s1 * stride, s1, s2), writeable=False
    )


def conv1d_forward(x, w, bias):
    """x: (B, T, C), w: (F, K, C), bias: (F,) -> ReLU out (B, T-K+1, F)."""
    b, t, c = x.shape
    f, k, cw = w.shape
    if cw != c:
        raise ValidationError(f"conv1d: channel mismatch (input {c}, weights {cw})")
    if t < k:
        raise ValidationError(f"conv1d: input length {t} shorter than kernel {k}")
    cols = _time_windows(x, k).reshape(b * (t - k + 1), k * c)
    pre = (cols @ w.reshape(f, k * c).T).reshape(b, t - k + 1, f) + bias
    out = np.maximum(pre, 0.0)
    return out, (x, w, pre, out)


def conv1d_backward(dout, cache):
    x, w, pre, _ = cache
    b, t, c = x.shape
    f, k, _ = w.shape
    t_out = t - k + 1
    dpre = (dout * (pre > 0)).reshape(b * t_out, f)
    cols = _time_windows(x, k).reshape(b * t_out, k * c)
    dw = (dpre.T @ cols).reshape(f, k, c)
    db = dpre.sum(axis=0)
    dcols = (dpre @ w.reshape(f, k * c)).reshape(b, t_out, k, c)
    dx = np.zeros_like(x)
    for j in range(k):
        dx[:, j : j + t_out, :] += dcols[:, :, j, :]
    return dx, dw, db


# ---------------------------------------------------------------------------
# Max pooling (gradient routed to the first argmax of each window)
# ---------------------------------------------------------------------------


def maxpool1d_forward(x, size: int, stride: int):
    """x: (B, T, F) -> out (B, floor((T-size)/stride)+1, F).

    A running strict `>` over the window offsets keeps the first argmax, as
    `np.argmax` does; the output is the window maximum (a tie between 0.0
    and -0.0 may return either sign).
    """
    b, t, f = x.shape
    if size < 1 or stride < 1:
        raise ValidationError("maxpool1d: size and stride must be >= 1")
    if t < size:
        raise ValidationError(f"maxpool1d: input length {t} shorter than window {size}")
    win = _time_windows(x, size, stride)  # (B, T_out, size, F)
    out = win[:, :, 0, :].copy()
    # the narrowest dtype that holds every offset keeps the cached argmax small
    offset = np.min_scalar_type(size - 1).type
    arg = np.zeros(out.shape, dtype=offset)
    for j in range(1, size):
        cand = win[:, :, j, :]
        # j exceeds every earlier offset, so max() sets arg exactly where cand wins
        np.maximum(arg, (cand > out) * offset(j), out=arg)
        np.maximum(out, cand, out=out)
    return out, (x.shape, size, stride, arg)


def maxpool1d_backward(dout, cache):
    shape, size, stride, arg = cache
    t_out = arg.shape[1]
    span = stride * (t_out - 1) + 1
    dx = np.zeros(shape)
    for j in range(size):
        # windows whose argmax sits at offset j read x[:, j::stride]
        dx[:, j : j + span : stride] += dout * (arg == j)
    return dx


# ---------------------------------------------------------------------------
# LSTM (gate order i, f, g, o; returns the final hidden state)
# ---------------------------------------------------------------------------


def lstm_forward(x, wx, wh, bias):
    """x: (B, T, D), wx: (D, 4H), wh: (H, 4H), bias: (4H,) -> h_T (B, H)."""
    b, t, d = x.shape
    h_dim = wh.shape[0]
    if wx.shape != (d, 4 * h_dim) or bias.shape != (4 * h_dim,):
        raise ValidationError("lstm: weight shapes inconsistent with input")
    # input projection for every step in one matmul over a time-major view
    gates = np.matmul(x.transpose(1, 0, 2), wx)
    gates += bias
    # sigmoid(z) = 0.5 + 0.5 * tanh(0.5 * z) for i, f, o; tanh(z) for g
    scale = np.full(4 * h_dim, 0.5)
    scale[2 * h_dim : 3 * h_dim] = 1.0
    shift = 1.0 - scale
    cs = np.zeros((t + 1, b, h_dim))
    hs = np.zeros((t + 1, b, h_dim))
    # per-step scratch, reused so that the loop allocates no arrays
    rec = np.empty((b, 4 * h_dim))
    ig = np.empty((b, h_dim))
    for step in range(t):
        z = gates[step]
        z += np.matmul(hs[step], wh, out=rec)
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i = z[:, :h_dim]
        f = z[:, h_dim : 2 * h_dim]
        g = z[:, 2 * h_dim : 3 * h_dim]
        o = z[:, 3 * h_dim :]
        c = cs[step + 1]
        np.multiply(f, cs[step], out=c)
        c += np.multiply(i, g, out=ig)
        h = hs[step + 1]
        np.tanh(c, out=h)
        h *= o
    return hs[t].copy(), (x, wx, wh, gates, cs, hs)


def lstm_backward(dh_last, cache):
    x, wx, wh, gates, cs, hs = cache
    b, t, d = x.shape
    h4 = gates.shape[2]
    h_dim = h4 // 4
    i, f, g, o = (gates.reshape(t, b, 4, h_dim)[:, :, k] for k in range(4))
    tanh_c = np.tanh(cs[1:])
    # local derivatives of every step: dz per unit dc for the i, f, g blocks
    # and per unit dh for the o block, then dc per unit dh
    dz = np.empty((t, b, 4, h_dim))
    np.multiply(g, i * (1.0 - i), out=dz[:, :, 0])
    np.multiply(cs[:-1], f * (1.0 - f), out=dz[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=dz[:, :, 2])
    np.multiply(tanh_c, o * (1.0 - o), out=dz[:, :, 3])
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    wh_t = np.ascontiguousarray(wh.T)  # the step GEMM runs ~2x faster on a copy
    dh = dh_last
    dc = np.zeros((b, h_dim))
    for step in range(t - 1, -1, -1):
        dc += dh * dc_dh[step]
        dz[step, :, :3] *= dc[:, None, :]
        dz[step, :, 3] *= dh
        if step:
            dh = dz[step].reshape(b, h4) @ wh_t
            dc *= f[step]
    dz = dz.reshape(t * b, h4)
    dwx = x.transpose(1, 0, 2).reshape(t * b, d).T @ dz
    dwh = hs[:-1].reshape(t * b, h_dim).T @ dz
    db = dz.sum(axis=0)
    dx = (dz @ wx.T).reshape(t, b, d).transpose(1, 0, 2)
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------


def dense_forward(x, w, bias, relu: bool = False):
    """x: (B, D), w: (D, U), bias: (U,) -> out (B, U), ReLU'd if `relu`."""
    if x.shape[1] != w.shape[0]:
        raise ValidationError(
            f"dense: input width {x.shape[1]} does not match weights {w.shape}"
        )
    pre = x @ w + bias
    out = np.maximum(pre, 0.0) if relu else pre
    return out, (x, w, pre, relu)


def dense_backward(dout, cache):
    x, w, pre, relu = cache
    dpre = dout * (pre > 0) if relu else dout
    return dpre @ w.T, x.T @ dpre, dpre.sum(axis=0)


# ---------------------------------------------------------------------------
# Binary cross-entropy
# ---------------------------------------------------------------------------


def bce_loss(p, y) -> float:
    """Mean binary cross-entropy with probability clamped to [eps, 1-eps]."""
    p = np.clip(np.asarray(p, dtype=float), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
