"""Differentiable layer primitives: 1-D convolution, max-pooling, LSTM,
dense layers, and binary cross-entropy, each with a manual backward pass.

Every forward function returns a cache consumed by the matching backward
function. The nonlinearities are fixed: every convolution applies ReLU, and a
dense layer applies ReLU or nothing, as its caller selects.

The convolutions and max-pooling work channels-first: they take and return
(C, B, T) arrays, so that time is the contiguous axis. A convolution is one
channel-major GEMM, w.reshape(F, K*C) @ cols, where the im2col matrix cols is
a contiguous (K*C, B*T_out) copy built from K slices along T (Chellapilla,
Puri & Simard 2006); its weight and input gradients are the GEMMs dpre @
cols.T and w.reshape(F, K*C).T @ dpre. The weight half (conv1d_backward) and
the input half (conv1d_backward_input) are separate, because the first
layer's input is the data and needs no gradient. The im2col is not cached:
the backward pass rebuilds it, because the model's forward pass holds every
layer's cache until it returns, and a cached (K*C, B*T_out) copy per layer
would add to the peak memory of every inference chunk.

The LSTM and dense layers take a leading batch axis; the LSTM reads (B, T,
D), which the model passes as a view of the pooled (D, B, T) array. The LSTM
works time-major. Its forward pass projects the inputs of all T
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


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """x: (C, B, T) -> contiguous (K*C, B*T_out) patches; row j*C + c holds
    x[c, :, j:j+T_out], matching w.reshape(F, K*C)."""
    c, b, t = x.shape
    t_out = t - k + 1
    cols = np.empty((k, c, b, t_out))
    for j in range(k):
        cols[j] = x[:, :, j : j + t_out]
    return cols.reshape(k * c, b * t_out)


def conv1d_forward(x, w, bias):
    """x: (C, B, T), w: (F, K, C), bias: (F,) -> ReLU out (F, B, T-K+1)."""
    c, b, t = x.shape
    f, k, cw = w.shape
    if cw != c:
        raise ValidationError(f"conv1d: channel mismatch (input {c}, weights {cw})")
    if t < k:
        raise ValidationError(f"conv1d: input length {t} shorter than kernel {k}")
    pre = (w.reshape(f, k * c) @ _im2col(x, k)).reshape(f, b, t - k + 1)
    pre += bias[:, None, None]
    out = np.maximum(pre, 0.0)
    return out, (x, w, pre, out)


def conv1d_backward(dout, cache):
    """Weight half of the backward pass -> (dpre, dw, db); dpre feeds
    conv1d_backward_input when the layer's input needs a gradient."""
    x, w, pre, _ = cache
    f, k, c = w.shape
    dpre = dout * (pre > 0)
    flat = dpre.reshape(f, -1)
    dw = (flat @ _im2col(x, k).T).reshape(f, k, c)
    return dpre, dw, flat.sum(axis=1)


def conv1d_backward_input(dpre, cache):
    """Input half of the backward pass: dx (C, B, T) from conv1d_backward's dpre."""
    x, w, _, _ = cache
    c, b, t = x.shape
    f, k, _ = w.shape
    t_out = t - k + 1
    dcols = (w.reshape(f, k * c).T @ dpre.reshape(f, -1)).reshape(k, c, b, t_out)
    dx = np.zeros_like(x)
    for j in range(k):
        dx[:, :, j : j + t_out] += dcols[j]
    return dx


# ---------------------------------------------------------------------------
# Max pooling (gradient routed to the first argmax of each window)
# ---------------------------------------------------------------------------


def maxpool1d_forward(x, size: int, stride: int):
    """x: (C, B, T) -> out (C, B, floor((T-size)/stride)+1).

    A running strict `>` over the window offsets keeps the first argmax, as
    `np.argmax` does; the output is the window maximum (a tie between 0.0
    and -0.0 may return either sign).
    """
    t = x.shape[2]
    if size < 1 or stride < 1:
        raise ValidationError("maxpool1d: size and stride must be >= 1")
    if t < size:
        raise ValidationError(f"maxpool1d: input length {t} shorter than window {size}")
    # offset j of every window is x[..., j : j + span : stride]
    span = stride * ((t - size) // stride) + 1
    out = x[..., :span:stride].copy()
    # the narrowest dtype that holds every offset keeps the cached argmax small
    offset = np.min_scalar_type(size - 1).type
    arg = np.zeros(out.shape, dtype=offset)
    for j in range(1, size):
        cand = x[..., j : j + span : stride]
        # j exceeds every earlier offset, so max() sets arg exactly where cand wins
        np.maximum(arg, (cand > out) * offset(j), out=arg)
        np.maximum(out, cand, out=out)
    return out, (x.shape, size, stride, arg)


def maxpool1d_backward(dout, cache):
    shape, size, stride, arg = cache
    span = stride * (arg.shape[2] - 1) + 1
    dx = np.zeros(shape)
    for j in range(size):
        # windows whose argmax sits at offset j read x[..., j::stride]
        dx[..., j : j + span : stride] += dout * (arg == j)
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
