"""Differentiable layer primitives: 1-D convolution, max-pooling, LSTM,
dense layers, and binary cross-entropy, each with a manual backward pass.

Every forward function returns a cache consumed by the matching backward
function, and every backward function returns (dx, *parameter gradients).
The one exception is the first convolution, whose input gradient no caller
reads: `conv1d_backward(..., input_grad=False)` returns (None, dw, db) and
skips the dcols GEMM and its strided adds.
The convolution and dense layers are linear, and the model applies the ReLUs
between them.

Every layer up to the dense ones works channels-first: the convolutions and
max-pooling take and return (C, B, T) arrays, and the LSTM reads (D, B, T),
so that time is the contiguous axis. A convolution is one channel-major GEMM,
w.reshape(F, K*C) @ cols, where the im2col matrix cols is a contiguous (K*C,
B*T_out) copy built from K slices along T (Chellapilla, Puri & Simard 2006);
its weight and input gradients are the GEMMs dpre @ cols.T and w.reshape(F,
K*C).T @ dpre. The cache is (x, w, cols): the backward pass reads the
forward pass's im2col, and writes dcols over it once the dw GEMM has consumed
it. A dense layer's cache is (x, w).

Max-pooling is the paper's, size 2 and stride 2: one np.maximum of the even
and the odd time slots.

The LSTM is feature-major: its state is (H, B) and its gates are a (T, 4H, B)
buffer, so that the i, f, g and o gates of a step are contiguous (H, B)
blocks (Appleyard, Kocisky & Blunsom 2016). The forward pass projects the
inputs of all T steps with one (4H, D) @ (D, B) GEMM per step; each step adds
wh.T @ h to its slice and overwrites it in place with the gate values. The i,
f and o gates use sigmoid(z) = 0.5 + 0.5 * tanh(0.5 * z), which cannot
overflow; the inner 0.5 is folded into scaled copies of wx, wh and the bias,
so one tanh pass covers all four gates. The cache is (x, wx, wh, gates, cs,
hs); cs and hs hold the cell and hidden states of every step as (T+1, H, B)
arrays whose row 0 is the zero initial state. The backward pass derives every
step's local derivatives in place before its loop: s(1 - s) of the i, f and
o gates takes two contiguous passes over the whole gate buffer, and the g
block is overwritten after. The loop carries only dh and dc, in the forward
pass's per-step scratch, and allocates nothing. After it, one transpose
takes the gate gradients to (4H, B*T), and one (D+H, B*T) @ (B*T, 4H) GEMM
over the stacked [x; h_{t-1}] forms both weight gradients: dwx and dwh are
row views of its result. Its rows hold the bits of one GEMM per weight; the
tests check this under three OpenBLAS cores. db and dx follow; dx is (D, B, T), as the pool's
backward pass reads it. The final hidden state reaches the dense layers as a
contiguous (B, H) array; the dense layers take a leading batch axis.

Every convolution, pooling and LSTM function works in a Workspace, the
layer's own `ws.layer(name)`: its large arrays (the im2col, the outputs and
their gradients, the LSTM's gates, states, per-step scratch and weight
gradients) are views of buffers that the first pass allocated and every
later pass reuses. Training passes one Workspace for the whole run, and
scoring one for all of its chunks. Every op writes through `out=`, so the
bits do not depend on the buffers' history. A cache stays valid until that
layer's next call, and a backward pass consumes it: the conv writes dcols
over its cached im2col; the LSTM writes over its cached gates and cell
states once it has read them, and the stacked [x; h_{t-1}] over its gate
gradients once they are transposed.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError

BCE_EPS = 1e-7


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to stay overflow-free in both tails; a float keeps its dtype
    out = np.empty_like(x, dtype=np.result_type(x, 0.0))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Workspace:
    """Reusable flat buffers keyed by role.

    `take(role, shape, dtype)` returns the first prod(shape) elements of the
    role's buffer, reshaped, in the dtype of the arrays it serves, and makes
    the buffer anew when it is too small or of another dtype; so a partial
    last batch reuses the full batch's memory. The contents are whatever the
    role's last user left. `layer(name)` is a view of the same buffers whose
    roles are prefixed by `name`, so two layers never share a buffer.
    """

    def __init__(self, buffers: dict | None = None, prefix: str = ""):
        self._buffers = {} if buffers is None else buffers
        self._prefix = prefix

    def layer(self, name: str) -> "Workspace":
        return Workspace(self._buffers, f"{self._prefix}{name}.")

    def take(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = self._prefix + role
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# 1-D convolution (valid cross-correlation along time)
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, k: int, ws: Workspace) -> np.ndarray:
    """x: (C, B, T) -> contiguous (K*C, B*T_out) patches; row j*C + c holds
    x[c, :, j:j+T_out], matching w.reshape(F, K*C)."""
    c, b, t = x.shape
    t_out = t - k + 1
    cols = ws.take("cols", (k, c, b, t_out), x.dtype)
    for j in range(k):
        cols[j] = x[:, :, j : j + t_out]
    return cols.reshape(k * c, b * t_out)


def conv1d_forward(x, w, bias, ws):
    """x: (C, B, T), w: (F, K, C), bias: (F,) -> pre-activation (F, B, T-K+1)."""
    c, b, t = x.shape
    f, k, cw = w.shape
    if cw != c:
        raise ValidationError(f"conv1d: channel mismatch (input {c}, weights {cw})")
    if t < k:
        raise ValidationError(f"conv1d: input length {t} shorter than kernel {k}")
    cols = _im2col(x, k, ws)
    pre = ws.take("out", (f, b, t - k + 1), x.dtype)
    np.matmul(w.reshape(f, k * c), cols, out=pre.reshape(f, -1))
    pre += bias[:, None, None]
    return pre, (x, w, cols)


def conv1d_backward(dpre, cache, ws, input_grad=True):
    """dpre: (F, B, T-K+1) -> (dx (C, B, T), dw, db); dx is None when
    `input_grad` is false, as for the first layer, whose input gradient no
    caller reads."""
    x, w, cols = cache
    c, b, t = x.shape
    f, k, _ = w.shape
    t_out = t - k + 1
    flat = dpre.reshape(f, -1)
    dw = (flat @ cols.T).reshape(f, k, c)
    db = flat.sum(axis=1)
    if not input_grad:
        return None, dw, db
    dcols = np.matmul(w.reshape(f, k * c).T, flat, out=cols).reshape(k, c, b, t_out)
    dx = ws.take("dx", x.shape, x.dtype)
    np.add(dcols[0], 0.0, out=dx[:, :, :t_out])  # the bits of adding it into zeros
    dx[:, :, t_out:] = 0.0
    for j in range(1, k):
        dx[:, :, j : j + t_out] += dcols[j]
    return dx, dw, db


# ---------------------------------------------------------------------------
# Max pooling (size 2, stride 2; a tie routes the gradient to the first slot)
# ---------------------------------------------------------------------------


def maxpool1d_forward(x, ws):
    """x: (C, B, T) -> out (C, B, T // 2), the max of slots 2t and 2t+1; an
    odd last slot is dropped.

    The second slot wins only where it is strictly greater, so a tie routes to
    the first, as `np.argmax` does (a tie between 0.0 and -0.0 may return
    either sign). The cache holds where the second slot won.
    """
    t = x.shape[2]
    if t < 2:
        raise ValidationError(f"maxpool1d: input length {t} shorter than window 2")
    first, second = x[..., 0 : t - 1 : 2], x[..., 1:t:2]
    out = np.maximum(first, second, out=ws.take("out", first.shape, x.dtype))
    return out, (x.shape, second > first)


def maxpool1d_backward(dout, cache, ws):
    shape, second = cache
    t = shape[2]
    dx = ws.take("dx", shape, dout.dtype)
    dx[..., t - t % 2 :] = 0.0  # an odd last slot takes no gradient
    # each half is written once, then + 0.0: the bits of adding into zeros
    for half, mask in ((dx[..., 0 : t - 1 : 2], ~second), (dx[..., 1:t:2], second)):
        np.multiply(dout, mask, out=half)
        half += 0.0
    return dx


# ---------------------------------------------------------------------------
# LSTM (gate order i, f, g, o; returns the final hidden state)
# ---------------------------------------------------------------------------


def lstm_forward(x, wx, wh, bias, ws):
    """x: (D, B, T), wx: (D, 4H), wh: (H, 4H), bias: (4H,) -> h_T (B, H)."""
    d, b, t = x.shape
    h_dim = wh.shape[0]
    if wx.shape != (d, 4 * h_dim) or bias.shape != (4 * h_dim,):
        raise ValidationError("lstm: weight shapes inconsistent with input")
    # sigmoid(z) = 0.5 + 0.5 * tanh(0.5 * z) for i, f, o; tanh(z) for g. The
    # inner 0.5 is folded into scaled copies of the weights and bias, which is
    # exact because 0.5 is a power of two.
    scale = np.full((4 * h_dim, 1), 0.5, x.dtype)
    scale[2 * h_dim : 3 * h_dim] = 1.0
    wx_s = np.multiply(wx.T, scale, out=ws.take("wx_s", (4 * h_dim, d), x.dtype))
    wh_s = np.multiply(wh.T, scale, out=ws.take("wh_s", (4 * h_dim, h_dim), x.dtype))
    # input projection of every step: one (4H, D) @ (D, B) GEMM per step
    gates = np.matmul(wx_s, x.transpose(2, 0, 1), out=ws.take("gates", (t, 4 * h_dim, b), x.dtype))
    gates += bias[:, None] * scale
    cs = ws.take("cs", (t + 1, h_dim, b), x.dtype)
    hs = ws.take("hs", (t + 1, h_dim, b), x.dtype)
    cs[0] = 0.0  # every later row is written by its step
    hs[0] = 0.0
    # per-step scratch, reused so that the loop allocates no arrays
    rec = ws.take("rec", (4 * h_dim, b), x.dtype)
    ig = ws.take("ig", (h_dim, b), x.dtype)
    for step in range(t):
        z = gates[step]
        z += np.matmul(wh_s, hs[step], out=rec)
        np.tanh(z, out=z)
        for sig in (z[: 2 * h_dim], z[3 * h_dim :]):  # the i, f and o blocks
            sig *= 0.5
            sig += 0.5
        i, f, g, o = z.reshape(4, h_dim, b)
        c = cs[step + 1]
        np.multiply(f, cs[step], out=c)
        c += np.multiply(i, g, out=ig)
        h = hs[step + 1]
        np.tanh(c, out=h)
        h *= o
    return np.ascontiguousarray(hs[t].T), (x, wx, wh, gates, cs, hs)


def lstm_backward(dh_last, cache, ws):
    """dh_last: (B, H) -> (dx (D, B, T), dwx, dwh, db)."""
    x, wx, wh, gates, cs, hs = cache
    d, b, t = x.shape
    h_dim = wh.shape[0]
    i, f, g, o = (gates[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
    # local derivatives of every step, formed in place in dz's blocks: dz per
    # unit dc for the i, f and g blocks and per unit dh for the o block. s(1-s)
    # of the i, f and o gates takes two passes over the whole buffer; the g
    # block is overwritten after.
    dz = np.subtract(1.0, gates, out=ws.take("dz", gates.shape, x.dtype))
    dz *= gates
    di, df, dg, do = (dz[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
    di *= g
    df *= cs[:-1]
    np.multiply(g, g, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= i
    # tanh_c is written over the cached cs, which df has consumed
    tanh_c = np.tanh(cs[1:], out=cs[1:])
    do *= tanh_c
    # dc per unit dh, o * (1 - tanh(c)^2), in tanh_c's buffer
    dc_dh = tanh_c
    dc_dh *= tanh_c
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    # the carried dh and dc, and dh * dc_dh, are (H, B) blocks of the forward
    # pass's per-step scratch, so that the loop allocates no arrays
    dh, dc, dh_dc = ws.take("rec", (4 * h_dim, b), x.dtype)[: 3 * h_dim].reshape(3, h_dim, b)
    np.copyto(dh, dh_last.T)
    dc.fill(0.0)
    for step in range(t - 1, -1, -1):
        dc += np.multiply(dh, dc_dh[step], out=dh_dc)
        ifg = dz[step, : 3 * h_dim].reshape(3, h_dim, b)
        ifg *= dc
        do[step] *= dh
        if step:
            np.matmul(wh, dz[step], out=dh)
            dc *= f[step]
    # (4H, B*T), columns in x's (B, T) order, written over the cached gates,
    # which the loop has consumed
    dz_t = ws.take("gates", (4 * h_dim, b, t), x.dtype)
    np.copyto(dz_t, dz.transpose(1, 2, 0))
    dz_t = dz_t.reshape(4 * h_dim, b * t)
    # both weight gradients from one GEMM over the stacked [x; h_{t-1}], which
    # is written over dz once dz_t holds its values: rows :D are dwx, D: dwh
    xh = ws.take("dz", (d + h_dim, b, t), x.dtype)
    np.copyto(xh[:d], x)
    np.copyto(xh[d:], hs[:-1].transpose(1, 2, 0))
    dw = np.matmul(xh.reshape(d + h_dim, b * t), dz_t.T,
                   out=ws.take("dw", (d + h_dim, 4 * h_dim), x.dtype))
    db = dz_t.sum(axis=1)
    dx = np.matmul(wx, dz_t, out=ws.take("dx", (d, b * t), x.dtype)).reshape(d, b, t)
    return dx, dw[:d], dw[d:], db


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------


def dense_forward(x, w, bias):
    """x: (B, D), w: (D, U), bias: (U,) -> out (B, U)."""
    if x.shape[1] != w.shape[0]:
        raise ValidationError(
            f"dense: input width {x.shape[1]} does not match weights {w.shape}"
        )
    return x @ w + bias, (x, w)


def dense_backward(dout, cache):
    x, w = cache
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


# ---------------------------------------------------------------------------
# Binary cross-entropy
# ---------------------------------------------------------------------------


def bce_loss(p, y) -> float:
    """Mean binary cross-entropy with probability clamped to [eps, 1-eps]."""
    p = np.clip(np.asarray(p, dtype=float), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
