"""The layer kernels, the model graph and Adam against straightforward
reference versions.

The references below are the original per-step LSTM (one input GEMM per
step, sign-split sigmoid, a list of per-step caches), the argmax /
``np.add.at`` max-pool, the batch-major (B, T, C) convolution and max-pool
that the channels-first (C, B, T) kernels replaced, the batch-major (B, T, D)
LSTM that the feature-major one replaced, and the per-tensor Adam loop that
the flat update replaced. The production kernels hoist the input GEMM, use
the tanh form of the gate sigmoid with its inner 0.5 folded into the weights,
route pool gradients with strided adds and run the conv GEMMs channel-major,
so they must agree with these to 1e-12; the conv/pool forward pass, conv2's
ReLU after the pool and Adam keep their arithmetic, so they must agree
exactly.

The conv, pool and LSTM backward kernels that the weights-only conv1 pass,
the once-written dx buffers, the stacked LSTM weight GEMM and the
whole-buffer gate derivatives replaced are kept as `oracle_conv1d_backward`,
`oracle_maxpool1d_backward` and `oracle_lstm_backward`. The same arithmetic
runs in both, so the production kernels must match them bit for bit, and so
must a training run.
"""

from pathlib import Path

import numpy as np
import pytest

from childproc import run_call
from test_nn_train import make_dataset, train_module
from vitalnet.nn import layers, model
from vitalnet.nn.layers import (
    Workspace,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    lstm_backward,
    lstm_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    sigmoid,
)
from vitalnet.nn.train import AdamState, TrainConfig, adam_step, train

TOL = 1e-12
# float32 against float64 from the same float32 inputs, relative to each
# tensor's largest |entry|; measured at 1 OpenBLAS thread: <= 9.2e-7 in the
# kernels below, and in loss_and_grads <= 9.4e-8 on the probabilities and
# <= 2.7e-6 on the gradients
F32_TOL = 1e-5


def _time_windows(x, width, stride=1):
    """Strided view of shape (B, T_out, width, C) over the time axis."""
    b, t, c = x.shape
    t_out = (t - width) // stride + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (b, t_out, width, c), (s0, s1 * stride, s1, s2), writeable=False
    )


def btc_conv1d_forward(x, w, bias):
    """The batch-major convolution: x (B, T, C) -> ReLU out (B, T-K+1, F)."""
    b, t, c = x.shape
    f, k, _ = w.shape
    cols = _time_windows(x, k).reshape(b * (t - k + 1), k * c)
    pre = (cols @ w.reshape(f, k * c).T).reshape(b, t - k + 1, f) + bias
    out = np.maximum(pre, 0.0)
    return out, (x, w, pre, out)


def btc_conv1d_backward(dout, cache):
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


def btc_maxpool1d_forward(x, size, stride):
    """The batch-major running-max pool: x (B, T, F) -> (B, T_out, F)."""
    win = _time_windows(x, size, stride)
    out = win[:, :, 0, :].copy()
    offset = np.min_scalar_type(size - 1).type
    arg = np.zeros(out.shape, dtype=offset)
    for j in range(1, size):
        cand = win[:, :, j, :]
        np.maximum(arg, (cand > out) * offset(j), out=arg)
        np.maximum(out, cand, out=out)
    return out, (x.shape, size, stride, arg)


def btc_maxpool1d_backward(dout, cache):
    shape, size, stride, arg = cache
    span = stride * (arg.shape[1] - 1) + 1
    dx = np.zeros(shape)
    for j in range(size):
        dx[:, j : j + span : stride] += dout * (arg == j)
    return dx


def cf(a):
    """(B, T, C) -> a contiguous channels-first (C, B, T) copy."""
    return np.ascontiguousarray(a.transpose(2, 0, 1))


def btc(a):
    """(C, B, T) -> a (B, T, C) view."""
    return a.transpose(1, 2, 0)


def ref_sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_forward(x, wx, wh, bias):
    b, t, d = x.shape
    h_dim = wh.shape[0]
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    steps = []
    for step in range(t):
        z = x[:, step, :] @ wx + h @ wh + bias
        i = ref_sigmoid(z[:, :h_dim])
        f = ref_sigmoid(z[:, h_dim : 2 * h_dim])
        g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        o = ref_sigmoid(z[:, 3 * h_dim :])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        steps.append((i, f, g, o, c_prev, h_prev, tanh_c))
    return h, (x, wx, wh, steps)


def ref_lstm_backward(dh_last, cache):
    x, wx, wh, steps = cache
    b, t, d = x.shape
    h_dim = wh.shape[0]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * h_dim)
    dx = np.zeros_like(x)
    dh = dh_last
    dc = np.zeros((b, h_dim))
    for step in range(t - 1, -1, -1):
        i, f, g, o, c_prev, h_prev, tanh_c = steps[step]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dwx += x[:, step, :].T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, step, :] = dz @ wx.T
        dh = dz @ wh.T
        dc = dc * f
    return dx, dwx, dwh, db


def btd_lstm_forward(x, wx, wh, bias):
    """The batch-major LSTM: x (B, T, D), gates (T, B, 4H), states (T+1, B, H)."""
    b, t, d = x.shape
    h_dim = wh.shape[0]
    gates = np.matmul(x.transpose(1, 0, 2), wx)
    gates += bias
    scale = np.full(4 * h_dim, 0.5)
    scale[2 * h_dim : 3 * h_dim] = 1.0
    shift = 1.0 - scale
    cs = np.zeros((t + 1, b, h_dim))
    hs = np.zeros((t + 1, b, h_dim))
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


def btd_lstm_backward(dh_last, cache):
    x, wx, wh, gates, cs, hs = cache
    b, t, d = x.shape
    h4 = gates.shape[2]
    h_dim = h4 // 4
    i, f, g, o = (gates.reshape(t, b, 4, h_dim)[:, :, k] for k in range(4))
    tanh_c = np.tanh(cs[1:])
    dz = np.empty((t, b, 4, h_dim))
    np.multiply(g, i * (1.0 - i), out=dz[:, :, 0])
    np.multiply(cs[:-1], f * (1.0 - f), out=dz[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=dz[:, :, 2])
    np.multiply(tanh_c, o * (1.0 - o), out=dz[:, :, 3])
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    wh_t = np.ascontiguousarray(wh.T)
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


def ref_maxpool1d_forward(x, size, stride):
    """argmax pool over (B, T, F)."""
    win = _time_windows(x, size, stride)
    arg = win.argmax(axis=2)
    out = np.take_along_axis(win, arg[:, :, None, :], axis=2)[:, :, 0, :]
    return out, (x.shape, size, stride, arg)


def ref_maxpool1d_backward(dout, cache):
    shape, size, stride, arg = cache
    b, t, f = shape
    t_out = arg.shape[1]
    dx = np.zeros(shape)
    b_idx, t_idx, f_idx = np.meshgrid(
        np.arange(b), np.arange(t_out), np.arange(f), indexing="ij"
    )
    np.add.at(dx, (b_idx, t_idx * stride + arg, f_idx), dout)
    return dx


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= TOL


def lstm_case(rng, b, t, d, h, scale):
    x = rng.standard_normal((b, t, d))
    wx = rng.standard_normal((d, 4 * h)) * scale
    wh = rng.standard_normal((h, 4 * h)) * scale
    bias = rng.standard_normal(4 * h) * scale
    return x, wx, wh, bias


def check_lstm(x, wx, wh, bias, dh):
    """The feature-major LSTM on cf(x) against both (B, T, D) references."""
    ws = Workspace()
    h_new, cache = lstm_forward(cf(x), wx, wh, bias, ws)
    assert h_new.flags["C_CONTIGUOUS"]
    dx, *dws = lstm_backward(dh, cache, ws)
    assert dx.shape == cf(x).shape
    for ref_fwd, ref_bwd in ((ref_lstm_forward, ref_lstm_backward),
                             (btd_lstm_forward, btd_lstm_backward)):
        h_ref, cache_ref = ref_fwd(x, wx, wh, bias)
        assert_close(h_new, h_ref)
        dx_ref, *dws_ref = ref_bwd(dh, cache_ref)
        assert_close(btc(dx), dx_ref)
        for got, want in zip(dws, dws_ref):
            assert_close(got, want)
    return h_new, (dx, *dws)


class TestLstmAgainstReference:
    @pytest.mark.parametrize(
        "b,t,d,h",
        [(1, 1, 3, 5), (1, 1, 1, 1), (2, 7, 5, 3), (4, 3, 2, 6), (32, 20, 64, 64),
         (1, 22, 64, 64), (17, 22, 64, 64), (17, 5, 3, 7)],
    )
    def test_forward_and_backward_match(self, b, t, d, h):
        rng = np.random.default_rng(100 + b * t + d * h)
        x, wx, wh, bias = lstm_case(rng, b, t, d, h, scale=0.4)
        check_lstm(x, wx, wh, bias, rng.standard_normal((b, h)))

    @pytest.mark.parametrize("scale", [20.0, 60.0])
    def test_saturated_gates_match(self, scale):
        # pre-activations far beyond |z| > 40, where sigmoid and tanh saturate
        for b in (1, 3, 17, 32):
            rng = np.random.default_rng(int(scale) + b)
            x, wx, wh, bias = lstm_case(rng, b, 6, 4, 5, scale)
            z = np.einsum("btd,dk->btk", x, wx) + bias
            assert np.abs(z).max() > 40
            h_new, grads = check_lstm(x, wx, wh, bias, rng.standard_normal((b, 5)))
            assert np.isfinite(h_new).all()
            assert all(np.isfinite(g).all() for g in grads)


POOL_GEOMETRIES = [(size, stride) for size in (1, 2, 3, 4) for stride in (1, 2, 3)]
POOL_REFERENCES = ((ref_maxpool1d_forward, ref_maxpool1d_backward),
                   (btc_maxpool1d_forward, btc_maxpool1d_backward))


def check_pool(x, size, stride, rng):
    """The two (B, T, F) references against each other at (size, stride);
    then the channels-first pool, fixed at size 2 and stride 2, against both
    on the same x: its output, routing and dx, bit for bit where the
    arithmetic is the same (the argmax reference may take the other sign of a
    tie between 0.0 and -0.0)."""
    out_ref, cache_ref = ref_maxpool1d_forward(x, size, stride)
    out_btc, cache_btc = btc_maxpool1d_forward(x, size, stride)
    assert np.array_equal(out_btc, out_ref)
    assert np.array_equal(cache_btc[3], cache_ref[3])
    dout = rng.standard_normal(out_ref.shape)
    assert_close(btc_maxpool1d_backward(dout, cache_btc),
                 ref_maxpool1d_backward(dout, cache_ref))
    ws = Workspace()
    out, cache = maxpool1d_forward(cf(x), ws)
    dout = rng.standard_normal(btc(out).shape)
    dx = btc(maxpool1d_backward(cf(dout), cache, ws))
    for ref_fwd, ref_bwd in POOL_REFERENCES:
        out_ref, cache_ref = ref_fwd(x, 2, 2)
        assert np.array_equal(btc(out), out_ref)
        assert np.array_equal(btc(cache[1]), cache_ref[3] == 1)
        assert dx.tobytes() == ref_bwd(dout, cache_ref).tobytes()
    # the running-max reference does the same arithmetic, signed zeros too
    assert btc(out).tobytes() == btc_maxpool1d_forward(x, 2, 2)[0].tobytes()


class TestMaxPoolAgainstReference:
    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    @pytest.mark.parametrize("t", [4, 9, 12])
    def test_ties_route_to_first_index(self, size, stride, t):
        # small integer values make ties within a window common
        rng = np.random.default_rng(size * 10 + stride + t)
        x = rng.integers(0, 3, size=(3, t, 4)).astype(float)
        check_pool(x, size, stride, rng)

    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    def test_continuous_values_match(self, size, stride):
        rng = np.random.default_rng(size * 7 + stride)
        x = np.maximum(rng.standard_normal((5, 17, 6)), 0.0)
        check_pool(x, size, stride, rng)

    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    def test_single_window_batch(self, size, stride):
        rng = np.random.default_rng(size * 5 + stride)
        x = rng.integers(0, 2, size=(1, 10, 3)).astype(float)
        check_pool(x, size, stride, rng)

    @pytest.mark.parametrize("t", range(2, 14))
    def test_every_length_with_signed_zero_ties(self, t):
        # odd lengths drop their last slot; +0.0 and -0.0 tie
        rng = np.random.default_rng(t)
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(3, t, 4))
        check_pool(x, 2, 2, rng)

    def test_all_equal_window_picks_offset_zero(self):
        x = np.full((2, 1, 6), 3.0)  # (C, B, T)
        _, (_, second) = maxpool1d_forward(x, Workspace())
        assert not second.any()


# (B, T, C, F, K): one window, kernel one, C != F, and the model's own shapes
CONV_CASES = [(1, 6, 3, 4, 2), (3, 9, 2, 5, 1), (4, 12, 5, 3, 3), (2, 7, 4, 4, 7),
              (32, 48, 3, 32, 5), (32, 44, 32, 64, 5)]


class TestConvAgainstReference:
    @pytest.mark.parametrize("b,t,c,f,k", CONV_CASES)
    def test_forward_and_backward_match(self, b, t, c, f, k):
        rng = np.random.default_rng(b * 100 + t * 10 + k)
        x = rng.standard_normal((b, t, c))
        w = rng.standard_normal((f, k, c)) / np.sqrt(k * c)
        bias = rng.standard_normal(f) * 0.1
        # the layer is linear: its output is the reference's pre-activation,
        # and the reference's ReLU mask is applied to dout before the backward
        ws = Workspace()
        pre, cache = conv1d_forward(cf(x), w, bias, ws)
        out_ref, cache_ref = btc_conv1d_forward(x, w, bias)
        assert pre.shape == (f, b, t - k + 1)
        assert_close(btc(np.maximum(pre, 0.0)), out_ref)
        assert_close(btc(pre), cache_ref[2])
        dout = rng.standard_normal(out_ref.shape)
        dx, dw, db = conv1d_backward(cf(dout * (cache_ref[2] > 0)), cache, ws)
        dx_ref, dw_ref, db_ref = btc_conv1d_backward(dout, cache_ref)
        assert_close(btc(dx), dx_ref)
        assert_close(dw, dw_ref)
        assert_close(db, db_ref)

    def test_input_from_a_view(self):
        # the model passes conv1 a channels-first view of the (B, T, 3) input
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 11, 3))
        w = rng.standard_normal((4, 3, 3))
        bias = rng.standard_normal(4)
        ws = Workspace()
        out_view, cache = conv1d_forward(x.transpose(2, 0, 1), w, bias, ws)
        out_copy, _ = conv1d_forward(cf(x), w, bias, Workspace())
        assert np.array_equal(out_view, out_copy)
        dout = rng.standard_normal(out_view.shape)
        _, dw, db = conv1d_backward(dout * (out_view > 0), cache, ws)
        _, dw_ref, db_ref = btc_conv1d_backward(btc(dout), btc_conv1d_forward(x, w, bias)[1])
        assert_close(dw, dw_ref)
        assert_close(db, db_ref)


def channels_first_pools(size, stride):
    """The pool, fixed at size 2 and stride 2, and the argmax reference at
    (size, stride), each as a (forward, backward) pair on (C, B, T) arrays;
    each call of the pool gets its own workspace, so that its output and
    cache outlive the next call."""

    def forward_cf(x):
        return maxpool1d_forward(x, Workspace())

    def backward_cf(dout, cache):
        return maxpool1d_backward(dout, cache, Workspace())

    def ref_forward_cf(x):
        out, cache = ref_maxpool1d_forward(btc(x), size, stride)
        return cf(out), cache

    def ref_backward_cf(dout, cache):
        return cf(ref_maxpool1d_backward(btc(dout), cache))

    return (forward_cf, backward_cf), (ref_forward_cf, ref_backward_cf)


class TestReluAfterPool:
    """conv2's ReLU runs after the pool: relu(max(a, b)) = max(relu(a),
    relu(b)), and the pool routes a gradient only where the window max is > 0,
    where ReLU-then-pool routes it to the same first argmax. Checked for the
    model's pool and for the reference at other geometries."""

    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    def test_conv_outputs_and_gradients_equal(self, size, stride):
        # small integers: exact ties, zeros and all-negative windows
        rng = np.random.default_rng(size * 3 + stride)
        x = rng.integers(-1, 2, size=(4, 3, 14)).astype(float)
        w = rng.integers(-1, 2, size=(5, 3, 4)).astype(float)
        bias = rng.integers(-1, 2, size=5).astype(float)
        w[0], bias[0] = 0.0, -1.0  # one filter's windows are all negative
        pre, _ = conv1d_forward(x, w, bias, Workspace())
        act = np.maximum(pre, 0.0)
        for pool_forward, pool_backward in channels_first_pools(size, stride):
            out_ref, pool_ref = pool_forward(act)
            out, pool = pool_forward(pre)
            win_max = out.copy()
            np.maximum(out, 0.0, out=out)
            assert np.array_equal(out, out_ref)
            assert (win_max < 0).any() and (win_max > 0).any()
            dout = rng.standard_normal(out.shape)
            dpre_ref = pool_backward(dout, pool_ref) * (pre > 0)
            dpre = pool_backward(dout * (out > 0), pool)
            assert np.array_equal(dpre, dpre_ref)

    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    def test_signed_zeros_and_negative_windows(self, size, stride):
        rng = np.random.default_rng(size * 11 + stride)
        pre = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0], size=(3, 4, 12))
        pre[0, 0] = -1.0  # every window of one row all negative
        pre[1, 0] = -0.0  # and one of signed zeros only
        for pool_forward, pool_backward in channels_first_pools(size, stride):
            out_ref, pool_ref = pool_forward(np.maximum(pre, 0.0))
            out, pool = pool_forward(pre)
            np.maximum(out, 0.0, out=out)
            assert np.array_equal(out, out_ref)
            dout = rng.standard_normal(out.shape)
            dpre_ref = pool_backward(dout, pool_ref) * (pre > 0)
            dpre = pool_backward(dout * (out > 0), pool)
            assert np.array_equal(dpre, dpre_ref)
            assert not dpre[:2, 0].any()


def ref_forward(params, x, batch_major_lstm=False):
    """The model graph on the batch-major conv and pool references, with
    conv2's ReLU before the pool; the LSTM is the production kernel, or the
    batch-major reference. Returns (probs, feats, caches)."""
    t = params.tensors
    a1, c1 = btc_conv1d_forward(x, t["conv1_w"], t["conv1_b"])
    a2, c2 = btc_conv1d_forward(a1, t["conv2_w"], t["conv2_b"])
    p3, c3 = btc_maxpool1d_forward(a2, 2, 2)
    if batch_major_lstm:
        h4, c4 = btd_lstm_forward(p3, t["lstm_wx"], t["lstm_wh"], t["lstm_b"])
    else:
        h4, c4 = lstm_forward(cf(p3), t["lstm_wx"], t["lstm_wh"], t["lstm_b"], Workspace())
    pre5, c5 = dense_forward(h4, t["dense1_w"], t["dense1_b"])
    feats = np.maximum(pre5, 0.0)
    logits, c6 = dense_forward(feats, t["dense2_w"], t["dense2_b"])
    return sigmoid(logits[:, 0]), feats, (c1, c2, c3, c4, c5, c6, pre5)


def ref_grads(params, x, y):
    """Gradients of the mean BCE through the batch-major reference graph."""
    probs, _, (c1, c2, c3, c4, c5, c6, pre5) = ref_forward(params, x, batch_major_lstm=True)
    dfeat, dw6, db6 = dense_backward(((probs - y) / len(y))[:, None], c6)
    dh, dw5, db5 = dense_backward(dfeat * (pre5 > 0), c5)
    dp3, dwx, dwh, dbl = btd_lstm_backward(dh, c4)
    da1, dw2, db2 = btc_conv1d_backward(btc_maxpool1d_backward(dp3, c3), c2)
    _, dw1, db1 = btc_conv1d_backward(da1, c1)
    return dict(zip(model.TENSOR_ORDER,
                    (dw1, db1, dw2, db2, dwx, dwh, dbl, dw5, db5, dw6, db6)))


def _arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, tuple):
        for item in tree:
            yield from _arrays(item)


class TestModelAgainstReference:
    @pytest.mark.parametrize("b", [1, 24, 216, 256])
    def test_forward_bit_identical(self, b):
        params = model.init_params(model.ModelConfig(seed=b))
        x = np.random.default_rng(b).standard_normal((b, 48, 3))
        probs, feats, _ = model.forward(params, x, Workspace())
        probs_ref, feats_ref, _ = ref_forward(params, x)
        assert np.array_equal(probs, probs_ref)
        assert np.array_equal(feats, feats_ref)

    @pytest.mark.parametrize("b", [1, 17, 32, 256])
    def test_forward_matches_batch_major_graph(self, b):
        params = model.init_params(model.ModelConfig(seed=b))
        x = np.random.default_rng(b).standard_normal((b, 48, 3))
        probs, feats, _ = model.forward(params, x, Workspace())
        probs_ref, feats_ref, _ = ref_forward(params, x, batch_major_lstm=True)
        assert np.array_equal(probs, probs_ref)
        assert_close(feats, feats_ref)

    @pytest.mark.parametrize("b", [1, 17, 32])
    def test_gradients_match_batch_major_graph(self, b):
        params = model.init_params(model.ModelConfig(seed=b))
        rng = np.random.default_rng(b)
        x = rng.standard_normal((b, 48, 3))
        y = rng.integers(0, 2, size=b).astype(float)
        _, _, grads = model.loss_and_grads(params, x, y, Workspace())
        for name, want in ref_grads(params, x, y).items():
            scale = max(np.abs(want).max(), 1e-300)
            assert grads[name].shape == want.shape
            assert np.abs(grads[name] - want).max() / scale <= TOL, name

    def test_cache_holds_no_conv2_output(self):
        # conv2's (F, B, T_out) output lives only until the pool has read it
        cfg = model.ModelConfig()
        b, w = 32, 48
        _, _, cache = model.forward(model.init_params(cfg), np.zeros((b, w, 3)), Workspace())
        conv2_out = (cfg.conv2_filters, b, w - cfg.conv1_kernel - cfg.conv2_kernel + 2)
        shapes = {a.shape for a in _arrays(cache)}
        assert conv2_out not in shapes
        assert (cfg.conv2_filters, b, conv2_out[2] // 2) in shapes

    def test_cache_holds_each_relu_output_once(self):
        # the layers are linear: a ReLU output is cached as the input of the
        # layer that reads it, and no pre-activation of the same shape is kept
        cfg = model.ModelConfig()
        b, w = 7, 48  # B differs from every layer width, so shapes are distinct
        _, _, cache = model.forward(model.init_params(cfg), np.zeros((b, w, 3)), Workspace())
        shapes = [a.shape for a in _arrays(cache)]
        assert shapes.count((cfg.conv1_filters, b, w - cfg.conv1_kernel + 1)) == 1
        assert shapes.count((b, model.FEATURE_UNITS)) == 1

    def test_conv_backward_reads_the_cached_im2col(self, monkeypatch):
        # one im2col per conv layer per step: each forward pass builds it,
        # and the backward pass reads it from the cache
        calls = []
        im2col = layers._im2col

        def counting(x, k, ws):
            calls.append(x.shape)
            return im2col(x, k, ws)

        monkeypatch.setattr(layers, "_im2col", counting)
        params = model.init_params(model.ModelConfig())
        x = np.random.default_rng(5).standard_normal((4, 48, 3))
        model.loss_and_grads(params, x, np.arange(4) % 2, Workspace())
        assert calls == [(3, 4, 48), (32, 4, 44)]


def ref_adam_step(tensors, grads, m, v, t, config):
    """The per-tensor Adam loop over dicts of separate arrays."""
    b1, b2 = config.beta1, config.beta2
    for name, tensor in tensors.items():
        g = grads[name]
        m.setdefault(name, np.zeros_like(tensor))
        v.setdefault(name, np.zeros_like(tensor))
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1**t)
        v_hat = v[name] / (1.0 - b2**t)
        tensor -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)


class TestAdamAgainstReference:
    def test_flat_update_bit_identical(self):
        cfg = model.ModelConfig(conv1_filters=3, conv2_filters=4, lstm_hidden=5)
        params = model.init_params(cfg)
        ref = {k: v.copy() for k, v in params.tensors.items()}
        state, m, v = AdamState(), {}, {}
        tcfg = TrainConfig(learning_rate=0.01)
        rng = np.random.default_rng(3)
        for step in range(1, 6):
            grads = {k: rng.standard_normal(t.shape) * 10.0**rng.integers(-6, 2)
                     for k, t in ref.items()}
            adam_step(params, grads, state, step, tcfg, Workspace())
            ref_adam_step(ref, grads, m, v, step, tcfg)
            for k in ref:
                assert np.array_equal(params.tensors[k], ref[k])
            # the moments are flat vectors, packed per TENSOR_ORDER
            assert np.array_equal(state.m, np.concatenate([m[k].ravel() for k in ref]))
            assert np.array_equal(state.v, np.concatenate([v[k].ravel() for k in ref]))

    def test_tensors_are_views_of_one_vector(self):
        given = {k: t.copy() for k, t in model.init_params(model.ModelConfig()).tensors.items()}
        params = model.ModelParams(tensors=given, config=model.ModelConfig())
        flat = params.flat
        assert flat.flags["C_CONTIGUOUS"] and flat.dtype == np.float64
        assert sum(t.size for t in params.tensors.values()) == flat.size
        assert list(params.tensors) == list(model.TENSOR_ORDER)
        for k, t in params.tensors.items():
            assert np.shares_memory(t, flat)
            assert not np.shares_memory(t, given[k])


def oracle_conv1d_backward(dpre, cache, ws):
    """dpre: (F, B, T-K+1) -> (dx (C, B, T), dw, db); always forms dx."""
    x, w, cols = cache
    c, b, t = x.shape
    f, k, _ = w.shape
    t_out = t - k + 1
    flat = dpre.reshape(f, -1)
    dw = (flat @ cols.T).reshape(f, k, c)
    dcols = np.matmul(w.reshape(f, k * c).T, flat, out=cols).reshape(k, c, b, t_out)
    dx = ws.take("dx", x.shape, x.dtype)
    dx.fill(0.0)
    for j in range(k):
        dx[:, :, j : j + t_out] += dcols[j]
    return dx, dw, flat.sum(axis=1)


def oracle_maxpool1d_backward(dout, cache, ws):
    """dout: (C, B, T // 2) -> dx (C, B, T): each half's masked dout added
    into a zero-filled dx."""
    shape, second = cache
    t = shape[2]
    dx = ws.take("dx", shape, dout.dtype)
    dx.fill(0.0)
    tmp = ws.take("tmp", dout.shape, dout.dtype)
    dx[..., 0 : t - 1 : 2] += np.multiply(dout, ~second, out=tmp)
    dx[..., 1:t:2] += np.multiply(dout, second, out=tmp)
    return dx


def oracle_lstm_backward(dh_last, cache, ws):
    """dh_last: (B, H) -> (dx (D, B, T), dwx, dwh, db): per-gate derivative
    passes, a loop that allocates, and one GEMM per weight gradient."""
    x, wx, wh, gates, cs, hs = cache
    d, b, t = x.shape
    h_dim = wh.shape[0]
    i, f, g, o = (gates[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
    dz = ws.take("dz", gates.shape, gates.dtype)
    di, df, dg, do = (dz[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
    for dk, s in ((di, i), (df, f), (do, o)):
        np.subtract(1.0, s, out=dk)
        dk *= s
    di *= g
    df *= cs[:-1]
    np.multiply(g, g, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= i
    tanh_c = np.tanh(cs[1:], out=cs[1:])
    do *= tanh_c
    dc_dh = tanh_c
    dc_dh *= tanh_c
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dh = dh_last.T
    dc = np.zeros((h_dim, b), dh_last.dtype)
    for step in range(t - 1, -1, -1):
        dc += dh * dc_dh[step]
        ifg = dz[step, : 3 * h_dim].reshape(3, h_dim, b)
        ifg *= dc
        do[step] *= dh
        if step:
            dh = wh @ dz[step]
            dc *= f[step]
    dz_t = ws.take("gates", (4 * h_dim, b, t), gates.dtype)
    np.copyto(dz_t, dz.transpose(1, 2, 0))
    dz = dz_t.reshape(4 * h_dim, b * t)
    hs_t = ws.take("cs", (h_dim, b, t), hs.dtype)
    np.copyto(hs_t, hs[:-1].transpose(1, 2, 0))
    dwx = np.matmul(x.reshape(d, b * t), dz.T, out=ws.take("dwx", (d, 4 * h_dim), x.dtype))
    dwh = np.matmul(hs_t.reshape(h_dim, b * t), dz.T,
                    out=ws.take("dwh", (h_dim, 4 * h_dim), hs.dtype))
    db = dz.sum(axis=1)
    dx = np.matmul(wx, dz, out=ws.take("dx", (d, b * t), x.dtype)).reshape(d, b, t)
    return dx, dwx, dwh, db


def lstm_backward_pair(b, t, d, h, scale, seed):
    """(production, oracle) LSTM backward outputs on one random case, each
    from its own forward pass, as the backward pass consumes its cache."""
    rng = np.random.default_rng(seed)
    x, wx, wh, bias = lstm_case(rng, b, t, d, h, scale)
    dh = rng.standard_normal((b, h))
    outs = []
    for backward in (lstm_backward, oracle_lstm_backward):
        ws = Workspace()
        _, cache = lstm_forward(cf(x), wx, wh, bias, ws)
        outs.append(backward(dh, cache, ws))
    return outs


def stacked_gemm_rows(b, seed):
    """The default LSTM's weight gradients at batch `b` from the stacked GEMM
    and from the oracle's two GEMMs, with the OpenBLAS core that computed
    them; run in a child process per core."""
    from vitalnet.cli import _environment

    new, old = lstm_backward_pair(b, 20, 64, 64, 0.2, seed)
    return _environment()["openblas_core"], new[1:3], old[1:3]


BATCHES = [1, 17, 30, 32, 256]
# (B, T, D, H, scale): the LSTM grid above, saturated gates, and the model's
# shape at every batch size (48-slot windows pool to 20 steps)
LSTM_CASES = ([(b, t, d, h, 0.4) for b, t, d, h in
               [(1, 1, 3, 5), (1, 1, 1, 1), (2, 7, 5, 3), (4, 3, 2, 6), (32, 20, 64, 64),
                (1, 22, 64, 64), (17, 22, 64, 64), (17, 5, 3, 7)]]
              + [(b, 6, 4, 5, scale) for b in (1, 3, 17, 32) for scale in (20.0, 60.0)]
              + [(b, 20, 64, 64, 0.2) for b in BATCHES])
# (B, T, C, F, K): the conv grid above, and both model layers at every batch size
CONV_ORACLE_CASES = list(dict.fromkeys(CONV_CASES + [(b, 48, 3, 32, 5) for b in BATCHES]
                                       + [(b, 44, 32, 64, 5) for b in BATCHES]))


class GemmCounter(np.ndarray):
    """An array view that counts the matmul calls it takes part in."""

    gemms = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            GemmCounter.gemms += 1
        plain = [a.view(np.ndarray) if isinstance(a, GemmCounter) else a for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(a.view(np.ndarray) if isinstance(a, GemmCounter) else a
                                  for a in out)
        return getattr(ufunc, method)(*plain, **kwargs)


class TestBackwardAgainstOracle:
    @pytest.mark.parametrize("b,t,d,h,scale", LSTM_CASES)
    def test_lstm_bit_equal(self, b, t, d, h, scale):
        new, old = lstm_backward_pair(b, t, d, h, scale, seed=7 * b + t + d * h)
        for got, want in zip(new, old):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("b,t,c,f,k", CONV_ORACLE_CASES)
    def test_conv_bit_equal(self, b, t, c, f, k):
        rng = np.random.default_rng(b * 100 + t * 10 + k)
        x = rng.standard_normal((c, b, t))
        w = rng.standard_normal((f, k, c)) / np.sqrt(k * c)
        bias = rng.standard_normal(f) * 0.1
        dpre = rng.standard_normal((f, b, t - k + 1))
        outs = []
        for backward in (oracle_conv1d_backward, conv1d_backward,
                         lambda d, cache, ws: conv1d_backward(d, cache, ws, input_grad=False)):
            ws = Workspace()
            _, cache = conv1d_forward(x, w, bias, ws)
            ws.take("dx", x.shape).fill(np.nan)  # what a last user may leave
            outs.append(backward(dpre, cache, ws))
        (dx_ref, dw_ref, db_ref), (dx, dw, db), (none, dw_only, db_only) = outs
        assert none is None
        assert np.array_equal(dx, dx_ref)
        for got in (dw, dw_only):
            assert np.array_equal(got, dw_ref)
        for got in (db, db_only):
            assert np.array_equal(got, db_ref)

    @pytest.mark.parametrize("b,t", [(b, 44) for b in BATCHES] + [(b, 43) for b in (1, 17)]
                             + [(3, 2), (3, 3)])
    def test_pool_bit_equal(self, b, t):
        # the model's pool input (conv2's 64 filters over 44 slots) at every
        # batch size, and odd lengths, whose last slot takes no gradient;
        # ties, signed zeros, negative and non-finite gradients included
        rng = np.random.default_rng(b * 100 + t)
        x = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(64, b, t))
        dout = rng.choice([-2.5, -0.0, 0.0, 1.5, np.inf, np.nan], size=(64, b, t // 2))
        outs = []
        for backward in (oracle_maxpool1d_backward, maxpool1d_backward):
            ws = Workspace()
            _, cache = maxpool1d_forward(x, ws)
            ws.take("dx", x.shape).fill(np.nan)  # what a last user may leave
            with np.errstate(invalid="ignore"):  # inf times a masked-out 0
                outs.append(backward(dout, cache, ws))
        assert outs[0].shape == outs[1].shape
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("cfg,n,batch", [(model.ModelConfig(seed=3), 72, 32),
                                             (model.ModelConfig(seed=5, lstm_hidden=24), 23, 5)])
    def test_training_bit_equal(self, monkeypatch, cfg, n, batch):
        # two epochs whose last batch is partial, against the same run with
        # the oracle kernels in `layers`
        ds = make_dataset(n_windows=n, window_len=48, seed=2)
        tcfg = TrainConfig(epochs=2, batch_size=batch, seed=4)
        params, history = train(ds, cfg, tcfg)
        monkeypatch.setattr(layers, "lstm_backward", oracle_lstm_backward)
        monkeypatch.setattr(layers, "maxpool1d_backward", oracle_maxpool1d_backward)
        monkeypatch.setattr(layers, "conv1d_backward",
                            lambda dpre, cache, ws, input_grad=True:
                            oracle_conv1d_backward(dpre, cache, ws))
        ref_params, ref_history = train(ds, cfg, tcfg)
        assert np.array_equal(params.flat, ref_params.flat)
        assert history == ref_history

    def test_conv1_input_gradient_never_formed(self, monkeypatch):
        # conv1's backward forms dw and db with one GEMM, and no dx buffer
        conv_backward = layers.conv1d_backward
        gemms = {}

        def counting(dpre, cache, ws, **kwargs):
            x, w, cols = cache
            before = GemmCounter.gemms
            counted = tuple(a.view(GemmCounter) for a in (x, w, cols))
            out = conv_backward(dpre.view(GemmCounter), counted, ws, **kwargs)
            gemms[w.shape[2]] = GemmCounter.gemms - before
            return out

        monkeypatch.setattr(layers, "conv1d_backward", counting)
        cfg = model.ModelConfig()
        ws = Workspace()
        x = np.random.default_rng(5).standard_normal((4, 48, 3))
        model.loss_and_grads(model.init_params(cfg), x, np.arange(4) % 2, ws)
        assert gemms == {model.N_CHANNELS: 1, cfg.conv1_filters: 2}
        assert "conv1.dx" not in ws._buffers
        assert "conv2.dx" in ws._buffers

    def test_no_lstm_buffer_grows(self):
        # the stacked [x; h] operand is written over dz, dwx and dwh are rows
        # of one gradient buffer, and the loop's dh and dc live in the
        # forward pass's per-step scratch
        cfg = model.ModelConfig()
        ws = Workspace()
        x = np.random.default_rng(6).standard_normal((32, 48, 3))
        model.loss_and_grads(model.init_params(cfg), x, np.arange(32) % 2, ws)
        sizes = {k: v.size for k, v in ws._buffers.items() if k.startswith("lstm.")}
        t = (48 - cfg.conv1_kernel - cfg.conv2_kernel + 2) // 2
        d, h = cfg.conv2_filters, cfg.lstm_hidden
        assert sizes["lstm.dz"] == sizes["lstm.gates"] == t * 4 * h * 32
        assert sizes["lstm.dw"] == (d + h) * 4 * h
        assert sizes["lstm.rec"] == 4 * h * 32
        assert set(sizes) == {f"lstm.{role}" for role in
                              ("wx_s", "wh_s", "gates", "cs", "hs", "rec", "ig", "dz", "dw", "dx")}

    def test_stacked_gemm_under_other_blas_cores(self):
        # the rows of the one weight GEMM equal the two separate GEMMs under
        # the default OpenBLAS core and two older ones, each picked in a
        # child's environment only
        tests = str(Path(__file__).parent)
        cores = set()
        for coretype in (None, "Sandybridge", "Prescott"):
            env = {"PYTHONPATH": tests, "OPENBLAS_CORETYPE": coretype}
            for b in (1, 32):
                run = run_call("test_nn_kernels:stacked_gemm_rows", b, b, env=env, timeout=120)
                assert run.code == 0, f"{coretype}: the child failed:\n{run.stderr}"
                core, new, old = run.value
                cores.add(core)
                for got, want in zip(new, old):
                    assert np.array_equal(got, want), (coretype, b)
        assert len(cores) == 3, f"OpenBLAS did not take every OPENBLAS_CORETYPE: {cores}"


def conv_pass(ws, x, w, bias, dpre):
    pre, cache = conv1d_forward(x, w, bias, ws)
    return (pre, *conv1d_backward(dpre, cache, ws))


def pool_pass(ws, x, dout):
    out, cache = maxpool1d_forward(x, ws)
    return out, maxpool1d_backward(dout, cache, ws)


def lstm_pass(ws, x, wx, wh, bias, dh):
    h, cache = lstm_forward(x, wx, wh, bias, ws)
    return (h, *lstm_backward(dh, cache, ws))


def dense_pass(ws, x, w, bias, dout):
    out, cache = dense_forward(x, w, bias)
    return (out, *dense_backward(dout, cache))


def float32_and_float64(kernel, *arrays):
    """The outputs of `kernel(ws, *arrays)` with the arrays in float32 and in
    float64, from the same float32-rounded values, each in a fresh workspace
    whose every buffer must be of that dtype."""
    outs = []
    for dtype in (np.float32, np.float64):
        ws = Workspace()
        outs.append(kernel(ws, *(a.astype(np.float32).astype(dtype) for a in arrays)))
        assert all(buf.dtype == dtype for buf in ws._buffers.values())
    return outs


def assert_float32_close(got, want):
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0.0) or 1.0
    assert np.abs(got - want).max(initial=0.0) <= F32_TOL * scale


class TestFloat32AgainstFloat64:
    """The kernels run in their inputs' dtype: in float32 they agree with
    float64 to F32_TOL, and nothing they return or buffer is upcast."""

    @pytest.mark.parametrize("b,t,c,f,k", CONV_CASES)
    def test_conv(self, b, t, c, f, k):
        rng = np.random.default_rng(b * 100 + t * 10 + k)
        x, dpre = rng.standard_normal((c, b, t)), rng.standard_normal((f, b, t - k + 1))
        w, bias = rng.standard_normal((f, k, c)) / np.sqrt(k * c), rng.standard_normal(f)
        for got, want in zip(*float32_and_float64(conv_pass, x, w, bias, dpre)):
            assert_float32_close(got, want)

    @pytest.mark.parametrize("b,t", [(1, 44), (17, 43), (32, 44)])
    def test_pool(self, b, t):
        rng = np.random.default_rng(b * 100 + t)
        x, dout = rng.standard_normal((64, b, t)), rng.standard_normal((64, b, t // 2))
        for got, want in zip(*float32_and_float64(pool_pass, x, dout)):
            assert_float32_close(got, want)

    @pytest.mark.parametrize("b,t,d,h,scale", [(1, 22, 64, 64, 0.2), (17, 20, 64, 64, 0.2),
                                               (32, 20, 64, 64, 0.2), (4, 6, 4, 5, 0.4)])
    def test_lstm(self, b, t, d, h, scale):
        rng = np.random.default_rng(7 * b + t + d * h)
        x, wx, wh, bias = lstm_case(rng, b, t, d, h, scale)
        dh = rng.standard_normal((b, h))
        for got, want in zip(*float32_and_float64(lstm_pass, cf(x), wx, wh, bias, dh)):
            assert_float32_close(got, want)

    @pytest.mark.parametrize("b,d,u", [(1, 64, 100), (17, 64, 100), (32, 100, 1)])
    def test_dense(self, b, d, u):
        rng = np.random.default_rng(b + d + u)
        x, w = rng.standard_normal((b, d)), rng.standard_normal((d, u)) / np.sqrt(d)
        bias, dout = rng.standard_normal(u), rng.standard_normal((b, u))
        for got, want in zip(*float32_and_float64(dense_pass, x, w, bias, dout)):
            assert_float32_close(got, want)

    @pytest.mark.parametrize("b", [1, 17, 32])
    def test_loss_and_grads(self, b):
        params = model.init_params(model.ModelConfig(seed=b)).astype(np.float32)
        x = np.random.default_rng(b).standard_normal((b, 48, 3)).astype(np.float32)
        y = np.arange(b) % 2
        (loss, probs, grads), (ref_loss, ref_probs, ref_grads) = (
            model.loss_and_grads(p, x, y, Workspace()) for p in (params, params.astype(float)))
        assert type(loss) is float and abs(loss - ref_loss) <= F32_TOL * ref_loss
        assert_float32_close(probs, ref_probs)
        for name in model.TENSOR_ORDER:
            assert_float32_close(grads[name], ref_grads[name])

    def test_float32_params_upcast_nothing(self):
        # a float64 batch is cast once, by forward; Adam's moments and
        # buffers take the gradient's dtype
        params = model.init_params(model.ModelConfig()).astype(np.float32)
        x = np.random.default_rng(8).standard_normal((5, 48, 3))
        ws, state = Workspace(), AdamState()
        probs, feats, _ = model.forward(params, x, ws)
        assert probs.dtype == feats.dtype == np.float32
        _, probs, grads = model.loss_and_grads(params, x, np.arange(5) % 2, ws)
        assert probs.dtype == np.float32
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        adam_step(params, grads, state, 1, TrainConfig(), ws)
        assert params.flat.dtype == state.m.dtype == state.v.dtype == np.float32
        assert {"adam.grad", "adam.step", "lstm.dz", "conv2.dx"} <= set(ws._buffers)
        assert {buf.dtype for buf in ws._buffers.values()} == {np.dtype(np.float32)}

    def test_sigmoid_keeps_a_float_dtype(self):
        z = np.array([-40.0, -1.0, 0.0, 1.0, 40.0])
        assert sigmoid(z.astype(np.float32)).dtype == np.float32
        assert_float32_close(sigmoid(z.astype(np.float32)), sigmoid(z))
        assert sigmoid(np.array([-1, 0, 1])).dtype == np.float64

    def test_train_steps_in_float32(self, monkeypatch):
        # every buffer of train()'s one workspace is float32; the params it
        # returns are widened to float64, as a checkpoint holds them
        made = []

        def recording():
            made.append(Workspace())
            return made[-1]

        monkeypatch.setattr(train_module, "Workspace", recording)
        ds = make_dataset(n_windows=40, window_len=48, seed=3)
        params, _ = train(ds, model.ModelConfig(), TrainConfig(epochs=1))
        assert train_module.TRAIN_DTYPE == np.float32 and params.flat.dtype == np.float64
        assert np.array_equal(params.flat, params.flat.astype(np.float32))
        assert len(made) == 1 and made[0]._buffers
        assert {buf.dtype for buf in made[0]._buffers.values()} == {np.dtype(np.float32)}
