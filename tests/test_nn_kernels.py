"""The LSTM and max-pool kernels against straightforward reference versions.

The references below are the original per-step LSTM (one input GEMM per
step, sign-split sigmoid, a list of per-step caches) and the argmax /
``np.add.at`` max-pool. The production kernels hoist the input GEMM, use the
tanh form of the gate sigmoid and route pool gradients with strided adds, so
they must agree with these to 1e-12.
"""

import numpy as np
import pytest

from vitalnet.nn.layers import (
    _time_windows,
    lstm_backward,
    lstm_forward,
    maxpool1d_backward,
    maxpool1d_forward,
)

TOL = 1e-12


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


def ref_maxpool1d_forward(x, size, stride):
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


class TestLstmAgainstReference:
    @pytest.mark.parametrize(
        "b,t,d,h",
        [(1, 1, 3, 5), (1, 1, 1, 1), (2, 7, 5, 3), (4, 3, 2, 6), (32, 20, 64, 64)],
    )
    def test_forward_and_backward_match(self, b, t, d, h):
        rng = np.random.default_rng(100 + b * t + d * h)
        x, wx, wh, bias = lstm_case(rng, b, t, d, h, scale=0.4)
        h_new, cache_new = lstm_forward(x, wx, wh, bias)
        h_ref, cache_ref = ref_lstm_forward(x, wx, wh, bias)
        assert_close(h_new, h_ref)
        dh = rng.standard_normal((b, h))
        for got, want in zip(
            lstm_backward(dh, cache_new), ref_lstm_backward(dh, cache_ref)
        ):
            assert_close(got, want)

    @pytest.mark.parametrize("scale", [20.0, 60.0])
    def test_saturated_gates_match(self, scale):
        # pre-activations far beyond |z| > 40, where sigmoid and tanh saturate
        rng = np.random.default_rng(int(scale))
        x, wx, wh, bias = lstm_case(rng, 3, 6, 4, 5, scale)
        z = np.einsum("btd,dk->btk", x, wx) + bias
        assert np.abs(z).max() > 40
        h_new, cache_new = lstm_forward(x, wx, wh, bias)
        h_ref, cache_ref = ref_lstm_forward(x, wx, wh, bias)
        assert np.isfinite(h_new).all()
        assert_close(h_new, h_ref)
        dh = rng.standard_normal((3, 5))
        for got, want in zip(
            lstm_backward(dh, cache_new), ref_lstm_backward(dh, cache_ref)
        ):
            assert np.isfinite(got).all()
            assert_close(got, want)

    def test_backward_leaves_cache_reusable(self):
        rng = np.random.default_rng(7)
        x, wx, wh, bias = lstm_case(rng, 2, 4, 3, 3, scale=0.5)
        _, cache = lstm_forward(x, wx, wh, bias)
        dh = rng.standard_normal((2, 3))
        first = lstm_backward(dh, cache)
        second = lstm_backward(dh, cache)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


POOL_GEOMETRIES = [(size, stride) for size in (1, 2, 3, 4) for stride in (1, 2, 3)]


class TestMaxPoolAgainstReference:
    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    @pytest.mark.parametrize("t", [4, 9, 12])
    def test_ties_route_to_first_index(self, size, stride, t):
        # small integer values make ties within a window common
        rng = np.random.default_rng(size * 10 + stride + t)
        x = rng.integers(0, 3, size=(3, t, 4)).astype(float)
        out, cache = maxpool1d_forward(x, size, stride)
        out_ref, cache_ref = ref_maxpool1d_forward(x, size, stride)
        assert np.array_equal(out, out_ref)
        assert np.array_equal(cache[3], cache_ref[3])
        dout = rng.standard_normal(out.shape)
        assert_close(maxpool1d_backward(dout, cache), ref_maxpool1d_backward(dout, cache_ref))

    @pytest.mark.parametrize("size,stride", POOL_GEOMETRIES)
    def test_continuous_values_match(self, size, stride):
        rng = np.random.default_rng(size * 7 + stride)
        x = np.maximum(rng.standard_normal((5, 17, 6)), 0.0)
        out, cache = maxpool1d_forward(x, size, stride)
        out_ref, cache_ref = ref_maxpool1d_forward(x, size, stride)
        assert np.array_equal(out, out_ref)
        assert np.array_equal(cache[3], cache_ref[3])
        dout = rng.standard_normal(out.shape)
        assert_close(maxpool1d_backward(dout, cache), ref_maxpool1d_backward(dout, cache_ref))

    def test_offsets_beyond_one_byte(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 50, size=(2, 700, 3)).astype(float)
        out, cache = maxpool1d_forward(x, 300, 7)
        out_ref, cache_ref = ref_maxpool1d_forward(x, 300, 7)
        assert np.array_equal(out, out_ref)
        assert np.array_equal(cache[3], cache_ref[3])
        dout = rng.standard_normal(out.shape)
        assert_close(maxpool1d_backward(dout, cache), ref_maxpool1d_backward(dout, cache_ref))

    def test_all_equal_window_picks_offset_zero(self):
        x = np.full((1, 6, 2), 3.0)
        _, cache = maxpool1d_forward(x, 3, 1)
        assert np.all(cache[3] == 0)
