import math

import numpy as np
import pytest

from vitalnet.errors import ValidationError
from vitalnet.nn.layers import (
    Workspace,
    bce_loss,
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


def lstm_step(x, h, c, wx, wh, bias):
    """Reference LSTM step on vectors x: (D,), h: (H,), c: (H,) -> (h', c'),
    with the gate math written out once more, independent of lstm_forward."""
    h_dim = h.shape[0]
    z = x @ wx + h @ wh + bias
    i = sigmoid(z[:h_dim])
    f = sigmoid(z[h_dim : 2 * h_dim])
    g = np.tanh(z[2 * h_dim : 3 * h_dim])
    o = sigmoid(z[3 * h_dim :])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def numeric_grad(f, x, eps=1e-6):
    """Independent central-difference oracle over every element of x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestConv1d:
    # activations are channels-first: (C, B, T) in, (F, B, T_out) out
    def test_hand_sum(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])  # C=1, B=1, T=4
        w = np.array([[[1.0], [1.0]]])  # F=1, K=2, C=1
        out, _ = conv1d_forward(x, w, np.zeros(1), Workspace())
        assert out[0, 0, :].tolist() == [3.0, 5.0, 7.0]

    def test_kernel_one_identity(self):
        x = np.arange(8, dtype=float).reshape(2, 1, 4)
        w = np.zeros((2, 1, 2))
        w[0, 0, 0] = 1.0
        w[1, 0, 1] = 1.0
        out, _ = conv1d_forward(x, w, np.zeros(2), Workspace())
        assert np.array_equal(out, x)

    def test_too_short_input(self):
        with pytest.raises(ValidationError):
            conv1d_forward(np.ones((1, 1, 2)), np.ones((1, 5, 1)), np.zeros(1), Workspace())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 9))
        w = rng.standard_normal((4, 3, 2)) * 0.5
        b = rng.standard_normal(4) * 0.1
        proj = rng.standard_normal((4, 3, 7))

        def loss():
            out, _ = conv1d_forward(x, w, b, Workspace())
            return float((out * proj).sum())

        ws = Workspace()
        _, cache = conv1d_forward(x, w, b, ws)
        dx, dw, db = conv1d_backward(proj, cache, ws)
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
        assert rel_err(dw, numeric_grad(loss, w)) < 1e-6
        assert rel_err(db, numeric_grad(loss, b)) < 1e-6


class TestMaxPool:
    # channels-first, (C, B, T), pooled along T
    def test_hand_example(self):
        x = np.array([[[1.0, 3.0, 2.0, 5.0]]])
        out, _ = maxpool1d_forward(x, Workspace())
        assert out[0, 0, :].tolist() == [3.0, 5.0]

    def test_constant_ties_route_first(self):
        x = np.ones((1, 1, 4))
        ws = Workspace()
        out, cache = maxpool1d_forward(x, ws)
        assert np.all(out == 1.0)
        dx = maxpool1d_backward(np.ones((1, 1, 2)), cache, ws)
        assert dx[0, 0, :].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_too_short(self):
        with pytest.raises(ValidationError):
            maxpool1d_forward(np.ones((2, 1, 1)), Workspace())

    def test_gradient_away_from_ties(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 8))
        proj = rng.standard_normal((3, 2, 4))

        def loss():
            out, _ = maxpool1d_forward(x, Workspace())
            return float((out * proj).sum())

        ws = Workspace()
        _, cache = maxpool1d_forward(x, ws)
        dx = maxpool1d_backward(proj, cache, ws)
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-6


class TestLstm:
    # lstm_forward reads feature-major (D, B, T) input; lstm_backward returns
    # dx in the same layout
    def test_zero_params_zero_state(self):
        wx, wh, b = np.zeros((2, 8)), np.zeros((2, 8)), np.zeros(8)
        h, c = lstm_step(np.ones(2), np.zeros(2), np.zeros(2), wx, wh, b)
        assert np.all(h == 0) and np.all(c == 0)

    def test_zero_params_carry_cell(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c' = 0.5*2 = 1, h' = 0.5*tanh(1)
        wx, wh, b = np.zeros((1, 4)), np.zeros((1, 4)), np.zeros(4)
        h, c = lstm_step(np.zeros(1), np.zeros(1), np.array([2.0]), wx, wh, b)
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert h[0] == pytest.approx(0.5 * math.tanh(1.0), abs=1e-12)
        assert h[0] == pytest.approx(0.380797, abs=1e-6)

    def test_batched_matches_stepwise(self):
        rng = np.random.default_rng(2)
        d, hdim, t = 3, 4, 5
        wx = rng.standard_normal((d, 4 * hdim)) * 0.4
        wh = rng.standard_normal((hdim, 4 * hdim)) * 0.4
        b = rng.standard_normal(4 * hdim) * 0.1
        x = rng.standard_normal((d, 1, t))
        h_batch, _ = lstm_forward(x, wx, wh, b, Workspace())
        h = np.zeros(hdim)
        c = np.zeros(hdim)
        for step in range(t):
            h, c = lstm_step(x[:, 0, step], h, c, wx, wh, b)
        assert np.allclose(h_batch[0], h, atol=1e-12)

    def test_gradients_through_time(self):
        rng = np.random.default_rng(3)
        d, hdim, t = 2, 3, 5
        wx = rng.standard_normal((d, 4 * hdim)) * 0.5
        wh = rng.standard_normal((hdim, 4 * hdim)) * 0.5
        b = rng.standard_normal(4 * hdim) * 0.1
        x = rng.standard_normal((d, 2, t))
        proj = rng.standard_normal((2, hdim))

        def loss():
            h, _ = lstm_forward(x, wx, wh, b, Workspace())
            return float((h * proj).sum())

        ws = Workspace()
        _, cache = lstm_forward(x, wx, wh, b, ws)
        dx, dwx, dwh, db = lstm_backward(proj, cache, ws)
        assert rel_err(dwx, numeric_grad(loss, wx)) < 1e-6
        assert rel_err(dwh, numeric_grad(loss, wh)) < 1e-6
        assert rel_err(db, numeric_grad(loss, b)) < 1e-6
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-6


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out, _ = dense_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_zero_sigmoid_is_half(self):
        # the model's output unit: sigmoid of a dense output
        out, _ = dense_forward(np.ones((1, 4)), np.zeros((4, 1)), np.zeros(1))
        assert sigmoid(out[:, 0])[0] == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            dense_forward(np.ones((1, 3)), np.ones((4, 2)), np.zeros(2))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4)) * 0.5
        b = rng.standard_normal(4) * 0.1
        proj = rng.standard_normal((3, 4))

        def loss():
            out, _ = dense_forward(x, w, b)
            return float((out * proj).sum())

        _, cache = dense_forward(x, w, b)
        dx, dw, db = dense_backward(proj, cache)
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
        assert rel_err(dw, numeric_grad(loss, w)) < 1e-6
        assert rel_err(db, numeric_grad(loss, b)) < 1e-6


class TestBce:
    def test_half_is_ln2(self):
        assert bce_loss(np.array([0.5]), np.array([1])) == pytest.approx(
            math.log(2), abs=1e-12
        )
        assert bce_loss(np.array([0.5]), np.array([0])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_perfect_prediction_near_zero(self):
        assert bce_loss(np.array([1.0]), np.array([1])) <= -math.log(1 - 1e-7) + 1e-12
        assert bce_loss(np.array([0.0]), np.array([0])) <= -math.log(1 - 1e-7) + 1e-12
