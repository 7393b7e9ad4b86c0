"""Layer-level tests: shapes, semantics, and gradient checks.

Every layer's analytic backward pass is validated against central finite
differences via the probe construction in ``repro.nn.gradcheck``.
"""

import numpy as np
import pytest

from repro.exceptions import NetworkError
from repro.nn import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)

RNG = np.random.default_rng(42)
TOL = 1e-6


class TestConv2D:
    def test_same_padding_preserves_shape(self):
        conv = Conv2D(3, 8, kernel_size=3, rng=RNG)
        out = conv.forward(RNG.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 8, 12, 12)

    def test_valid_padding_shrinks(self):
        conv = Conv2D(1, 2, kernel_size=3, padding="valid", rng=RNG)
        out = conv.forward(RNG.normal(size=(1, 1, 8, 8)))
        assert out.shape == (1, 2, 6, 6)

    def test_stride_two(self):
        conv = Conv2D(1, 2, kernel_size=3, padding=1, stride=2, rng=RNG)
        out = conv.forward(RNG.normal(size=(1, 1, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_output_shape_matches_forward(self):
        conv = Conv2D(3, 5, kernel_size=3, rng=RNG)
        assert conv.output_shape((3, 10, 10)) == (3 and (5, 10, 10))

    def test_matches_naive_convolution(self):
        conv = Conv2D(2, 3, kernel_size=3, padding="valid", rng=RNG)
        x = RNG.normal(size=(1, 2, 6, 6))
        out = conv.forward(x)
        # Naive quadruple loop.
        w = conv.weight.value
        b = conv.bias.value
        expected = np.zeros((1, 3, 4, 4))
        for f in range(3):
            for i in range(4):
                for j in range(4):
                    expected[0, f, i, j] = (
                        np.sum(x[0, :, i : i + 3, j : j + 3] * w[f]) + b[f]
                    )
        assert np.allclose(out, expected, atol=1e-10)

    def test_input_gradient(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=RNG)
        x = RNG.normal(size=(2, 2, 6, 6))
        abs_err, rel_err = check_layer_input_gradient(conv, x)
        assert rel_err < TOL

    def test_param_gradient(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=RNG)
        x = RNG.normal(size=(2, 2, 6, 6))
        abs_err, rel_err = check_layer_param_gradients(conv, x)
        assert rel_err < TOL

    def test_strided_gradients(self):
        conv = Conv2D(1, 2, kernel_size=3, padding=1, stride=2, rng=RNG)
        x = RNG.normal(size=(2, 1, 8, 8))
        assert check_layer_input_gradient(conv, x)[1] < TOL
        assert check_layer_param_gradients(conv, x)[1] < TOL

    def test_rejects_wrong_channels(self):
        conv = Conv2D(3, 4, rng=RNG)
        with pytest.raises(NetworkError):
            conv.forward(RNG.normal(size=(1, 2, 8, 8)))

    def test_same_padding_needs_odd_kernel(self):
        with pytest.raises(NetworkError):
            Conv2D(1, 1, kernel_size=2, padding="same")

    def test_same_padding_needs_stride_one(self):
        with pytest.raises(NetworkError):
            Conv2D(1, 1, kernel_size=3, stride=2, padding="same")

    def test_backward_before_forward_raises(self):
        conv = Conv2D(1, 1, rng=RNG)
        with pytest.raises(NetworkError):
            conv.backward(np.zeros((1, 1, 4, 4)))


class TestMaxPool2D:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_gradient(self):
        pool = MaxPool2D(2)
        x = RNG.normal(size=(2, 3, 6, 6))
        assert check_layer_input_gradient(pool, x)[1] < TOL

    def test_tied_max_splits_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        pool.forward(x)
        grad = pool.backward(np.array([[[[4.0]]]]))
        assert np.allclose(grad, 1.0)  # 4.0 split across 4 tied winners

    def test_indivisible_raises(self):
        pool = MaxPool2D(2)
        with pytest.raises(NetworkError):
            pool.forward(np.zeros((1, 1, 5, 4)))

    def test_output_shape(self):
        assert MaxPool2D(2).output_shape((16, 12, 12)) == (16, 6, 6)
        with pytest.raises(NetworkError):
            MaxPool2D(2).output_shape((16, 7, 8))


class TestDense:
    def test_forward_affine(self):
        dense = Dense(3, 2, rng=RNG)
        x = RNG.normal(size=(4, 3))
        out = dense.forward(x)
        assert np.allclose(out, x @ dense.weight.value + dense.bias.value)

    def test_gradients(self):
        dense = Dense(5, 4, rng=RNG)
        x = RNG.normal(size=(3, 5))
        assert check_layer_input_gradient(dense, x)[1] < TOL
        assert check_layer_param_gradients(dense, x)[1] < TOL

    def test_glorot_init(self):
        dense = Dense(100, 50, rng=RNG, init="glorot")
        limit = np.sqrt(6.0 / 150)
        assert np.abs(dense.weight.value).max() <= limit

    def test_unknown_init(self):
        with pytest.raises(NetworkError):
            Dense(3, 2, init="magic")

    def test_shape_validation(self):
        dense = Dense(3, 2, rng=RNG)
        with pytest.raises(NetworkError):
            dense.forward(RNG.normal(size=(4, 5)))


class TestActivations:
    def test_relu_forward(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        assert relu.forward(x).tolist() == [[0.0, 0.0, 2.0]]

    def test_relu_gradient(self):
        relu = ReLU()
        x = RNG.normal(size=(4, 10)) + 0.05  # keep away from the kink
        assert check_layer_input_gradient(relu, x)[1] < 1e-4

    def test_relu_output_nonnegative(self):
        relu = ReLU()
        assert relu.forward(RNG.normal(size=(8, 8))).min() >= 0.0


class TestDropout:
    def test_inference_is_identity(self):
        drop = Dropout(0.5)
        x = RNG.normal(size=(8, 8))
        assert np.array_equal(drop.forward(x, training=False), x)

    def test_training_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = drop.forward(x, training=True)
        zero_fraction = float((out == 0).mean())
        assert 0.4 < zero_fraction < 0.6
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)  # inverted scaling by 1/keep

    def test_expected_value_preserved(self):
        drop = Dropout(0.3, rng=np.random.default_rng(1))
        x = np.ones((400, 400))
        out = drop.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_rate_zero_identity_even_training(self):
        drop = Dropout(0.0)
        x = RNG.normal(size=(4, 4))
        assert np.array_equal(drop.forward(x, training=True), x)

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=np.random.default_rng(2))
        x = np.ones((50, 50))
        out = drop.forward(x, training=True)
        grad = drop.backward(np.ones_like(x))
        assert np.array_equal(grad == 0, out == 0)

    def test_rate_validation(self):
        with pytest.raises(NetworkError):
            Dropout(1.0)
        with pytest.raises(NetworkError):
            Dropout(-0.1)


class TestFlatten:
    def test_forward_backward_shapes(self):
        flat = Flatten()
        x = RNG.normal(size=(3, 4, 5, 6))
        out = flat.forward(x)
        assert out.shape == (3, 120)
        grad = flat.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_gradient_is_reshape(self):
        flat = Flatten()
        x = RNG.normal(size=(2, 3, 4, 4))
        assert check_layer_input_gradient(flat, x)[1] < TOL

    def test_output_shape(self):
        assert Flatten().output_shape((32, 3, 3)) == (288,)
