"""Tests for the numpy NN layers, including numeric gradient checks."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    cross_entropy_loss,
    softmax,
)
from repro.nn.model import Sequential


def _numeric_grad(layer, inputs, grad_output, epsilon=1e-4):
    """Central-difference gradient of sum(output * grad_output) w.r.t. inputs."""
    numeric = np.zeros_like(inputs, dtype=np.float64)
    flat = inputs.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = float((layer.forward(inputs, training=True) * grad_output).sum())
        flat[index] = original - epsilon
        minus = float((layer.forward(inputs, training=True) * grad_output).sum())
        flat[index] = original
        numeric.reshape(-1)[index] = (plus - minus) / (2 * epsilon)
    return numeric


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 4, kernel_size=3, stride=1, padding=1)
        out = conv.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8))
                           .astype(np.float32))
        assert out.shape == (2, 4, 8, 8)

    def test_strided_output_shape(self):
        conv = Conv2d(3, 4, kernel_size=3, stride=2, padding=1)
        assert conv.output_shape((3, 8, 8)) == (4, 4, 4)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, seed=1)
        inputs = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        grad_out = rng.normal(size=(1, 3, 5, 5)).astype(np.float64)
        conv.forward(inputs, training=True)
        analytic = conv.backward(grad_out)
        numeric = _numeric_grad(conv, inputs.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_wrong_channel_count_rejected(self):
        conv = Conv2d(3, 4)
        with pytest.raises(ModelError):
            conv.forward(np.zeros((1, 5, 8, 8), dtype=np.float32))

    def test_flops_positive_and_scale_with_channels(self):
        small = Conv2d(3, 4).flops((3, 16, 16))
        big = Conv2d(3, 8).flops((3, 16, 16))
        assert big == pytest.approx(2 * small)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(10, 3)
        assert layer.forward(np.zeros((4, 10), dtype=np.float32)).shape == (4, 3)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        layer = Linear(6, 4, seed=2)
        inputs = rng.normal(size=(3, 6))
        grad_out = rng.normal(size=(3, 4))
        layer.forward(inputs, training=True)
        analytic = layer.backward(grad_out)
        numeric = _numeric_grad(layer, inputs.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ModelError):
            Linear(4, 2).backward(np.zeros((1, 2)))


class TestActivationsAndPooling:
    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_gradient_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = relu.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    def test_maxpool_selects_maximum(self):
        pool = MaxPool2d(kernel_size=2)
        inputs = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = pool.forward(inputs, training=True)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        pool = MaxPool2d(kernel_size=2)
        inputs = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        pool.forward(inputs, training=True)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == pytest.approx(4.0)
        assert grad[0, 0, 1, 1] == 1.0  # position of value 5

    @pytest.mark.parametrize("shape", [(3, 4, 4), (1, 3, 4, 4, 4), (2, 3)])
    def test_maxpool_rejects_inputs_that_are_not_nchw(self, shape):
        with pytest.raises(ModelError, match="MaxPool2d expected"):
            MaxPool2d(2).forward(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("training", [False, True])
    def test_maxpool_rejects_a_window_larger_than_the_input(self, training):
        """It used to return ``(N, C, 0, 0)``, which the global average
        pool turned into NaN logits and a RuntimeWarning."""
        pool = MaxPool2d(kernel_size=3)
        with pytest.raises(ModelError, match="does not fit"):
            pool.forward(np.zeros((2, 4, 2, 5), dtype=np.float32),
                         training=training)
        with pytest.raises(ModelError, match="does not fit"):
            pool.output_shape((4, 5, 2))

    def test_a_model_that_pools_too_far_fails_at_plan_compile(self):
        layers = [Conv2d(3, 4), MaxPool2d(2), MaxPool2d(2), MaxPool2d(2),
                  GlobalAvgPool2d(), Linear(4, 2)]
        model = Sequential(layers, input_shape=(3, 4, 4))
        with pytest.raises(ModelError, match="does not fit"):
            model.predict(np.zeros((1, 3, 4, 4), dtype=np.float32))
        with pytest.raises(ModelError, match="does not fit"):
            model.forward(np.zeros((1, 3, 4, 4), dtype=np.float32),
                          training=True)

    def test_maxpool_picks_the_first_of_equal_maxima_in_backward(self):
        pool = MaxPool2d(kernel_size=2)
        pool.forward(np.ones((1, 1, 2, 2)), training=True)
        grad = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_global_avg_pool(self):
        gap = GlobalAvgPool2d()
        inputs = np.ones((2, 3, 4, 4))
        out = gap.forward(inputs, training=True)
        np.testing.assert_allclose(out, np.ones((2, 3)))
        grad = gap.backward(np.ones((2, 3)))
        np.testing.assert_allclose(grad, np.full((2, 3, 4, 4), 1 / 16))

    def test_flatten_roundtrip(self):
        flat = Flatten()
        inputs = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        out = flat.forward(inputs, training=True)
        assert out.shape == (2, 48)
        assert flat.backward(out).shape == inputs.shape


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        bn = BatchNorm2d(3)
        rng = np.random.default_rng(3)
        inputs = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = bn.forward(inputs, training=True)
        assert abs(float(out.mean())) < 0.1
        assert float(out.std()) == pytest.approx(1.0, abs=0.1)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            bn.forward(rng.normal(loc=2.0, size=(8, 3, 4, 4)), training=True)
        out = bn.forward(np.full((2, 3, 4, 4), 2.0), training=False)
        assert abs(float(out.mean())) < 0.6

    def test_wrong_channels_rejected(self):
        with pytest.raises(ModelError):
            BatchNorm2d(3).forward(np.zeros((1, 5, 4, 4)))


class TestLoss:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        loss, grad = cross_entropy_loss(logits, labels)
        assert loss < 1e-4
        assert np.abs(grad).max() < 1e-3

    def test_cross_entropy_gradient_shape(self):
        logits = np.zeros((4, 3))
        loss, grad = cross_entropy_loss(logits, np.array([0, 1, 2, 0]))
        assert grad.shape == (4, 3)
        assert loss == pytest.approx(np.log(3.0), rel=1e-6)

    def test_label_shape_validated(self):
        with pytest.raises(ModelError):
            cross_entropy_loss(np.zeros((2, 3)), np.zeros((3,), dtype=int))
