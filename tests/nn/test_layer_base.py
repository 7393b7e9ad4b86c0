"""Tests for the Layer/Parameter base plumbing."""

import numpy as np
import pytest

from repro.exceptions import NetworkError
from repro.nn.layer import Layer, Parameter


class TestParameter:
    def test_value_cast_to_float64(self):
        p = Parameter(np.array([1, 2], dtype=np.int32), name="w")
        assert p.value.dtype == np.float64

    def test_grad_starts_zero_matching_shape(self):
        p = Parameter(np.ones((3, 4)))
        assert p.grad.shape == (3, 4)
        assert np.all(p.grad == 0)

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad[:] = 5.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_size_and_shape(self):
        p = Parameter(np.ones((2, 5)))
        assert p.size == 10
        assert p.shape == (2, 5)


class TestLayerBase:
    def test_default_name_is_kind(self):
        class Custom(Layer):
            kind = "custom"

        assert Custom().name == "custom"
        assert Custom(name="mine").name == "mine"

    def test_abstract_methods_raise(self):
        layer = Layer()
        with pytest.raises(NotImplementedError):
            layer.forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            layer.backward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            layer.output_shape((1,))

    def test_parameters_default_empty(self):
        assert Layer().parameters() == []

    def test_stateless_layer_rejects_foreign_state(self):
        from repro.nn import ReLU

        assert ReLU().extra_state() == {}
        with pytest.raises(NetworkError):
            ReLU().load_extra_state({"rng": 1})

    def test_require_cached(self):
        layer = Layer()
        with pytest.raises(NetworkError):
            layer._require_cached(None)
        sentinel = object()
        assert layer._require_cached(sentinel) is sentinel
