"""Tests for the workspace buffer pool and the pooled/fused compute paths.

Three properties matter:

1. the :class:`~repro.nn.kernels.Workspace` arena behaves (hit/miss
   accounting, step reclaim, thread isolation, graceful fallback);
2. pooling and fusion are *pure* optimisations — the float64 default path
   is bitwise identical with and without them;
3. steady-state training performs no pool allocations after warmup.
"""

import threading

import numpy as np
import pytest

from repro.core.model import build_dac17_network
from repro.exceptions import NetworkError
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)
from repro.nn.kernels import (
    Workspace,
    current_workspace,
    scratch,
    scratch_zeros,
    use_workspace,
)
from repro.nn.layer import Parameter
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam, ConstantRate


class TestWorkspace:
    def test_miss_then_hit_reuses_buffer(self):
        ws = Workspace()
        first = ws.acquire((4, 4))
        ws.release(first)
        second = ws.acquire((4, 4))
        assert second is first
        stats = ws.stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_never_lends_a_buffer_twice_in_one_step(self):
        ws = Workspace()
        with ws.step():
            a = ws.acquire((8,))
            b = ws.acquire((8,))
            assert a is not b
            assert ws.stats().active == 2

    def test_dtype_distinguishes_pools(self):
        ws = Workspace()
        a = ws.acquire((4,), np.float64)
        b = ws.acquire((4,), np.float32)
        assert a.dtype == np.float64 and b.dtype == np.float32
        assert ws.stats().misses == 2

    def test_step_reclaims_everything(self):
        ws = Workspace()
        with ws.step():
            ws.acquire((4,))
            ws.acquire((2, 2))
        stats = ws.stats()
        assert stats.active == 0 and stats.pooled == 2

    def test_step_reclaims_on_exception(self):
        ws = Workspace()
        with pytest.raises(RuntimeError):
            with ws.step():
                ws.acquire((4,))
                raise RuntimeError("boom")
        assert ws.stats().active == 0

    def test_release_of_foreign_buffer_raises(self):
        ws = Workspace()
        with pytest.raises(NetworkError):
            ws.release(np.empty(3))

    def test_clear_drops_pooled_buffers(self):
        ws = Workspace()
        ws.release(ws.acquire((4,)))
        ws.clear()
        assert ws.stats().pooled == 0
        ws.acquire((4,))
        assert ws.stats().misses == 2

    def test_allocated_bytes_accounting(self):
        ws = Workspace()
        ws.acquire((10,), np.float64)
        assert ws.stats().allocated_bytes == 80


class TestAmbientWorkspace:
    def test_no_workspace_by_default(self):
        assert current_workspace() is None

    def test_scratch_falls_back_to_plain_arrays(self):
        buffer = scratch((3, 3), np.float32)
        assert buffer.shape == (3, 3) and buffer.dtype == np.float32
        zeros = scratch_zeros((2, 2))
        assert np.array_equal(zeros, np.zeros((2, 2)))

    def test_use_workspace_scopes_the_pool(self):
        ws = Workspace()
        with use_workspace(ws):
            assert current_workspace() is ws
            buffer = scratch((4,))
            assert ws.stats().active == 1 and id(buffer)
        assert current_workspace() is None

    def test_scratch_zeros_pools_and_zero_fills(self):
        ws = Workspace()
        with use_workspace(ws), ws.step():
            buffer = scratch_zeros((4,))
            buffer[:] = 7.0
        with use_workspace(ws), ws.step():
            again = scratch_zeros((4,))
            assert again is buffer
            assert np.array_equal(again, np.zeros(4))

    def test_threads_see_their_own_workspace(self):
        ws = Workspace()
        seen = []
        with use_workspace(ws):
            thread = threading.Thread(
                target=lambda: seen.append(current_workspace())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestPoolingIsBitwisePure:
    """Pooled/fused float64 compute must match the plain path exactly."""

    def _conv_pair(self, **kwargs):
        make = lambda: Conv2D(3, 5, 3, rng=np.random.default_rng(1), **kwargs)
        return make(), make()

    def test_conv_pooled_matches_unpooled_across_steps(self):
        rng = np.random.default_rng(0)
        plain, pooled = self._conv_pair()
        ws = Workspace()
        for _ in range(3):  # warm steps exercise buffer reuse
            x = rng.standard_normal((4, 3, 10, 10))
            grad = rng.standard_normal((4, 5, 10, 10))
            out_plain = plain.forward(x, training=True)
            dx_plain = plain.backward(grad)
            with use_workspace(ws), ws.step():
                out_pooled = pooled.forward(x, training=True)
                dx_pooled = pooled.backward(grad)
                assert np.array_equal(out_plain, out_pooled)
                assert np.array_equal(dx_plain, dx_pooled)
            assert np.array_equal(plain.weight.grad, pooled.weight.grad)
            assert np.array_equal(plain.bias.grad, pooled.bias.grad)

    def test_fused_relu_matches_separate_layer(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 3, 8, 8))
        grad = rng.standard_normal((3, 5, 8, 8))
        fused = Conv2D(3, 5, 3, rng=np.random.default_rng(1), activation="relu")
        unfused = Conv2D(3, 5, 3, rng=np.random.default_rng(1))
        relu = ReLU()

        out_fused = fused.forward(x, training=True)
        out_unfused = relu.forward(unfused.forward(x, training=True), training=True)
        assert np.array_equal(out_fused, out_unfused)
        scored = Sequential([fused], input_shape=(3, 8, 8)).infer(x)
        assert np.array_equal(scored, out_unfused)

        dx_fused = fused.backward(grad)
        dx_unfused = unfused.backward(relu.backward(grad))
        assert np.array_equal(dx_fused, dx_unfused)
        assert np.array_equal(fused.weight.grad, unfused.weight.grad)
        assert np.array_equal(fused.bias.grad, unfused.bias.grad)

    def test_fused_network_matches_unfused_network(self):
        # Same seed -> same weights (fusion must not shift RNG draws),
        # same float64 forward bitwise.
        kwargs = dict(
            input_channels=3, grid=4, conv1_maps=4, conv2_maps=5,
            fc1_units=7, seed=3,
        )
        plain = build_dac17_network(**kwargs)
        fused = build_dac17_network(fused_conv=True, **kwargs)
        x = np.random.default_rng(4).standard_normal((2, 3, 4, 4))
        assert np.array_equal(
            plain.forward(x, training=False), fused.forward(x, training=False)
        )

    def test_conv_rejects_unknown_activation(self):
        with pytest.raises(NetworkError):
            Conv2D(3, 5, 3, activation="gelu")


class TestNoAllocationAfterWarmup:
    def test_training_loop_misses_stay_flat(self):
        network = build_dac17_network(
            input_channels=2, grid=4, conv1_maps=3, conv2_maps=4,
            fc1_units=6, seed=0,
        )
        optimizer = SGD(network.parameters(), ConstantRate(1e-3))
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 2, 4, 4))
        targets = np.eye(2)[rng.integers(0, 2, size=8)]
        ws = Workspace()
        warm_misses = None
        for step in range(6):
            with use_workspace(ws), ws.step():
                network.zero_grad()
                logits = network.forward(x, training=True)
                loss.forward(logits, targets)
                network.backward(loss.backward())
                optimizer.step()
            if step == 0:
                warm_misses = ws.stats().misses
        stats = ws.stats()
        assert stats.misses == warm_misses, (
            f"pool misses grew after warmup: {warm_misses} -> {stats.misses}"
        )
        assert stats.hits > 0 and stats.active == 0


class TestInPlaceOptimizersAreBitwise:
    """In-place ``out=`` updates must equal the temporary-chain originals."""

    def _params(self, dtype=np.float64):
        rng = np.random.default_rng(6)
        params = [
            Parameter(rng.standard_normal(shape), name=f"p{i}", dtype=dtype)
            for i, shape in enumerate([(4, 3), (3,), (2, 2, 2)])
        ]
        return params

    def _fill_grads(self, params, rng):
        for p in params:
            p.grad[...] = rng.standard_normal(p.grad.shape)

    def test_sgd_matches_reference(self):
        params = self._params()
        reference = [p.value.copy() for p in params]
        optimizer = SGD(params, ConstantRate(1e-2))
        rng = np.random.default_rng(7)
        for _ in range(5):
            self._fill_grads(params, rng)
            for value, p in zip(reference, params):
                value -= p.grad * 1e-2
            optimizer.step()
        for value, p in zip(reference, params):
            assert np.array_equal(value, p.value)

    def test_momentum_matches_reference(self):
        params = self._params()
        reference = [p.value.copy() for p in params]
        velocities = [np.zeros_like(v) for v in reference]
        optimizer = SGD(params, ConstantRate(1e-2), momentum=0.9)
        rng = np.random.default_rng(8)
        for _ in range(5):
            self._fill_grads(params, rng)
            for value, vel, p in zip(reference, velocities, params):
                vel[...] = 0.9 * vel - p.grad * 1e-2
                value += vel
            optimizer.step()
        for value, p in zip(reference, params):
            assert np.array_equal(value, p.value)

    def test_adam_matches_reference(self):
        params = self._params()
        reference = [p.value.copy() for p in params]
        ms = [np.zeros_like(v) for v in reference]
        vs = [np.zeros_like(v) for v in reference]
        optimizer = Adam(params, ConstantRate(1e-3))
        rng = np.random.default_rng(9)
        for t in range(1, 6):
            self._fill_grads(params, rng)
            bias1 = 1.0 - 0.9 ** t
            bias2 = 1.0 - 0.999 ** t
            for value, m, v, p in zip(reference, ms, vs, params):
                m[...] = 0.9 * m + (1 - 0.9) * p.grad
                v[...] = 0.999 * v + (1 - 0.999) * np.square(p.grad)
                value -= ((m / bias1) * 1e-3) / (np.sqrt(v / bias2) + 1e-8)
            optimizer.step()
        for value, p in zip(reference, params):
            assert np.array_equal(value, p.value)


class TestFloat32Policy:
    def test_float32_network_dtypes(self):
        network = build_dac17_network(
            input_channels=2, grid=4, conv1_maps=3, conv2_maps=4,
            fc1_units=6, compute_dtype="float32",
        )
        for p in network.parameters():
            assert p.value.dtype == np.float32
        x = np.random.default_rng(0).standard_normal((2, 2, 4, 4))
        out = network.forward(x.astype(np.float32), training=True)
        assert out.dtype == np.float32
        network.backward(np.ones_like(out))
        for p in network.parameters():
            assert p.grad.dtype == np.float32

    def test_default_network_stays_float64(self):
        network = build_dac17_network(
            input_channels=2, grid=4, conv1_maps=3, conv2_maps=4, fc1_units=6
        )
        assert all(p.value.dtype == np.float64 for p in network.parameters())

    def test_invalid_compute_dtype_rejected(self):
        with pytest.raises(NetworkError):
            build_dac17_network(compute_dtype="int32")

    def test_float32_gradcheck(self):
        # Satellite: gradcheck's dtype/tolerance knobs validate the
        # float32 path with float32-appropriate finite-difference steps.
        conv = Conv2D(2, 3, 3, rng=np.random.default_rng(1), dtype=np.float32)
        x = np.random.default_rng(2).standard_normal((2, 2, 5, 5))
        check_layer_input_gradient(
            conv, x, eps=1e-2, dtype=np.float32, tolerance=5e-2
        )
        check_layer_param_gradients(
            conv, x, eps=1e-2, dtype=np.float32, tolerance=5e-2
        )

    def test_gradcheck_tolerance_raises_on_bad_backward(self):
        class BrokenReLU(ReLU):
            def backward(self, grad):
                return 2.0 * super().backward(grad)

        layer = BrokenReLU()
        x = np.random.default_rng(3).standard_normal((4, 4)) + 0.5
        with pytest.raises(NetworkError, match="gradient check failed"):
            check_layer_input_gradient(layer, x, tolerance=1e-6)
