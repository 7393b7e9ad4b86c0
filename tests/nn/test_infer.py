"""The one inference executor: ``Sequential.infer`` / ``predict_proba``.

Every precision scores through a compiled
:class:`~repro.nn.quant.InferencePlan`. The serving engine scores one
network from many threads at once, the scan farm and the trainer's
validation score through ``predict_proba``, and the checkpoints' parity
reports were computed on these plans, so the relations below are pinned
across the whole configuration matrix (network dtype x precision x batch
size): the default plan is bitwise equal to ``forward(training=False)``,
``"float32"`` is bitwise equal to the forward of a float32 twin, float16
and int8 stay within the parity bound, ``predict_proba`` is the softmax of
256-row chunks, and neither profiling nor threads change a bit.
"""

import copy
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError
from repro.nn import (
    SGD,
    ConstantRate,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    softmax,
)

DTYPES = ("float64", "float32")
PRECISIONS = (None, "float32", "float16", "int8")
BATCHES = (1, 7, 16, 17, 256, 257, 300, 512)

#: Logit bound of the reduced-precision plans against the reference.
PARITY_ATOL = 0.15
PARITY_RTOL = 0.05


def wide_network(seed=0, dtype="float64"):
    """Every layer kind, folded and standalone ReLUs, strided, padded
    and unpadded convs, so plan coverage is total."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(2, 4, 3, rng=rng, name="c1", dtype=dtype),
            ReLU(name="r1"),
            Conv2D(
                4, 4, 3, stride=2, padding=1, rng=rng, name="c2",
                activation="relu", dtype=dtype,
            ),
            MaxPool2D(2, name="p1"),
            ReLU(name="r2"),
            Conv2D(4, 3, 1, padding="valid", rng=rng, name="c3", dtype=dtype),
            Flatten(),
            Dense(3 * 2 * 2, 8, rng=rng, name="fc1", dtype=dtype),
            ReLU(name="r3"),
            Dropout(0.5, rng=np.random.default_rng(3)),
            Dense(8, 2, rng=rng, name="out", dtype=dtype),
        ],
        input_shape=(2, 8, 8),
    )


def batch(seed=1, n=6, dtype="float64"):
    return np.random.default_rng(seed).normal(size=(n, 2, 8, 8)).astype(dtype)


def float32_twin(network):
    """The reference for ``precision="float32"``: the same network with
    float32 weights, run through the layers' own forward."""
    twin = copy.deepcopy(network)
    for param in twin.parameters():
        param.value = np.asarray(param.value, dtype=np.float32)
        param.grad = np.zeros_like(param.value)
    return twin


def plan_input(x, precision):
    """What the detector feeds each precision: the network's dtype for
    the default, float32 for the rest."""
    return x if precision is None else x.astype(np.float32)


def bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def chunked_softmax(net, x, precision):
    return np.concatenate(
        [
            softmax(net.infer(x[start : start + 256], precision=precision))
            for start in range(0, x.shape[0], 256)
        ]
    )


class TestExecutorMatrix:
    @pytest.mark.parametrize("n", BATCHES)
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relations(self, dtype, precision, n):
        net = wide_network(dtype=dtype)
        x = plan_input(batch(seed=n, n=n, dtype=dtype), precision)
        logits = net.infer(x, precision=precision)
        if precision is None:
            assert bitwise(logits, net.forward(x, training=False))
        elif precision == "float32":
            assert bitwise(logits, float32_twin(net).forward(x, training=False))
        else:
            assert logits.dtype == np.float32
            reference = net.forward(x.astype(dtype), training=False)
            assert np.allclose(
                logits, reference, atol=PARITY_ATOL, rtol=PARITY_RTOL
            )
        probs = net.predict_proba(x, precision=precision)
        assert bitwise(probs, chunked_softmax(net, x, precision))

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_profiling_on_equals_off(self, dtype, precision):
        from repro.obs.metrics import MetricsRegistry

        net = wide_network(dtype=dtype)
        x = plan_input(batch(seed=5, n=40, dtype=dtype), precision)
        plain = net.predict_proba(x, precision=precision)
        registry = MetricsRegistry()
        net.enable_profiling(registry)
        assert bitwise(net.predict_proba(x, precision=precision), plain)
        # One observation per layer per call. The input copy counts under
        # the first conv; a ReLU fused into its producer and the dropout
        # read 0, a standalone ReLU records itself.
        for index, layer in enumerate(net.layers):
            hist = registry.histogram(f"nn.forward.{index:02d}_{layer.name}.seconds")
            assert hist.count == 1, layer.name
            folded = layer.name in ("r1", "r3", "dropout")
            assert (hist.total == 0.0) == folded, layer.name

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_eight_threads_equal_serial(self, dtype, precision):
        # Fresh network: the threads also race to compile the plan and to
        # fill its layout cache. A short switch interval interleaves them.
        net = wide_network(dtype=dtype)
        x = plan_input(batch(seed=7, n=33, dtype=dtype), precision)
        serial = wide_network(dtype=dtype).predict_proba(
            x, batch_size=16, precision=precision
        )
        results = [None] * 8
        errors = []
        barrier = threading.Barrier(8)

        def hammer(slot):
            try:
                barrier.wait()
                results[slot] = [
                    net.predict_proba(x, batch_size=16, precision=precision)
                    for _ in range(5)
                ]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(bitwise(row, serial) for rows in results for row in rows)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_default_plan_sees_in_place_sgd_steps(self, dtype):
        # The default plan holds the parameter arrays themselves: a plan
        # compiled before training must score every step's weights.
        net = wide_network(dtype=dtype)
        x = batch(seed=11, n=24, dtype=dtype)
        targets = np.eye(2)[np.random.default_rng(12).integers(0, 2, 24)]
        net.infer(x)
        plan = net._plan_for(None)
        optimizer = SGD(net.parameters(), ConstantRate(0.5))
        loss = SoftmaxCrossEntropy()
        for _ in range(4):
            before = net.infer(x)
            optimizer.zero_grad()
            loss.forward(net.forward(x, training=True), targets)
            net.backward(loss.backward())
            optimizer.step()
            after = net.infer(x)
            assert net._plan_for(None) is plan
            assert not bitwise(after, before)
            assert bitwise(after, net.forward(x, training=False))


class TestInferEquivalence:
    def test_bitwise_identical_to_eval_forward(self):
        net = wide_network()
        x = batch()
        assert bitwise(net.infer(x), net.forward(x, training=False))

    def test_after_training_statistics_exist(self):
        # A training forward (dropout mask drawn, caches filled) must not
        # leak into inference.
        net = wide_network()
        x = batch()
        net.forward(x, training=True)
        net.free_caches()
        assert bitwise(net.infer(x), net.forward(x, training=False))

    def test_infer_writes_no_layer_state(self):
        net = wide_network()
        x = batch()
        dropout = net.layers[9]
        rng_before = dropout._rng.bit_generator.state
        for precision in PRECISIONS:
            net.infer(x, precision=precision)
        assert all(
            getattr(layer, "_cache", None) is None for layer in net.layers
        )
        # The dropout RNG position is part of the bitwise-resume contract.
        assert dropout._rng.bit_generator.state == rng_before

    def test_shape_validated(self):
        with pytest.raises(NetworkError):
            wide_network().infer(np.zeros((2, 3, 8, 8)))
        with pytest.raises(NetworkError):
            wide_network().predict_proba(np.zeros((2, 3, 8, 8)))

    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 3),
        maps=st.integers(1, 4),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        size=st.integers(3, 7),
        rows=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_any_conv_geometry_is_bitwise(
        self, channels, maps, kernel, stride, padding, size, rows, seed
    ):
        # Every stride and padding Conv2D accepts compiles, and the plan's
        # strided gather matches im2col bit for bit.
        rng = np.random.default_rng(seed)
        conv = Conv2D(
            channels, maps, kernel, stride=stride, padding=padding, rng=rng
        )
        try:
            out_shape = conv.output_shape((channels, size, size))
        except NetworkError:
            return  # a geometry Conv2D itself rejects
        net = Sequential(
            [conv, ReLU(), Flatten(), Dense(int(np.prod(out_shape)), 2, rng=rng)],
            input_shape=(channels, size, size),
        )
        x = rng.normal(size=(rows, channels, size, size))
        assert bitwise(net.infer(x), net.forward(x, training=False))
        assert bitwise(
            net.infer(x, precision="float32"),
            float32_twin(net).forward(x.astype(np.float32), training=False),
        )

    def test_dense_and_conv_only_networks(self):
        # No flatten stage, no dense stage: the plan still returns the
        # network's own output layout.
        rng = np.random.default_rng(4)
        convs = Sequential(
            [Conv2D(2, 3, 2, stride=2, padding=0, rng=rng), ReLU()],
            input_shape=(2, 6, 6),
        )
        x = np.random.default_rng(5).normal(size=(3, 2, 6, 6))
        assert bitwise(convs.infer(x), convs.forward(x, training=False))
        dense = Sequential(
            [Flatten(), Dense(6, 2, rng=rng)], input_shape=(2, 3)
        )
        x = np.random.default_rng(6).normal(size=(5, 2, 3))
        assert bitwise(dense.infer(x), dense.forward(x, training=False))


class TestEmptyBatch:
    def test_predict_proba_empty_returns_0x2(self):
        net = wide_network()
        probs = net.predict_proba(np.zeros((0, 2, 8, 8)))
        assert probs.shape == (0, 2)
        assert probs.dtype == np.float64

    def test_predict_empty(self):
        assert wide_network().predict(np.zeros((0, 2, 8, 8))).shape == (0,)

    def test_infer_empty(self):
        for precision in PRECISIONS:
            assert wide_network().infer(
                np.zeros((0, 2, 8, 8)), precision=precision
            ).shape == (0, 2)


class TestConcurrentInference:
    def test_eight_threads_bitwise_match_serial(self):
        net = wide_network()
        x = batch(seed=7, n=16)
        serial = net.predict_proba(x)

        results = [None] * 8
        errors = []
        barrier = threading.Barrier(8)

        def hammer(slot):
            try:
                barrier.wait()
                rows = [net.predict_proba(x) for _ in range(10)]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return
            results[slot] = rows

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for rows in results:
            for row in rows:
                assert np.array_equal(row, serial)

    def test_profiling_path_also_reentrant(self):
        from repro.obs.metrics import MetricsRegistry

        net = wide_network()
        registry = MetricsRegistry()
        net.enable_profiling(registry)
        x = batch(seed=9, n=8)
        serial = net.predict_proba(x)

        errors = []

        def hammer():
            try:
                for _ in range(5):
                    assert np.array_equal(net.predict_proba(x), serial)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # One observation per call: 1 serial + 4 threads x 5 calls.
        name = "nn.forward.00_c1.seconds"
        assert registry.histogram(name).count == 21
