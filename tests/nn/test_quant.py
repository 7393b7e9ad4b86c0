"""Compiled inference: observers, per-channel int8, plans, buffer blocks.

The serving registry ships int8 payloads and scores them on compiled plans,
which is only sound because (a) per-channel quantization has a bounded,
deterministic reconstruction error, (b) the float32 plan is bitwise-
identical to the forward of a float32 twin of the network (so every plan
optimisation is validated against a known-good reference), and (c) the
plans invalidate whenever weights change. All three are pinned here, with
the plans' memory contract: a call's buffers live in one block that
buffers never live together share, and nothing batch-sized outlives it.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.model import build_dac17_network
from repro.exceptions import QuantizationError
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.nn.quant import (
    FP16_SAFE_MAX,
    CalibrationResult,
    InferencePlan,
    MaxObserver,
    PercentileObserver,
    QuantizedTensor,
    attach_quant_state,
    calibrate_network,
    make_observer,
    quant_axis_for,
    quant_state_params,
    quantize_network,
    quantize_per_channel,
)


def small_network(seed=0):
    """Conv -> ReLU -> pool -> flatten -> dense -> ReLU -> dense."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(3, 4, 3, rng=rng, name="c1"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, 8, rng=rng, name="fc1"),
            ReLU(),
            Dense(8, 2, rng=rng, name="out"),
        ],
        input_shape=(3, 8, 8),
    )


def float32_forward(network, x):
    """The conventional float32 forward: a float32 twin, layer by layer."""
    twin = copy.deepcopy(network)
    for param in twin.parameters():
        param.value = np.asarray(param.value, dtype=np.float32)
        param.grad = np.zeros_like(param.value)
    return twin.forward(np.asarray(x, dtype=np.float32), training=False)


def batch(seed=1, n=6, shape=(3, 8, 8)):
    return (
        np.random.default_rng(seed)
        .normal(size=(n,) + shape)
        .astype(np.float32)
    )


class TestObservers:
    def test_max_observer_tracks_absmax(self):
        obs = MaxObserver()
        obs.observe(np.array([1.0, -3.5, 2.0]))
        obs.observe(np.array([0.5, 2.5]))
        assert obs.range() == 3.5
        assert obs.batches == 2

    def test_max_observer_empty_batches_ignored(self):
        obs = MaxObserver()
        obs.observe(np.empty((0, 4)))
        assert obs.range() == 0.0
        assert obs.batches == 0

    def test_percentile_observer_robust_to_outlier(self):
        values = np.ones(1000)
        values[0] = 1e6
        obs = PercentileObserver(99.0)
        obs.observe(values)
        assert obs.range() < 10.0
        assert MaxObserver.name == "max"
        assert obs.name == "percentile"

    def test_percentile_observer_max_over_batches(self):
        obs = PercentileObserver(100.0)
        obs.observe(np.array([1.0, 2.0]))
        obs.observe(np.array([5.0, -7.0]))
        assert obs.range() == 7.0

    def test_percentile_validation(self):
        with pytest.raises(QuantizationError, match="percentile"):
            PercentileObserver(0.0)
        with pytest.raises(QuantizationError, match="unknown observer"):
            make_observer("median")

    def test_calibrate_network_records_every_layer(self):
        net = small_network()
        result = calibrate_network(net, batch())
        assert result.samples == 6
        assert len(result.ranges) == len(net.layers)
        assert all(v >= 0.0 for v in result.ranges.values())

    def test_calibrate_network_requires_data(self):
        net = small_network()
        with pytest.raises(QuantizationError, match="at least one sample"):
            calibrate_network(net, np.empty((0, 3, 8, 8)))

    def test_calibration_round_trips_through_dict(self):
        result = calibrate_network(net := small_network(), batch())
        clone = CalibrationResult.from_dict(result.to_dict())
        assert clone == result
        del net


class TestQuantizePerChannel:
    def test_reconstruction_error_bounded_by_half_scale(self):
        w = np.random.default_rng(0).normal(size=(8, 3, 3, 3))
        qt = quantize_per_channel(w, axis=0)
        err = np.abs(qt.dequantize().astype(np.float64) - w)
        bound = qt.scale.astype(np.float64)[:, None, None, None] / 2
        assert np.all(err <= bound + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(
                st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)
            ),
            elements=st.floats(-1e4, 1e4, width=64),
        )
    )
    def test_error_bound_property(self, w):
        qt = quantize_per_channel(w, axis=0)
        err = np.abs(qt.dequantize().astype(np.float64) - w)
        bound = qt.scale.astype(np.float64)[:, None, None] / 2
        # Half-ulp slack: the bound itself is a float32 quantity.
        assert np.all(err <= bound * (1 + 1e-6) + 1e-12)

    def test_requantization_is_idempotent(self):
        w = np.random.default_rng(1).normal(size=(5, 7))
        first = quantize_per_channel(w, axis=1)
        again = quantize_per_channel(first.dequantize(), axis=1)
        assert np.array_equal(first.q, again.q)
        assert np.array_equal(first.scale, again.scale)

    def test_zero_channel_stays_exact(self):
        w = np.zeros((2, 4))
        w[0] = [1.0, -2.0, 0.5, 0.25]
        qt = quantize_per_channel(w, axis=0)
        assert np.array_equal(qt.dequantize()[1], np.zeros(4))
        assert qt.scale[1] == 1.0

    def test_axis_convention(self):
        assert quant_axis_for(np.zeros((4, 3, 3, 3))) == 0  # conv OIHW
        assert quant_axis_for(np.zeros((10, 2))) == 1  # dense (in, out)

    def test_validation(self):
        with pytest.raises(QuantizationError, match="2-D"):
            quantize_per_channel(np.zeros(4))
        with pytest.raises(QuantizationError, match="axis"):
            quantize_per_channel(np.zeros((2, 2)), axis=2)
        with pytest.raises(QuantizationError, match="scale shape"):
            QuantizedTensor(np.zeros((2, 2), np.int8), np.zeros(3), 0)


class TestQuantState:
    def test_tree_covers_weights_not_biases(self):
        net = small_network()
        state = quantize_network(net)
        names = [e["name"] for e in state["params"]]
        assert all("bias" not in name for name in names)
        assert len(names) == 3  # c1, fc1, out weights

    def test_state_params_round_trip(self):
        net = small_network()
        state = quantize_network(net)
        tensors = quant_state_params(state)
        weights = [p for p in net.parameters() if p.value.ndim >= 2]
        assert len(tensors) == len(weights)

    def test_rejects_foreign_trees(self):
        with pytest.raises(QuantizationError, match="format"):
            quant_state_params({"format": "other"})
        net = small_network()
        state = quantize_network(net)
        state["version"] = 99
        with pytest.raises(QuantizationError, match="version"):
            quant_state_params(state)

    def test_attach_rejects_shape_mismatch(self):
        net = small_network()
        other = Sequential(
            [Dense(4, 3, rng=np.random.default_rng(2), name="d")],
            input_shape=(4,),
        )
        with pytest.raises(QuantizationError, match="shape"):
            attach_quant_state(net, quantize_network(other))

    def test_attached_payload_is_used_verbatim(self):
        # int8 plans must score the attached bytes, not re-quantized
        # weights: perturb the payload and the plan output must move.
        net = small_network()
        x = batch()
        state = quantize_network(net)
        attach_quant_state(net, state)
        baseline = net.infer(x, precision="int8")
        state["params"][0]["q"] = state["params"][0]["q"] + 5
        attach_quant_state(net, state)
        assert not np.array_equal(net.infer(x, precision="int8"), baseline)


class TestInferencePlans:
    def test_float32_plan_bitwise_matches_conventional(self):
        # The reference identity every plan optimisation (ingest fusion,
        # fused epilogues, buffer reuse) is validated against.
        net = small_network()
        x = batch()
        plan = InferencePlan(net, "float32")
        assert np.array_equal(plan.run(x), float32_forward(net, x))

    def test_float32_plan_matches_dac17_network(self):
        # The paper network exercises the ingest-into-first-conv fusion
        # (3-D input straight into a padded conv) at full depth.
        net = build_dac17_network(seed=3)
        x = batch(seed=4, n=5, shape=(32, 12, 12))
        assert np.array_equal(
            InferencePlan(net, "float32").run(x), float32_forward(net, x)
        )

    def test_int8_plan_close_to_reference(self):
        net = small_network()
        x = batch()
        reference = net.infer(x)
        low = net.infer(x, precision="int8")
        assert low.dtype == np.float32
        assert np.allclose(low, reference, atol=0.15, rtol=0.05)

    def test_precision_validation(self):
        net = small_network()
        with pytest.raises(QuantizationError, match="precision"):
            InferencePlan(net, "int4")
        with pytest.raises(Exception):
            net.infer(batch(), precision="bfloat16")

    def test_compute_dtype_follows_precision(self):
        net = small_network()
        assert InferencePlan(net).compute_dtype == np.float64
        assert InferencePlan(net, "float32").compute_dtype == np.float32
        twin = build_dac17_network(
            input_channels=3, grid=8, compute_dtype="float32"
        )
        assert InferencePlan(twin).compute_dtype == np.float32

    def test_default_plan_holds_parameter_arrays(self):
        net = small_network()
        plan = InferencePlan(net)
        held = {
            id(np.asarray(a).base if np.asarray(a).base is not None else a)
            for spec in plan._specs
            for a in vars(spec).values()
            if isinstance(a, np.ndarray)
        }
        assert {id(p.value) for p in net.parameters()} <= held

    def test_plan_reuse_is_deterministic(self):
        net = small_network()
        x = batch()
        first = net.infer(x, precision="int8")
        assert np.array_equal(net.infer(x, precision="int8"), first)

    def test_set_weights_invalidates_plans(self):
        net = small_network()
        x = batch()
        before = net.infer(x, precision="int8")
        weights = [w.copy() for w in net.get_weights()]
        weights[0] = weights[0] + 1.0
        net.set_weights(weights)
        after = net.infer(x, precision="int8")
        assert not np.array_equal(before, after)

    def test_network_picklable_with_compiled_plans(self):
        net = small_network()
        x = batch()
        expected = net.infer(x, precision="int8")
        net.infer(x, precision="float16")  # compile more plans
        clone = pickle.loads(pickle.dumps(net))
        assert np.array_equal(clone.infer(x, precision="int8"), expected)

    def test_float64_default_untouched_by_plan_compilation(self):
        net = small_network()
        x64 = batch().astype(np.float64)
        before = net.infer(x64)
        net.infer(batch(), precision="int8")
        assert np.array_equal(net.infer(x64), before)
        assert before.dtype == np.float64

    def test_float16_activations_stored_half(self):
        net = small_network()
        plan = InferencePlan(net, "float16")
        assert plan.store_dtype == np.float16
        out = plan.run(batch())
        # Accumulation is float32: logits come back full precision.
        assert out.dtype == np.float32

    def test_attached_calibration_lifts_the_float16_clip(self):
        # Uncalibrated, every float16 GEMM clips to the half range; the
        # ranges attached with an int8 payload prove these layers safe.
        net = small_network()

        def clips():
            plan = InferencePlan(net, "float16")
            return [s.clip for s in plan._specs if hasattr(s, "clip")]

        assert len(clips()) == 3
        assert all(clip == FP16_SAFE_MAX for clip in clips())
        calibration = calibrate_network(net, batch())
        attach_quant_state(net, quantize_network(net, calibration))
        assert clips() == [None, None, None]


def held_bytes(obj, seen=None):
    """Bytes of every ndarray reachable from ``obj``'s attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
        children = list(getattr(obj, "__dict__", {}).values()) + [
            getattr(obj, name)
            for name in getattr(type(obj), "__slots__", ())
            if hasattr(obj, name)
        ]
    else:
        return 0
    return sum(held_bytes(child, seen) for child in children)


class TestPlanMemory:
    @pytest.mark.parametrize("precision", ("float64", "float32", "float16", "int8"))
    def test_nothing_batch_sized_outlives_a_call(self, precision):
        net = build_dac17_network(seed=1)
        plan = net._plan_for(precision)
        held = held_bytes(plan)
        for n in (7, 300):
            x = batch(seed=n, n=n, shape=(32, 12, 12))
            net.predict_proba(x, precision=precision)
            net.infer(x, precision=precision)
            assert held_bytes(plan) == held, n

    def test_table1_block_for_256_rows_is_at_most_100_mb(self):
        # Lifetime sharing is what keeps this under the sum of the
        # buffers (~204 MB): the first conv's columns and padded staging
        # are live together, everything after reuses their bytes.
        plan = InferencePlan(build_dac17_network(seed=1))
        assert plan.new_block(256).nbytes <= 100e6

    def test_live_buffers_never_share_bytes(self):
        plan = InferencePlan(build_dac17_network(seed=1))
        layout = plan._layout(37)
        spans = []
        for index, (spec, slots) in enumerate(zip(plan._specs, layout.slots)):
            for slot, buf in zip(slots, spec.buffers(37)):
                if slot is None:
                    continue
                offset, shape, dtype = slot
                nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                assert offset % 64 == 0
                assert offset + nbytes <= layout.nbytes
                first, last = 4 * index + buf[2], 4 * index + buf[3]
                spans.append((offset, offset + nbytes, first, last))
        for i, (lo, hi, first, last) in enumerate(spans):
            for lo2, hi2, first2, last2 in spans[i + 1 :]:
                if first <= last2 and first2 <= last:
                    assert hi <= lo2 or hi2 <= lo

    def test_padding_frame_is_rezeroed_in_a_dirty_block(self):
        net = build_dac17_network(seed=2)
        x = batch(seed=3, n=9, shape=(32, 12, 12)).astype(np.float64)
        plan = net._plan_for(None)
        dirty = plan.new_block(9)
        dirty[:] = 0x7F
        assert np.array_equal(plan.run(x, dirty), net.forward(x))

    def test_one_block_serves_every_chunk(self):
        net = build_dac17_network(seed=2)
        x = batch(seed=4, n=70, shape=(32, 12, 12)).astype(np.float64)
        plan = net._plan_for(None)
        block = plan.new_block(32, 70 % 32)
        for start in range(0, 70, 32):
            chunk = x[start : start + 32]
            assert np.array_equal(plan.run(chunk, block), net.infer(chunk))
