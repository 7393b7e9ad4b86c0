#!/usr/bin/env python
"""CI smoke drive for the serving stack.

Trains a tiny detector, publishes two checkpoint versions, starts the
HTTP server on a free port, and drives every endpoint through
``repro.serve.client.ServeClient``: health, tensor + image prediction
(checked against offline probabilities), a concurrent burst that must
engage dynamic batching, /metrics (must expose the request-latency
histogram), hot reload, rollback, and a corrupt-checkpoint reload that
must be rejected with 409 while the old model keeps serving.

Observability coverage rides the same drive: the whole session logs to
a JSONL sink, one traced request's id must reassemble into a span tree
(client.request → serve.request → serve.queue_wait/serve.batch →
serve.infer) through the ``obs report --trace`` machinery, the
``/metrics`` endpoint must serve parseable OpenMetrics text ending in
``# EOF``, and ``obs top --once`` must render a dashboard frame from
the live server.

Any non-2xx response (``ServeClientError``), missing metric, or
probability mismatch exits non-zero.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.data.dataset import HotspotDataset
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.features.tensor import FeatureTensorConfig
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.nn.trainer import TrainerConfig
from repro.obs import JsonlSink, get_bus
from repro.obs.report import report_from_file
from repro.obs.top import run_top
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    ServeClient,
    ServeClientError,
    make_server,
)


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def train_tiny():
    generator = ClipGenerator(
        GeneratorConfig(seed=5, oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8)))
    )
    train = HotspotDataset(generator.generate(24, 40), name="smoke/train")
    test = HotspotDataset(generator.generate(10, 16), name="smoke/test")
    config = DetectorConfig(
        feature=FeatureTensorConfig(block_count=12, coefficients=16, pixel_nm=4),
        learning_rate=2e-3,
        lr_decay_every=150,
        bias_rounds=1,
        trainer=TrainerConfig(
            batch_size=16,
            max_iterations=120,
            validate_every=40,
            patience=3,
            min_iterations=40,
            seed=0,
        ),
        seed=0,
    )
    return HotspotDetector(config).fit(train), train, test


def main(workdir: Path) -> None:
    detector, train, test = train_tiny()
    tensors = test.features(detector.extractor).astype(np.float32)
    offline = detector.predict_proba_tensors(tensors)

    log_path = workdir / "serve_smoke.jsonl"
    sink = get_bus().attach(JsonlSink(log_path))

    registry = ModelRegistry(workdir / "models")
    registry.publish(detector, "v1", reference=train)
    registry.publish(detector, "v2")
    loaded = registry.activate("v1")
    check(loaded.profile is not None, "v1 activated with drift profile")

    engine = InferenceEngine(registry, EngineConfig(max_batch=16))
    server = make_server(engine, registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=60.0)
    try:
        health = client.health()
        check(health["status"] == "ok" and health["version"] == "v1", "healthz")

        probs = client.predict_tensors(tensors)
        check(
            np.allclose(probs, offline, rtol=0, atol=1e-9),
            "tensor predictions match offline",
        )

        pixel_nm = detector.config.feature.pixel_nm
        images = [clip.rasterize(resolution=pixel_nm) for clip in test.clips[:2]]
        probs = client.predict_images(images)
        check(
            np.allclose(probs, offline[:2], rtol=0, atol=1e-9),
            "image predictions match offline",
        )

        errors = []

        def burst(slot):
            local = ServeClient(client.base_url, timeout_s=60.0)
            try:
                for j in range(5):
                    i = (slot * 5 + j) % tensors.shape[0]
                    rows = local.predict_tensors(tensors[i])
                    if not np.allclose(rows, offline[i : i + 1], rtol=0, atol=1e-9):
                        raise RuntimeError(f"mismatch on request {i}")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=burst, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        check(not errors, f"concurrent burst (40 requests, 8 threads): {errors or 'clean'}")

        metrics = client.metrics()
        histograms = metrics["metrics"]["histograms"]
        check("serve.request.seconds" in histograms, "latency histogram present")
        check("serve.batch.size" in histograms, "batch-size histogram present")
        check(metrics["serve"]["errors"] == 0, "no serving errors recorded")
        check(
            metrics["serve"]["mean_batch_size"] > 1.0,
            f"dynamic batching engaged (mean {metrics['serve']['mean_batch_size']:.2f})",
        )

        swapped = client.reload(version="v2")
        check(swapped["version"] == "v2", "hot reload to v2")
        check(client.health()["version"] == "v2", "health reflects reload")
        rolled = client.rollback()
        check(rolled["version"] == "v1", "rollback to v1")

        (registry.directory / "model-broken.ckpt.npz").write_bytes(b"garbage")
        try:
            client.reload(version="broken")
            raise SystemExit("FAIL: corrupt reload was accepted")
        except ServeClientError as exc:
            check(exc.status == 409, f"corrupt reload rejected with {exc.status}")
        check(client.health()["version"] == "v1", "old model still serving")
        probs = client.predict_tensors(tensors[:1])
        check(probs.shape == (1, 2), "prediction still works after rejected reload")

        # --- observability round trips -----------------------------------
        trace_id = client.last_trace_id
        check(
            len(trace_id) == 32 and set(trace_id) <= set("0123456789abcdef"),
            f"client captured W3C trace id ({trace_id[:8]}…)",
        )
        tree = report_from_file(log_path, trace=trace_id)  # lines flush per write
        for name in ("client.request", "serve.request", "serve.infer"):
            check(name in tree, f"trace tree contains {name}")
        print(tree)

        text = client.metrics_text()
        check(text.rstrip().endswith("# EOF"), "OpenMetrics ends with # EOF")
        check(
            "repro_serve_request_seconds" in text,
            "OpenMetrics exposes the request-latency summary",
        )

        check(
            run_top(client.base_url, once=True) == 0,
            "obs top --once renders a frame from the live server",
        )
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
        thread.join(5)
    print("serve smoke: all checks passed")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
