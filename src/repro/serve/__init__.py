"""Online inference service for trained hotspot detectors.

The paper's workflow is batch: extract feature tensors, train, evaluate a
test suite. Physical-design loops consume hotspot detection the other way
around — OPC and verification flows ask "is this clip a hotspot?"
clip-by-clip, concurrently, and expect an answer in milliseconds. This
package turns a trained :class:`~repro.core.detector.HotspotDetector`
into that long-running scoring service:

- :mod:`repro.serve.engine` — :class:`InferenceEngine`: a thread-safe
  request queue with **dynamic micro-batching** (requests arriving within
  ``max_wait_ms`` of each other are scored as one
  ``predict_proba_tensors`` call and fanned back out via futures),
  bounded-queue backpressure, and graceful drain.
- :mod:`repro.serve.registry` — :class:`ModelRegistry`: versioned serving
  checkpoints (the PR-3 verified-checkpoint format) with atomic hot swap
  and rollback; in-flight batches always finish on the model they
  started with.
- :mod:`repro.serve.http` — a stdlib-only ``ThreadingHTTPServer`` JSON
  API (``POST /v1/predict``, ``POST /v1/models/<name>/reload``,
  ``/rollback``, ``GET /healthz``, ``GET /metrics``) instrumented
  through :mod:`repro.obs`.
- :mod:`repro.serve.client` — a tiny urllib client (with Retry-After
  aware capped-exponential retries) for tests, CI, and examples.

Start the service from the command line::

    repro-hotspot serve --checkpoint-dir runs/registry --port 8080
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.engine import EngineConfig, InferenceEngine
from repro.serve.http import HotspotHTTPServer, make_server
from repro.serve.registry import LoadedModel, ModelRegistry, ModelVersion

__all__ = [
    "EngineConfig",
    "InferenceEngine",
    "ModelRegistry",
    "ModelVersion",
    "LoadedModel",
    "HotspotHTTPServer",
    "make_server",
    "ServeClient",
    "ServeClientError",
]
