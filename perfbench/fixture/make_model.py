"""Recipe for the benchmark's model fixture (``model.npz``).

The ``scan``, ``eco`` and ``serve`` workloads score with fixed weights
and scaler statistics so their timings never depend on a training run.
This script rebuilds them with the ``trained_detector`` recipe of
``benchmarks/bench_fullchip.py`` (60 hotspots + 120 non-hotspots from
``GeneratorConfig(seed=3)``, one biased round of 600 iterations) and
writes a :meth:`HotspotDetector.save` archive: weights and scaler only,
so the benchmark loads them into a detector built from the *current*
``DetectorConfig()`` defaults.

Run from the root of a checkout (about 75 s on one core)::

    PYTHONPATH=src python3 perfbench/fixture/make_model.py

It rewrites ``model.npz`` and ``model.json``. With the same program,
NumPy and BLAS build and one BLAS thread a rebuild reproduces both
digests; ``arrays_sha256`` covers only the stored arrays, for comparing
rebuilds whose archive bytes differ. The benchmark refuses to run when
``model.npz`` does not match the ``sha256`` recorded in ``model.json``.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

os.environ.update(
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.bench.harness import bench_detector_config  # noqa: E402
from repro.core.detector import HotspotDetector  # noqa: E402
from repro.data.dataset import HotspotDataset  # noqa: E402
from repro.data.generator import ClipGenerator, GeneratorConfig  # noqa: E402

GENERATOR_SEED = 3
HOTSPOTS = 60
NON_HOTSPOTS = 120
MAX_ITERATIONS = 600


def arrays_digest(path: Path) -> str:
    """Digest of the archive's arrays (names, dtypes, shapes, bytes)."""
    digest = hashlib.sha256()
    with np.load(path) as archive:
        for name in sorted(archive.files):
            value = np.ascontiguousarray(archive[name])
            digest.update(name.encode("utf-8"))
            digest.update(value.dtype.str.encode("utf-8"))
            digest.update(repr(value.shape).encode("utf-8"))
            digest.update(value.tobytes())
    return digest.hexdigest()


def main() -> None:
    generator = ClipGenerator(GeneratorConfig(seed=GENERATOR_SEED))
    train = HotspotDataset(
        generator.generate(HOTSPOTS, NON_HOTSPOTS), name="fullchip/train"
    )
    detector = HotspotDetector(
        bench_detector_config(bias_rounds=1, max_iterations=MAX_ITERATIONS)
    )
    detector.fit(train)
    model = HERE / "model.npz"
    detector.save(model)
    manifest = {
        "recipe": "perfbench/fixture/make_model.py",
        "generator_seed": GENERATOR_SEED,
        "hotspots": HOTSPOTS,
        "non_hotspots": NON_HOTSPOTS,
        "max_iterations": MAX_ITERATIONS,
        "bias_rounds": 1,
        "blas_threads": 1,
        "sha256": hashlib.sha256(model.read_bytes()).hexdigest(),
        "arrays_sha256": arrays_digest(model),
    }
    (HERE / "model.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(manifest, indent=2))


if __name__ == "__main__":
    main()
