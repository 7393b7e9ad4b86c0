#!/usr/bin/env python
"""CI smoke drive for the quantized inference path and its parity gate.

Trains a tiny detector, publishes a checkpoint with int8/float16/float32
quantization (calibrated on a held-out batch, parity-checked against the
float64 path), and drives the gate end to end:

- the stored parity reports must pass the acceptance tolerances
  (ROC-AUC delta <= 0.005, flag-set Jaccard >= 0.99) on the tiny suite;
- activating the checkpoint at int8 through the registry must score
  bitwise-identically to the in-process int8 path;
- a checkpoint published *without* quantization must be refused at any
  quantized precision (ParityError), and still load fine at float64;
- the float64 path must be bitwise-unchanged by all of the above.

Any failed check exits non-zero.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.data.dataset import HotspotDataset
from repro.data.generator import ClipGenerator, GeneratorConfig
from repro.exceptions import ParityError
from repro.features.tensor import FeatureTensorConfig
from repro.litho.oracle import OracleConfig
from repro.litho.optics import OpticsConfig
from repro.nn.serialize import read_checkpoint
from repro.nn.trainer import TrainerConfig
from repro.serve import ModelRegistry


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def train_tiny():
    generator = ClipGenerator(
        GeneratorConfig(seed=5, oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8)))
    )
    train = HotspotDataset(generator.generate(24, 40), name="quant-smoke/train")
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
    return HotspotDetector(config).fit(train)


def main():
    detector = train_tiny()
    # 16/24 gives 384 hotspot/non-hotspot pairs, so the ROC-AUC step
    # size (1/384) sits below the 0.005 parity tolerance — a smaller
    # eval set cannot distinguish "one near-tie rank swap" from real
    # quality drift.
    generator = ClipGenerator(
        GeneratorConfig(seed=9, oracle=OracleConfig(optics=OpticsConfig(pixel_nm=8)))
    )
    held_out = HotspotDataset(generator.generate(16, 24), name="quant-smoke/eval")
    tensors = held_out.features(detector.extractor)
    labels = held_out.labels

    probs64_before = detector.predict_proba_tensors(tensors)

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        registry.publish(
            detector,
            "v-quant",
            quantize=("float32", "float16", "int8"),
            calibration=tensors,
            calibration_labels=labels,
        )
        registry.publish(detector, "v-plain")

        # Stored parity reports clear the acceptance tolerances.
        state = read_checkpoint(registry.path_for("v-quant"))
        for precision in ("float32", "float16", "int8"):
            report = state["quant"]["parity"][precision]
            check(report["passed"], f"{precision} parity report passed")
            delta = report["roc_auc_delta"]
            check(
                delta is not None and delta <= 0.005,
                f"{precision} ROC-AUC delta {delta} <= 0.005",
            )
            check(
                report["flag_jaccard"] >= 0.99,
                f"{precision} flag Jaccard {report['flag_jaccard']} >= 0.99",
            )

        # Registry activation at int8 scores bitwise like the local path.
        local_int8 = detector.predict_proba_tensors(tensors, precision="int8")
        int8_registry = ModelRegistry(
            Path(tmp) / "registry", infer_precision="int8"
        )
        loaded = int8_registry.load_model("v-quant")
        check(
            loaded.detector.config.infer_precision == "int8",
            "registry override activates int8",
        )
        check(
            np.array_equal(loaded.detector.predict_proba_tensors(tensors), local_int8),
            "registry int8 scoring bitwise-equal to local int8",
        )

        # The gate refuses a checkpoint that never proved parity...
        try:
            int8_registry.load_model("v-plain")
        except ParityError as exc:
            check("parity" in str(exc), "unquantized checkpoint refused at int8")
        else:
            raise SystemExit("FAIL: parity gate let an unproven model through")
        # ...which still loads fine at the default float64.
        plain = registry.load_model("v-plain")
        check(
            np.array_equal(
                plain.detector.predict_proba_tensors(tensors), probs64_before
            ),
            "unquantized checkpoint serves float64 bitwise",
        )

    # All of the above left the default float64 path untouched.
    check(
        np.array_equal(detector.predict_proba_tensors(tensors), probs64_before),
        "float64 path bitwise-unchanged after quantized publish/serve",
    )
    print("quant smoke: all checks passed")


if __name__ == "__main__":
    main()
