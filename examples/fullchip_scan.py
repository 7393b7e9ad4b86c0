"""Full-chip hotspot scan (the paper's large-scale motivation).

Trains the detector on generated clips, synthesises a multi-tile layout,
sweeps it with overlapping windows, and reports the merged hotspot regions
against the lithography oracle's ground truth — the flow a physical
verification team would actually run.

Run:  python examples/fullchip_scan.py
"""

import time

from repro.bench.harness import bench_detector_config
from repro.core import HotspotDetector, recall_against_oracle
from repro.data import (
    ClipGenerator,
    FullChipSpec,
    GeneratorConfig,
    HotspotDataset,
    make_labelled_layout,
)
from repro.scanfarm import ScanFarm


def main() -> None:
    print("training the detector on generated clips...")
    generator = ClipGenerator(GeneratorConfig(seed=8))
    train = HotspotDataset(generator.generate(120, 240), name="chip/train")
    detector = HotspotDetector(
        bench_detector_config(bias_rounds=2, max_iterations=1500)
    )
    start = time.perf_counter()
    detector.fit(train)
    print(f"  trained in {time.perf_counter() - start:.0f}s")

    print("synthesising a full-chip block and its litho ground truth...")
    start = time.perf_counter()
    layout, hotspot_sites = make_labelled_layout(
        FullChipSpec(tiles_x=6, tiles_y=6, seed=77)
    )
    print(
        f"  {len(layout)} rectangles over "
        f"{layout.region.width / 1000:.1f} x {layout.region.height / 1000:.1f} um, "
        f"{len(hotspot_sites)} true hotspot sites "
        f"({time.perf_counter() - start:.0f}s)"
    )

    print("scanning (1200 nm windows, 600 nm stride)...")
    result = ScanFarm(detector, clip_nm=1200, stride_nm=600).scan(layout)
    print(f"  {result.summary()}")
    for region in result.regions[:8]:
        b = region.bbox
        print(
            f"    region ({b.x_lo:5d},{b.y_lo:5d})-({b.x_hi:5d},{b.y_hi:5d}) "
            f"windows={region.window_count:3d} peak p={region.max_probability:.2f}"
        )
    if hotspot_sites:
        recall = recall_against_oracle(result, hotspot_sites)
        print(f"  site recall vs oracle ground truth: {recall * 100:.0f}%")


if __name__ == "__main__":
    main()
