"""Full-chip scan results, region merging and the scan journal.

Production flows don't hand the detector pre-cut clips — they sweep a
layout. The scan engine (:class:`repro.scanfarm.ScanFarm`) tiles a
:class:`~repro.geometry.layout.Layout` into overlapping clip windows and
scores each one; this module holds what every scan shares around that:

- :class:`ScanResult` and :func:`assemble_scan_result` — flagging against
  the threshold and merging flagged windows into hotspot *regions* (the
  connected union of flagged windows), which is what a designer or OPC
  engineer acts on;
- :class:`ScanJournal` — the fsync-ed record that makes a killed scan
  resumable, and the torn-tail-safe JSONL helpers it shares with the
  scan cache (:class:`repro.scanfarm.ScanCache`);
- :func:`recall_against_oracle` — scoring a scan against known sites.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import ScanJournalError, TrainingError
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.obs import span

PathLike = Union[str, Path]


@dataclass(frozen=True)
class HotspotRegion:
    """A merged cluster of flagged clip windows."""

    bbox: Rect
    window_count: int
    max_probability: float


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one full-chip scan.

    ``flagged_indices`` are the positions (into ``windows`` /
    ``probabilities``) of the flagged windows, in scan order; ``flagged``
    and :attr:`flagged_probabilities` are aligned views over them.
    """

    windows: Tuple[Rect, ...]
    probabilities: np.ndarray  # hotspot probability per window
    flagged_indices: Tuple[int, ...]
    flagged: Tuple[Rect, ...]
    regions: Tuple[HotspotRegion, ...]
    scan_seconds: float

    @property
    def window_count(self) -> int:
        return len(self.windows)

    @property
    def flagged_count(self) -> int:
        return len(self.flagged)

    @property
    def flagged_probabilities(self) -> np.ndarray:
        """Probabilities of the flagged windows, aligned with ``flagged``."""
        return self.probabilities[np.array(self.flagged_indices, dtype=np.intp)]

    def summary(self) -> str:
        return (
            f"{self.window_count} windows scanned in "
            f"{self.scan_seconds:.1f}s: {self.flagged_count} flagged, "
            f"{len(self.regions)} hotspot regions"
        )


def assemble_scan_result(
    windows: Tuple[Rect, ...],
    probabilities: np.ndarray,
    threshold: float,
    started: float,
) -> ScanResult:
    """Flag, merge and package per-window probabilities into a result.

    ``started`` is the ``time.perf_counter()`` origin of the scan; the
    result's ``scan_seconds`` is taken after region merging so it covers
    the whole pipeline. The scan farm and the reference scans in
    :mod:`repro.testing` both end here, so "farm result equals reference
    result" reduces to a property of the probability vectors alone.
    """
    flagged_indices = tuple(
        int(i) for i in np.flatnonzero(probabilities >= threshold)
    )
    flagged = tuple(windows[i] for i in flagged_indices)
    with span("scan.merge", flagged=len(flagged)):
        regions = merge_windows(
            flagged, [probabilities[i] for i in flagged_indices]
        )
    return ScanResult(
        windows=windows,
        probabilities=probabilities,
        flagged_indices=flagged_indices,
        flagged=flagged,
        regions=tuple(regions),
        scan_seconds=time.perf_counter() - started,
    )


def scan_journal_header(
    layout: Layout,
    window_count: int,
    *,
    clip_nm: int,
    stride_nm: int,
    threshold: float,
    pipeline: str,
    **extra: Any,
) -> Dict[str, Any]:
    """Fingerprint binding a journal to one scan configuration.

    ``extra`` lets callers fold additional configuration into the header
    (the scan farm adds its shard layout and cache identity); any
    difference in any key makes :meth:`ScanJournal.resume` refuse the
    journal with :class:`~repro.exceptions.ScanJournalError`.
    """
    return {
        "version": ScanJournal.VERSION,
        "windows": window_count,
        "clip_nm": clip_nm,
        "stride_nm": stride_nm,
        "threshold": threshold,
        "pipeline": pipeline,
        "region": list(layout.region.as_tuple()),
        "rect_count": len(layout),
        **extra,
    }


def read_jsonl(path: PathLike, start: int = 0) -> Iterator[Tuple[Any, int]]:
    """Decode the valid prefix of an append-only JSONL file, line by line.

    Yields each entry with the byte offset where its line ends. A crash
    can leave the last line torn (no newline) or garbled; decoding stops
    at the first such line, and a writer that resumes appending first
    cuts the file back to the last offset yielded (``start`` if none).
    ``start`` must be a line boundary: a reader that keeps a file open
    passes the offset it has read up to and decodes only what was
    appended since. The scan journal and the scan cache both read
    through here.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read()
    end = start
    # The piece after the last newline is empty or a torn final line.
    for raw in data.split(b"\n")[:-1]:
        try:
            entry = json.loads(raw.decode("utf-8"))
        except ValueError:  # garbled line (bad UTF-8 or bad JSON)
            return
        end += len(raw) + 1
        yield entry, end


def append_jsonl(handle: IO[str], entries: Iterable[Any]) -> None:
    """Append ``entries`` one JSON line each, then flush and fsync.

    JSON floats round-trip ``float64`` exactly (shortest-repr encoding),
    so a probability read back is bitwise the one written.
    """
    handle.write("".join(json.dumps(entry) + "\n" for entry in entries))
    handle.flush()
    os.fsync(handle.fileno())


class ScanJournal:
    """Append-only JSONL record of a scan's completed batches.

    Line 1 is a header binding the journal to one scan configuration
    (window geometry, threshold, pipeline, layout fingerprint); every
    further line records one inference batch's window indices and
    probabilities. Each write is flushed and fsync-ed, so after a crash
    the journal holds every batch that finished. JSON floats round-trip
    ``float64`` exactly (shortest-repr encoding), which is what makes a
    resumed scan's probabilities bitwise-equal to a clean run's.

    A torn trailing line (the crash interrupted the write itself) is
    detected on load and truncated away before appending resumes; a
    header that does not match the resuming scan raises
    :class:`~repro.exceptions.ScanJournalError` instead of silently
    mixing two different scans' results.
    """

    VERSION = 1

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._handle = None

    # ------------------------------------------------------------------
    def start(self, header: Dict[str, Any]) -> None:
        """Begin a fresh journal (truncates any previous file)."""
        self._handle = open(self.path, "w", encoding="utf-8")
        self._append({"kind": "scan-header", **header})

    def resume(self, header: Dict[str, Any]) -> Dict[int, float]:
        """Validate the header, drop any torn tail, return completed work.

        Returns ``{window index: probability}`` for every journaled batch
        and reopens the file for appending at the end of the valid prefix.
        """
        done: Dict[int, float] = {}
        header_seen = False
        valid_bytes = 0
        for entry, valid_bytes in read_jsonl(self.path):
            if not header_seen:
                if (
                    not isinstance(entry, dict)
                    or entry.get("kind") != "scan-header"
                ):
                    raise ScanJournalError(f"{self.path}: not a scan journal")
                stored = {k: v for k, v in entry.items() if k != "kind"}
                if stored != header:
                    raise ScanJournalError(
                        f"{self.path}: journal header {stored} does not "
                        f"match this scan {header}"
                    )
                header_seen = True
            elif isinstance(entry, dict) and entry.get("kind") == "batch":
                for index, probability in zip(entry["indices"], entry["p"]):
                    done[int(index)] = float(probability)
        if not header_seen:
            raise ScanJournalError(f"{self.path}: missing journal header")
        self._handle = open(self.path, "r+", encoding="utf-8")
        self._handle.truncate(valid_bytes)
        self._handle.seek(valid_bytes)
        return done

    # ------------------------------------------------------------------
    def record(self, indices: Sequence[int], probabilities: np.ndarray) -> None:
        """Durably append one completed batch."""
        self._append(
            {
                "kind": "batch",
                "indices": [int(i) for i in indices],
                "p": [float(p) for p in probabilities],
            }
        )

    def _append(self, entry: Dict[str, Any]) -> None:
        append_jsonl(self._handle, [entry])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def merge_windows(
    windows: Sequence[Rect],
    probabilities: Sequence[float],
) -> List[HotspotRegion]:
    """Merge touching/overlapping flagged windows into regions.

    Union-find over the window adjacency graph; each cluster reports its
    bounding box, member count and peak probability, and regions come
    back sorted by falling peak. Candidate pairs come from a grid-bucket
    spatial hash (cell pitch = the largest window side), so only windows
    in neighbouring cells are compared — two windows further than a cell
    apart cannot touch — and merging stays near-linear in the flagged
    count instead of an all-pairs quadratic sweep (the tests keep that
    sweep as the oracle).
    """
    if len(windows) != len(probabilities):
        raise TrainingError(
            f"{len(windows)} windows vs {len(probabilities)} probabilities"
        )
    count = len(windows)
    if count == 0:
        return []
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    cell = max(max(w.width, w.height) for w in windows)
    buckets: Dict[Tuple[int, int], List[int]] = {}
    keys: List[Tuple[int, int]] = []
    for i, w in enumerate(windows):
        key = (w.x_lo // cell, w.y_lo // cell)
        keys.append(key)
        buckets.setdefault(key, []).append(i)
    for i, w in enumerate(windows):
        kx, ky = keys[i]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in buckets.get((kx + dx, ky + dy), ()):
                    if j > i and w.touches(windows[j]):
                        union(i, j)

    clusters: Dict[int, List[int]] = {}
    for i in range(count):
        clusters.setdefault(find(i), []).append(i)
    regions = []
    for members in clusters.values():
        bbox = windows[members[0]]
        peak = probabilities[members[0]]
        for m in members[1:]:
            bbox = bbox.union_bbox(windows[m])
            peak = max(peak, probabilities[m])
        regions.append(
            HotspotRegion(
                bbox=bbox, window_count=len(members), max_probability=float(peak)
            )
        )
    regions.sort(key=lambda r: -r.max_probability)
    return regions


def recall_against_oracle(
    result: ScanResult, true_hotspot_sites: Sequence[Rect]
) -> float:
    """Fraction of known hotspot sites covered by a flagged region."""
    if not true_hotspot_sites:
        raise TrainingError("no hotspot sites given")
    hits = sum(
        1
        for site in true_hotspot_sites
        if any(region.bbox.overlaps(site) for region in result.regions)
    )
    return hits / len(true_hotspot_sites)
