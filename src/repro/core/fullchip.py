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


#: Candidate pairs :func:`merge_windows` tests per step, bounding its
#: working set (about 2 MB of pair indices) on dense flag sets.
_MERGE_PAIRS = 1 << 16


def merge_windows(
    windows: Sequence[Rect],
    probabilities: Sequence[float],
) -> List[HotspotRegion]:
    """Merge touching/overlapping flagged windows into regions.

    Regions are the connected components of the window touch graph
    (:meth:`Rect.touches`); each reports its bounding box, member count
    and peak probability, and regions come back sorted by falling peak,
    ties in the order of each region's first window. The sweep is array
    work: windows sorted by ``x_lo``, each window's candidates are the
    later ones whose ``x_lo`` is at most its ``x_hi`` (a
    ``searchsorted``), their y extents are tested at once, and touching
    pairs hook their components' roots together, with pointer jumping
    flattening every label to its root between hooks. A root is always
    its component's lowest window index. Candidate pairs are made
    ``_MERGE_PAIRS`` at a time, so memory stays bounded on dense flag
    sets. The tests keep an all-pairs sweep as the oracle.
    """
    if len(windows) != len(probabilities):
        raise TrainingError(
            f"{len(windows)} windows vs {len(probabilities)} probabilities"
        )
    count = len(windows)
    if count == 0:
        return []
    boxes = np.array([w.as_tuple() for w in windows], dtype=np.int64)
    peaks = np.asarray(probabilities, dtype=np.float64)
    order = np.argsort(boxes[:, 0], kind="stable")
    x_lo, y_lo, x_hi, y_hi = boxes[order].T
    # Sorted window i's candidates are sorted windows i+1 .. reach[i]-1.
    reach = np.searchsorted(x_lo, x_hi, side="right")
    sizes = reach - np.arange(1, count + 1)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    labels = np.arange(count)
    lo = 0
    while lo < count:
        hi = int(
            np.searchsorted(offsets, offsets[lo] + _MERGE_PAIRS, side="right")
        )
        hi = max(lo + 1, hi - 1)
        chunk = sizes[lo:hi]
        first = np.repeat(np.arange(lo, hi), chunk)
        step = np.arange(len(first)) - np.repeat(
            offsets[lo:hi] - offsets[lo], chunk
        )
        second = first + 1 + step
        touching = (y_lo[second] <= y_hi[first]) & (
            y_lo[first] <= y_hi[second]
        )
        a = order[first[touching]]
        b = order[second[touching]]
        while a.size:
            a, b = labels[a], labels[b]
            split = a != b
            a, b = a[split], b[split]
            np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped
        lo = hi
    _, members = np.unique(labels, return_inverse=True)
    by_region = np.argsort(members, kind="stable")
    counts = np.bincount(members)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    grouped = boxes[by_region]
    bbox = np.hstack(
        [
            np.minimum.reduceat(grouped[:, :2], starts),
            np.maximum.reduceat(grouped[:, 2:], starts),
        ]
    ).tolist()
    peak = np.maximum.reduceat(peaks[by_region], starts)
    return [
        HotspotRegion(
            bbox=Rect(*bbox[r]),
            window_count=int(counts[r]),
            max_probability=float(peak[r]),
        )
        for r in np.argsort(-peak, kind="stable").tolist()
    ]


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
