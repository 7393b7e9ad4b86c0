"""Scan-farm fingerprints: binding window content to config and model.

A farm scan's unit of reuse is the *(window geometry, scan
configuration, model)* triple: the probability of a window is a pure
function of exactly those three things. The geometry part is the
clipped-relative digest from :mod:`repro.geometry.fingerprint`; this
module supplies the other two — a deterministic model identity and a
salt folding the feature/pipeline configuration into every digest — so
a cache entry written under one configuration can never be served under
another.

Deliberately **not** in the salt:

``threshold``
    Flagging happens downstream of the probabilities; a cache survives
    threshold sweeps unchanged.
``stride_nm``
    The digest describes one window's content, which is stride-free; a
    denser re-scan of the same chip reuses every window it has seen.

:class:`FingerprintMemo` carries one scan's fingerprints to the next:
between two scans of one region under one salt, only windows that
overlap a rect added or removed can change digest, so only those are
hashed again. :func:`window_fingerprints` stays the stateless reference.

Caches and journals written while ``FeatureTensorConfig`` still had a
``dct_backend`` field do not carry over. That field was part of the
serialised feature config in the salt, so every window of such a
:class:`~repro.scanfarm.cache.ScanCache` misses and is scored afresh. It
was also part of the config :func:`model_fingerprint` hashes, so the
model key in such a journal's header no longer matches and resuming it
raises :class:`~repro.exceptions.ScanJournalError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.tensor import FeatureTensorConfig
from repro.geometry.fingerprint import geometry_digest
from repro.geometry.layout import Layout, clip_window_positions
from repro.geometry.rect import Rect

#: Recursion bound for the structural state walk in
#: :func:`model_fingerprint` — deep enough for any real detector state
#: tree, finite so a self-referential object cannot hang the scan.
_MAX_STATE_DEPTH = 8


def _hash_value(digest: "hashlib._Hash", value: Any, depth: int) -> None:
    """Fold one state-tree node into ``digest``, deterministically.

    Containers recurse (dicts by sorted key), arrays hash dtype + shape +
    raw bytes, primitives hash their repr. Arbitrary objects hash their
    class name plus their ``__dict__`` — enough to distinguish the probe
    detectors and extractor configs that reach this fallback — and the
    walk is depth-bounded so cycles degrade to a class-name hash rather
    than recursing forever.
    """
    if isinstance(value, dict):
        digest.update(b"{")
        if depth > 0:
            for key in sorted(value, key=repr):
                digest.update(repr(key).encode("utf-8"))
                _hash_value(digest, value[key], depth - 1)
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        if depth > 0:
            for item in value:
                _hash_value(digest, item, depth - 1)
        digest.update(b"]")
    elif isinstance(value, np.ndarray):
        digest.update(value.dtype.str.encode("utf-8"))
        digest.update(repr(value.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bytes, bytearray)):
        digest.update(bytes(value))
    elif value is None or isinstance(value, (bool, int, float, str)):
        digest.update(repr(value).encode("utf-8"))
    else:
        digest.update(type(value).__qualname__.encode("utf-8"))
        state = getattr(value, "__dict__", None)
        if state and depth > 0:
            _hash_value(digest, state, depth - 1)


def model_fingerprint(detector: Any) -> str:
    """Deterministic hex identity of a detector's behaviour.

    Trained detectors exposing ``to_state()`` (the serving checkpoint
    tree: config + weights + scaler) are hashed from that tree, so two
    detectors that would serve identically fingerprint identically.
    Anything else — the deterministic probe detectors, baselines — is
    hashed structurally from its class and attributes.
    """
    digest = hashlib.sha256()
    cls = type(detector)
    digest.update(f"{cls.__module__}.{cls.__qualname__}".encode("utf-8"))
    if hasattr(detector, "to_state"):
        _hash_value(digest, detector.to_state(), _MAX_STATE_DEPTH)
    else:
        _hash_value(
            digest, getattr(detector, "__dict__", {}), _MAX_STATE_DEPTH
        )
    return digest.hexdigest()


def scan_salt(
    *,
    clip_nm: int,
    pipeline: str,
    model_key: str,
    feature: Optional[FeatureTensorConfig] = None,
) -> bytes:
    """Configuration salt folded into every window fingerprint.

    Covers everything besides window geometry that the probability
    depends on: the resolved feature pipeline, the feature-tensor
    hyper-parameters (when the shared/tensor path is in play) and the
    model identity from :func:`model_fingerprint`.
    """
    payload = {
        "clip_nm": clip_nm,
        "pipeline": pipeline,
        "model": model_key,
        "feature": None if feature is None else dataclasses.asdict(feature),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def window_fingerprint(layout: Layout, window: Rect, salt: bytes) -> str:
    """Fingerprint of one scan window of ``layout`` under ``salt``."""
    return geometry_digest(layout.query(window), window, salt)


def window_fingerprints(
    layout: Layout, windows: Sequence[Rect], salt: bytes
) -> List[str]:
    """Fingerprints for every scan window, in window order."""
    return [window_fingerprint(layout, w, salt) for w in windows]


def _windows_overlapping(
    rects: Sequence[Rect], region: Rect, clip_nm: int, stride_nm: int
) -> np.ndarray:
    """Scan-order indices of the windows sharing area with any of ``rects``.

    The windows are :func:`~repro.geometry.layout.iter_clip_windows`'
    over ``region``: a lattice of ``clip_nm`` squares. A window overlaps a
    rect (as :meth:`Rect.overlaps` decides, which is what puts the rect in
    the window's :meth:`Layout.query`) exactly when its column and its row
    both do, so the per-window hit count is one product of two small
    (rects x columns) and (rects x rows) masks, however many rects
    changed.
    """
    if not rects:
        return np.empty(0, dtype=np.intp)
    xs, ys = clip_window_positions(region, clip_nm, stride_nm)
    boxes = np.array([rect.as_tuple() for rect in rects], dtype=np.int64)
    x = np.asarray(xs, dtype=np.int64)[None, :]
    y = np.asarray(ys, dtype=np.int64)[None, :]
    cols = (x < boxes[:, 2:3]) & (boxes[:, 0:1] < x + clip_nm)
    rows = (y < boxes[:, 3:4]) & (boxes[:, 1:2] < y + clip_nm)
    hits = rows.T.astype(np.float64) @ cols.astype(np.float64)
    return np.flatnonzero(hits)


class FingerprintMemo:
    """Window fingerprints carried from one scan to the next by a rect diff.

    A window's fingerprint is a function of the salt and of the rects
    overlapping it, so between two scans with the same region, window
    lattice and salt only the windows overlapping a rect added or removed
    can change. The memo keeps the last scan's rect multiset and
    fingerprints and re-hashes just those windows; any other scan is
    hashed in full by :func:`window_fingerprints`. The diff is a multiset
    because :func:`~repro.geometry.fingerprint.geometry_digest` hashes
    duplicate rects. The rects are copied out of the layout, so a layout
    edited in place after its scan diffs correctly too.
    """

    def __init__(self) -> None:
        self._key: Optional[Tuple[Rect, int, int, bytes]] = None
        self._rects: Counter = Counter()
        self._fingerprints: List[str] = []

    def fingerprints(
        self,
        layout: Layout,
        windows: Sequence[Rect],
        salt: bytes,
        clip_nm: int,
        stride_nm: int,
    ) -> Tuple[List[str], int]:
        """Fingerprints of ``windows``, and how many were carried over.

        ``windows`` must be ``iter_clip_windows(layout.region, clip_nm,
        stride_nm)``; the result equals ``window_fingerprints(layout,
        windows, salt)``.
        """
        key = (layout.region, clip_nm, stride_nm, salt)
        rects = Counter(layout.rects)
        if key != self._key:
            fingerprints = window_fingerprints(layout, windows, salt)
            reused = 0
        else:
            changed = list((rects - self._rects) + (self._rects - rects))
            dirty = _windows_overlapping(
                changed, layout.region, clip_nm, stride_nm
            )
            fingerprints = list(self._fingerprints)
            for i in dirty:
                fingerprints[i] = window_fingerprint(layout, windows[i], salt)
            reused = len(windows) - len(dirty)
        self._key = key
        self._rects = rects
        self._fingerprints = fingerprints
        return fingerprints, reused
