"""Persistent fingerprint → probability cache for incremental re-scan.

The cache is a directory holding a metadata file (``cache.json``) and an
append-only JSONL data file (``probabilities.jsonl``), one entry per
unique window fingerprint. JSON floats round-trip ``float64`` exactly
(shortest-repr encoding — the same property :class:`~repro.core.fullchip.ScanJournal`
relies on), so a probability served from cache is bitwise the value that
was computed.

Correctness does not depend on cache *keys* being fresh: fingerprints
embed the scan configuration and model identity
(:func:`repro.scanfarm.fingerprint.scan_salt`), so an entry written
under yesterday's model simply never matches today's lookups. Stale
entries waste bytes, not correctness; :meth:`ScanCache.compact` reclaims
them.

Crash behaviour is the scan journal's, through the same JSONL helpers
(:func:`~repro.core.fullchip.read_jsonl` /
:func:`~repro.core.fullchip.append_jsonl`): entries are appended,
flushed and fsync-ed in batches, and a torn trailing line (a crash
mid-write) is truncated away on the next open.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Mapping, Union

from repro.core.fullchip import append_jsonl, read_jsonl
from repro.exceptions import ScanCacheError

PathLike = Union[str, Path]


class ScanCache:
    """On-disk window-probability cache, loaded eagerly, appended durably."""

    SCHEMA = 1
    META_NAME = "cache.json"
    DATA_NAME = "probabilities.jsonl"

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ScanCacheError(
                f"{self.directory}: cache path exists and is not a directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: Dict[str, float] = {}
        self._check_meta()
        self._load()

    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / self.META_NAME

    @property
    def data_path(self) -> Path:
        return self.directory / self.DATA_NAME

    def _check_meta(self) -> None:
        if self.meta_path.exists():
            try:
                meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ScanCacheError(
                    f"{self.meta_path}: unreadable cache metadata ({exc})"
                ) from exc
            if not isinstance(meta, dict) or meta.get("kind") != "scan-cache":
                raise ScanCacheError(
                    f"{self.directory}: not a scan cache directory"
                )
            if meta.get("schema") != self.SCHEMA:
                raise ScanCacheError(
                    f"{self.directory}: cache schema {meta.get('schema')} "
                    f"(this build reads schema {self.SCHEMA})"
                )
            return
        # Atomic create so a crash can never leave a half-written meta
        # file that poisons every later open.
        tmp = self.meta_path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps({"kind": "scan-cache", "schema": self.SCHEMA}) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.meta_path)

    def _load(self) -> None:
        if not self.data_path.exists():
            return
        valid_bytes = 0
        for entry, valid_bytes in read_jsonl(self.data_path):
            if isinstance(entry, dict) and entry.get("kind") == "entry":
                self._entries[str(entry["fp"])] = float(entry["p"])
        if valid_bytes < self.data_path.stat().st_size:
            with open(self.data_path, "r+b") as handle:
                handle.truncate(valid_bytes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> float:
        """Probability stored for ``fingerprint`` (KeyError if absent)."""
        return self._entries[fingerprint]

    def lookup(self, fingerprints: Iterable[str]) -> Dict[str, float]:
        """Subset of ``fingerprints`` present, as ``{fingerprint: p}``."""
        return {
            fp: self._entries[fp]
            for fp in set(fingerprints)
            if fp in self._entries
        }

    def update(self, entries: Mapping[str, float]) -> int:
        """Durably append entries not yet cached; returns how many were new.

        One flush + fsync per call, so callers batch their writes (the
        farm writes once per scan) rather than paying a sync per window.
        """
        fresh = {
            fp: float(p)
            for fp, p in entries.items()
            if fp not in self._entries
        }
        if not fresh:
            return 0
        with open(self.data_path, "a", encoding="utf-8") as handle:
            append_jsonl(handle, _entry_lines(fresh))
        self._entries.update(fresh)
        return len(fresh)

    def compact(self) -> None:
        """Rewrite the data file with one line per live entry, atomically."""
        tmp = self.data_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            append_jsonl(handle, _entry_lines(self._entries))
        os.replace(tmp, self.data_path)


def _entry_lines(entries: Mapping[str, float]) -> Iterator[Dict[str, Any]]:
    """One ``probabilities.jsonl`` record per fingerprint."""
    for fp, probability in entries.items():
        yield {"kind": "entry", "fp": fp, "p": probability}
