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

An open cache follows its data file: :meth:`ScanCache.refresh` decodes
only the lines appended since the last read, whoever appended them, and
re-opens in full when the file no longer continues what was read (the
directory or file was removed or replaced, or the file was truncated or
compacted). Entries are first-write-wins: every reader keeps the first
line of a fingerprint, and a writer reads what others appended before
it appends, so a long-lived instance answers exactly what a fresh
``ScanCache(directory)`` would.

Crash behaviour is the scan journal's, through the same JSONL helpers
(:func:`~repro.core.fullchip.read_jsonl` /
:func:`~repro.core.fullchip.append_jsonl`): entries are appended,
flushed and fsync-ed in batches, and a torn trailing line (a crash
mid-write) is truncated away on the next read.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

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
        self._open()

    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / self.META_NAME

    @property
    def data_path(self) -> Path:
        return self.directory / self.DATA_NAME

    def _open(self) -> int:
        """Validate (or create) the directory and read the data file whole."""
        if self.directory.exists() and not self.directory.is_dir():
            raise ScanCacheError(
                f"{self.directory}: cache path exists and is not a directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_meta()
        self._entries: Dict[str, float] = {}
        #: ``(st_dev, st_ino)`` of the data file read; None before any read.
        self._file: Optional[Tuple[int, int]] = None
        #: Byte offset up to which the data file has been decoded.
        self._offset = 0
        #: ``(start offset, entry)`` of the last line decoded.
        self._last: Optional[Tuple[int, Any]] = None
        return self.refresh()

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

    def refresh(self) -> int:
        """Decode the lines appended since the last read; returns their count.

        Re-opens in full — the answers of a fresh ``ScanCache(directory)``
        — when the directory or data file was removed or replaced, or the
        file is shorter than what was read or no longer holds the last
        line read at the same offset (inode numbers can be reused, so the
        file's identity alone is not proof).
        """
        try:
            stat = self.data_path.stat()
        except (FileNotFoundError, NotADirectoryError):
            if self._offset or not self.meta_path.exists():
                return self._open()
            return 0
        identity = (stat.st_dev, stat.st_ino)
        if self._file not in (None, identity) or stat.st_size < self._offset:
            return self._open()
        self._file = identity
        # Start at the last line read: it must still be there, unchanged.
        start, expected = self._last if self._last else (self._offset, None)
        lines = 0
        for entry, end in read_jsonl(self.data_path, start):
            if expected is not None:
                if entry != expected or end != self._offset:
                    return self._open()
                expected = None
            else:
                if isinstance(entry, dict) and entry.get("kind") == "entry":
                    fp, p = str(entry["fp"]), float(entry["p"])
                    self._entries.setdefault(fp, p)
                self._last = (start, entry)
                lines += 1
            start = end
        if expected is not None:
            return self._open()
        self._offset = start
        if self._offset < stat.st_size:  # a torn tail: cut it off
            with open(self.data_path, "r+b") as handle:
                handle.truncate(self._offset)
        return lines

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

        Reads what other writers appended first, so the first write of a
        fingerprint wins across writers, and reads its own lines back, so
        the instance holds what the file holds. One flush + fsync per
        call, so callers batch their writes (the farm writes once per
        scan) rather than paying a sync per window.
        """
        self.refresh()
        fresh = {
            fp: float(p)
            for fp, p in entries.items()
            if fp not in self._entries
        }
        if not fresh:
            return 0
        with open(self.data_path, "a", encoding="utf-8") as handle:
            append_jsonl(handle, _entry_lines(fresh))
        self.refresh()
        return len(fresh)

    def compact(self) -> None:
        """Rewrite the data file with one line per live entry, atomically."""
        self.refresh()
        tmp = self.data_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            append_jsonl(handle, _entry_lines(self._entries))
        os.replace(tmp, self.data_path)
        self._open()


def _entry_lines(entries: Mapping[str, float]) -> Iterator[Dict[str, Any]]:
    """One ``probabilities.jsonl`` record per fingerprint."""
    for fp, probability in entries.items():
        yield {"kind": "entry", "fp": fp, "p": probability}
