"""Distributed tracing: nested wall-clock/RSS spans with W3C trace ids.

``with span("scan.grid", tiles=12):`` times a stage, tracks its resident-
set-size delta, nests under whatever span is already open in the current
context, and on exit (a) records the duration into the default metrics
registry's ``span.<name>.seconds`` histogram and (b) emits a ``span``
event on the default bus carrying the full path (``scan/scan.grid``),
duration, depth, status **and the span's trace identity** — a 16-byte
``trace_id`` shared by every span of one logical request, an 8-byte
``span_id``, and the ``parent_id`` linking it into the trace tree.
Exceptions propagate unchanged but still produce the closing event with
``status="error"`` — a crashed scan's log shows where it died.

Trace identity propagates three ways:

- **Within a context** — the span stack lives in a
  :class:`contextvars.ContextVar`, so nested spans inherit their parent's
  ``trace_id`` automatically (threads each get their own stack, exactly
  as the old thread-local behaved).
- **Across threads and processes** — :func:`current_trace` captures the
  innermost identity as a :class:`TraceContext`; :func:`use_trace`
  re-installs it on the other side. The serving engine captures at
  ``submit()`` and restores in its worker thread; the scan farm ships
  the context to shard worker processes in the task payload.
- **Across HTTP** — :func:`format_traceparent` / :func:`parse_traceparent`
  speak the W3C ``traceparent`` header
  (``00-<trace_id>-<span_id>-<flags>``), which the serving client sends
  and the HTTP front end honours and echoes.

Spans whose duration was measured elsewhere (the engine's queue wait is
only known once the batch starts) are emitted retroactively with
:func:`emit_span` — same event schema, explicit timing.
"""

from __future__ import annotations

import contextvars
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import events as _events
from repro.obs import metrics as _metrics

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


try:
    _PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
except (AttributeError, ValueError, OSError):  # no sysconf (Windows)
    _PAGE_KB = 0


def rss_kb() -> int:
    """Current resident set size in kB (0 where unavailable).

    On Linux this is the resident-page field of ``/proc/self/statm``
    times the page size: the value ``VmRSS`` in ``/proc/self/status``
    reports, from one short read instead of a scan of that file (each
    span reads it twice). The file is opened on every call, because a
    descriptor held across ``fork`` would report the parent's RSS in
    pool workers. Elsewhere it falls back to the peak RSS from
    ``getrusage``.
    """
    if _PAGE_KB:
        try:
            fd = os.open("/proc/self/statm", os.O_RDONLY)
            try:
                return int(os.read(fd, 256).split()[1]) * _PAGE_KB
            finally:
                os.close(fd)
        except (OSError, ValueError, IndexError):
            pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kB, macOS bytes.
        return int(usage // 1024) if usage > 1 << 32 else int(usage)
    except Exception:
        return 0


# ----------------------------------------------------------------------
# Trace identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """A point in a trace that children can attach to.

    ``trace_id`` is the 32-hex-digit identity of the whole request;
    ``span_id`` the 16-hex-digit identity of the span that new children
    should name as their parent.
    """

    trace_id: str
    span_id: str


def new_trace_id() -> str:
    """A fresh 16-byte (32 hex digits) trace id."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 8-byte (16 hex digits) span id."""
    return os.urandom(8).hex()


def format_traceparent(context: TraceContext, sampled: bool = True) -> str:
    """Render a :class:`TraceContext` as a W3C ``traceparent`` header."""
    return f"00-{context.trace_id}-{context.span_id}-{'01' if sampled else '00'}"


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a W3C ``traceparent`` header; ``None`` for absent/invalid.

    Invalid headers are dropped rather than raised: an inbound request
    with a malformed header still gets served (with a fresh trace),
    which is what the spec asks of tolerant receivers.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, _flags = match.groups()
    if version == "ff":
        return None  # forbidden version value
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None  # all-zero ids are explicitly invalid
    return TraceContext(trace_id=trace_id, span_id=span_id)


# ----------------------------------------------------------------------
# Span records and the context stack
# ----------------------------------------------------------------------
@dataclass
class SpanRecord:
    """One timed stage; ``children`` holds directly nested spans."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    path: str = ""
    depth: int = 0
    start_s: float = 0.0
    duration_s: float = 0.0
    rss_delta_kb: int = 0
    status: str = "ok"
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    children: List["SpanRecord"] = field(default_factory=list)

    def context(self) -> Optional[TraceContext]:
        """This span as a parent for remote/threaded children."""
        if not self.trace_id or not self.span_id:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def tree(self, indent: int = 0) -> str:
        """Indented multi-line rendering of this span and its children."""
        line = f"{'  ' * indent}{self.name}: {self.duration_s:.3f}s"
        if self.status != "ok":
            line += f" [{self.status}]"
        return "\n".join(
            [line] + [child.tree(indent + 1) for child in self.children]
        )


#: Immutable per-context stack of open spans. Each thread (and each
#: copied Context) sees its own value; tuples keep set/reset cheap.
_stack_var: "contextvars.ContextVar[Tuple[SpanRecord, ...]]" = (
    contextvars.ContextVar("repro_span_stack", default=())
)

#: Ambient trace parent installed by :func:`use_trace` — what a root span
#: attaches to when no span is open in this context (inbound HTTP
#: requests, the engine's worker thread, farm shard processes).
_ambient_var: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_ambient", default=None)
)


def current_span() -> Optional[SpanRecord]:
    """The innermost open span in this context, if any."""
    stack = _stack_var.get()
    return stack[-1] if stack else None


def current_trace() -> Optional[TraceContext]:
    """The trace identity new work in this context should attach to.

    The innermost open span wins; otherwise the ambient context installed
    by :func:`use_trace` (e.g. parsed from an inbound ``traceparent``).
    """
    span_record = current_span()
    if span_record is not None:
        context = span_record.context()
        if context is not None:
            return context
    return _ambient_var.get()


@contextmanager
def use_trace(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install ``context`` as the ambient trace parent for a block.

    ``None`` is accepted and simply leaves tracing to start a fresh trace
    — callers can pass through whatever :func:`parse_traceparent` or a
    task payload handed them without branching.
    """
    token = _ambient_var.set(context)
    try:
        yield context
    finally:
        _ambient_var.reset(token)


def _assign_ids(record: SpanRecord, parent: Optional[SpanRecord]) -> None:
    if parent is not None:
        record.trace_id = parent.trace_id
        record.parent_id = parent.span_id
    else:
        ambient = _ambient_var.get()
        if ambient is not None:
            record.trace_id = ambient.trace_id
            record.parent_id = ambient.span_id
        else:
            record.trace_id = new_trace_id()
    record.span_id = new_span_id()


def _trace_attrs(record: SpanRecord) -> Dict[str, str]:
    return {
        "trace_id": record.trace_id,
        "span_id": record.span_id,
        "parent_id": record.parent_id,
    }


@contextmanager
def span(
    name: str,
    bus: Optional[_events.EventBus] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    **attrs: Any,
) -> Iterator[SpanRecord]:
    """Time a stage; yields the mutable :class:`SpanRecord`.

    ``bus``/``registry`` default to the process-wide instances. Extra
    keyword attributes ride on both the record and the closing event, and
    the yielded record's ``attrs`` can be extended inside the block.
    """
    stack = _stack_var.get()
    parent = stack[-1] if stack else None
    record = SpanRecord(
        name=name,
        attrs=dict(attrs),
        path=f"{parent.path}/{name}" if parent else name,
        depth=len(stack),
        start_s=time.time(),
    )
    _assign_ids(record, parent)
    if parent is not None:
        parent.children.append(record)
    token = _stack_var.set(stack + (record,))
    rss_before = rss_kb()
    started = time.perf_counter()
    try:
        yield record
    except BaseException:
        record.status = "error"
        raise
    finally:
        record.duration_s = time.perf_counter() - started
        record.rss_delta_kb = rss_kb() - rss_before
        _stack_var.reset(token)
        target_registry = registry if registry is not None else _metrics.get_registry()
        target_registry.histogram(f"span.{name}.seconds").observe(
            record.duration_s
        )
        target_bus = bus if bus is not None else _events.get_bus()
        target_bus.emit(
            "span",
            level="debug",
            span=record.name,
            path=record.path,
            depth=record.depth,
            seconds=record.duration_s,
            rss_delta_kb=record.rss_delta_kb,
            status=record.status,
            **_trace_attrs(record),
            **record.attrs,
        )


def emit_span(
    name: str,
    duration_s: float,
    parent: Optional[TraceContext] = None,
    start_s: Optional[float] = None,
    status: str = "ok",
    bus: Optional[_events.EventBus] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    observe: bool = True,
    **attrs: Any,
) -> SpanRecord:
    """Record a span whose timing was measured elsewhere.

    For stages that are only knowable after the fact — the engine's
    per-request queue wait is measured when the batch starts, long after
    the request's context was left. The synthesized span joins
    ``parent``'s trace (when given), lands in the same
    ``span.<name>.seconds`` histogram, and emits the same ``span`` event
    schema, so reports and trace trees treat it exactly like a
    context-manager span. ``observe=False`` skips the histogram for
    callers that already record the duration under their own metric.
    """
    record = SpanRecord(
        name=name,
        attrs=dict(attrs),
        path=name,
        depth=0,
        start_s=time.time() if start_s is None else start_s,
        duration_s=float(duration_s),
        status=status,
    )
    if parent is not None:
        record.trace_id = parent.trace_id
        record.parent_id = parent.span_id
    else:
        record.trace_id = new_trace_id()
    record.span_id = new_span_id()
    if observe:
        target_registry = (
            registry if registry is not None else _metrics.get_registry()
        )
        target_registry.histogram(f"span.{name}.seconds").observe(
            record.duration_s
        )
    target_bus = bus if bus is not None else _events.get_bus()
    target_bus.emit(
        "span",
        level="debug",
        span=record.name,
        path=record.path,
        depth=record.depth,
        seconds=record.duration_s,
        rss_delta_kb=0,
        status=record.status,
        **_trace_attrs(record),
        **record.attrs,
    )
    return record
