"""Unified observability layer: events, metrics, tracing, reports.

The three long-running phases of the paper's workflow — MGD training with
validation-based stopping (Algorithm 1), biased fine-tuning rounds
(Algorithm 2) and full-chip sliding scans — emit structured telemetry
through this package instead of ad-hoc prints:

- :mod:`repro.obs.events` — a process-local event bus. Library code calls
  ``emit(name, **attrs)``; attached sinks decide what to do with it.
- :mod:`repro.obs.sinks` — the sink implementations: human-readable
  console, machine-readable JSONL (``--log-json`` / ``REPRO_LOG_JSON``),
  in-memory capture for tests.
- :mod:`repro.obs.metrics` — a zero-dependency metrics registry
  (counters, gauges, histograms with p50/p95/max, optional labels) whose
  snapshots merge across process boundaries (scan worker pools report
  back this way).
- :mod:`repro.obs.tracing` — ``span(name, **attrs)`` context manager
  building nested wall-clock/RSS timing trees with W3C-style
  trace/span/parent ids that propagate across threads
  (:func:`~repro.obs.tracing.use_trace`), processes (scan-farm shard
  workers) and HTTP hops (``traceparent``).
- :mod:`repro.obs.export` — OpenMetrics/Prometheus text exposition of a
  registry snapshot (negotiated on the serve ``/metrics`` endpoint).
- :mod:`repro.obs.drift` — model-quality drift monitoring: frozen
  reference profiles captured at publish time, compared online against
  sliding score/feature windows via PSI/KS (``drift.alert`` events).
- :mod:`repro.obs.slo` — declarative latency/availability objectives
  with multi-window burn-rate evaluation (``slo.burn`` events).
- :mod:`repro.obs.report` — loads a JSONL run log and reconstructs the
  per-stage timing/metrics summary and per-trace span trees
  (``repro-hotspot obs report [--trace <id>]``).
- :mod:`repro.obs.top` — live terminal dashboard over a serve
  ``/metrics.json`` (``repro-hotspot obs top``).

Everything is stdlib-plus-numpy and costs one attribute check when no
sink is attached, so library hot paths stay uninstrumented-fast by
default.
"""

from repro.obs.drift import (
    DriftConfig,
    DriftMonitor,
    ReferenceProfile,
    ks_statistic,
    population_stability_index,
)
from repro.obs.events import Event, EventBus, emit, get_bus, set_bus
from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
    sanitize_name,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    parse_metric_key,
    set_registry,
)
from repro.obs.report import (
    build_trace_tree,
    format_report,
    format_trace,
    load_run_log,
    summarize_spans,
    trace_ids,
)
from repro.obs.sinks import ConsoleSink, JsonlSink, MemorySink, NullSink, Sink
from repro.obs.slo import (
    SLObjective,
    SLOStatus,
    SLOTracker,
    default_serve_objectives,
)
from repro.obs.top import fetch_snapshot, format_top, run_top
from repro.obs.tracing import (
    SpanRecord,
    TraceContext,
    current_span,
    current_trace,
    emit_span,
    format_traceparent,
    parse_traceparent,
    span,
    use_trace,
)

__all__ = [
    "Event",
    "EventBus",
    "emit",
    "get_bus",
    "set_bus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "metric_key",
    "parse_metric_key",
    "Sink",
    "ConsoleSink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "SpanRecord",
    "TraceContext",
    "span",
    "emit_span",
    "current_span",
    "current_trace",
    "use_trace",
    "format_traceparent",
    "parse_traceparent",
    "OPENMETRICS_CONTENT_TYPE",
    "render_openmetrics",
    "sanitize_name",
    "DriftConfig",
    "DriftMonitor",
    "ReferenceProfile",
    "population_stability_index",
    "ks_statistic",
    "SLObjective",
    "SLOStatus",
    "SLOTracker",
    "default_serve_objectives",
    "format_report",
    "format_trace",
    "build_trace_tree",
    "trace_ids",
    "load_run_log",
    "summarize_spans",
    "fetch_snapshot",
    "format_top",
    "run_top",
]
