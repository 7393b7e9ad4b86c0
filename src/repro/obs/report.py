"""Run-log reports: reconstruct stage timings from a JSONL event log.

``repro-hotspot obs report RUN.jsonl`` loads the records a
:class:`~repro.obs.sinks.JsonlSink` wrote, validates them against the
event schema, and prints:

- an event census (counts per event name, wall-clock extent);
- a per-stage timing table aggregated over ``span`` events, keyed by the
  span *path* so nesting is visible (``scan/scan.grid``), with each
  path's self time (its total minus its direct child paths' totals) and
  its share of the root spans' total;
- the counters/gauges/histograms of the run's last ``metrics.snapshot``
  event — which is where windows-per-second and the worker-aggregated
  raster/DCT timings live for a full-chip scan.

Malformed logs raise :class:`~repro.exceptions.ObservabilityError` with
the offending line number rather than silently skipping records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ObservabilityError
from repro.obs.events import Event, LEVELS

PathLike = Union[str, Path]

#: Keys every JSONL record must carry (the JsonlSink write schema).
RECORD_KEYS = ("name", "time_s", "level", "attrs")


def validate_record(record: Any, context: str = "record") -> Dict[str, Any]:
    """Check one decoded JSONL record against the event schema."""
    if not isinstance(record, dict):
        raise ObservabilityError(f"{context}: expected an object, got "
                                 f"{type(record).__name__}")
    for key in RECORD_KEYS:
        if key not in record:
            raise ObservabilityError(f"{context}: missing key {key!r}")
    if not isinstance(record["name"], str) or not record["name"]:
        raise ObservabilityError(f"{context}: 'name' must be a non-empty string")
    if not isinstance(record["time_s"], (int, float)):
        raise ObservabilityError(f"{context}: 'time_s' must be a number")
    if record["level"] not in LEVELS:
        raise ObservabilityError(
            f"{context}: 'level' must be one of {LEVELS}, "
            f"got {record['level']!r}"
        )
    if not isinstance(record["attrs"], dict):
        raise ObservabilityError(f"{context}: 'attrs' must be an object")
    return record


def load_run_log(path: PathLike) -> List[Event]:
    """Parse and validate a JSONL run log into :class:`Event` objects."""
    path = Path(path)
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid JSON ({error})"
                )
            record = validate_record(record, context=f"{path}:{lineno}")
            events.append(
                Event(
                    name=record["name"],
                    time_s=float(record["time_s"]),
                    level=record["level"],
                    attrs=record["attrs"],
                )
            )
    return events


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize_spans(events: Sequence[Event]) -> Dict[str, Dict[str, float]]:
    """Aggregate ``span`` events by path: count/total/mean/max seconds.

    Each path also gets ``self_s``, its total minus the totals of its
    direct child paths (``a/b`` for ``a``), and ``share``, its total as
    a fraction of the summed totals of the root paths (those without a
    ``/``): where the wall time of the logged work went.
    """
    stages: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.name != "span":
            continue
        path = str(event.attrs.get("path", event.attrs.get("span", "?")))
        seconds = float(event.attrs.get("seconds", 0.0))
        stage = stages.setdefault(
            path,
            {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0},
        )
        stage["count"] += 1
        stage["total_s"] += seconds
        stage["max_s"] = max(stage["max_s"], seconds)
        if event.attrs.get("status") not in (None, "ok"):
            stage["errors"] += 1
    for stage in stages.values():
        stage["mean_s"] = stage["total_s"] / stage["count"]
        stage["self_s"] = stage["total_s"]
    for path, stage in stages.items():
        parent, _, _ = path.rpartition("/")
        if parent in stages:
            stages[parent]["self_s"] -= stage["total_s"]
    roots = sum(
        stage["total_s"] for path, stage in stages.items() if "/" not in path
    )
    for stage in stages.values():
        stage["share"] = stage["total_s"] / roots if roots else 0.0
    return stages


def last_metrics_snapshot(
    events: Sequence[Event],
) -> Optional[Mapping[str, Any]]:
    """The attrs of the final ``metrics.snapshot`` event, if any."""
    for event in reversed(events):
        if event.name == "metrics.snapshot":
            return event.attrs
    return None


# ----------------------------------------------------------------------
# Trace reassembly
# ----------------------------------------------------------------------
#: Span-event attr keys that belong to the span schema itself; everything
#: else is a user attribute worth showing in the tree view.
_SPAN_SCHEMA_KEYS = frozenset(
    (
        "span",
        "path",
        "depth",
        "seconds",
        "rss_delta_kb",
        "status",
        "trace_id",
        "span_id",
        "parent_id",
    )
)


def trace_ids(events: Sequence[Event]) -> List[str]:
    """Distinct trace ids present in ``events``, in first-seen order."""
    seen: Dict[str, None] = {}
    for event in events:
        if event.name != "span":
            continue
        trace_id = event.attrs.get("trace_id")
        if trace_id and trace_id not in seen:
            seen[str(trace_id)] = None
    return list(seen)


def resolve_trace_id(events: Sequence[Event], wanted: str) -> str:
    """Resolve ``wanted`` (full id or unique prefix) to a full trace id."""
    available = trace_ids(events)
    if wanted in available:
        return wanted
    matches = [t for t in available if t.startswith(wanted)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        shown = "\n  ".join(available) if available else "(log has no trace ids)"
        raise ObservabilityError(
            f"trace {wanted!r} not found; available traces:\n  {shown}"
        )
    raise ObservabilityError(
        f"trace prefix {wanted!r} is ambiguous: {', '.join(matches)}"
    )


def build_trace_tree(
    events: Sequence[Event], trace_id: str
) -> List[Dict[str, Any]]:
    """Reassemble one trace's span tree from its ``span`` events.

    Returns the root nodes (spans whose parent is absent from the log —
    genuinely parentless, or parented to a span that ran in an un-logged
    process). Each node dict carries the span fields plus ``children``
    (sorted by start time) and ``extra`` (non-schema attrs such as
    ``shard`` or ``samples``).
    """
    trace_id = resolve_trace_id(events, trace_id)
    nodes: Dict[str, Dict[str, Any]] = {}
    ordered: List[Dict[str, Any]] = []
    for event in events:
        if event.name != "span" or event.attrs.get("trace_id") != trace_id:
            continue
        attrs = event.attrs
        node = {
            "name": str(attrs.get("span", "?")),
            "span_id": str(attrs.get("span_id", "")),
            "parent_id": str(attrs.get("parent_id", "")),
            "seconds": float(attrs.get("seconds", 0.0)),
            "status": str(attrs.get("status", "ok")),
            # JsonlSink stamps time_s at emit (span close); subtracting
            # the duration recovers the start for stable ordering.
            "start_s": float(event.time_s) - float(attrs.get("seconds", 0.0)),
            "extra": {
                k: v for k, v in attrs.items() if k not in _SPAN_SCHEMA_KEYS
            },
            "children": [],
        }
        ordered.append(node)
        if node["span_id"]:
            nodes[node["span_id"]] = node
    roots = []
    for node in ordered:
        parent = nodes.get(node["parent_id"]) if node["parent_id"] else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in ordered:
        node["children"].sort(key=lambda child: child["start_s"])
    roots.sort(key=lambda node: node["start_s"])
    return roots


def _format_trace_node(
    node: Mapping[str, Any], lines: List[str], indent: int
) -> None:
    extra = ""
    if node["extra"]:
        parts = ", ".join(
            f"{k}={node['extra'][k]}" for k in sorted(node["extra"])
        )
        extra = f"  ({parts})"
    status = "" if node["status"] == "ok" else f" [{node['status']}]"
    lines.append(
        f"{'  ' * indent}{node['name']}  {node['seconds'] * 1e3:.2f}ms"
        f"{status}{extra}"
    )
    for child in node["children"]:
        _format_trace_node(child, lines, indent + 1)


def format_trace(events: Sequence[Event], trace_id: str) -> str:
    """Human-readable tree view of one trace (``obs report --trace``)."""
    resolved = resolve_trace_id(events, trace_id)
    roots = build_trace_tree(events, resolved)
    count = sum(_count_nodes(root) for root in roots)
    lines = [f"trace {resolved}: {count} spans"]
    for root in roots:
        _format_trace_node(root, lines, indent=1)
    return "\n".join(lines)


def _count_nodes(node: Mapping[str, Any]) -> int:
    return 1 + sum(_count_nodes(child) for child in node["children"])


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def _rows_to_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_report(events: Sequence[Event], title: str = "run log") -> str:
    """Render the full human-readable report for ``events``."""
    lines: List[str] = []
    if not events:
        return f"{title}: empty run log"
    wall = events[-1].time_s - events[0].time_s
    lines.append(
        f"{title}: {len(events)} events over {wall:.2f}s wall-clock"
    )

    census: Dict[str, int] = {}
    for event in events:
        census[event.name] = census.get(event.name, 0) + 1
    lines.append("")
    lines.append("Events:")
    lines.append(
        _rows_to_table(
            ("name", "count"),
            [(name, census[name]) for name in sorted(census)],
        )
    )

    traces = trace_ids(events)
    if traces:
        lines.append("")
        lines.append(
            f"Traces: {len(traces)} trace ids (inspect with "
            f"obs report --trace <id>; first: {traces[0]})"
        )

    stages = summarize_spans(events)
    if stages:
        lines.append("")
        lines.append("Stage timings (spans):")
        rows = [
            (
                path,
                stage["count"],
                f"{stage['total_s']:.3f}",
                f"{stage['self_s']:.3f}",
                f"{stage['share']:.1%}",
                f"{stage['mean_s']:.4f}",
                f"{stage['max_s']:.4f}",
                stage["errors"],
            )
            for path, stage in sorted(
                stages.items(), key=lambda item: -item[1]["total_s"]
            )
        ]
        lines.append(
            _rows_to_table(
                (
                    "stage",
                    "count",
                    "total_s",
                    "self_s",
                    "share",
                    "mean_s",
                    "max_s",
                    "errors",
                ),
                rows,
            )
        )

    snapshot = last_metrics_snapshot(events)
    if snapshot:
        counters = snapshot.get("counters", {})
        if counters:
            lines.append("")
            lines.append("Counters:")
            lines.append(
                _rows_to_table(
                    ("name", "value"),
                    [(k, counters[k]) for k in sorted(counters)],
                )
            )
        gauges = snapshot.get("gauges", {})
        if gauges:
            lines.append("")
            lines.append("Gauges:")
            lines.append(
                _rows_to_table(
                    ("name", "value"),
                    [(k, f"{float(gauges[k]):.4g}") for k in sorted(gauges)],
                )
            )
        histograms = snapshot.get("histograms", {})
        if histograms:
            lines.append("")
            lines.append("Histograms:")
            rows = []
            for name in sorted(histograms):
                h = histograms[name]
                rows.append(
                    (
                        name,
                        int(h.get("count", 0)),
                        f"{float(h.get('total', 0.0)):.3f}",
                        f"{float(h.get('p50', 0.0)):.4f}",
                        f"{float(h.get('p95', 0.0)):.4f}",
                        f"{float(h.get('max', 0.0)):.4f}",
                    )
                )
            lines.append(
                _rows_to_table(
                    ("name", "count", "total", "p50", "p95", "max"), rows
                )
            )
    return "\n".join(lines)


def report_from_file(path: PathLike, trace: Optional[str] = None) -> str:
    """Load ``path`` and render its report (the CLI entry point).

    With ``trace`` set, renders that trace's span tree instead of the
    aggregate report (``obs report RUN.jsonl --trace <id-or-prefix>``).
    """
    events = load_run_log(path)
    if trace:
        return format_trace(events, trace)
    return format_report(events, title=str(path))
