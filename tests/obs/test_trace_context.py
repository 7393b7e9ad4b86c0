"""Trace identity: ids, parent links, W3C headers, cross-context hops."""

import threading

import pytest

from repro.obs import span
from repro.obs.tracing import (
    TraceContext,
    current_trace,
    emit_span,
    format_traceparent,
    parse_traceparent,
    use_trace,
)

HEX = set("0123456789abcdef")


def _span_events(sink):
    return [e for e in sink.events if e.name == "span"]


class TestIds:
    def test_root_span_gets_fresh_trace(self, captured_events, fresh_registry):
        with span("root") as record:
            pass
        assert len(record.trace_id) == 32 and set(record.trace_id) <= HEX
        assert len(record.span_id) == 16 and set(record.span_id) <= HEX
        assert record.parent_id == ""

    def test_children_inherit_trace_and_link_parent(
        self, captured_events, fresh_registry
    ):
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_sibling_roots_get_distinct_traces(
        self, captured_events, fresh_registry
    ):
        with span("first") as first:
            pass
        with span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_ids_ride_on_span_events(self, captured_events, fresh_registry):
        with span("outer"):
            with span("inner"):
                pass
        inner_event, outer_event = _span_events(captured_events)
        assert inner_event.attrs["trace_id"] == outer_event.attrs["trace_id"]
        assert inner_event.attrs["parent_id"] == outer_event.attrs["span_id"]


class TestTraceparent:
    def test_round_trip(self):
        context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        header = format_traceparent(context)
        assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
        assert parse_traceparent(header) == context

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-deadbeefdeadbeef-01",
            f"ff-{'ab' * 16}-{'cd' * 8}-01",  # forbidden version
            f"00-{'0' * 32}-{'cd' * 8}-01",  # all-zero trace id
            f"00-{'ab' * 16}-{'0' * 16}-01",  # all-zero span id
        ],
    )
    def test_invalid_headers_drop_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_header_case_and_whitespace_tolerated(self):
        context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        assert parse_traceparent(header) == context


class TestAmbient:
    def test_use_trace_parents_root_spans(
        self, captured_events, fresh_registry
    ):
        remote = TraceContext(trace_id="12" * 16, span_id="34" * 8)
        with use_trace(remote):
            with span("handler") as record:
                pass
        assert record.trace_id == remote.trace_id
        assert record.parent_id == remote.span_id

    def test_use_trace_none_is_a_noop(self, captured_events, fresh_registry):
        with use_trace(None):
            with span("root") as record:
                pass
        assert record.parent_id == ""

    def test_inner_span_beats_ambient(self, captured_events, fresh_registry):
        remote = TraceContext(trace_id="12" * 16, span_id="34" * 8)
        with use_trace(remote):
            with span("outer") as outer:
                assert current_trace() == outer.context()

    def test_cross_thread_hop(self, captured_events, fresh_registry):
        records = []

        def worker(context):
            with use_trace(context):
                with span("worker.stage") as record:
                    records.append(record)

        with span("parent") as parent:
            thread = threading.Thread(target=worker, args=(current_trace(),))
            thread.start()
            thread.join()
        assert records[0].trace_id == parent.trace_id
        assert records[0].parent_id == parent.span_id

    def test_thread_without_context_starts_fresh(
        self, captured_events, fresh_registry
    ):
        records = []

        def worker():
            with span("orphan") as record:
                records.append(record)

        with span("parent") as parent:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert records[0].trace_id != parent.trace_id
        assert records[0].parent_id == ""


class TestEmitSpan:
    def test_retroactive_span_joins_parent(
        self, captured_events, fresh_registry
    ):
        parent = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        record = emit_span("queue.wait", 0.25, parent=parent, start_s=123.0)
        assert record.trace_id == parent.trace_id
        assert record.parent_id == parent.span_id
        assert record.duration_s == 0.25
        event = _span_events(captured_events)[-1]
        assert event.attrs["span"] == "queue.wait"
        assert event.attrs["seconds"] == 0.25
        hist = fresh_registry.histogram("span.queue.wait.seconds")
        assert hist.count == 1

    def test_observe_false_skips_histogram(
        self, captured_events, fresh_registry
    ):
        emit_span("quiet.stage", 0.1, observe=False)
        assert fresh_registry.histogram("span.quiet.stage.seconds").count == 0
        assert _span_events(captured_events)
