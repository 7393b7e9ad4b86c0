"""Tests for span nesting, exception safety and registry coupling."""

import sys

import pytest

from repro.obs import current_span, span
from repro.obs.tracing import rss_kb


class TestNesting:
    def test_children_attach_to_parent(self, captured_events, fresh_registry):
        with span("scan") as outer:
            with span("scan.grid") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        assert outer.children == [inner]
        assert inner.path == "scan/scan.grid"
        assert inner.depth == 1
        assert outer.depth == 0

    def test_durations_positive_and_nested(
        self, captured_events, fresh_registry
    ):
        with span("outer") as outer:
            with span("inner") as inner:
                sum(range(1000))
        assert inner.duration_s > 0.0
        assert outer.duration_s >= inner.duration_s

    def test_events_emitted_innermost_first(
        self, captured_events, fresh_registry
    ):
        with span("outer"):
            with span("inner"):
                pass
        spans = [e for e in captured_events.events if e.name == "span"]
        assert [e.attrs["span"] for e in spans] == ["inner", "outer"]
        assert all(e.level == "debug" for e in spans)
        assert spans[0].attrs["path"] == "outer/inner"
        assert spans[1].attrs["status"] == "ok"

    def test_attrs_ride_on_record_and_event(
        self, captured_events, fresh_registry
    ):
        with span("scan.grid", tiles=9) as record:
            record.attrs["grid_shape"] = (3, 3, 8)
        event = captured_events.events[-1]
        assert event.attrs["tiles"] == 9
        assert event.attrs["grid_shape"] == (3, 3, 8)

    def test_tree_rendering(self, captured_events, fresh_registry):
        with span("outer") as outer:
            with span("inner"):
                pass
        text = outer.tree()
        assert text.splitlines()[0].startswith("outer:")
        assert text.splitlines()[1].startswith("  inner:")


class TestExceptionSafety:
    def test_exception_propagates_with_error_status(
        self, captured_events, fresh_registry
    ):
        with pytest.raises(ValueError):
            with span("boom") as record:
                raise ValueError("nope")
        assert record.status == "error"
        assert record.duration_s >= 0.0
        event = captured_events.events[-1]
        assert event.attrs["status"] == "error"

    def test_stack_unwinds_after_exception(
        self, captured_events, fresh_registry
    ):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError
        assert current_span() is None
        # The stack is clean: a fresh span starts at depth 0.
        with span("after") as record:
            pass
        assert record.depth == 0 and record.path == "after"


class TestRegistryCoupling:
    def test_duration_lands_in_span_histogram(
        self, captured_events, fresh_registry
    ):
        with span("scan.merge"):
            pass
        histogram = fresh_registry.histogram("span.scan.merge.seconds")
        assert histogram.count == 1

    def test_explicit_bus_and_registry(self):
        from repro.obs import EventBus, MemorySink, MetricsRegistry

        bus = EventBus()
        sink = bus.attach(MemorySink())
        registry = MetricsRegistry()
        with span("x", bus=bus, registry=registry):
            pass
        assert sink.names() == ["span"]
        assert registry.histogram("span.x.seconds").count == 1


def test_rss_kb_non_negative():
    assert rss_kb() >= 0


def _vm_rss_kb():
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
def test_rss_kb_agrees_with_vm_rss():
    """statm's resident pages are the VmRSS of /proc/self/status; the
    bracket allows for pages the reads themselves touch."""
    before = _vm_rss_kb()
    value = rss_kb()
    after = _vm_rss_kb()
    assert min(before, after) - 256 <= value <= max(before, after) + 256
