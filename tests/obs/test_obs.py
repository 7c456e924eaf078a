"""Unit tests for ``repro.obs``: sinks, tracer, instrumentation, reports."""

import json
import sys
import threading

import pytest

from repro.obs import (
    SCHEMA,
    JsonlSink,
    MemorySink,
    NullSink,
    Tracer,
    count,
    current_tracer,
    load_events,
    observe,
    render,
    set_tracer,
    span,
    summarize,
    to_json,
    traced,
    tracing,
    use_tracer,
)


def traced_events(sink):
    """Split a MemorySink's events by kind, dropping the meta header."""
    kinds = {}
    for event in sink.events:
        kinds.setdefault(event["event"], []).append(event)
    return kinds


class TestSinks:
    def test_null_sink_is_disabled(self):
        assert NullSink.enabled is False
        assert Tracer(NullSink()).enabled is False

    def test_memory_sink_buffers(self):
        sink = MemorySink()
        sink.write({"event": "counter", "name": "x", "value": 1})
        assert sink.events[-1]["name"] == "x"

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write({"event": "counter", "name": "x", "value": 3})
        sink.close()
        assert load_events(path) == [{"event": "counter", "name": "x", "value": 3}]

    def test_jsonl_sink_created_eagerly_and_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        assert path.exists()  # empty trace file even before any event
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.write({"event": "counter", "name": "x", "value": 1})


class TestTracer:
    def test_meta_header_written_first(self):
        sink = MemorySink()
        Tracer(sink)
        assert sink.events[0]["event"] == "meta"
        assert sink.events[0]["schema"] == SCHEMA

    def test_span_emits_elapsed_and_attrs(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("phase.one", cells=12):
            pass
        event = sink.events[-1]
        assert event["event"] == "span"
        assert event["name"] == "phase.one"
        assert event["elapsed_s"] >= 0.0
        assert event["attrs"] == {"cells": 12}

    def test_counters_and_histograms_aggregate_until_flush(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.count("calls")
        tracer.count("calls", 2)
        tracer.observe("rounds", 1)
        tracer.observe("rounds", 1)
        tracer.observe("rounds", 3)
        assert traced_events(sink) == {"meta": sink.events[:1]}  # nothing yet
        tracer.flush()
        kinds = traced_events(sink)
        assert kinds["counter"] == [{"event": "counter", "name": "calls", "value": 3}]
        assert kinds["histogram"][0]["counts"] == {"1": 2, "3": 1}

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer()  # defaults to NullSink
        with tracer.span("x"):
            tracer.count("c")
            tracer.observe("h", 1)
        tracer.flush()
        tracer.close()  # must not raise


class TestActiveTracer:
    def test_default_is_disabled(self):
        assert current_tracer().enabled is False

    def test_use_tracer_restores_previous(self):
        outer = Tracer(MemorySink())
        inner = Tracer(MemorySink())
        with use_tracer(outer, close=False):
            assert current_tracer() is outer
            with use_tracer(inner, close=False):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer().enabled is False

    def test_set_tracer_none_resets(self):
        tracer = Tracer(MemorySink())
        set_tracer(tracer)
        assert current_tracer() is tracer
        set_tracer(None)
        assert current_tracer().enabled is False

    def test_thread_local_isolation(self):
        tracer = Tracer(MemorySink())
        seen = []

        def probe():
            seen.append(current_tracer().enabled)

        with use_tracer(tracer, close=False):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == [False]  # other threads never see this tracer


class TestDisabledFastPath:
    """No installed tracer: every thread reads the one disabled default."""

    def test_fresh_thread_sees_the_null_tracer(self):
        default = current_tracer()
        seen = []
        with use_tracer(Tracer(MemorySink()), close=False):
            worker = threading.Thread(target=lambda: seen.append(current_tracer()))
            worker.start()
            worker.join()
        assert seen == [default]
        assert default.enabled is False

    def test_nested_use_tracer_restores_the_outer_tracer(self):
        outer = Tracer(MemorySink())
        inner = Tracer(MemorySink())
        set_tracer(outer)
        try:
            with use_tracer(inner, close=False):
                with use_tracer(Tracer(MemorySink()), close=False):
                    count("deep")
                assert current_tracer() is inner
                count("inner")
            assert current_tracer() is outer
            count("outer")
        finally:
            set_tracer(None)
        assert inner._counters == {"inner": 1}
        assert outer._counters == {"outer": 1}

    def test_set_tracer_none_resets_to_the_default(self):
        default = current_tracer()
        tracer = Tracer(MemorySink())
        set_tracer(tracer)
        set_tracer(None)
        assert current_tracer() is default
        count("dropped")
        assert tracer._counters == {}

    def test_helpers_see_a_tracer_installed_after_another_thread_dropped_one(self):
        def install_and_drop():
            set_tracer(Tracer(MemorySink()))
            set_tracer(None)

        worker = threading.Thread(target=install_and_drop)
        worker.start()
        worker.join()
        tracer = Tracer(MemorySink())
        with use_tracer(tracer, close=False):
            count("seen", 2)
            observe("hist", 3)
        assert tracer._counters == {"seen": 2}
        assert tracer._histograms == {"hist": {3: 1}}

    def test_live_count_holds_under_concurrent_installs(self):
        # Threads install and drop tracers at once; a lost update on the
        # shared count of enabled tracers would leave it off its start.
        from repro.obs import events

        start = events._LIVE[0]

        def churn():
            for _ in range(300):
                with use_tracer(Tracer(MemorySink()), close=False):
                    set_tracer(Tracer(MemorySink()))
                set_tracer(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert events._LIVE[0] == start

    def test_a_tracer_on_another_thread_does_not_enable_this_one(self):
        started = threading.Event()
        release = threading.Event()
        tracer = Tracer(MemorySink())

        def hold():
            with use_tracer(tracer, close=False):
                started.set()
                release.wait(5)

        worker = threading.Thread(target=hold)
        worker.start()
        started.wait(5)
        try:
            count("here")
            with span("here"):
                pass
            assert current_tracer().enabled is False
        finally:
            release.set()
            worker.join()
        assert tracer._counters == {}
        assert tracer.sink.events[1:] == []


class TestInstrumentHelpers:
    def test_module_level_span_count_observe(self):
        sink = MemorySink()
        with tracing(sink):
            with span("demo.phase", size=2):
                count("demo.calls")
                observe("demo.rounds", 2)
        summary = summarize(sink.events)
        assert summary.spans["demo.phase"].count == 1
        assert summary.counters == {"demo.calls": 1}
        assert summary.histograms == {"demo.rounds": {2: 1}}

    def test_helpers_are_noops_without_tracer(self):
        with span("demo.phase"):
            count("demo.calls")
            observe("demo.rounds", 1)  # must not raise or leak state

    def test_traced_decorator(self):
        calls = []

        @traced("demo.fn")
        def function(value):
            calls.append(value)
            return value * 2

        assert function(3) == 6  # no tracer: plain call
        sink = MemorySink()
        with tracing(sink):
            assert function(4) == 8
        assert calls == [3, 4]
        assert summarize(sink.events).spans["demo.fn"].count == 1

    def test_tracing_accepts_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(path):
            count("demo.calls", 5)
        summary = summarize(load_events(path))
        assert summary.counters == {"demo.calls": 5}

    def test_tracing_default_memory_sink(self):
        with tracing(close=False) as tracer:
            count("demo.calls")
            tracer.flush()
        assert summarize(tracer.sink.events).counters == {"demo.calls": 1}


class TestReport:
    def _summary(self):
        sink = MemorySink()
        with tracing(sink):
            with span("a.slow"):
                pass
            with span("a.slow"):
                pass
            count("calls", 7)
            observe("rounds", 1, 3)
            observe("rounds", 2)
        return summarize(sink.events)

    def test_summarize_aggregates(self):
        summary = self._summary()
        assert summary.schema == SCHEMA
        assert summary.spans["a.slow"].count == 2
        assert summary.spans["a.slow"].total_s >= summary.spans["a.slow"].max_s
        assert summary.counters == {"calls": 7}
        assert summary.histograms == {"rounds": {1: 3, 2: 1}}
        assert summary.problems == []

    def test_render_sections(self):
        text = render(self._summary())
        assert text.startswith("trace summary")
        assert "a.slow" in text
        assert "calls" in text
        assert "histogram rounds:" in text
        assert "mean 1.250 over 4 observations" in text

    def test_to_json_roundtrips_through_json(self):
        payload = json.loads(json.dumps(to_json(self._summary())))
        assert payload["spans"]["a.slow"]["count"] == 2
        assert payload["histograms"]["rounds"] == {"1": 3, "2": 1}

    def test_summarize_flags_problems(self):
        summary = summarize(
            [
                {"event": "meta", "schema": "other/9", "created": "x"},
                {"event": "mystery"},
                {"event": "histogram", "name": "h"},
            ]
        )
        assert len(summary.problems) == 3

    def test_load_events_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_events(path)


class TestInstrumentedHotPaths:
    """The library's built-in spans/counters actually fire."""

    def _instance(self):
        import numpy as np

        from repro import PagingInstance

        rng = np.random.default_rng(0)
        return PagingInstance.from_array(
            rng.dirichlet(np.ones(6), size=2), max_rounds=2
        )

    def test_planner_spans(self):
        from repro import conference_call_heuristic, optimal_strategy

        sink = MemorySink()
        instance = self._instance()
        with tracing(sink):
            conference_call_heuristic(instance)
            optimal_strategy(instance)
        summary = summarize(sink.events)
        for name in ("core.heuristic", "core.dp", "core.exact"):
            assert summary.spans[name].count == 1, name

    def test_batch_kernel_histograms(self):
        import numpy as np

        from repro import conference_call_heuristic
        from repro.core import expected_paging_monte_carlo_fast

        instance = self._instance()
        strategy = conference_call_heuristic(instance).strategy
        sink = MemorySink()
        with tracing(sink):
            expected_paging_monte_carlo_fast(
                instance,
                strategy,
                trials=500,
                rng=np.random.default_rng(1),
            )
        summary = summarize(sink.events)
        assert summary.spans["batch.monte_carlo"].count == 1
        assert summary.counters["batch.trials"] == 500
        assert sum(summary.histograms["batch.rounds_to_find"].values()) == 500
