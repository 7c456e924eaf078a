"""repro.obs — the zero-dependency observability layer.

Structured events (spans, counters, histograms), pluggable sinks, and a
trace-file report, threaded through the planners, batch kernels, experiment
runner, and cellular simulator.  See docs/observability.md for the event
schema, sink selection, and the measured null-sink overhead.

Typical use::

    from repro.obs import tracing

    with tracing("run.jsonl"):
        run_experiments(["E2", "E13"])
    # then:  repro trace run.jsonl

or from the shell: ``repro --trace run.jsonl experiments E2 E13``.
"""

from __future__ import annotations

from .events import (
    SCHEMA,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)
from .instrument import count, observe, span, traced, tracing
from .report import TraceSummary, load_events, render, summarize, to_json
from .sinks import JsonlSink, MemorySink, NullSink, Sink

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "SCHEMA",
    "Sink",
    "TraceSummary",
    "Tracer",
    "count",
    "current_tracer",
    "load_events",
    "observe",
    "render",
    "set_tracer",
    "span",
    "summarize",
    "to_json",
    "traced",
    "tracing",
    "use_tracer",
]
