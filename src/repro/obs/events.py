"""Event primitives and the thread-local :class:`Tracer`.

The observability layer is zero-dependency and deliberately small: three
event kinds cover what a paging system is judged on — *where the time goes*
(spans), *how much work happened* (counters), and *how outcomes distribute*
(histograms; production paging lives and dies on the distribution of
rounds-to-find and cells paged, not just the mean EP of Lemma 2.1).

Event schema (``repro-trace/1``) — one JSON object per event::

    {"event": "meta",      "schema": "repro-trace/1", "created": "..."}
    {"event": "span",      "name": "core.heuristic", "elapsed_s": 0.018,
     "attrs": {"cells": 250, "devices": 4, "rounds": 5}}
    {"event": "counter",   "name": "batch.trials", "value": 100000}
    {"event": "histogram", "name": "cellnet.rounds_to_find",
     "counts": {"1": 52, "2": 30, "3": 18}}

Spans are emitted as they finish; counters and histograms are aggregated
inside the tracer and emitted by :meth:`Tracer.flush` (so a 100k-trial
Monte-Carlo run writes one histogram event, not 100k).

A :class:`Tracer` wraps a sink (:mod:`repro.obs.sinks`).  The *active*
tracer is thread-local; instrumented code asks :func:`current_tracer` and
checks ``tracer.enabled`` before building any event.  A thread with no
tracer installed reads a class-level default, the disabled tracer, so in
the default :class:`~repro.obs.sinks.NullSink` configuration a
:func:`current_tracer` site costs a thread-local attribute read and one
branch.  The helpers of :mod:`repro.obs.instrument` first read a global
count of installed enabled tracers, so while no thread traces a disabled
:func:`~repro.obs.instrument.count` runs within 2x of an empty
two-argument function (docs/performance.md, "Observability overhead").
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .sinks import NullSink, Sink

SCHEMA = "repro-trace/1"


class _Span:
    """A running span; created by :meth:`Tracer.span`, emits on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._tracer.emit(
            {
                "event": "span",
                "name": self.name,
                "elapsed_s": elapsed,
                "attrs": self.attrs,
            }
        )


class _NullContext:
    """Reentrant, reusable no-op context manager (the disabled-span path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects events for one sink; aggregate state lives here.

    ``enabled`` mirrors the sink's flag: a tracer over a
    :class:`~repro.obs.sinks.NullSink` reports ``False`` and every method
    short-circuits, which is what keeps default-mode overhead negligible.
    """

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self.sink: Sink = NullSink() if sink is None else sink
        self.enabled: bool = self.sink.enabled
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Dict[int, int]] = {}
        if self.enabled:
            self.sink.write(
                {
                    "event": "meta",
                    "schema": SCHEMA,
                    "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                }
            )

    # -- primitives ----------------------------------------------------
    def span(self, name: str, **attrs: object) -> object:
        """A context manager timing one phase; no-op when disabled."""
        if not self.enabled:
            return NULL_CONTEXT
        return _Span(self, name, attrs)

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named counter."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def observe(self, name: str, value: int, count: int = 1) -> None:
        """Add ``count`` occurrences of integer ``value`` to a histogram."""
        if not self.enabled:
            return
        bucket = self._histograms.setdefault(name, {})
        key = int(value)
        bucket[key] = bucket.get(key, 0) + int(count)

    def emit(self, event: Dict[str, object]) -> None:
        """Write one finished event straight to the sink."""
        if self.enabled:
            self.sink.write(event)

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        """Emit aggregated counters/histograms and flush the sink."""
        if not self.enabled:
            return
        for name in sorted(self._counters):
            self.sink.write(
                {"event": "counter", "name": name, "value": self._counters[name]}
            )
        self._counters.clear()
        for name in sorted(self._histograms):
            counts = self._histograms[name]
            self.sink.write(
                {
                    "event": "histogram",
                    "name": name,
                    "counts": {str(k): counts[k] for k in sorted(counts)},
                }
            )
        self._histograms.clear()
        self.sink.flush()

    def close(self) -> None:
        """Flush aggregates and close the sink."""
        self.flush()
        self.sink.close()


#: The process-wide fallback: tracing disabled.
_NULL_TRACER = Tracer(NullSink())

class _Local(threading.local):
    """Per-thread tracer slot.

    The class-level default means a thread that never installed a tracer
    reads the disabled one as a plain attribute, instead of raising and
    catching an ``AttributeError`` on every lookup.
    """

    tracer: Tracer = _NULL_TRACER


_ACTIVE = _Local()

#: ``[n]``: how many enabled tracers are installed, over all threads.  While
#: ``n`` is 0 no thread traces, so the helpers of :mod:`repro.obs.instrument`
#: return after one global read.  A thread that exits with a tracer installed
#: leaves ``n`` above 0; the helpers then read the thread-local slot, which is
#: slower but still right.
_LIVE = [0]
_LIVE_LOCK = threading.Lock()


def _install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` this thread's active tracer; return the one it replaced."""
    previous = _ACTIVE.tracer
    with _LIVE_LOCK:
        _LIVE[0] += int(tracer.enabled) - int(previous.enabled)
        _ACTIVE.tracer = tracer
    return previous


def current_tracer() -> Tracer:
    """The thread's active tracer (a disabled one when none is installed)."""
    return _ACTIVE.tracer


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` as this thread's active tracer (None resets)."""
    _install(_NULL_TRACER if tracer is None else tracer)


@contextmanager
def use_tracer(tracer: Tracer, *, close: bool = True) -> Iterator[Tracer]:
    """Make ``tracer`` active for the block; restore (and close) after."""
    previous = _install(tracer)
    try:
        yield tracer
    finally:
        _install(previous)
        if close:
            tracer.close()
