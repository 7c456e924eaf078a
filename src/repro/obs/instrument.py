"""Instrumentation helpers: the API the rest of the package calls.

Three module-level functions mirror the :class:`~repro.obs.events.Tracer`
primitives against whatever tracer is currently active, and a decorator
wraps whole functions:

* :func:`span` — ``with span("core.dp", cells=c): ...``
* :func:`count` / :func:`observe` — counters and integer histograms
* :func:`traced` — ``@traced("core.exact")`` decorator
* :func:`tracing` — install a tracer for a block:
  ``with tracing("run.jsonl"): ...`` (path → JSONL, ``None`` → in-memory)

All of them resolve the active tracer at call time and short-circuit when
it is disabled.  :func:`span`, :func:`count` and :func:`observe` first read
a global count of enabled tracers installed on any thread, so while none is
installed (the default, null-sink configuration) a call costs about one
empty function call: a disabled :func:`count` measures within 2x of an
empty two-argument function under ``timeit`` (docs/performance.md,
"Observability overhead").  With a tracer installed on some thread they
read the thread-local slot as well.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

from .events import _ACTIVE, _LIVE, NULL_CONTEXT, Tracer, use_tracer
from .sinks import JsonlSink, MemorySink, Sink

_F = TypeVar("_F", bound=Callable[..., object])


def span(name: str, **attrs: object) -> object:
    """Context manager timing one phase under the active tracer."""
    if not _LIVE[0]:
        return NULL_CONTEXT
    tracer = _ACTIVE.tracer
    if not tracer.enabled:
        return NULL_CONTEXT
    return tracer.span(name, **attrs)


def count(name: str, value: int = 1) -> None:
    """Add ``value`` to the named counter of the active tracer."""
    if _LIVE[0]:
        tracer = _ACTIVE.tracer
        if tracer.enabled:
            tracer.count(name, value)


def observe(name: str, value: int, n: int = 1) -> None:
    """Record ``n`` occurrences of ``value`` in the named histogram."""
    if _LIVE[0]:
        tracer = _ACTIVE.tracer
        if tracer.enabled:
            tracer.observe(name, value, n)


def traced(name: str, **attrs: object) -> Callable[[_F], _F]:
    """Decorator: run the function inside a :func:`span` of ``name``.

    The no-trace fast path adds one thread-local read and one branch —
    cheap enough for per-call planner instrumentation, though hand-placed
    :func:`span` blocks are preferred where per-instance attributes
    (cells, devices, trials) are worth recording.
    """

    def decorate(function: _F) -> _F:
        @functools.wraps(function)
        def wrapper(*args: object, **kwargs: object) -> object:
            tracer = _ACTIVE.tracer
            if not tracer.enabled:
                return function(*args, **kwargs)
            with tracer.span(name, **attrs):
                return function(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def tracing(
    target: Optional[Union[str, Path, Sink]] = None, *, close: bool = True
) -> object:
    """Activate tracing for a block: ``with tracing("out.jsonl") as t:``.

    ``target`` may be a path (JSONL sink), an existing
    :class:`~repro.obs.sinks.Sink`, or ``None`` for an in-memory sink
    (inspect ``t.sink.events`` afterwards — pass ``close=False`` if you
    read them after the block).
    """
    if target is None:
        sink: Sink = MemorySink()
    elif isinstance(target, Sink):
        sink = target
    else:
        sink = JsonlSink(target)
    return use_tracer(Tracer(sink), close=close)
