"""Sinks: where trace events go.

A sink receives finished event dictionaries (the ``repro-trace/1`` schema of
:mod:`repro.obs.events`) and persists, buffers, or discards them:

* :class:`NullSink` — the default; drops everything.  Instrumented code pays
  only an ``enabled`` check, which keeps the measured overhead of tracing
  below the 5% budget recorded in docs/performance.md.
* :class:`MemorySink` — buffers events in a list; what the test suite and
  programmatic consumers use.
* :class:`JsonlSink` — appends one JSON object per line to a file (the
  ``trace.jsonl`` format the CLI's ``--trace`` flag and ``repro trace``
  read).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Dict, List, Optional, Union


class Sink:
    """Base class.  Subclasses override :meth:`write` (and maybe more)."""

    #: Tracers consult this once per instrumentation site: ``False`` means
    #: events are never built, so the null path stays allocation-free.
    enabled: bool = True

    def write(self, event: Dict[str, object]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events towards durable storage (no-op by default)."""

    def close(self) -> None:
        """Release resources; the sink must not be written to afterwards."""


class NullSink(Sink):
    """Discards every event; the zero-overhead default."""

    enabled = False

    def write(self, event: Dict[str, object]) -> None:  # pragma: no cover
        pass


class MemorySink(Sink):
    """Buffers events in memory (``sink.events``)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        self.events.append(event)


class JsonlSink(Sink):
    """Appends events as JSON Lines to ``path`` (created eagerly).

    The file handle is opened on construction so a traced run that emits no
    events still leaves an (empty) trace file — an empty trace is a
    statement, a missing one is a configuration error.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = self.path.open("w")

    def write(self, event: Dict[str, object]) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._handle.write(json.dumps(event, default=str) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
