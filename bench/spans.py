"""Layer attribution from outside the program.

The benchmark never edits the code it measures.  To say which layer a
run's time went to, it replaces chosen public functions with wrappers for
the length of one traced run and puts the originals back afterwards.

Each wrapper opens a span on a shared stack, calls the original, and on
return charges the span to the ``(parent layer, layer)`` edge: one call,
its duration, and its self time (duration minus the time its child spans
cover).  Only the aggregates and a bounded sample of raw spans are kept,
in memory, until the run ends.

A wrapper costs time of its own, and that cost lands partly inside the
span (between the clock reads and the wrapped call) and partly in the
enclosing span (everything outside the clock reads).  :func:`calibrate`
measures both parts on a wrapped no-op; :class:`Tracer` subtracts the
inside part from each span's self time and the outside part from the
enclosing span's, so a layer with many cheap calls is not blamed for the
tracer.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

CLOCK = time.perf_counter

#: Raw spans kept for the trace file; aggregates are always complete.
SPAN_SAMPLE_LIMIT = 20_000

#: ``observe(tracer, args, kwargs)`` runs before the wrapped call, with
#: its own time excluded from every span.
Observer = Callable[["Tracer", tuple, dict], None]


@dataclass(frozen=True)
class Hook:
    """One public entry point charged to a layer.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside ``module``;
    a trailing ``*`` (``"Class.record_*"``) expands to every matching
    function of the class that no earlier hook already covers.
    """

    layer: str
    module: str
    qualname: str
    observe: Optional[Observer] = None

    @property
    def id(self) -> str:
        return f"{self.module}:{self.qualname}"


@dataclass(frozen=True)
class WrapperCost:
    """Per-call tracer cost, split by where it lands."""

    inside_s: float = 0.0
    outside_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.inside_s + self.outside_s


class Tracer:
    """A span stack plus per-edge aggregates for one traced run."""

    def __init__(self, root_layer: str, cost: WrapperCost = WrapperCost()) -> None:
        self.root_layer = root_layer
        self.cost = cost
        # A frame is [layer, time covered by children, span id].
        self.root: List[Any] = [root_layer, 0.0, 0]
        self.stack: List[List[Any]] = [self.root]
        self.counters: Dict[str, float] = defaultdict(float)
        self.seen: Dict[str, set] = defaultdict(set)
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.root_s = 0.0
        # Per wrapper: its layer and {parent layer: [calls, total s, self s]};
        # per hook id: a one-element call counter.  Both are kept in forms
        # a wrapper can update without allocating.
        self._edges_by_layer: List[Tuple[str, Dict[str, List[float]]]] = []
        self._hook_counts: Dict[str, List[int]] = {}
        self._ids = itertools.count(1)

    @property
    def edges(self) -> Dict[Tuple[str, str], List[float]]:
        """(parent layer, layer) -> [calls, total seconds, corrected self seconds]."""
        merged: Dict[Tuple[str, str], List[float]] = {}
        for layer, by_parent in self._edges_by_layer:
            for parent, (calls, total, self_s) in by_parent.items():
                edge = merged.setdefault((parent, layer), [0, 0.0, 0.0])
                edge[0] += calls
                edge[1] += total
                edge[2] += self_s
        return merged

    @property
    def hook_calls(self) -> Dict[str, int]:
        return {hook: cell[0] for hook, cell in self._hook_counts.items()}

    def wrap(
        self,
        layer: str,
        hook_id: str,
        fn: Callable[..., Any],
        observe: Optional[Observer] = None,
    ) -> Callable[..., Any]:
        """A stand-in for ``fn`` that records one span per call."""
        stack = self.stack
        by_parent: Dict[str, List[float]] = {}
        self._edges_by_layer.append((layer, by_parent))
        count = self._hook_counts.setdefault(hook_id, [0])
        ids = self._ids
        spans = self.spans
        inside = self.cost.inside_s
        outside = self.cost.outside_s
        clock = CLOCK
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if observe is not None:
                started = clock()
                observe(tracer, args, kwargs)
                parent[1] += clock() - started
            frame = [layer, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration + outside
                edge = by_parent.get(parent[0])
                if edge is None:
                    edge = by_parent[parent[0]] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1] - inside
                count[0] += 1
                if len(spans) < SPAN_SAMPLE_LIMIT:
                    spans.append((frame[2], parent[2], layer, hook_id, start, duration))

        return wrapper

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as the root span and record its wall time."""
        if len(self.stack) != 1:
            raise RuntimeError("Tracer.run is not re-entrant")
        start = CLOCK()
        try:
            return fn()
        finally:
            self.root_s = CLOCK() - start

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Calls and corrected self seconds per layer, root included."""
        totals: Dict[str, Dict[str, float]] = {
            self.root_layer: {"calls": 1.0, "self_s": self.root_s - self.root[1]}
        }
        for (_, layer), (calls, _, self_s) in self.edges.items():
            entry = totals.setdefault(layer, {"calls": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
        return totals

    def to_json(self) -> Dict[str, Any]:
        origin = self.spans[0][4] if self.spans else 0.0
        return {
            "root_layer": self.root_layer,
            "root_s": self.root_s,
            "wrapper_cost": {
                "inside_s": self.cost.inside_s,
                "outside_s": self.cost.outside_s,
            },
            "layers": self.layer_totals(),
            "edges": [
                {"parent": parent, "layer": layer, "calls": int(calls),
                 "total_s": total, "self_s": self_s}
                for (parent, layer), (calls, total, self_s) in sorted(self.edges.items())
            ],
            "hook_calls": dict(sorted(self.hook_calls.items())),
            "counters": dict(sorted(self.counters.items())),
            "spans": {
                "fields": ["id", "parent", "layer", "hook", "start_s", "duration_s"],
                "limit": SPAN_SAMPLE_LIMIT,
                "rows": [
                    [span_id, parent, layer, hook, start - origin, duration]
                    for span_id, parent, layer, hook, start, duration in self.spans
                ],
            },
        }


def _noop(owner: object, argument: object) -> None:
    return None


def calibrate(trials: int = 11, calls: int = 10_000) -> WrapperCost:
    """Measure the wrapper's per-call cost on a two-argument no-op.

    Two positional arguments match a hooked method called with one
    argument.  Host noise only inflates a trial, so the fastest trial is
    the estimate.
    """
    clock = CLOCK
    inside: List[float] = []
    total: List[float] = []
    for _ in range(trials):
        probe = Tracer("calibration")
        wrapped = probe.wrap("noop", "noop", _noop)
        start = clock()
        for _ in range(calls):
            pass
        empty = clock() - start
        start = clock()
        for _ in range(calls):
            _noop(probe, calls)
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped(probe, calls)
        traced = clock() - start
        recorded = probe.edges[("calibration", "noop")][1]
        call_s = max(0.0, (bare - empty) / calls)
        total.append(max(0.0, (traced - bare) / calls))
        inside.append(max(0.0, recorded / calls - call_s))
    total_s = min(total)
    inside_s = min(min(inside), total_s)
    return WrapperCost(inside_s=inside_s, outside_s=total_s - inside_s)


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def expand(hooks: Sequence[Hook]) -> Tuple[List[Tuple[Hook, Any, str]], List[str]]:
    """Resolve hooks to ``(hook, owner, attribute)``; report the missing.

    A hook whose module, class or function no longer exists is returned by
    id in the second list instead of raising, so a renamed entry point
    shows up as missing rather than silently folding into its caller.
    """
    resolved: List[Tuple[Hook, Any, str]] = []
    missing: List[str] = []
    taken = set()
    for hook in hooks:
        try:
            owner, attr = _resolve(hook.module, hook.qualname)
        except (ImportError, AttributeError):
            missing.append(hook.id)
            continue
        if attr.endswith("*"):
            prefix = attr[:-1]
            names = sorted(
                name for name, value in vars(owner).items()
                if name.startswith(prefix) and callable(value)
            )
        else:
            names = [attr]
        base = hook.qualname.rsplit(".", 1)[0] + "." if "." in hook.qualname else ""
        for name in names:
            target = (id(owner), name)
            if target in taken:
                continue
            if not callable(vars(owner).get(name)):
                missing.append(hook.id)
                continue
            taken.add(target)
            concrete = Hook(hook.layer, hook.module, base + name, hook.observe)
            resolved.append((concrete, owner, name))
    return resolved, missing


@contextmanager
def installed(
    tracer: Tracer, hooks: Sequence[Hook]
) -> Iterator[Tuple[List[str], List[str]]]:
    """Wrap every hook for the duration of the block, then restore.

    Yields ``(installed hook ids, missing hook ids)``.  The originals are
    put back by identity even when the block raises.
    """
    resolved, missing = expand(hooks)
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for hook, owner, name in resolved:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(hook.layer, hook.id, original, hook.observe))
        yield [hook.id for hook, _, _ in resolved], missing
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


@dataclass
class Cuts:
    """Where the probes cut one run: the clock at the start of each call.

    ``times`` holds every probe call's start, in call order.
    ``unit_index[k]`` is the position in ``times`` of the k-th call to the
    first probe, and ``results[k]`` what that call returned.
    """

    times: List[float]
    unit_index: List[int]
    results: List[Any]


@contextmanager
def cutting(probes: Sequence[Tuple[str, str]]) -> Iterator[Cuts]:
    """Record the start of every call to each ``(module, qualname)`` probe.

    The calls cut a timed run into segments.  Calls to the first probe
    also start the units whose latency the benchmark reports, and their
    results are kept; it must exist.  Another probe that no longer exists
    is skipped (the cut is only coarser).  The originals are put back by
    identity.
    """
    cuts = Cuts([], [], [])
    times = cuts.times
    clock = CLOCK
    saved: List[Tuple[Any, str, Any]] = []

    def unit_probe(original: Callable[..., Any]) -> Callable[..., Any]:
        def probe(*args: Any, **kwargs: Any) -> Any:
            cuts.unit_index.append(len(times))
            times.append(clock())
            result = original(*args, **kwargs)
            cuts.results.append(result)
            return result

        return probe

    def cut_probe(original: Callable[..., Any]) -> Callable[..., Any]:
        def probe(*args: Any, **kwargs: Any) -> Any:
            times.append(clock())
            return original(*args, **kwargs)

        return probe

    try:
        for index, (module_name, qualname) in enumerate(probes):
            try:
                owner, name = _resolve(module_name, qualname)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError) as error:
                if index == 0:
                    raise LookupError(f"no {module_name}:{qualname} to cut runs at") from error
                continue
            saved.append((owner, name, original))
            setattr(owner, name, (unit_probe if index == 0 else cut_probe)(original))
        yield cuts
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
