"""Declarative solver registry: one seam in front of the algorithm zoo.

Every solver family of the paper — the Fig. 1 / Theorem 4.8 heuristic, the
Lemma 4.7 cut DP, the subset-DP exact solver of §2, and the §5 extensions
(adaptive, Yellow Pages, Signature, bandwidth caps, weighted costs,
clustered) — registers here under a stable name with a ``kind``, capability
flags, and a paper anchor.  Dispatch sites (experiments, CLI, service,
cellnet) look solvers up by name instead of importing concrete functions,
so adding a backend or policy is a one-file change.

``kind`` is judged against the Conference Call expected-paging objective:

* ``exact`` — provably optimal expected paging (oblivious strategies);
* ``heuristic`` — approximate for that same objective (``factor`` records
  the proven ratio when one exists, e.g. e/(e-1) or 4/3);
* ``dp`` — order-restricted dynamic programs that need an explicit order;
* ``variant`` — a different objective or policy class (Yellow Pages,
  Signature quorums, weighted costs, adaptive replanning); the
  ``exact-variant`` capability marks the ones optimal *within* their
  variant.

Every run is wrapped in a uniform ``solver.run`` observability span
carrying the registry name, and timed into ``SolverResult.wall_time_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..core.instance import Number, PagingInstance
from ..core.strategy import Strategy
from ..errors import ReproError
from ..obs import current_tracer, span
from .result import SolverResult

#: The allowed ``kind`` values, in display order.
KINDS: Tuple[str, ...] = ("exact", "heuristic", "dp", "variant")

#: An adapter maps ``(instance, **options)`` to (strategy-or-None, value,
#: extras).  The value must be bit-identical to the wrapped legacy call.
AdapterFn = Callable[..., Tuple[Optional[Strategy], Number, Mapping[str, object]]]

#: A batch adapter maps ``(instances, **options)`` to an implementation-
#: defined batch result (e.g. :class:`repro.core.batch_plan.BatchPlanResult`)
#: whose rows are bit-identical to per-instance scalar calls.
BatchAdapterFn = Callable[..., object]

#: Advisory predicate: can this solver handle the instance at all?
SupportsFn = Callable[[PagingInstance], bool]


class Solver(Protocol):
    """What dispatch sites may assume about a registry entry."""

    spec: "SolverSpec"

    def __call__(self, instance: PagingInstance, **options: object) -> SolverResult:
        ...  # pragma: no cover - protocol body

    def supports(self, instance: PagingInstance) -> bool:
        ...  # pragma: no cover - protocol body


class UnknownSolverError(ReproError, KeyError):
    """Raised by :func:`get_solver` for a name that was never registered."""


@dataclass(frozen=True)
class SolverSpec:
    """Static description of one registered solver."""

    name: str
    kind: str
    capabilities: FrozenSet[str]
    summary: str
    #: paper anchor (Lemma/Theorem/Section/Figure) for docs/paper_map.md
    anchor: str
    #: keyword options the adapter accepts (beyond the instance)
    options: Tuple[str, ...] = ()
    #: subset of ``options`` that must be supplied on every call
    required: Tuple[str, ...] = ()
    #: proven approximation factor vs the exact optimum, when one exists
    factor: Optional[float] = None
    #: dotted names of the legacy functions this adapter wraps
    wraps: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "capabilities": sorted(self.capabilities),
            "summary": self.summary,
            "anchor": self.anchor,
            "options": list(self.options),
            "required": list(self.required),
            "factor": None if self.factor is None else float(self.factor),
            "wraps": list(self.wraps),
        }


@dataclass(frozen=True)
class RegisteredSolver:
    """A spec plus the adapter that executes it.  Instances are callable."""

    spec: SolverSpec
    adapter: AdapterFn = field(repr=False)
    #: the primary wrapped legacy callables (for docs and meta-tests)
    wrapped: Tuple[Callable[..., object], ...] = field(default=(), repr=False)
    _supports: Optional[SupportsFn] = field(default=None, repr=False)
    #: optional many-instances entry point (see :meth:`run_batch`)
    batch_adapter: Optional[BatchAdapterFn] = field(default=None, repr=False)
    #: ``spec.options`` and ``spec.required`` as sets, for the per-call check
    _accepted: FrozenSet[str] = field(init=False, repr=False, compare=False)
    _required: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_accepted", frozenset(self.spec.options))
        object.__setattr__(self, "_required", frozenset(self.spec.required))

    @property
    def name(self) -> str:
        return self.spec.name

    def _check_options(self, options: Mapping[str, object]) -> None:
        """Raise ``TypeError`` for an unknown or a missing required option."""
        keys = options.keys()
        if keys <= self._accepted and self._required <= keys:
            return
        spec = self.spec
        unknown = sorted(keys - self._accepted)
        if unknown:
            raise TypeError(
                f"solver {spec.name!r} got unknown option(s) {unknown}; "
                f"accepted: {sorted(spec.options)}"
            )
        missing = sorted(self._required - keys)
        raise TypeError(f"solver {spec.name!r} requires option(s) {missing}")

    @property
    def supports_batch(self) -> bool:
        """True when the solver registered a many-instances entry point."""
        return self.batch_adapter is not None

    def supports(self, instance: PagingInstance) -> bool:
        """Advisory: False means the call is known to raise on ``instance``."""
        if self._supports is None:
            return True
        return bool(self._supports(instance))

    def run_batch(self, instances: object, **options: object) -> object:
        """Plan many instances in one kernel call.

        Only solvers registered with a batch adapter (capability
        ``"batch"``) provide this; everyone else raises ``TypeError`` so
        dispatch sites can feature-test with :attr:`supports_batch` and
        fall back to a per-instance loop.  Options are validated against
        the same spec as scalar calls, and the run is wrapped in a
        ``solver.run_batch`` span carrying the batch size.
        """
        if self.batch_adapter is None:
            raise TypeError(
                f"solver {self.spec.name!r} has no batched entry point; "
                "check supports_batch before calling run_batch"
            )
        self._check_options(options)
        if not current_tracer().enabled:
            return self.batch_adapter(instances, **options)
        spec = self.spec
        size = len(instances) if hasattr(instances, "__len__") else None
        with span(
            "solver.run_batch", solver=spec.name, kind=spec.kind, batch=size
        ):
            return self.batch_adapter(instances, **options)

    def __call__(self, instance: PagingInstance, **options: object) -> SolverResult:
        spec = self.spec
        self._check_options(options)
        with span("solver.run", solver=spec.name, kind=spec.kind):
            start = time.perf_counter()
            strategy, value, extras = self.adapter(instance, **options)
            elapsed = time.perf_counter() - start
        return SolverResult(
            solver=spec.name,
            kind=spec.kind,
            strategy=strategy,
            expected_paging=value,
            capabilities=spec.capabilities,
            wall_time_s=elapsed,
            extras=dict(extras),
        )


_REGISTRY: Dict[str, RegisteredSolver] = {}

#: Former registry names kept resolvable: alias -> registered name.  Aliases
#: are never listed; they exist so stored configurations keep working.
_ALIASES: Dict[str, str] = {}


def register_solver(
    name: str,
    *,
    kind: str,
    capabilities: Sequence[str] = (),
    summary: str,
    anchor: str,
    options: Sequence[str] = (),
    required: Sequence[str] = (),
    factor: Optional[float] = None,
    wraps: Sequence[Callable[..., object]] = (),
    supports: Optional[SupportsFn] = None,
    batch: Optional[BatchAdapterFn] = None,
    aliases: Sequence[str] = (),
) -> Callable[[AdapterFn], AdapterFn]:
    """Decorator: register ``adapter`` under ``name`` with its spec.

    The adapter function itself is returned unchanged so the module stays
    plain; look the callable entry up with :func:`get_solver`.  ``batch``
    optionally attaches a many-instances entry point, exposed as
    :meth:`RegisteredSolver.run_batch` / :func:`solve_batch`.  ``aliases``
    are extra names :func:`get_solver` resolves to this same entry; they
    are not listed by :func:`list_solvers` or :func:`solver_names`.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    for taken in (name, *aliases):
        if taken in _REGISTRY or taken in _ALIASES:
            raise ValueError(f"solver {taken!r} is already registered")
    missing = set(required) - set(options)
    if missing:
        raise ValueError(f"required options {sorted(missing)} not in options")

    def decorate(adapter: AdapterFn) -> AdapterFn:
        spec = SolverSpec(
            name=name,
            kind=kind,
            capabilities=frozenset(capabilities),
            summary=summary,
            anchor=anchor,
            options=tuple(options),
            required=tuple(required),
            factor=factor,
            wraps=tuple(
                f"{fn.__module__}.{fn.__qualname__}" for fn in wraps
            ),
        )
        _REGISTRY[name] = RegisteredSolver(
            spec=spec,
            adapter=adapter,
            wrapped=tuple(wraps),
            _supports=supports,
            batch_adapter=batch,
        )
        _ALIASES.update(dict.fromkeys(aliases, name))
        return adapter

    return decorate


def get_solver(name: str) -> RegisteredSolver:
    """Look a solver up by registry name (or a former name kept as alias)."""
    try:
        return _REGISTRY[_ALIASES.get(name, name)]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownSolverError(
            f"unknown solver {name!r}; registered: {known}"
        ) from None


def list_solvers(
    *,
    kind: Optional[str] = None,
    capability: Optional[str] = None,
) -> List[SolverSpec]:
    """All registered specs, optionally filtered, sorted by name."""
    specs = (entry.spec for entry in _REGISTRY.values())
    selected = [
        spec
        for spec in specs
        if (kind is None or spec.kind == kind)
        and (capability is None or capability in spec.capabilities)
    ]
    return sorted(selected, key=lambda spec: spec.name)


def solver_names() -> List[str]:
    """Sorted names of every registered solver."""
    return sorted(_REGISTRY)


def solve_instance(
    name: str, instance: PagingInstance, **options: object
) -> SolverResult:
    """Convenience one-shot: ``get_solver(name)(instance, **options)``."""
    return get_solver(name)(instance, **options)


def solve_batch(name: str, instances: object, **options: object) -> object:
    """Convenience one-shot: ``get_solver(name).run_batch(instances, ...)``."""
    return get_solver(name).run_batch(instances, **options)


# ---------------------------------------------------------------------------
# Static-analysis metadata (consumed by repro.lint.flow)
# ---------------------------------------------------------------------------

def analysis_sinks() -> List[Dict[str, object]]:
    """Machine-readable sink/option metadata for every registered solver.

    The deep linter (RPL008) derives its exact-arithmetic sink set from
    this surface instead of hard-coding function names, so registering a
    new exact adapter automatically extends the taint analysis.
    """
    entries: List[Dict[str, object]] = []
    for spec in list_solvers():
        entries.append(
            {
                "solver": spec.name,
                "kind": spec.kind,
                "exact": spec.kind == "exact"
                or "exact-variant" in spec.capabilities,
                "functions": list(spec.wraps),
                "options": list(spec.options),
                "required": list(spec.required),
            }
        )
    return entries


def exact_sink_functions() -> List[str]:
    """Dotted names of wrapped functions with exact-arithmetic semantics.

    These are the registry-derived RPL008 taint sinks: any float-tainted
    value reaching one of them would silently void the paper's exactness
    guarantees (Theorem 4.8 optimality, Lemma 2.1 evaluation).
    """
    names = {
        str(fn)
        for entry in analysis_sinks()
        if entry["exact"]
        for fn in entry["functions"]  # type: ignore[union-attr]
    }
    return sorted(names)
