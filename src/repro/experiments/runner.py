"""Run every experiment and render the full report.

``python -m repro.experiments.runner`` regenerates all experiment tables —
the per-table functions are also what ``tests/experiments`` calls, so the
printed report and the tests' paper claims always agree.

:func:`run_experiments` is a serial loop over the selection: each
experiment runs in its own ``experiments.<id>`` span and the tables come
back in selection order.  Every experiment seeds its own generator
internally; ``seed=`` instead hands each rng-accepting experiment the
child of ``np.random.SeedSequence(seed)`` numbered by its position in the
selection (:func:`spawn_task_seed`), so a seeded run is reproducible.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..lint import DEFAULT_TARGETS, find_project_root, load_config, run_lint
from ..obs import JsonlSink, Tracer, current_tracer, use_tracer

from .advanced import (
    run_e19_adaptivity_gap,
    run_e20_imperfect_detection,
    run_e21_movement_sensitivity,
    run_e23_area_dimensioning,
    run_e24_correlation_sensitivity,
    run_e25_weighted_costs,
    run_e26_learning_curve,
)
from .approximation import (
    run_e03_ratio_sweep,
    run_e08_single_user_optimal,
    run_e09_delay_tradeoff,
    run_e10_adaptive,
)
from .extensions import (
    run_e11_signature_sweep,
    run_e11_yellow_pages,
    run_e12_bandwidth,
    run_e15_clustered,
)
from .hardness_experiments import (
    run_e06_reduction_general,
    run_e06_reduction_m2d2,
    run_e14_quasipartition2,
    run_e17_lifting,
    run_e18_qap,
)
from .paper_claims import (
    run_e01_uniform_single_user,
    run_e02_lower_bound,
    run_e04_lemma31,
    run_e05_lemma34,
    run_e16_four_thirds,
)
from .system import (
    run_e07_dp_scaling,
    run_e13_cellnet,
    run_e13_reporting_tradeoff,
    run_e27_batched_replanning,
    run_e28_timevary,
    run_e29_contention,
)
from .tables import ExperimentTable, render_all

#: Every experiment, in paper order.  Keys match DESIGN.md's index.
EXPERIMENTS: Dict[str, Callable[[], ExperimentTable]] = {
    "E1": run_e01_uniform_single_user,
    "E2": run_e02_lower_bound,
    "E3": run_e03_ratio_sweep,
    "E4": run_e04_lemma31,
    "E5": run_e05_lemma34,
    "E6": run_e06_reduction_m2d2,
    "E6b": run_e06_reduction_general,
    "E7": run_e07_dp_scaling,
    "E8": run_e08_single_user_optimal,
    "E9": run_e09_delay_tradeoff,
    "E10": run_e10_adaptive,
    "E11a": run_e11_yellow_pages,
    "E11b": run_e11_signature_sweep,
    "E12": run_e12_bandwidth,
    "E13": run_e13_cellnet,
    "E13b": run_e13_reporting_tradeoff,
    "E14": run_e14_quasipartition2,
    "E15": run_e15_clustered,
    "E16": run_e16_four_thirds,
    "E17": run_e17_lifting,
    "E18": run_e18_qap,
    "E19": run_e19_adaptivity_gap,
    "E20": run_e20_imperfect_detection,
    "E21": run_e21_movement_sensitivity,
    "E23": run_e23_area_dimensioning,
    "E24": run_e24_correlation_sensitivity,
    "E25": run_e25_weighted_costs,
    "E26": run_e26_learning_curve,
    "E27": run_e27_batched_replanning,
    "E28": run_e28_timevary,
    "E29": run_e29_contention,
}


def _accepts_rng(function: Callable[..., ExperimentTable]) -> bool:
    """True when the experiment function takes an ``rng`` keyword."""
    try:
        return "rng" in inspect.signature(function).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/partials
        return False


def spawn_task_seed(seed: int, index: int) -> np.random.SeedSequence:
    """The ``index``-th child seed of a run, in O(1).

    Equivalent to ``np.random.SeedSequence(seed).spawn(index + 1)[index]``
    (``spawn(n)`` numbers children ``spawn_key=(0,) .. (n-1,)``), but builds
    the one child directly instead of materializing ``index + 1`` of them —
    the old scheme was O(n²) SeedSequence constructions across a run.
    ``tests/experiments/test_runner.py`` pins byte-identical child
    states against the legacy spelling.
    """
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _run_one(name: str, seed: Optional[int], index: int) -> ExperimentTable:
    """Run one experiment inside a per-experiment span."""
    function = EXPERIMENTS[name]
    with current_tracer().span(f"experiments.{name}", index=index):
        if seed is not None and _accepts_rng(function):
            child = spawn_task_seed(seed, index)
            return function(rng=np.random.default_rng(child))
        return function()


def run_experiments(
    names: Optional[Sequence[str]] = None,
    *,
    seed: Optional[int] = None,
) -> List[ExperimentTable]:
    """Run the named experiments (all of them by default), one after another.

    Tables are returned in selection order; an unknown name raises
    ``KeyError`` before anything runs.  ``seed`` optionally rebases every
    rng-accepting experiment on ``spawn_task_seed(seed, index)``, where
    ``index`` is its position in the selection; by default each experiment
    keeps its own fixed internal seed.

    When a tracer is active (``repro --trace`` / :func:`repro.obs.tracing`)
    every experiment runs inside an ``experiments.<id>`` span.
    """
    selected = list(EXPERIMENTS) if names is None else list(names)
    for name in selected:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}; known: {list(EXPERIMENTS)}")
    return [_run_one(name, seed, index) for index, name in enumerate(selected)]


def lint_attestation(
    targets: Sequence[str] = DEFAULT_TARGETS,
) -> "Dict[str, object]":
    """Run ``repro lint`` over ``targets`` and summarize the outcome.

    The reproduction report embeds this so a rendered report also records
    that the tree satisfied every lint rule at generation time: the
    per-file and project rules (RPL001, RPL002, RPL004–RPL007) and the
    whole-program exactness and seed-flow rules (RPL008–RPL009).  When run from an installed
    package with no source checkout, ``targets`` is empty and ``clean`` is
    ``None`` — the attestation is "not applicable", not "passed".
    """
    root = find_project_root(Path.cwd()) or Path.cwd()
    present = [target for target in targets if (root / target).exists()]
    payload: Dict[str, object] = {
        "tool": "replint",
        "root": str(root),
        "targets": present,
        "clean": None,
        "counts": {},
        "violations": [],
    }
    if not present:
        return payload
    result = run_lint(
        [str(root / target) for target in present],
        config=load_config(root),
        root=root,
    )
    payload["clean"] = result.clean
    payload["files_checked"] = result.files_checked
    payload["counts"] = result.counts()
    payload["violations"] = [violation.to_json() for violation in result.violations]
    return payload


def save_report(
    directory: str,
    names: Optional[Sequence[str]] = None,
    lint_targets: Optional[Sequence[str]] = DEFAULT_TARGETS,
    *,
    trace: bool = True,
) -> List[str]:
    """Run experiments and persist each table as ``.txt`` and ``.csv``.

    Returns the paths written.  This is what keeps the plain-text report and
    plot-ready data in sync with one run.  Unless ``lint_targets`` is None,
    a ``lint.json`` attestation (the ``repro lint --json`` outcome for the
    source tree) is written alongside the tables, so the report records
    that it was produced from a zero-violation tree.  Unless ``trace`` is
    False, the run itself executes under a JSONL tracer and a
    ``trace.jsonl`` attestation lands next to ``lint.json`` — summarize it
    with ``repro trace <dir>/trace.jsonl``.
    """
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    if trace:
        trace_path = os.path.join(directory, "trace.jsonl")
        with use_tracer(Tracer(JsonlSink(trace_path))):
            tables = run_experiments(names)
        written.append(trace_path)
    else:
        tables = run_experiments(names)
    for table in tables:
        stem = os.path.join(directory, table.experiment_id.lower())
        with open(stem + ".txt", "w") as handle:
            handle.write(table.render() + "\n")
        with open(stem + ".csv", "w") as handle:
            handle.write(table.to_csv())
        written.extend([stem + ".txt", stem + ".csv"])
    if lint_targets is not None:
        lint_path = os.path.join(directory, "lint.json")
        with open(lint_path, "w") as handle:
            json.dump(lint_attestation(lint_targets), handle, indent=2)
            handle.write("\n")
        written.append(lint_path)
    return written


def main(names: Optional[Sequence[str]] = None) -> str:
    """Render the selected experiments as one report string."""
    return render_all(run_experiments(names))


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    import sys

    print(main(sys.argv[1:] or None))
