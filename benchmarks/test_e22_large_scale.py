"""E22 — large-scale planning: the Fig. 1 heuristic's float kernel.

Production location areas have hundreds of cells; this benchmark shows the
``heuristic`` registry entry (the batched kernel at batch size one) handles
c = 800 with a 5-round budget comfortably and agrees with the pure-Python
reference where both run.  The ``test_e22_planner_*`` cases time the
planner paths of the docs/performance.md table at 4 devices x 250 cells,
d = 5, seed 22 (batch 1024 for the batched rows).
"""

import numpy as np
import pytest

from repro.core import (
    PagingInstance,
    available_backends,
    conference_call_heuristic,
    plan_batch,
)
from repro.experiments.tables import ExperimentTable
from repro.solvers import get_solver


def _instance(num_cells, num_devices=4, max_rounds=5, seed=22):
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.ones(num_cells), size=num_devices)
    return PagingInstance.from_array(matrix, max_rounds=max_rounds)


@pytest.mark.parametrize("num_cells", [200, 800])
def test_e22_fast_planner(benchmark, num_cells):
    instance = _instance(num_cells)
    result = benchmark(get_solver("heuristic"), instance)
    assert sum(result.extras["group_sizes"]) == num_cells


def test_e22_planner_reference(benchmark):
    result = benchmark(conference_call_heuristic, _instance(250))
    assert sum(result.group_sizes) == 250


def test_e22_planner_heuristic(benchmark):
    result = benchmark(get_solver("heuristic"), _instance(250))
    assert sum(result.extras["group_sizes"]) == 250


@pytest.mark.parametrize("backend", available_backends())
def test_e22_planner_batch(benchmark, backend, monkeypatch):
    if backend == "numpy":
        # The machine picks the backend; hide the kernel as a host without
        # a C toolchain would.
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
    rng = np.random.default_rng(22)
    matrices = rng.dirichlet(np.ones(250), size=(1024, 4))
    result = benchmark.pedantic(
        plan_batch,
        args=(matrices, 5),
        rounds=5,
        warmup_rounds=1,
    )
    assert result.backend == backend
    assert result.feasible.all()


def test_e22_agreement_table(benchmark, record_table):
    def build():
        table = ExperimentTable(
            "E22",
            "Large-scale planning: fast vs reference heuristic",
            ["c", "reference_ep", "fast_ep", "agree"],
        )
        for c in (50, 120, 250):
            instance = _instance(c)
            reference = conference_call_heuristic(instance)
            fast = get_solver("heuristic")(instance)
            table.add_row(
                c,
                float(reference.expected_paging),
                float(fast.expected_paging),
                str(
                    abs(float(reference.expected_paging) - float(fast.expected_paging))
                    < 1e-9
                ),
            )
        return table

    table = record_table(benchmark.pedantic(build, rounds=1, iterations=1))
    assert all(value == "True" for value in table.column("agree"))
