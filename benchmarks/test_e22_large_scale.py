"""E22 — large-scale planning: the Fig. 1 heuristic's float kernel.

Production location areas have hundreds of cells; this benchmark shows the
``heuristic`` registry entry (the batched kernel at batch size one) handles
c = 800 with a 5-round budget comfortably and agrees with the pure-Python
reference where both run.
"""

import numpy as np
import pytest

from repro.core import PagingInstance, conference_call_heuristic
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
