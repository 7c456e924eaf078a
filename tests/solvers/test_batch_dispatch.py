"""Batched dispatch through the solver registry (run_batch / solve_batch)."""

import numpy as np
import pytest

from repro.core import PagingInstance
from repro.solvers import get_solver, solve_batch, solve_instance


@pytest.fixture
def instances(rng):
    matrices = rng.dirichlet(np.ones(10), size=(6, 2))
    return [PagingInstance.from_array(row, 3) for row in matrices]


class TestRunBatch:
    def test_heuristic_batch_supports_batch(self):
        # The former name is an alias of the one heuristic entry.
        solver = get_solver("heuristic-batch")
        assert solver is get_solver("heuristic")
        assert solver.supports_batch
        assert "batch" in solver.spec.capabilities

    def test_scalar_solvers_do_not(self):
        solver = get_solver("profile-heuristic")
        assert not solver.supports_batch
        with pytest.raises(TypeError, match="batch"):
            solver.run_batch([])

    def test_run_batch_matches_scalar_dispatch(self, instances):
        solver = get_solver("heuristic")
        plans = solver.run_batch(instances)
        assert len(plans) == len(instances)
        for i, instance in enumerate(instances):
            scalar = solve_instance("heuristic", instance)
            row = plans.result(i)
            assert row.strategy == scalar.strategy
            assert row.expected_paging == scalar.expected_paging

    def test_run_batch_validates_options(self, instances):
        solver = get_solver("heuristic")
        with pytest.raises(TypeError, match="unknown option"):
            solver.run_batch(instances, not_an_option=1)

    def test_module_level_solve_batch(self, instances):
        plans = solve_batch("heuristic", instances, max_rounds=2)
        assert len(plans) == len(instances)
        assert plans.result(0).group_sizes == tuple(
            int(s) for s in plans.group_sizes[0]
        )
