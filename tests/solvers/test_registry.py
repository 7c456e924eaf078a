"""Unit tests for the solver registry machinery itself."""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import PagingInstance
from repro.obs import tracing
from repro.solvers import (
    KINDS,
    SolverResult,
    UnknownSolverError,
    get_solver,
    list_solvers,
    register_solver,
    solve_instance,
    solver_names,
)


@pytest.fixture
def instance():
    return PagingInstance.uniform(2, 6, 3, exact=True)


class TestRegistrySurface:
    def test_at_least_ten_solvers_registered(self):
        assert len(list_solvers()) >= 10

    def test_names_sorted_and_unique(self):
        names = [spec.name for spec in list_solvers()]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert names == solver_names()

    def test_one_fig1_heuristic_with_its_former_name_as_alias(self):
        assert get_solver("heuristic-batch") is get_solver("heuristic")
        assert "heuristic-batch" not in solver_names()
        with pytest.raises(UnknownSolverError):
            get_solver("heuristic-fast")

    def test_every_kind_is_legal_and_populated(self):
        kinds = {spec.kind for spec in list_solvers()}
        assert kinds == set(KINDS)

    def test_kind_filter(self):
        exact = list_solvers(kind="exact")
        assert exact
        assert all(spec.kind == "exact" for spec in exact)
        assert {spec.name for spec in exact} <= {spec.name for spec in list_solvers()}

    def test_capability_filter(self):
        weighted = list_solvers(capability="weighted")
        assert weighted
        assert all("weighted" in spec.capabilities for spec in weighted)

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownSolverError):
            get_solver("does-not-exist")
        # UnknownSolverError must still look like the KeyError it replaces.
        with pytest.raises(KeyError):
            get_solver("does-not-exist")

    def test_spec_to_json_is_complete(self):
        payload = get_solver("heuristic").spec.to_json()
        assert payload["name"] == "heuristic"
        assert payload["kind"] == "heuristic"
        assert payload["anchor"]
        assert isinstance(payload["capabilities"], list)
        assert isinstance(payload["wraps"], list) and payload["wraps"]
        assert set(payload) == {
            "name", "kind", "capabilities", "summary", "anchor",
            "options", "required", "factor", "wraps",
        }

    def test_every_spec_has_summary_and_anchor(self):
        for spec in list_solvers():
            assert spec.summary, spec.name
            assert spec.anchor, spec.name
            assert spec.wraps, spec.name
            assert set(spec.required) <= set(spec.options), spec.name


class TestDocsSync:
    DOCS = Path(__file__).resolve().parent.parent.parent / "docs"

    def test_paper_map_lists_every_solver(self):
        """docs/paper_map.md carries one registry row per solver, with its anchor."""
        text = (self.DOCS / "paper_map.md").read_text()
        for spec in list_solvers():
            assert f"| `{spec.name}` |" in text, (
                f"docs/paper_map.md is missing the registry row for {spec.name!r}"
            )
            assert spec.anchor in text, (
                f"docs/paper_map.md never cites {spec.name!r}'s anchor {spec.anchor!r}"
            )

    def test_paper_map_cites_every_wrapped_function(self):
        """Each registry row's Wraps cell names ``core/<module>.py::<name>``."""
        rows = {}
        for line in (self.DOCS / "paper_map.md").read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 5 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = cells[3]
        for spec in list_solvers():
            assert spec.name in rows, f"no registry row for {spec.name!r}"
            for dotted in spec.wraps:
                module, _, name = dotted.rpartition(".")
                path = module.replace("repro.", "", 1).replace(".", "/")
                cited = f"`{path}.py::{name}`"
                assert cited in rows[spec.name], (
                    f"docs/paper_map.md's {spec.name!r} row should cite {cited}"
                )

    def test_wrapped_functions_carry_the_solver_marker(self):
        """Reverse direction of lint rule RPL007: registered ⇒ marked."""
        for spec in list_solvers():
            entry = get_solver(spec.name)
            for function in entry.wrapped:
                assert function.__doc__ and "replint: solver" in function.__doc__, (
                    f"{spec.name} wraps {function.__qualname__}, which lacks "
                    "the 'replint: solver' docstring marker"
                )


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver(
                "heuristic", kind="heuristic", summary="dup", anchor="nowhere"
            )
        with pytest.raises(ValueError, match="already registered"):
            register_solver(
                "heuristic-batch", kind="heuristic", summary="dup", anchor="nowhere"
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_solver(
                "new-solver", kind="magic", summary="bad", anchor="nowhere"
            )

    def test_required_must_be_subset_of_options(self):
        with pytest.raises(ValueError, match="required"):
            register_solver(
                "new-solver",
                kind="heuristic",
                summary="bad",
                anchor="nowhere",
                options=("a",),
                required=("b",),
            )


class TestOptionValidation:
    def test_unknown_option_rejected(self, instance):
        with pytest.raises(TypeError, match="unknown option"):
            get_solver("heuristic")(instance, banana=3)

    def test_missing_required_rejected(self, instance):
        with pytest.raises(TypeError, match="requires option"):
            get_solver("signature")(instance)

    def test_solve_instance_shortcut(self, instance):
        direct = get_solver("heuristic")(instance)
        shortcut = solve_instance("heuristic", instance)
        assert shortcut.expected_paging == direct.expected_paging
        assert shortcut.strategy == direct.strategy


class TestResultNormalForm:
    def test_fields(self, instance):
        result = get_solver("heuristic")(instance)
        assert isinstance(result, SolverResult)
        assert result.solver == "heuristic"
        assert result.kind == "heuristic"
        assert "bandwidth" in result.capabilities
        assert result.wall_time_s > 0
        assert result.strategy is not None
        assert result.group_sizes == result.strategy.group_sizes

    def test_fraction_views_on_exact_instance(self, instance):
        result = get_solver("exact")(instance)
        assert result.is_exact
        assert isinstance(result.expected_paging_fraction, Fraction)
        assert result.expected_paging_float == pytest.approx(
            float(result.expected_paging_fraction)
        )

    def test_value_only_solvers_have_no_strategy(self, instance):
        result = get_solver("adaptive")(instance)
        assert result.strategy is None
        assert result.group_sizes is None
        assert result.extras["policy"] == "replan-heuristic"

    def test_supports_is_advisory(self, instance):
        assert get_solver("single-user").supports(instance) is False
        assert get_solver("exact").supports(instance) is True
        large = PagingInstance.uniform(2, 24, 3)
        assert get_solver("exact").supports(large) is False
        assert get_solver("heuristic").supports(large) is True


class TestObservability:
    def test_solver_run_span_carries_registry_name(self, instance):
        with tracing(close=False) as tracer:
            get_solver("exact")(instance)
        spans = [
            event
            for event in tracer.sink.events
            if event.get("event") == "span" and event.get("name") == "solver.run"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["solver"] == "exact"
        assert spans[0]["attrs"]["kind"] == "exact"

    def test_every_solver_family_emits_the_same_span(self, instance):
        with tracing(close=False) as tracer:
            get_solver("heuristic")(instance)
            get_solver("signature")(instance, quorum=2)
            get_solver("adaptive")(instance)
        names = [
            event["attrs"]["solver"]
            for event in tracer.sink.events
            if event.get("event") == "span" and event.get("name") == "solver.run"
        ]
        assert names == ["heuristic", "signature", "adaptive"]
