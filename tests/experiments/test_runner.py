"""Unit tests for the experiment runner."""

import json

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    lint_attestation,
    main,
    run_experiments,
    save_report,
    spawn_task_seed,
)


class TestRunner:
    def test_run_selected(self):
        tables = run_experiments(["E2"])
        assert len(tables) == 1
        assert tables[0].experiment_id == "E2"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="E999"):
            run_experiments(["E999"])

    def test_unknown_name_raises_before_running(self, monkeypatch):
        from repro.experiments import runner

        ran = []
        monkeypatch.setattr(runner, "_run_one", lambda name, *args: ran.append(name))
        with pytest.raises(KeyError, match="E999"):
            run_experiments(["E1", "E999"])
        assert ran == []

    def test_output_order_matches_selection_order(self):
        tables = run_experiments(["E4", "E1"])
        assert [table.experiment_id for table in tables] == ["E4", "E1"]

    def test_main_renders(self):
        text = main(["E2"])
        assert "E2:" in text
        assert "6.4694" in text

    def test_registry_complete(self):
        expected = {
            "E1", "E2", "E3", "E4", "E5", "E6", "E6b", "E7", "E8", "E9",
            "E10", "E11a", "E11b", "E12", "E13", "E13b", "E14", "E15",
            "E16", "E17", "E18", "E19", "E20", "E21", "E23", "E24",
        }
        assert expected <= set(EXPERIMENTS)

    def test_save_report_writes_txt_and_csv(self, tmp_path):
        written = save_report(str(tmp_path), ["E2"], lint_targets=None, trace=False)
        assert len(written) == 2
        txt = (tmp_path / "e2.txt").read_text()
        csv = (tmp_path / "e2.csv").read_text()
        assert "E2:" in txt
        assert csv.splitlines()[0].startswith("variant,")

    def test_save_report_writes_trace_attestation(self, tmp_path):
        from repro.obs import load_events, summarize

        written = save_report(str(tmp_path), ["E2"], lint_targets=None)
        assert any(path.endswith("trace.jsonl") for path in written)
        summary = summarize(load_events(tmp_path / "trace.jsonl"))
        assert summary.schema == "repro-trace/1"
        assert "experiments.E2" in summary.spans
        assert summary.spans["experiments.E2"].count == 1

    def test_save_report_writes_lint_attestation(self, tmp_path):
        written = save_report(str(tmp_path), ["E2"])
        assert written[-1].endswith("lint.json")
        payload = json.loads((tmp_path / "lint.json").read_text())
        assert payload["tool"] == "replint"
        assert payload["clean"] is True
        assert payload["violations"] == []

    def test_lint_attestation_handles_missing_targets(self):
        payload = lint_attestation(targets=("no/such/dir",))
        assert payload["clean"] is None
        assert payload["targets"] == []


class TestSpawnTaskSeed:
    """Regression for the quadratic seed-spawn bug: the O(1) spelling must
    stay byte-identical to the legacy ``spawn(index + 1)[index]`` scheme."""

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**31])
    @pytest.mark.parametrize("index", [0, 1, 7, 40])
    def test_matches_legacy_spawn(self, seed, index):
        legacy = np.random.SeedSequence(seed).spawn(index + 1)[index]
        direct = spawn_task_seed(seed, index)
        assert direct.spawn_key == legacy.spawn_key
        assert list(direct.generate_state(8)) == list(legacy.generate_state(8))

    def test_identical_generator_output(self):
        legacy = np.random.SeedSequence(42).spawn(6)[5]
        direct = spawn_task_seed(42, 5)
        assert np.array_equal(
            np.random.default_rng(legacy).random(16),
            np.random.default_rng(direct).random(16),
        )

    def test_children_are_distinct(self):
        states = {tuple(spawn_task_seed(7, i).generate_state(4)) for i in range(20)}
        assert len(states) == 20
