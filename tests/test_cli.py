"""Unit tests for the command-line interface."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import COMMAND_SUMMARY, _build_parser, main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    payload = {
        "probabilities": [[0.5, 0.3, 0.1, 0.1], [0.1, 0.2, 0.3, 0.4]],
        "max_rounds": 2,
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestPlan:
    def test_heuristic_plan(self, instance_file, capsys):
        assert main(["plan", instance_file]) == 0
        out = capsys.readouterr().out
        assert "round 1: page cells" in out
        assert "e/(e-1) heuristic expected paging" in out

    def test_exact_plan(self, instance_file, capsys):
        assert main(["plan", instance_file, "--solver", "exact"]) == 0
        assert "exact optimal" in capsys.readouterr().out

    def test_adaptive_value(self, instance_file, capsys):
        assert main(["plan", instance_file, "--solver", "adaptive"]) == 0
        assert "adaptive replanning" in capsys.readouterr().out

    def test_round_override(self, instance_file, capsys):
        assert main(["plan", instance_file, "--rounds", "3"]) == 0
        assert "d=3" in capsys.readouterr().out

    def test_bandwidth_cap(self, instance_file, capsys):
        assert main(["plan", instance_file, "--rounds", "2", "--bandwidth", "2"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "page cells" in line:
                cells = line.split("page cells")[1]
                assert cells.count(",") <= 1  # at most two cells per round

    def test_output_writes_strategy(self, instance_file, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        assert main(["plan", instance_file, "--output", str(out_path)]) == 0
        from repro.core import Strategy
        from repro.core.serialization import load

        restored = load(str(out_path))
        assert isinstance(restored, Strategy)
        assert restored.num_cells == 4

    def test_missing_probabilities_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="probabilities"):
            main(["plan", str(path)])


class TestGadget:
    def test_yes_instance(self, capsys):
        assert main(["gadget", "1,1,2"]) == 0
        out = capsys.readouterr().out
        assert "EP == LB" in out
        assert "True" in out

    def test_no_instance(self, capsys):
        assert main(["gadget", "1,1,3"]) == 0
        out = capsys.readouterr().out
        assert "quasipartition witness: None" in out
        assert "False" in out

    def test_bad_sizes_rejected(self):
        with pytest.raises(SystemExit, match="parse"):
            main(["gadget", "1,banana,3"])


class TestExperiments:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out
        assert "E20" in out

    def test_run_single(self, capsys):
        assert main(["experiments", "E2"]) == 0
        out = capsys.readouterr().out
        assert "E2:" in out
        assert "317" in out or "6.4694" in out

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiments", "E999"])

    @pytest.mark.parametrize(
        "option",
        [
            ["--jobs", "2"],
            ["-j", "2"],
            ["--checkpoint", "d"],
            ["--resume"],
            ["--task-retries", "1"],
        ],
    )
    def test_runner_options_are_gone(self, option, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["experiments", "E1", *option])
        assert exit.value.code == 2
        assert option[0] in capsys.readouterr().err


class TestRender:
    def test_location_area_map(self, capsys):
        assert main(["render", "--radius", "2", "--areas", "3"]) == 0
        out = capsys.readouterr().out
        assert "19 cells" in out
        assert "location-area id" in out

    def test_strategy_overlay(self, tmp_path, capsys):
        import json

        import numpy as np

        rng = np.random.default_rng(0)
        matrix = rng.dirichlet(np.ones(19), size=2).tolist()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"probabilities": matrix, "max_rounds": 3}))
        assert main(["render", "--radius", "2", "--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "paging round" in out
        assert "expected paging" in out

    def test_cell_count_mismatch_rejected(self, instance_file):
        with pytest.raises(SystemExit, match="cells"):
            main(["render", "--radius", "2", "--plan", instance_file])


class TestTrace:
    def test_global_flag_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["--trace", str(path), "experiments", "E2"]) == 0
        captured = capsys.readouterr()
        assert "E2:" in captured.out
        assert f"trace written to {path}" in captured.err
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["event"] == "meta"
        assert events[0]["schema"] == "repro-trace/1"
        assert any(
            event.get("name") == "experiments.E2"
            for event in events
            if event["event"] == "span"
        )

    def test_subcommand_renders_report(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["--trace", str(path), "experiments", "E2"]) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "experiments.E2" in out

    def test_subcommand_json_output(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["--trace", str(path), "experiments", "E2"]) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-trace/1"
        assert payload["spans"]["experiments.E2"]["count"] == 1

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestServeBench:
    _SMALL = [
        "serve-bench", "--requests", "400", "--areas", "6", "--cells", "10",
        "--profiles-per-area", "3", "--hot-fraction", "0.9", "--seed", "11",
    ]

    def test_text_report(self, capsys):
        assert main(self._SMALL) == 0
        out = capsys.readouterr().out
        assert "400 requests over 6 areas" in out
        assert "cold:" in out
        assert "warm:" in out
        assert "hit-rate" in out

    def test_json_report(self, capsys):
        assert main(self._SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-serve-bench/1"
        assert payload["warm"]["hit_rate"] == 1.0
        assert payload["cold"]["throughput_rps"] > 0

    def test_invalid_workload_fails_cleanly(self):
        with pytest.raises(SystemExit, match="hot_fraction"):
            main(["serve-bench", "--hot-fraction", "2.0"])


class TestTimevary:
    def test_fixed_point_line(self, capsys):
        assert main(["timevary", "--radius", "2"]) == 0
        out = capsys.readouterr().out
        assert (
            "fixed point: timer threshold 5 at combined cost 0.592020 (converged)"
            in out.splitlines()
        )

    def test_zero_rounds_exit_with_the_message(self):
        with pytest.raises(SystemExit, match="max_rounds must be at least 1") as exit:
            main(["timevary", "--radius", "2", "--rounds", "0"])
        assert exit.value.code != 0

    def test_planner_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["timevary", "--radius", "2", "--planner", "heuristic"])
        assert exit.value.code == 2
        assert "--planner" in capsys.readouterr().err


class TestCommandSurface:
    """README table, --help epilog, and the parser must agree."""

    def _parser_commands(self):
        parser = _build_parser()
        action = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        return list(action.choices)

    def test_summary_matches_parser(self):
        assert self._parser_commands() == list(COMMAND_SUMMARY)

    def test_summary_matches_readme_table(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table_commands = re.findall(r"^\| `repro ([\w-]+)` \|", readme, re.MULTILINE)
        assert table_commands == list(COMMAND_SUMMARY)

    def test_help_epilog_lists_every_command(self):
        help_text = _build_parser().format_help()
        for name, summary in COMMAND_SUMMARY.items():
            assert f"repro {name}" in help_text
            assert summary in help_text
        assert "--trace PATH" in help_text


class TestSimulate:
    def test_small_run(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--radius",
                    "2",
                    "--devices",
                    "3",
                    "--horizon",
                    "80",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cells_paged" in out
        assert "19 cells" in out
