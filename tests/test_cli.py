"""Unit tests for the command-line interface."""

import argparse
import io
import json
import re
import shlex
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


class TestSolve:
    def test_heuristic_plan(self, instance_file, capsys):
        assert main(["solve", instance_file]) == 0
        out = capsys.readouterr().out
        assert "solver: heuristic (heuristic)" in out
        assert "round 1: page cells [0, 1, 3]" in out
        assert "expected paging: 3.3700" in out

    def test_exact_plan(self, instance_file, capsys):
        assert main(["solve", instance_file, "--solver", "exact"]) == 0
        out = capsys.readouterr().out
        assert "solver: exact (exact)" in out
        assert "round 1: page cells" in out

    def test_adaptive_value(self, instance_file, capsys):
        assert main(["solve", instance_file, "--solver", "adaptive"]) == 0
        out = capsys.readouterr().out
        assert "solver: adaptive (variant)" in out
        assert "page cells" not in out  # a value, not a strategy
        assert "expected paging:" in out

    def test_adaptive_refuses_bandwidth_cap(self, instance_file):
        with pytest.raises(SystemExit, match="max_group_size"):
            main(["solve", instance_file, "--solver", "adaptive", "--bandwidth", "2"])

    def test_round_override(self, instance_file, capsys):
        assert main(["solve", instance_file, "--rounds", "3"]) == 0
        out = capsys.readouterr().out
        assert "d=3" in out
        assert "round 3: page cells" in out

    def test_bandwidth_cap(self, instance_file, capsys):
        assert main(["solve", instance_file, "--rounds", "2", "--bandwidth", "2"]) == 0
        out = capsys.readouterr().out
        assert "round 1: page cells [0, 1]" in out
        assert "round 2: page cells [2, 3]" in out

    def test_output_writes_strategy(self, instance_file, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        assert main(["solve", instance_file, "--output", str(out_path)]) == 0
        assert f"strategy written to {out_path}" in capsys.readouterr().out
        from repro.core import Strategy
        from repro.core.serialization import load

        restored = load(str(out_path))
        assert isinstance(restored, Strategy)
        assert restored.num_cells == 4

    def test_missing_probabilities_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="probabilities"):
            main(["solve", str(path)])

    def test_reads_stdin(self, instance_file, monkeypatch, capsys):
        with open(instance_file) as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        assert main(["solve", "-"]) == 0
        assert "instance: m=2 devices, c=4 cells, d=2 rounds" in capsys.readouterr().out

    def test_json_output(self, instance_file, capsys):
        assert main(["solve", instance_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-solve/1"
        assert payload["solver"] == "heuristic"
        assert payload["groups"] == [[0, 1, 3], [2]]
        assert payload["expected_paging"] == pytest.approx(3.37)


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

    @pytest.mark.parametrize("argv", [["plan", "x.json"], ["serve-bench"]])
    def test_retired_commands_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "--deep"],
            ["lint", "--no-deep-cache"],
            ["lint", "--select", "RPL003"],
        ],
    )
    def test_retired_lint_options_are_gone(self, argv, capsys):
        """One lint pass: no switch selects the dataflow rules, and the
        per-file exactness rule folded into RPL008 is no longer a code."""
        try:
            status = main(argv)
        except SystemExit as exit:
            status = exit.code
        assert status == 2
        capsys.readouterr()

    _FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
    _COMMAND = r"repro(?: --trace \S+)? ([a-z][\w-]*)"

    def _documented_commands(self, text):
        """``repro <name>`` uses: bash lines, then inline code spans."""
        names = []
        for language, body in self._FENCE.findall(text):
            if language == "bash":
                names += re.findall(rf"^\s*{self._COMMAND}", body, re.MULTILINE)
        names += re.findall(rf"`{self._COMMAND}[^`\n]*`", text)
        return names

    def test_docs_name_only_registered_commands(self):
        root = Path(__file__).resolve().parent.parent
        pages = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        unknown = {}
        for page in pages:
            for name in self._documented_commands(page.read_text()):
                if name not in COMMAND_SUMMARY:
                    unknown.setdefault(page.name, []).append(name)
        assert unknown == {}

    _DOC_PAGES = ("README.md", "docs/*.md", ".claude/skills/verify/SKILL.md")

    def _doc_uses(self, tool):
        """``(page, arguments)`` for each documented ``<tool> ...`` use:
        fenced shell lines (``$`` prompt and ``#`` comment stripped), then
        inline code spans."""
        root = Path(__file__).resolve().parent.parent
        uses = []
        for pattern in self._DOC_PAGES:
            for page in sorted(root.glob(pattern)):
                text = page.read_text()
                for language, body in self._FENCE.findall(text):
                    if language in ("bash", "console", "sh"):
                        uses += [
                            (page.name, args.split("#", 1)[0])
                            for args in re.findall(
                                rf"^\s*(?:\$\s+)?{tool}\b(.*)$", body, re.MULTILINE
                            )
                        ]
                uses += [
                    (page.name, args)
                    for args in re.findall(rf"`{tool}\b([^`\n]*)`", text)
                ]
        return uses

    def test_documented_lint_commands_parse(self):
        """Every documented ``repro lint`` line parses, and every option
        it names (synopses such as ``[--json|--select]`` included) exists."""
        from repro.lint.engine import add_lint_arguments

        parser = argparse.ArgumentParser(prog="repro lint")
        add_lint_arguments(parser)
        uses = self._doc_uses("repro lint")
        assert uses
        broken = []
        for page, args in uses:
            unknown = [
                option
                for option in re.findall(r"--[a-z][\w-]*", args)
                if option not in parser._option_string_actions
            ]
            try:
                parser.parse_args(shlex.split(args))
            except SystemExit:
                unknown.append("(does not parse)")
            if unknown:
                broken.append((page, args.strip(), unknown))
        assert broken == []

    def test_documented_make_targets_exist(self):
        makefile = (Path(__file__).resolve().parent.parent / "Makefile").read_text()
        targets = set(re.findall(r"^([a-z][\w-]*):", makefile, re.MULTILINE))
        named = [
            (page, args.split()[0])
            for page, args in self._doc_uses("make")
            if args.strip() and re.match(r"[a-z]", args.split()[0])
        ]
        assert named
        assert [(page, name) for page, name in named if name not in targets] == []


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
