"""Engine-level tests: discovery, config, suppressions, output, exit codes."""

import json
import re
from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import (
    DEFAULT_TARGETS,
    EXIT_CLEAN,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    LintConfig,
    load_config,
    main as lint_main,
    run_lint,
)
from repro.lint.engine import _parse_toml_subset, find_project_root

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures"


class TestCleanTree:
    def test_repo_lints_clean_with_project_config(self):
        """The acceptance gate: `repro lint src tests` exits 0."""
        config = load_config(REPO_ROOT)
        result = run_lint(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")],
            config=config,
            root=REPO_ROOT,
        )
        assert result.clean, "\n".join(v.render() for v in result.violations)
        assert result.exit_code == EXIT_CLEAN
        assert result.files_checked > 100

    def test_fixtures_fail_without_the_config_exclusion(self):
        result = run_lint([str(FIXTURES)], config=LintConfig(), root=REPO_ROOT)
        assert result.exit_code == EXIT_VIOLATIONS
        codes = set(result.counts())
        assert {"RPL001", "RPL002", "RPL006", "RPL008", "RPL009"} <= codes

    def test_every_default_target_exists(self):
        """A bare `repro lint` (and the report's lint.json) finds each target."""
        root = find_project_root(Path(__file__))
        assert root == REPO_ROOT
        missing = [target for target in DEFAULT_TARGETS if not (root / target).is_dir()]
        assert not missing

    def test_project_config_excludes_fixtures(self):
        config = load_config(REPO_ROOT)
        result = run_lint([str(FIXTURES)], config=config, root=REPO_ROOT)
        assert result.files_checked == 0


class TestSuppressions:
    def test_inline_disable_silences_one_line(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "x = 1.5\n"
            "a = x == 0.3  # replint: disable=RPL001\n"
            "b = x == 0.3\n"
        )
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert [v.line for v in result.violations] == [3]

    def test_inline_disable_with_justification_text(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "x = 1.5\n"
            "a = x == 0.3  # replint: disable=RPL001 stored literal round trip\n"
        )
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert result.clean

    def test_file_level_disable(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "# replint: disable-file=RPL006\n"
            "def f(bucket=[]):\n"
            "    return bucket\n"
        )
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert result.clean

    def test_disable_all(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text("def f(bucket=[]):  # replint: disable=all\n    return 1\n")
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert result.clean


class TestConfig:
    def test_toml_subset_parser(self):
        tables = _parse_toml_subset(
            "[tool.replint]\n"
            "exclude = [\"a/b\", 'c']\n"
            "api_doc = \"docs/api.md\"\n"
            "flag = true\n"
            "count = 3\n"
            "multi = [\n"
            "    \"one\",\n"
            "    \"two\",\n"
            "]\n"
        )
        table = tables["tool.replint"]
        assert table["exclude"] == ["a/b", "c"]
        assert table["api_doc"] == "docs/api.md"
        assert table["flag"] is True
        assert table["count"] == 3
        assert table["multi"] == ["one", "two"]

    def test_load_config_reads_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.replint]\n"
            "exclude = [\"generated\"]\n"
            "ignore = [\"RPL005\"]\n"
            "api_doc = \"docs/public.md\"\n"
        )
        config = load_config(tmp_path)
        assert config.exclude == ("generated",)
        assert config.ignore == ("RPL005",)
        assert config.api_doc == "docs/public.md"
        # unset keys keep their defaults
        assert config.api_init == "src/repro/__init__.py"

    def test_excluded_paths_are_skipped(self, tmp_path):
        (tmp_path / "generated").mkdir()
        (tmp_path / "generated" / "module.py").write_text("def f(x=[]):\n    pass\n")
        config = LintConfig(exclude=("generated",))
        result = run_lint([str(tmp_path)], config=config, root=tmp_path)
        assert result.files_checked == 0

    def test_find_project_root(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path
        assert find_project_root(REPO_ROOT / "src" / "repro") == REPO_ROOT


class TestCliAndOutput:
    def test_main_exit_one_on_fixtures(self):
        code = lint_main(
            ["--no-config", "--select", "RPL001", str(FIXTURES / "rpl001_bad.py")]
        )
        assert code == EXIT_VIOLATIONS

    def test_main_exit_zero_on_clean_file(self):
        code = lint_main(
            ["--no-config", "--select", "RPL001", str(FIXTURES / "rpl001_ok.py")]
        )
        assert code == EXIT_CLEAN

    def test_missing_target_is_usage_error(self, capsys):
        code = lint_main(["--no-config", "does/not/exist.py"])
        assert code == EXIT_USAGE
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_rule_code_is_usage_error(self, capsys):
        code = lint_main(["--no-config", "--select", "RPL999", str(FIXTURES)])
        assert code == EXIT_USAGE
        assert "unknown rule code" in capsys.readouterr().err

    def test_json_output_shape(self, capsys):
        lint_main(
            ["--no-config", "--json", "--select", "RPL002",
             str(FIXTURES / "rpl002_bad.py")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "replint"
        assert payload["clean"] is False
        assert payload["counts"] == {"RPL002": 5}
        first = payload["violations"][0]
        assert {"path", "line", "col", "code", "message"} <= set(first)

    def test_human_output_renders_path_line_col(self, capsys):
        lint_main(
            ["--no-config", "--select", "RPL006", str(FIXTURES / "rpl006_bad.py")]
        )
        out = capsys.readouterr().out
        assert "rpl006_bad.py:5:" in out
        assert "RPL006" in out
        assert "2 violations" in out

    def test_list_rules(self, capsys):
        """`--list-rules` and docs/linting.md's `### RPLnnn` headings name
        the same rules: neither can gain or lose one without the other."""
        assert lint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        listed = set(re.findall(r"^(RPL\d{3})\s", out, re.M))
        doc = (REPO_ROOT / "docs" / "linting.md").read_text()
        documented = set(re.findall(r"^### (RPL\d{3})\b", doc, re.M))
        assert listed - documented == set(), "listed but not documented"
        assert documented - listed == set(), "documented but not listed"
        assert listed == {f"RPL00{n}" for n in (1, 2, 4, 5, 6, 7, 8, 9)}

    def test_repro_cli_subcommand(self, capsys):
        code = cli_main(
            ["lint", "--no-config", "--select", "RPL001",
             str(FIXTURES / "rpl001_bad.py")]
        )
        assert code == EXIT_VIOLATIONS
        assert "RPL001" in capsys.readouterr().out

    def test_ignore_flag_drops_rule(self):
        code = lint_main(
            ["--no-config", "--ignore", "RPL001", str(FIXTURES / "rpl001_bad.py")]
        )
        assert code == EXIT_CLEAN


class TestSyntaxErrors:
    def test_unparsable_file_reports_rpl000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert result.exit_code == EXIT_VIOLATIONS
        assert result.violations[0].code == "RPL000"
        assert "syntax error" in result.violations[0].message
