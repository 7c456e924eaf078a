"""Tests for the whole-program dataflow pass (:mod:`repro.lint.flow`).

The fixture corpus under ``tests/lint/fixtures/flow/`` is the acceptance
contract for RPL008-RPL009: every ``taint_*`` case must produce at least
one finding of its rule (zero false negatives) and every ``clean_*`` case
must produce none (false positives).  Cross-module cases are directories
(``taint_xmod/``) linted as a unit.
"""

import json
from pathlib import Path

import pytest

from repro.lint import (
    DEEP_CODES,
    EXIT_CLEAN,
    EXIT_VIOLATIONS,
    LintConfig,
    ProjectGraph,
    run_lint,
)
from repro.lint.flow import registry_exact_sinks, sarif_payload

REPO_ROOT = Path(__file__).resolve().parents[2]
FLOW_FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures" / "flow"


def _corpus(rule_dir: str):
    """(case-path, expect-finding) pairs for one rule's fixture corpus."""
    cases = []
    for entry in sorted((FLOW_FIXTURES / rule_dir).iterdir()):
        if entry.name == "__init__.py" or (
            entry.is_file() and entry.suffix != ".py"
        ):
            continue
        cases.append(
            pytest.param(
                entry,
                entry.name.startswith("taint"),
                id=f"{rule_dir}/{entry.name}",
            )
        )
    return cases


def _deep_findings(target: Path, code: str):
    result = run_lint(
        [str(target)],
        config=LintConfig(),
        root=REPO_ROOT,
        deep_cache=False,
    )
    return [v for v in result.violations if v.code == code]


class TestFixtureCorpus:
    """Zero false negatives, zero false positives, per rule."""

    @pytest.mark.parametrize("case,expect", _corpus("rpl008"))
    def test_rpl008(self, case, expect):
        findings = _deep_findings(case, "RPL008")
        if expect:
            assert findings, f"false negative: {case.name}"
        else:
            assert not findings, "false positive: " + "\n".join(
                v.render() for v in findings
            )

    @pytest.mark.parametrize("case,expect", _corpus("rpl009"))
    def test_rpl009(self, case, expect):
        findings = _deep_findings(case, "RPL009")
        if expect:
            assert findings, f"false negative: {case.name}"
        else:
            assert not findings, "false positive: " + "\n".join(
                v.render() for v in findings
            )

    @pytest.mark.parametrize(
        "name,line,col,message",
        [
            ("taint_fraction_of_float.py", 5, 12, "flows into Fraction()"),
            ("taint_fraction_of_float_cast.py", 5, 8, "flows into Fraction()"),
            (
                "taint_literal_into_exact_fn.py", 11, 9,
                "passed to exact-marked function 'exact_lower_bound'",
            ),
        ],
        ids=["fraction-of-float", "fraction-of-float-cast", "literal-into-exact-fn"],
    )
    def test_direct_float_is_reported_at_the_call(self, name, line, col, message):
        """A float written straight into ``Fraction()`` or an exact-marked
        call is one finding, anchored at that call."""
        findings = _deep_findings(FLOW_FIXTURES / "rpl008" / name, "RPL008")
        assert [(v.line, v.col) for v in findings] == [(line, col)]
        assert message in findings[0].message

    def test_corpus_is_large_enough(self):
        """The acceptance floor: >=10 taint and >=10 clean cases per rule."""
        for rule_dir in ("rpl008", "rpl009"):
            names = [
                entry.name
                for entry in (FLOW_FIXTURES / rule_dir).iterdir()
                if entry.name != "__init__.py"
            ]
            taint = [n for n in names if n.startswith("taint")]
            clean = [n for n in names if n.startswith("clean")]
            assert len(taint) >= 10, f"{rule_dir}: only {len(taint)} taint cases"
            assert len(clean) >= 10, f"{rule_dir}: only {len(clean)} clean cases"


class TestDeepOnRepo:
    def test_src_tree_is_deep_clean(self):
        """The PR gate: the shipped sources carry no deep findings."""
        result = run_lint(
            [str(REPO_ROOT / "src")],
            root=REPO_ROOT,
            deep_cache=False,
        )
        deep = [v for v in result.violations if v.code in DEEP_CODES]
        assert not deep, "\n".join(v.render() for v in deep)

    def test_deep_stats_surface(self):
        result = run_lint(
            [str(REPO_ROOT / "src" / "repro" / "lint")],
            root=REPO_ROOT,
            deep_cache=False,
        )
        stats = result.deep_stats
        assert stats is not None
        assert stats["files"] > 0
        assert stats["call_graph_edges"] > 0
        assert stats["taint_steps"] > 0
        assert stats["cache_hit"] is False
        payload = result.to_json()
        assert payload["deep"]["files"] == stats["files"]

    def test_registry_sinks_feed_the_analysis(self):
        sinks = registry_exact_sinks()
        assert sinks, "solver registry exports no exact sinks"
        assert all(s.startswith("repro.") for s in sinks)


class TestEngineEdgeCases:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("")
        result = run_lint(
            [str(path)], config=LintConfig(), root=tmp_path,
            deep_cache=False,
        )
        assert result.files_checked == 1
        assert result.exit_code == EXIT_CLEAN

    def test_syntax_error_reports_rpl000_without_crashing_deep(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        good = tmp_path / "good.py"
        good.write_text("from fractions import Fraction\nx = Fraction(0.25)\n")
        result = run_lint(
            [str(tmp_path)], config=LintConfig(), root=tmp_path,
            deep_cache=False,
        )
        codes = {v.code for v in result.violations}
        assert "RPL000" in codes
        # the parseable sibling still goes through the deep pass
        assert "RPL008" in codes
        assert result.exit_code == EXIT_VIOLATIONS

    def test_bom_file_parses_and_flows(self, tmp_path):
        path = tmp_path / "bom.py"
        source = "from fractions import Fraction\nvalue = 0.5\nx = Fraction(value)\n"
        path.write_bytes(b"\xef\xbb\xbf" + source.encode("utf-8"))
        result = run_lint(
            [str(path)], config=LintConfig(), root=tmp_path,
            deep_cache=False,
        )
        assert "RPL000" not in {v.code for v in result.violations}
        assert any(v.code == "RPL008" for v in result.violations)


class TestDecoratorSuppression:
    """`# replint: disable=` on a decorator line covers the decorated def."""

    def test_disable_on_decorator_line_suppresses_def_finding(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "import functools\n"
            "\n"
            "\n"
            "@functools.lru_cache(maxsize=None)  # replint: disable=RPL006\n"
            "def collect(bucket=[]):\n"
            "    return bucket\n"
        )
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert not any(v.code == "RPL006" for v in result.violations)

    def test_disable_covers_stacked_decorators(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "import functools\n"
            "\n"
            "\n"
            "@functools.wraps(print)  # replint: disable=RPL006\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def collect(bucket=[]):\n"
            "    return bucket\n"
        )
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert not any(v.code == "RPL006" for v in result.violations)

    def test_without_comment_the_finding_survives(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "import functools\n"
            "\n"
            "\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def collect(bucket=[]):\n"
            "    return bucket\n"
        )
        result = run_lint([str(path)], config=LintConfig(), root=tmp_path)
        assert any(v.code == "RPL006" for v in result.violations)

    def test_inline_suppression_applies_to_deep_findings(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "from fractions import Fraction\n"
            "value = 0.5\n"
            "x = Fraction(value)  # replint: disable=RPL008 audited\n"
        )
        result = run_lint(
            [str(path)], config=LintConfig(), root=tmp_path,
            deep_cache=False,
        )
        assert not any(v.code == "RPL008" for v in result.violations)


class TestDeepCache:
    def _workspace(self, tmp_path):
        pkg = tmp_path / "pkg.py"
        pkg.write_text(
            "from fractions import Fraction\n"
            "value = 0.5\n"
            "x = Fraction(value)\n"
        )
        return pkg

    def test_second_run_hits_the_cache_with_same_findings(self, tmp_path):
        pkg = self._workspace(tmp_path)
        first = run_lint([str(pkg)], config=LintConfig(), root=tmp_path)
        assert first.deep_stats["cache_hit"] is False
        assert (tmp_path / ".replint-cache.json").is_file()
        second = run_lint([str(pkg)], config=LintConfig(), root=tmp_path)
        assert second.deep_stats["cache_hit"] is True
        assert [v.render() for v in first.violations] == [
            v.render() for v in second.violations
        ]

    def test_edit_invalidates_the_cache(self, tmp_path):
        pkg = self._workspace(tmp_path)
        run_lint([str(pkg)], config=LintConfig(), root=tmp_path)
        pkg.write_text(
            "from fractions import Fraction\n"
            "x = Fraction(1, 3)\n"
        )
        result = run_lint([str(pkg)], config=LintConfig(), root=tmp_path)
        assert result.deep_stats["cache_hit"] is False
        assert not any(v.code == "RPL008" for v in result.violations)

    def test_deselected_rules_build_no_graph_and_write_no_cache(self, tmp_path):
        pkg = self._workspace(tmp_path)
        result = run_lint(
            [str(pkg)], config=LintConfig(select=("RPL001",)), root=tmp_path
        )
        assert result.clean
        assert result.deep_stats["call_graph_edges"] == 0
        assert not (tmp_path / ".replint-cache.json").exists()


class TestSarifAndBaseline:
    def test_sarif_payload_shape(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "from fractions import Fraction\n"
            "value = 0.5\n"
            "x = Fraction(value)\n"
        )
        result = run_lint(
            [str(path)], config=LintConfig(), root=tmp_path,
            deep_cache=False,
        )
        sarif = result.to_sarif()
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RPL008", "RPL009"} <= rule_ids
        results = run["results"]
        assert any(r["ruleId"] == "RPL008" for r in results)
        json.dumps(sarif)  # must be serializable as-is

    def test_sarif_payload_helper_matches_engine(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text("from fractions import Fraction\nx = Fraction(0.5)\n")
        result = run_lint(
            [str(path)], config=LintConfig(), root=tmp_path,
            deep_cache=False,
        )
        payload = sarif_payload(result.violations, [])
        assert payload["runs"][0]["results"]


class TestObservability:
    def test_deep_pass_emits_span_and_counters(self, tmp_path):
        from repro.obs import tracing

        path = tmp_path / "module.py"
        path.write_text(
            "from fractions import Fraction\n"
            "value = 0.5\n"
            "x = Fraction(value)\n"
        )
        with tracing(close=False) as tracer:
            run_lint(
                [str(path)], config=LintConfig(), root=tmp_path,
                deep_cache=False,
            )
        tracer.flush()  # counters aggregate until flushed
        events = tracer.sink.events
        spans = [
            e for e in events
            if e.get("event") == "span" and e.get("name") == "lint.deep"
        ]
        assert spans, "no lint.deep span emitted"
        assert spans[0]["attrs"]["files"] == 1
        counters = {
            e["name"] for e in events if e.get("event") == "counter"
        }
        assert "lint.deep.files" in counters
        assert "lint.deep.findings" in counters


class TestProjectGraph:
    def test_graph_builds_over_src(self):
        import ast

        files = []
        for path in sorted((REPO_ROOT / "src" / "repro" / "lint").rglob("*.py")):
            relpath = str(path.relative_to(REPO_ROOT))
            files.append((relpath, ast.parse(path.read_text()), path))
        graph = ProjectGraph.build(files)
        assert graph.edge_count > 0
        assert any(
            info.module == "repro.lint.flow" for info in graph.functions.values()
        )
