"""Per-rule tests: every RPL code fires exactly where the fixtures say.

Each rule has one ``*_bad.py`` fixture (known violations at known lines)
and one ``*_ok.py`` fixture (the compliant spelling of the same code).
"""

from pathlib import Path

from repro.lint import LintConfig, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures"


def lint_fixture(name, code, **config_kwargs):
    config = LintConfig(select=(code,), **config_kwargs)
    result = run_lint([str(FIXTURES / name)], config=config, root=REPO_ROOT)
    return result


def fired_lines(result, path_suffix=None):
    return [
        violation.line
        for violation in result.violations
        if path_suffix is None or violation.path.endswith(path_suffix)
    ]


class TestRPL001FloatEquality:
    def test_bad_fixture_fires_per_line(self):
        result = lint_fixture("rpl001_bad.py", "RPL001")
        assert fired_lines(result) == [5, 6, 7]
        assert all(v.code == "RPL001" for v in result.violations)

    def test_ok_fixture_is_clean(self):
        result = lint_fixture("rpl001_ok.py", "RPL001")
        assert result.clean, result.violations


class TestRPL002UnseededRandomness:
    def test_bad_fixture_fires_per_line(self):
        result = lint_fixture("rpl002_bad.py", "RPL002")
        assert fired_lines(result) == [9, 10, 11, 12, 13]

    def test_ok_fixture_is_clean(self):
        result = lint_fixture("rpl002_ok.py", "RPL002")
        assert result.clean, result.violations


class TestRPL003Exactness:
    """The retired per-file exactness rule's cases, now reported by RPL008
    from the flow corpus (``fixtures/flow/rpl008/taint_*``)."""

    CASES = (
        "taint_fraction_of_float.py",
        "taint_fraction_of_float_cast.py",
        "taint_literal_into_exact_fn.py",
    )

    def _run(self, *names):
        paths = [str(FIXTURES / "flow" / "rpl008" / name) for name in names]
        return run_lint(
            paths, config=LintConfig(select=("RPL008",)), root=REPO_ROOT,
            deep_cache=False,
        )

    def test_bad_fixture_fires_per_line(self):
        result = self._run(*self.CASES)
        fired = sorted(
            (Path(v.path).name, v.line) for v in result.violations
        )
        assert fired == [
            ("taint_fraction_of_float.py", 5),
            ("taint_fraction_of_float_cast.py", 5),
            ("taint_literal_into_exact_fn.py", 11),
        ]
        assert all(v.code == "RPL008" for v in result.violations)

    def test_fraction_of_float_message(self):
        result = self._run("taint_fraction_of_float.py")
        assert "flows into Fraction()" in result.violations[0].message


class TestRPL004ApiDrift:
    def _run(self, flavour):
        config = LintConfig(
            select=("RPL004",),
            api_init=f"tests/lint/fixtures/rpl004/{flavour}_pkg/__init__.py",
            api_doc=f"tests/lint/fixtures/rpl004/{flavour}_api.md",
        )
        return run_lint(
            [str(FIXTURES / "rpl004" / f"{flavour}_pkg")],
            config=config,
            root=REPO_ROOT,
        )

    def test_bad_fixture_reports_every_drift(self):
        result = self._run("bad")
        messages = [violation.message for violation in result.violations]
        assert any("'missing_fn' does not resolve" in m for m in messages)
        assert any("'undocumented_fn' is not documented" in m for m in messages)
        assert any("'extra_fn' is imported" in m for m in messages)
        assert any("repro.impl.ghost_fn" in m for m in messages)
        assert any("repro.phantom_module.thing" in m for m in messages)
        assert len(result.violations) == 5

    def test_doc_violations_point_into_the_doc(self):
        result = self._run("bad")
        doc_lines = fired_lines(result, path_suffix="bad_api.md")
        assert doc_lines == [7, 8]

    def test_ok_fixture_is_clean(self):
        result = self._run("ok")
        assert result.clean, result.violations


class TestRPL005PaperTraceability:
    def test_bad_fixture_fires(self):
        result = lint_fixture(
            "rpl005_bad.py", "RPL005",
            traceability_paths=("tests/lint/fixtures",),
        )
        assert fired_lines(result) == [1]
        assert "paper anchor" in result.violations[0].message

    def test_ok_fixture_is_clean(self):
        result = lint_fixture(
            "rpl005_ok.py", "RPL005",
            traceability_paths=("tests/lint/fixtures",),
        )
        assert result.clean, result.violations

    def test_rule_only_applies_to_configured_paths(self):
        # default config: fixtures are outside core/analysis/hardness
        result = lint_fixture("rpl005_bad.py", "RPL005")
        assert result.clean


class TestRPL007SolverRegistration:
    def _run(self, flavour):
        config = LintConfig(
            select=("RPL007",),
            solver_adapters=f"tests/lint/fixtures/rpl007/{flavour}_adapters.py",
            solver_mark_paths=(f"tests/lint/fixtures/rpl007/{flavour}_core",),
        )
        return run_lint(
            [str(FIXTURES / "rpl007" / f"{flavour}_core")],
            config=config,
            root=REPO_ROOT,
        )

    def test_bad_fixture_reports_unregistered_solver_and_missing_anchor(self):
        result = self._run("bad")
        assert fired_lines(result, path_suffix="solverlib.py") == [1, 4]
        messages = [violation.message for violation in result.violations]
        assert any("'forgotten_solver'" in m and "never imported" in m for m in messages)
        assert any("no paper anchor" in m for m in messages)
        assert all(v.code == "RPL007" for v in result.violations)

    def test_unmarked_functions_are_ignored(self):
        result = self._run("bad")
        assert not any("plain_helper" in v.message for v in result.violations)

    def test_ok_fixture_is_clean(self):
        result = self._run("ok")
        assert result.clean, result.violations

    def test_rule_is_noop_without_an_adapters_module(self):
        config = LintConfig(
            select=("RPL007",),
            solver_adapters="tests/lint/fixtures/rpl007/missing_adapters.py",
            solver_mark_paths=("tests/lint/fixtures/rpl007/bad_core",),
        )
        result = run_lint(
            [str(FIXTURES / "rpl007" / "bad_core")], config=config, root=REPO_ROOT
        )
        assert result.clean, result.violations

    def test_real_tree_satisfies_the_default_contract(self):
        """Every marked solver in src/repro/core is wrapped by the adapters."""
        result = run_lint(
            [str(REPO_ROOT / "src")],
            config=LintConfig(select=("RPL007",)),
            root=REPO_ROOT,
        )
        assert result.clean, result.violations


class TestRPL006Hygiene:
    def test_mutable_defaults_fire(self):
        result = lint_fixture("rpl006_bad.py", "RPL006")
        assert fired_lines(result) == [5, 10]

    def test_future_import_required_under_configured_paths(self):
        result = lint_fixture(
            "rpl006_bad.py", "RPL006",
            future_import_paths=("tests/lint/fixtures",),
        )
        assert fired_lines(result) == [1, 5, 10]

    def test_ok_fixture_is_clean_even_under_configured_paths(self):
        result = lint_fixture(
            "rpl006_ok.py", "RPL006",
            future_import_paths=("tests/lint/fixtures",),
        )
        assert result.clean, result.violations
