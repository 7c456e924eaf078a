"""``repro.lint`` — domain-aware static analysis for the reproduction.

Machine-checked guardrails for invariants the test suite can only
sample: exact-``Fraction`` arithmetic (Lemma 2.1 evaluators), seeded
randomness (EXPERIMENTS.md), paper traceability (docs/paper_map.md),
and public-API/doc coherence.  See docs/linting.md for the rule
catalogue and rationale.

Programmatic use::

    from repro.lint import run_lint

    result = run_lint(["src", "tests"])
    assert result.clean, result.violations
"""

from __future__ import annotations

from .callgraph import DefUse, ProjectGraph, def_use_chains
from .engine import (
    ALL_CODES,
    DEFAULT_TARGETS,
    EXIT_CLEAN,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    LintResult,
    find_project_root,
    load_config,
    main,
    run_lint,
)
from .flow import DEEP_CODES, FLOW_RULES, run_deep
from .rules import LintConfig, RULES, Rule, Violation

__all__ = [
    "ALL_CODES",
    "DEEP_CODES",
    "DEFAULT_TARGETS",
    "DefUse",
    "EXIT_CLEAN",
    "EXIT_USAGE",
    "EXIT_VIOLATIONS",
    "FLOW_RULES",
    "LintConfig",
    "LintResult",
    "ProjectGraph",
    "RULES",
    "Rule",
    "Violation",
    "def_use_chains",
    "find_project_root",
    "load_config",
    "main",
    "run_deep",
    "run_lint",
]
