"""The ``repro lint`` engine: discovery, config, suppressions, output.

Design goals (mirroring what sanitizers do for a systems stack):

* **Zero dependencies** — pure stdlib ``ast``; runs anywhere the package
  does, including the Python 3.9 floor (a tiny TOML-subset reader stands
  in for :mod:`tomllib` there).
* **Deterministic output** — violations sort by path, line, column, code,
  so CI diffs are stable.
* **Escape hatches that leave a trail** — inline
  ``# replint: disable=RPL001`` suppressions and a ``[tool.replint]``
  table in pyproject.toml, both of which are grep-able.

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .flow import FLOW_RULES, run_deep, sarif_payload
from .rules import LintConfig, ModuleContext, ProjectRule, RULES, Violation

#: What a bare ``repro lint`` (and the report's ``lint.json``) checks.
DEFAULT_TARGETS = ("src", "tests", "scripts")

#: ``(code, name, rationale)`` of every rule a lint run applies, in code
#: order: what ``--list-rules`` prints.
_CATALOGUE: Tuple[Tuple[str, str, str], ...] = tuple(
    (rule.code, rule.name, rule.rationale) for rule in (*RULES, *FLOW_RULES)
)
#: Reported for a file that does not parse; it is not a rule one selects.
_SYNTAX_ERROR = ("RPL000", "syntax-error", "file does not parse")

#: Every code ``--select`` / ``--ignore`` accept.
ALL_CODES: Tuple[str, ...] = tuple(
    code for code, _, _ in _CATALOGUE + (_SYNTAX_ERROR,)
)

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

_SUPPRESS = re.compile(r"#\s*replint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE = re.compile(r"#\s*replint:\s*disable-file=([A-Za-z0-9_,\s]+)")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_toml_subset(text: str) -> Dict[str, Dict[str, object]]:
    """Parse just enough TOML for ``[tool.replint]`` on Python < 3.11.

    Supports tables, string values, booleans, integers, and (possibly
    multi-line) arrays of strings.  This is not a general TOML parser —
    it exists so the linter works on the 3.9 CI floor without adding a
    dependency.
    """
    tables: Dict[str, Dict[str, object]] = {}
    current: Dict[str, object] = tables.setdefault("", {})
    pending_key: Optional[str] = None
    pending_chunks: List[str] = []

    def parse_scalar(token: str) -> object:
        token = token.strip()
        if token.startswith(("\"", "'")):
            return token[1:-1]
        if token in ("true", "false"):
            return token == "true"
        try:
            return int(token)
        except ValueError:
            return token

    def parse_array(body: str) -> List[object]:
        items: List[object] = []
        for part in re.findall(r"\"(?:[^\"\\]|\\.)*\"|'[^']*'|[^,\s\[\]]+", body):
            if part.strip():
                items.append(parse_scalar(part))
        return items

    for raw_line in text.splitlines():
        line = raw_line
        if "#" in line and "\"" not in line and "'" not in line:
            line = line.split("#", 1)[0]
        stripped = line.strip()
        if pending_key is not None:
            pending_chunks.append(stripped)
            if stripped.endswith("]"):
                body = " ".join(pending_chunks)
                current[pending_key] = parse_array(body[1:-1] if body.startswith("[") else body.rstrip("]"))
                pending_key, pending_chunks = None, []
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]") and "=" not in stripped:
            current = tables.setdefault(stripped[1:-1].strip(), {})
            continue
        if "=" in stripped:
            key, _, value = stripped.partition("=")
            key, value = key.strip().strip("\"'"), value.strip()
            if value.startswith("["):
                if value.endswith("]") and value.count("[") == value.count("]"):
                    current[key] = parse_array(value[1:-1])
                else:
                    pending_key, pending_chunks = key, [value[1:]]
            else:
                current[key] = parse_scalar(value)
    return tables


def _load_pyproject(path: Path) -> Dict[str, object]:
    text = path.read_text()
    try:
        import tomllib  # Python >= 3.11

        return tomllib.loads(text)
    except ImportError:  # pragma: no cover - exercised on the 3.9 CI floor
        tables = _parse_toml_subset(text)
        result: Dict[str, object] = {}
        for name, table in tables.items():
            if not name:
                continue
            node = result
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})  # type: ignore[assignment]
            node[parts[-1]] = table
        return result


def find_project_root(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest directory with pyproject.toml."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current] + list(current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _tuple_of_str(value: object) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)):
        return tuple(str(item) for item in value)
    return ()


def load_config(root: Optional[Path]) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.replint]``, with defaults."""
    config = LintConfig()
    if root is None:
        return config
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    data = _load_pyproject(pyproject)
    table = data.get("tool", {})
    table = table.get("replint", {}) if isinstance(table, dict) else {}
    if not isinstance(table, dict):
        return config

    def get(key: str) -> object:
        return table.get(key, table.get(key.replace("_", "-")))

    if get("exclude") is not None:
        config.exclude = _tuple_of_str(get("exclude"))
    if get("select") is not None:
        config.select = _tuple_of_str(get("select"))
    if get("ignore") is not None:
        config.ignore = _tuple_of_str(get("ignore"))
    if get("traceability_paths") is not None:
        config.traceability_paths = _tuple_of_str(get("traceability_paths"))
    if get("future_import_paths") is not None:
        config.future_import_paths = _tuple_of_str(get("future_import_paths"))
    if get("api_init") is not None:
        config.api_init = str(get("api_init"))
    if get("api_doc") is not None:
        config.api_doc = str(get("api_doc"))
    if get("solver_adapters") is not None:
        config.solver_adapters = str(get("solver_adapters"))
    if get("solver_mark_paths") is not None:
        config.solver_mark_paths = _tuple_of_str(get("solver_mark_paths"))
    return config


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _excluded(relpath: str, config: LintConfig) -> bool:
    for pattern in config.exclude:
        pattern = pattern.rstrip("/")
        if (
            relpath == pattern
            or relpath.startswith(pattern + "/")
            or fnmatch.fnmatch(relpath, pattern)
        ):
            return True
    return False


def iter_python_files(
    targets: Sequence[Path], root: Path, config: LintConfig
) -> Iterator[Path]:
    """Yield the ``.py`` files under ``targets`` that survive excludes."""
    seen = set()
    for target in targets:
        if target.is_file():
            candidates: Iterable[Path] = [target]
        else:
            candidates = sorted(target.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if "__pycache__" in resolved.parts:
                continue
            if _excluded(_relpath(resolved, root), config):
                continue
            yield resolved


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def _codes_from_match(match: "re.Match[str]") -> Tuple[str, ...]:
    # each comma-separated chunk may carry a trailing justification
    # ("RPL001 returns the stored literal"); only its first token is a code
    return tuple(
        chunk.split()[0].upper() for chunk in match.group(1).split(",") if chunk.split()
    )


def _line_suppresses(line: str, code: str) -> bool:
    match = _SUPPRESS.search(line)
    if not match:
        return False
    codes = _codes_from_match(match)
    return "ALL" in codes or code in codes


def _suppressed(violation: Violation, lines: Sequence[str]) -> bool:
    """Inline ``# replint: disable=`` on the flagged line, on a decorator
    line directly above it, or file-level ``disable-file=``."""
    for line in lines:
        match = _SUPPRESS_FILE.search(line)
        if match:
            codes = _codes_from_match(match)
            if "ALL" in codes or violation.code in codes:
                return True
    if not (1 <= violation.line <= len(lines)):
        return False
    if _line_suppresses(lines[violation.line - 1], violation.code):
        return True
    # A suppression on a decorator also covers the decorated definition:
    # findings anchor at the `def` line, one-plus lines below `@decorator`.
    index = violation.line - 2
    while index >= 0 and lines[index].lstrip().startswith("@"):
        if _line_suppresses(lines[index], violation.code):
            return True
        index -= 1
    return False


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    targets: Tuple[str, ...] = ()
    #: the RPL008-RPL009 pass's files/edges/taint-steps/cache stats
    deep_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.clean else EXIT_VIOLATIONS

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.code] = tally.get(violation.code, 0) + 1
        return dict(sorted(tally.items()))

    def to_json(self) -> Dict[str, object]:
        return {
            "tool": "replint",
            "targets": list(self.targets),
            "files_checked": self.files_checked,
            "clean": self.clean,
            "counts": self.counts(),
            "violations": [violation.to_json() for violation in self.violations],
            "deep": self.deep_stats,
        }

    def to_sarif(self) -> Dict[str, object]:
        return sarif_payload(self.violations, _CATALOGUE + (_SYNTAX_ERROR,))


def run_lint(
    targets: Sequence[str],
    config: Optional[LintConfig] = None,
    root: Optional[Path] = None,
    *,
    deep_cache: bool = True,
) -> LintResult:
    """Lint ``targets`` (files or directories) and return the result.

    ``root`` anchors relative paths (config path prefixes, RPL004 file
    locations); it defaults to the nearest ancestor of the first target
    holding a pyproject.toml, falling back to the current directory.

    The per-file and project rules run first, then the whole-program
    RPL008-RPL009 pass (:mod:`repro.lint.flow`) over the same parsed
    files; ``deep_cache=False`` neither reads nor writes that pass's
    findings cache.
    """
    target_paths = [Path(target) for target in targets]
    for target in target_paths:
        if not target.exists():
            raise FileNotFoundError(f"lint target does not exist: {target}")
    if root is None:
        anchor = target_paths[0] if target_paths else Path.cwd()
        root = find_project_root(anchor) or Path.cwd()
    root = root.resolve()
    if config is None:
        config = load_config(root)

    result = LintResult(targets=tuple(str(t) for t in targets))
    file_lines: Dict[str, Sequence[str]] = {}
    parsed: List[Tuple[str, str, ast.Module, Path]] = []
    for path in iter_python_files(target_paths, root, config):
        relpath = _relpath(path, root)
        # utf-8-sig transparently strips a BOM, which ast.parse rejects
        source = path.read_text(encoding="utf-8-sig")
        result.files_checked += 1
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            result.violations.append(
                Violation(
                    relpath, error.lineno or 1, (error.offset or 1), "RPL000",
                    f"syntax error: {error.msg}",
                )
            )
            continue
        file_lines[relpath] = source.splitlines()
        parsed.append((relpath, source, tree, path))
        ctx = ModuleContext(
            path=path, relpath=relpath, source=source, tree=tree,
            config=config, root=root,
        )
        for rule in RULES:
            if isinstance(rule, ProjectRule) or not config.rule_enabled(rule.code):
                continue
            result.violations.extend(rule.check(ctx))
    for rule in RULES:
        if isinstance(rule, ProjectRule) and config.rule_enabled(rule.code):
            result.violations.extend(rule.check_project(root, config))

    deep_violations, result.deep_stats = run_deep(
        parsed, root, config, use_cache=deep_cache
    )
    result.violations.extend(deep_violations)

    kept: List[Violation] = []
    for violation in result.violations:
        lines = file_lines.get(violation.path)
        if lines is None:
            candidate = root / violation.path
            if candidate.is_file():
                lines = candidate.read_text(encoding="utf-8-sig").splitlines()
                file_lines[violation.path] = lines
            else:
                lines = ()
        if not _suppressed(violation, lines):
            kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    result.violations = kept
    return result


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to an argparse parser."""
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_TARGETS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="output format (--json is shorthand for --format json)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, help="comma-separated rule codes to skip"
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore [tool.replint] in pyproject.toml",
    )
    parser.add_argument(
        "--root", default=None, help="project root (default: auto-detected)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule codes and exit"
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed CLI arguments."""
    if args.list_rules:
        for code, name, rationale in _CATALOGUE:
            print(f"{code}  {name}: {rationale}")
        return EXIT_CLEAN
    root = Path(args.root).resolve() if args.root else None
    if args.no_config:
        config = LintConfig()
    else:
        detected = root or find_project_root(Path(args.paths[0])) or Path.cwd()
        config = load_config(detected)
    if args.select:
        config.select = tuple(
            code.strip().upper() for code in args.select.split(",") if code.strip()
        )
    if args.ignore:
        config.ignore = tuple(
            code.strip().upper() for code in args.ignore.split(",") if code.strip()
        )
    unknown = [
        code
        for code in (config.select or ()) + config.ignore
        if code not in ALL_CODES
    ]
    if unknown:
        print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    output = args.format or ("json" if args.json else "text")
    try:
        result = run_lint(args.paths, config=config, root=root)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    if output == "json":
        print(json.dumps(result.to_json(), indent=2))
    elif output == "sarif":
        print(json.dumps(result.to_sarif(), indent=2))
    else:
        for violation in result.violations:
            print(violation.render())
        noun = "violation" if len(result.violations) == 1 else "violations"
        stats = result.deep_stats
        print(
            f"replint: {len(result.violations)} {noun} "
            f"({result.files_checked} files checked; "
            f"{stats.get('call_graph_edges', 0)} call edges, "
            f"{stats.get('taint_steps', 0)} taint steps, "
            f"cache {'hit' if stats.get('cache_hit') else 'miss'})"
        )
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="domain-aware static analysis for the reproduction "
        "(exactness, reproducibility, paper traceability)",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
