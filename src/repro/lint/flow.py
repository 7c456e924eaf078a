"""The deep lint pass: RPL008-RPL009 over the whole-program model.

``run_deep`` is the orchestration layer the engine calls for
``repro lint --deep``:

1. build a :class:`~repro.lint.callgraph.ProjectGraph` from the already
   parsed files;
2. run the two taint fixpoints (:class:`~repro.lint.taint.
   ExactnessPolicy` for RPL008, :class:`~repro.lint.taint.SeedFlowPolicy`
   for RPL009);
3. cache the findings keyed by a digest of every file's content hash, the
   analyzer version, and the effective configuration — CI reruns on an
   unchanged tree are a single JSON read;
4. emit a ``lint.deep`` span and counters through :mod:`repro.obs`.

The module also owns the SARIF serialization.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..obs import count, span
from .callgraph import ProjectGraph
from .rules import LintConfig, Violation
from .taint import (
    DEFAULT_SEED_DOMAIN,
    ExactnessPolicy,
    Finding,
    SeedFlowPolicy,
    TaintAnalysis,
)

#: Bump when analysis semantics change — invalidates every cache.
ANALYZER_VERSION = "2"
CACHE_FILENAME = ".replint-deep-cache.json"


@dataclass(frozen=True)
class FlowRule:
    """Descriptor for one deep rule (mirrors the shallow Rule surface)."""

    code: str
    name: str
    rationale: str


FLOW_RULES: Tuple[FlowRule, ...] = (
    FlowRule(
        "RPL008",
        "exactness-taint",
        "interprocedural float→Fraction contamination tracking: float "
        "literals, true division, and numpy/math results must not reach "
        "Fraction() or exact-marked/registry-exact solver functions "
        "(sanitizers: Fraction(str(x)), Fraction(x).limit_denominator(n))",
    ),
    FlowRule(
        "RPL009",
        "seed-flow",
        "dataflow proof that every RNG reaching repro.cellnet/"
        "repro.distributions/repro.experiments/FaultInjector descends "
        "from an explicit SeedSequence or seeded Generator parameter",
    ),
)

DEEP_CODES: Tuple[str, ...] = tuple(rule.code for rule in FLOW_RULES)


def registry_exact_sinks() -> FrozenSet[str]:
    """Dotted names of exact-path functions declared by the solver
    registry — the RPL008 sink set, derived from the registry's adapter
    metadata.  Degrades to the marker-based sinks
    alone when the registry (and its numpy dependency) is unavailable.
    """
    try:
        import repro.solvers  # noqa: F401  (populates the registry)
        from repro.solvers.registry import exact_sink_functions
    except Exception:
        return frozenset()
    try:
        return frozenset(exact_sink_functions())
    except Exception:
        return frozenset()


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _file_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _config_key(config: LintConfig, sinks: FrozenSet[str]) -> str:
    payload = json.dumps(
        {
            "version": ANALYZER_VERSION,
            "select": sorted(config.select or ()),
            "ignore": sorted(config.ignore),
            "sinks": sorted(sinks),
            "domain": list(DEFAULT_SEED_DOMAIN),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _read_cache(path: Path) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def _write_cache(
    path: Path,
    config_key: str,
    hashes: Dict[str, str],
    violations: Sequence[Violation],
    stats: Dict[str, object],
) -> None:
    payload = {
        "schema": "replint-deep-cache/1",
        "analyzer_version": ANALYZER_VERSION,
        "config_key": config_key,
        "files": hashes,
        "violations": [v.to_json() for v in violations],
        "stats": {
            key: value
            for key, value in stats.items()
            if key not in ("cache_hit", "cache_hit_rate")
        },
    }
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass  # read-only checkout: caching is best-effort


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------

def sarif_payload(
    violations: Sequence[Violation],
    rules: Sequence[Tuple[str, str, str]],
) -> Dict[str, object]:
    """Minimal SARIF 2.1.0 document for CI code-scanning upload."""
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "replint",
                        "informationUri": "docs/linting.md",
                        "rules": [
                            {
                                "id": code,
                                "name": name,
                                "shortDescription": {"text": rationale},
                            }
                            for code, name, rationale in rules
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": violation.code,
                        "level": "error",
                        "message": {"text": violation.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": violation.path
                                    },
                                    "region": {
                                        "startLine": violation.line,
                                        "startColumn": violation.col,
                                    },
                                }
                            }
                        ],
                    }
                    for violation in violations
                ],
            }
        ],
    }


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def run_deep(
    parsed: Sequence[Tuple[str, str, ast.Module, Path]],
    root: Path,
    config: LintConfig,
    *,
    use_cache: bool = True,
    cache_path: Optional[Path] = None,
) -> Tuple[List[Violation], Dict[str, object]]:
    """Run the RPL008-RPL009 deep pass over already-parsed files.

    ``parsed`` holds ``(relpath, source, tree, path)`` tuples.  Returns
    the violations plus a stats mapping (files, call-graph edges, taint
    steps, cache behavior) that also flows into ``repro.obs``.
    """
    with span("lint.deep", files=len(parsed), root=str(root)):
        sinks = registry_exact_sinks() if config.rule_enabled("RPL008") else frozenset()
        hashes = {relpath: _file_digest(source) for relpath, source, _, _ in parsed}
        key = _config_key(config, sinks)
        cache_file = cache_path or (root / CACHE_FILENAME)

        cached = _read_cache(cache_file) if use_cache else None
        hit_rate = 0.0
        if cached is not None and cached.get("config_key") == key:
            old_files = cached.get("files", {})
            if isinstance(old_files, dict) and old_files:
                matching = sum(
                    1 for rel, digest in hashes.items()
                    if old_files.get(rel) == digest
                )
                hit_rate = matching / max(len(hashes), 1)
            if cached.get("files") == hashes:
                violations = [
                    Violation(
                        str(entry["path"]), int(entry["line"]),
                        int(entry["col"]), str(entry["code"]),
                        str(entry["message"]),
                    )
                    for entry in cached.get("violations", [])
                ]
                stats = dict(cached.get("stats", {}))
                stats["cache_hit"] = True
                stats["cache_hit_rate"] = 1.0
                count("lint.deep.cache_hits")
                count("lint.deep.files", len(parsed))
                return violations, stats

        graph = ProjectGraph.build(
            [(relpath, tree, path) for relpath, _, tree, path in parsed]
        )
        findings: List[Finding] = []
        taint_steps = 0
        fixpoint_passes = 0
        if config.rule_enabled("RPL008"):
            analysis = TaintAnalysis(graph, ExactnessPolicy(registry_sinks=sinks))
            findings.extend(analysis.run())
            taint_steps += analysis.steps
            fixpoint_passes = max(fixpoint_passes, analysis.passes)
        if config.rule_enabled("RPL009"):
            analysis = TaintAnalysis(graph, SeedFlowPolicy())
            findings.extend(analysis.run())
            taint_steps += analysis.steps
            fixpoint_passes = max(fixpoint_passes, analysis.passes)

        violations = [
            Violation(f.relpath, f.line, f.col, f.code, f.message)
            for f in findings
        ]
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        stats: Dict[str, object] = {
            "files": len(parsed),
            "functions": len(graph.functions),
            "call_graph_edges": graph.edge_count,
            "taint_steps": taint_steps,
            "fixpoint_passes": fixpoint_passes,
            "registry_sinks": len(sinks),
            "cache_hit": False,
            "cache_hit_rate": round(hit_rate, 4),
        }
        if use_cache:
            _write_cache(cache_file, key, hashes, violations, stats)
        count("lint.deep.files", len(parsed))
        count("lint.deep.callgraph_edges", graph.edge_count)
        count("lint.deep.taint_steps", taint_steps)
        count("lint.deep.findings", len(violations))
        return violations, stats
