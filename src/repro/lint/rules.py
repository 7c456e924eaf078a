"""The domain-specific rule registry for ``repro lint``.

Each rule guards an invariant the test suite can only sample:

* **RPL001** — float equality: bare ``==``/``!=`` between float-valued
  expressions silently breaks the exact-``Fraction`` evaluation paths of
  Lemma 2.1.  Use ``math.isclose`` or compare exact ``Fraction`` values.
* **RPL002** — unseeded randomness: every stochastic component must draw
  from an explicit seeded ``np.random.Generator`` (EXPERIMENTS.md
  reproducibility contract); module-level ``random.*`` / ``np.random.*``
  state is forbidden.
* **RPL004** — public-API drift between ``repro.__init__.__all__`` and
  ``docs/api.md`` (both directions).
* **RPL005** — paper traceability: modules under ``core/``, ``analysis/``
  and ``hardness/`` must cite a Lemma/Theorem/Section/Figure anchor in
  their module docstring (docs/paper_map.md contract).
* **RPL006** — Python hygiene that has bitten reproducibility before:
  mutable default arguments, and missing
  ``from __future__ import annotations`` in ``src/repro``.
* **RPL007** — solver registration: every entry point whose docstring
  carries ``replint: solver`` must be imported (hence wrapped and
  registered) by ``src/repro/solvers/adapters.py``, and any module
  defining such an entry point must cite a paper anchor.

Rules are deliberately single-file AST passes (plus project-level
passes for RPL004 and RPL007) so the linter stays dependency-free and
fast.  The exactness invariant (no float reaches ``Fraction()`` or an
exact-marked function) is guarded by the whole-program rule RPL008 in
:mod:`repro.lint.flow`, which sees through helpers and variables.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a per-file rule needs to inspect one module."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    config: "LintConfig"
    root: Path


@dataclass
class LintConfig:
    """Configuration, loaded from ``[tool.replint]`` in pyproject.toml."""

    exclude: Tuple[str, ...] = ()
    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    traceability_paths: Tuple[str, ...] = (
        "src/repro/core",
        "src/repro/analysis",
        "src/repro/hardness",
    )
    future_import_paths: Tuple[str, ...] = ("src/repro",)
    api_init: str = "src/repro/__init__.py"
    api_doc: str = "docs/api.md"
    solver_adapters: str = "src/repro/solvers/adapters.py"
    solver_mark_paths: Tuple[str, ...] = ("src/repro/core",)

    def rule_enabled(self, code: str) -> bool:
        if self.select is not None and code not in self.select:
            return False
        return code not in self.ignore


def _under(relpath: str, prefixes: Iterable[str]) -> bool:
    return any(
        relpath == prefix or relpath.startswith(prefix.rstrip("/") + "/")
        for prefix in prefixes
    )


class Rule:
    """Base class: per-file AST rules override :meth:`check`."""

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        return iter(())


class ProjectRule(Rule):
    """Project-wide rules run once per invocation, not per file."""

    def check_project(self, root: Path, config: LintConfig) -> Iterator[Violation]:
        return iter(())


# ---------------------------------------------------------------------------
# RPL001 — float equality
# ---------------------------------------------------------------------------

_FLOAT_CAST_NAMES = {"float"}
_FLOAT_CAST_ATTRS = {"float16", "float32", "float64", "float_"}


def _is_float_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _FLOAT_CAST_NAMES or func.id.endswith("_float")
    if isinstance(func, ast.Attribute):
        return func.attr in _FLOAT_CAST_ATTRS or func.attr.endswith("_float")
    return False


def _float_literal_is_inexact(node: ast.Constant, source: str) -> bool:
    """True when the decimal text of a float literal is not the float's value.

    ``x == 6.0`` is a deterministic comparison (6.0 is exactly
    representable); ``x == 0.3`` is not — no computation lands exactly on
    the double nearest to 0.3 except by copying the same literal.
    """
    segment = ast.get_source_segment(source, node)
    if segment is None:  # pragma: no cover - only for synthetic trees
        return True
    text = segment.strip().replace("_", "")
    try:
        return Fraction(Decimal(text)) != Fraction(node.value)
    except (InvalidOperation, ValueError, OverflowError):
        return True


_TOLERANT_COMPARATORS = {"approx", "isclose"}


def _is_tolerant_call(node: ast.AST) -> bool:
    """``pytest.approx(...)`` / ``isclose(...)`` overload ``==`` safely."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (
        func.id if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute)
        else ""
    )
    return name in _TOLERANT_COMPARATORS


def _is_unsafe_float_expr(node: ast.AST, source: str) -> bool:
    """Expressions whose ``==`` comparison is numerically fragile."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return _float_literal_is_inexact(node, source)
    if _is_float_call(node):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_unsafe_float_expr(node.operand, source)
    if isinstance(node, ast.BinOp):
        # arithmetic that mixes in any float literal or float() cast
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if _is_float_call(sub):
                return True
    return False


class FloatEqualityRule(Rule):
    code = "RPL001"
    name = "float-equality"
    rationale = (
        "bare ==/!= on float-valued expressions breaks the exact Lemma 2.1 "
        "evaluation contract; use math.isclose or exact Fractions"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_tolerant_call(left) or _is_tolerant_call(right):
                    continue
                if _is_unsafe_float_expr(left, ctx.source) or _is_unsafe_float_expr(
                    right, ctx.source
                ):
                    yield Violation(
                        ctx.relpath,
                        node.lineno,
                        node.col_offset + 1,
                        self.code,
                        "float-valued equality comparison; use math.isclose "
                        "or keep the computation in exact Fractions",
                    )
                    break


# ---------------------------------------------------------------------------
# RPL002 — unseeded randomness
# ---------------------------------------------------------------------------

_NP_LEGACY_SAMPLERS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "normal", "permutation", "poisson",
    "rand", "randint", "randn", "random", "random_sample", "ranf", "sample",
    "seed", "shuffle", "standard_normal", "uniform", "zipf",
}

_STDLIB_SAMPLERS = {
    "betavariate", "choice", "choices", "expovariate", "gauss", "getrandbits",
    "paretovariate", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}


def _attr_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("")
    return parts[::-1]


class UnseededRandomnessRule(Rule):
    code = "RPL002"
    name = "unseeded-randomness"
    rationale = (
        "stochastic components must take an explicit seeded "
        "np.random.Generator so every experiment is reproducible"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        imports_stdlib_random = any(
            (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "random")
            for node in ast.walk(ctx.tree)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            tail = chain[-1]
            # default_rng() / np.random.default_rng() with no seed argument
            if tail == "default_rng" and not node.args and not node.keywords:
                yield Violation(
                    ctx.relpath, node.lineno, node.col_offset + 1, self.code,
                    "default_rng() without a seed; pass an explicit seed or "
                    "a spawned SeedSequence",
                )
                continue
            # random.Random() with no seed argument
            if tail == "Random" and len(chain) >= 2 and chain[-2] == "random" \
                    and not node.args and not node.keywords:
                yield Violation(
                    ctx.relpath, node.lineno, node.col_offset + 1, self.code,
                    "random.Random() without a seed; pass an explicit seed",
                )
                continue
            # legacy numpy global RNG: np.random.uniform(...), np.random.seed(...)
            if len(chain) >= 3 and chain[-2] == "random" and tail in _NP_LEGACY_SAMPLERS:
                yield Violation(
                    ctx.relpath, node.lineno, node.col_offset + 1, self.code,
                    f"module-level np.random.{tail}() uses hidden global "
                    "state; draw from a passed-in np.random.Generator",
                )
                continue
            # stdlib random module functions: random.random(), random.choice(...)
            if (
                imports_stdlib_random
                and len(chain) == 2
                and chain[0] == "random"
                and tail in _STDLIB_SAMPLERS
            ):
                yield Violation(
                    ctx.relpath, node.lineno, node.col_offset + 1, self.code,
                    f"module-level random.{tail}() uses hidden global state; "
                    "use a seeded np.random.Generator or random.Random(seed)",
                )


# ---------------------------------------------------------------------------
# RPL004 — public-API drift
# ---------------------------------------------------------------------------

_DOC_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def _bound_names(tree: ast.Module) -> Set[str]:
    """Names statically bound at module level (imports, defs, assignments)."""
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            bound.add(element.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Import):
                    for alias in sub.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
                elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            bound.add(target.id)
    return bound


def _extract_all(tree: ast.Module) -> List[Tuple[str, int]]:
    entries: List[Tuple[str, int]] = []
    for node in tree.body:
        targets: Sequence[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        if value is None:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        entries.append((element.value, element.lineno))
    return entries


class ApiDriftRule(ProjectRule):
    code = "RPL004"
    name = "api-drift"
    rationale = (
        "repro.__all__ entries must resolve and be documented in "
        "docs/api.md, and doc references must resolve in the source tree"
    )

    def __init__(self) -> None:
        self._module_cache: Dict[Path, Optional[Set[str]]] = {}

    def _module_names(self, path: Path) -> Optional[Set[str]]:
        if path not in self._module_cache:
            try:
                tree = ast.parse(path.read_text())
            except (OSError, SyntaxError):
                self._module_cache[path] = None
            else:
                self._module_cache[path] = _bound_names(tree)
        return self._module_cache[path]

    def _resolve_doc_ref(self, package_dir: Path, parts: Sequence[str]) -> bool:
        """Statically resolve ``repro.a.b.c`` against the source tree."""
        current = package_dir
        for index, part in enumerate(parts):
            if (current / part).is_dir():
                current = current / part
                continue
            if (current / (part + ".py")).is_file():
                names = self._module_names(current / (part + ".py"))
                if names is None:
                    return False
                remaining = parts[index + 1:]
                return not remaining or remaining[0] in names
            names = self._module_names(current / "__init__.py")
            return names is not None and part in names
        return (current / "__init__.py").is_file()

    def check_project(self, root: Path, config: LintConfig) -> Iterator[Violation]:
        init_path = root / config.api_init
        doc_path = root / config.api_doc
        if not init_path.is_file():
            return
        init_rel = config.api_init
        doc_rel = config.api_doc
        try:
            tree = ast.parse(init_path.read_text())
        except SyntaxError:
            return
        bound = _bound_names(tree)
        all_entries = _extract_all(tree)
        all_names = {name for name, _ in all_entries}
        doc_text = doc_path.read_text() if doc_path.is_file() else ""

        for name, lineno in all_entries:
            if name not in bound:
                yield Violation(
                    init_rel, lineno, 1, self.code,
                    f"__all__ entry {name!r} does not resolve to a name "
                    "bound in the package __init__",
                )
            elif not name.startswith("__") and not re.search(
                r"\b%s\b" % re.escape(name), doc_text
            ):
                yield Violation(
                    init_rel, lineno, 1, self.code,
                    f"__all__ entry {name!r} is not documented in {doc_rel}",
                )
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    exported = alias.asname or alias.name
                    if not exported.startswith("_") and exported not in all_names:
                        yield Violation(
                            init_rel, node.lineno, 1, self.code,
                            f"{exported!r} is imported into the public "
                            "package namespace but missing from __all__",
                        )
        package_dir = init_path.parent
        seen: Set[str] = set()
        for lineno, line in enumerate(doc_text.splitlines(), start=1):
            for match in _DOC_REF.finditer(line):
                ref = match.group(1)
                if ref in seen:
                    continue
                seen.add(ref)
                if not self._resolve_doc_ref(package_dir, ref.split(".")[1:]):
                    yield Violation(
                        doc_rel, lineno, match.start() + 1, self.code,
                        f"documented symbol {ref!r} does not resolve in the "
                        "source tree",
                    )


# ---------------------------------------------------------------------------
# RPL005 — paper traceability
# ---------------------------------------------------------------------------

_ANCHOR = re.compile(
    r"(Lemma|Theorem|Thm\.?|Corollary|Cor\.?|Proposition|Prop\.?"
    r"|Section|§|Figure|Fig\.?|Eq\.?)\s*~?\s*[0-9]"
)


class PaperTraceabilityRule(Rule):
    code = "RPL005"
    name = "paper-traceability"
    rationale = (
        "every core/analysis/hardness module must stay traceable to a "
        "paper anchor (docs/paper_map.md contract)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not _under(ctx.relpath, ctx.config.traceability_paths):
            return
        if not ctx.tree.body:  # empty namespace file — nothing to anchor
            return
        doc = ast.get_docstring(ctx.tree)
        if doc is None:
            yield Violation(
                ctx.relpath, 1, 1, self.code,
                "module has no docstring; cite its paper anchor "
                "(Lemma/Theorem/Section/Figure)",
            )
        elif not _ANCHOR.search(doc):
            yield Violation(
                ctx.relpath, 1, 1, self.code,
                "module docstring cites no paper anchor "
                "(Lemma/Theorem/Section/Figure N)",
            )


# ---------------------------------------------------------------------------
# RPL006 — defaults & future-annotations hygiene
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter"}


class HygieneRule(Rule):
    code = "RPL006"
    name = "hygiene"
    rationale = (
        "mutable default arguments alias state across calls; "
        "src/repro modules must import annotations from __future__"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    mutable = isinstance(
                        default,
                        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp),
                    ) or (
                        isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in _MUTABLE_CALLS
                    )
                    if mutable:
                        yield Violation(
                            ctx.relpath, default.lineno, default.col_offset + 1,
                            self.code,
                            "mutable default argument; use None and create "
                            "the object inside the function",
                        )
        if _under(ctx.relpath, ctx.config.future_import_paths) and ctx.tree.body:
            has_future = any(
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(alias.name == "annotations" for alias in node.names)
                for node in ctx.tree.body
            )
            only_docstring = len(ctx.tree.body) == 1 and isinstance(
                ctx.tree.body[0], ast.Expr
            ) and isinstance(ctx.tree.body[0].value, ast.Constant)
            if not has_future and not only_docstring:
                yield Violation(
                    ctx.relpath, 1, 1, self.code,
                    "missing 'from __future__ import annotations'",
                )


# ---------------------------------------------------------------------------
# RPL007 — solver registration
# ---------------------------------------------------------------------------

_SOLVER_DOC_MARK = re.compile(r"replint:\s*solver\b", re.IGNORECASE)


class SolverRegistrationRule(ProjectRule):
    code = "RPL007"
    name = "solver-registration"
    rationale = (
        "every 'replint: solver'-marked entry point must be wrapped by the "
        "repro.solvers adapters module, and its module must cite a paper "
        "anchor (the registry dispatch contract)"
    )

    @staticmethod
    def _imported_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    names.add(alias.name)
        return names

    @staticmethod
    def _marked_functions(
        tree: ast.Module,
    ) -> List["ast.FunctionDef | ast.AsyncFunctionDef"]:
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _SOLVER_DOC_MARK.search(ast.get_docstring(node) or "")
        ]

    def check_project(self, root: Path, config: LintConfig) -> Iterator[Violation]:
        adapters_path = root / config.solver_adapters
        if not adapters_path.is_file():
            return
        try:
            imported = self._imported_names(ast.parse(adapters_path.read_text()))
        except SyntaxError:
            return
        for prefix in config.solver_mark_paths:
            base = root / prefix
            candidates = [base] if base.is_file() else sorted(base.rglob("*.py"))
            for path in candidates:
                if not path.is_file():
                    continue
                relpath = path.relative_to(root).as_posix()
                try:
                    tree = ast.parse(path.read_text())
                except (OSError, SyntaxError):
                    continue
                marked = self._marked_functions(tree)
                if not marked:
                    continue
                for node in marked:
                    if node.name not in imported:
                        yield Violation(
                            relpath, node.lineno, node.col_offset + 1, self.code,
                            f"solver entry point {node.name!r} carries the "
                            "'replint: solver' marker but is never imported by "
                            f"{config.solver_adapters}; register it in "
                            "repro.solvers",
                        )
                doc = ast.get_docstring(tree)
                if doc is None or not _ANCHOR.search(doc):
                    yield Violation(
                        relpath, 1, 1, self.code,
                        "module defines registered solver entry points but its "
                        "docstring cites no paper anchor "
                        "(Lemma/Theorem/Section/Figure N)",
                    )


#: Registry, in code order.  The engine consults this.
RULES: Tuple[Rule, ...] = (
    FloatEqualityRule(),
    UnseededRandomnessRule(),
    ApiDriftRule(),
    PaperTraceabilityRule(),
    HygieneRule(),
    SolverRegistrationRule(),
)
