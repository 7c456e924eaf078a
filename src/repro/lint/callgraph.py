"""Whole-program model for the deep lint pass: modules, imports, calls.

This is the substrate the RPL008-RPL009 flow rules run on:

* a **project-wide import/symbol graph** — every analyzed file becomes a
  :class:`ModuleInfo` with its local-name → dotted-target import map and
  the functions/classes/globals it binds;
* **call resolution** — each ``ast.Call`` inside a function resolves to a
  :class:`Callee`: a project function (by qualified name), an external
  dotted name (``numpy.random.default_rng``), or a method on an opaque
  receiver;
* the **call graph** — edges between project functions, used for the
  taint fixpoint (:mod:`repro.lint.taint`);
* **per-function def-use chains** — the line-level def/use index that
  backs diagnostics and the docs examples.

Everything here is pure stdlib ``ast``; nothing imports the analyzed
code.  Resolution is deliberately *static and partial*: a call that
cannot be resolved safely degrades to an external/method callee, which
the flow rules treat conservatively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

_EXACT_MARK = "replint: exact"
_SEED_DOMAIN_MARK = "replint: seed-domain"


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    qualname: str          # "<module>:<local path>", e.g. "repro.core.dp:plan"
    module: str            # dotted module name
    local: str             # "plan", "Cls.method", "outer.inner"
    relpath: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    params: Tuple[str, ...]
    class_name: Optional[str] = None
    parent: Optional[str] = None   # qualname of the enclosing function
    exact_marked: bool = False     # name contains "exact" or docstring mark

    @property
    def dotted(self) -> str:
        """Importable dotted spelling, e.g. ``repro.core.dp.plan``."""
        return f"{self.module}.{self.local}"

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """One analyzed file: bindings, imports, and its functions."""

    name: str              # dotted module name ("repro.core.dp")
    relpath: str
    path: Path
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    toplevel: Set[str] = field(default_factory=set)
    classes: Set[str] = field(default_factory=set)
    seed_domain: bool = False      # docstring carries "replint: seed-domain"


@dataclass(frozen=True)
class Callee:
    """The resolution of one call expression.

    ``kind`` is ``"project"`` (``qualname`` set), ``"external"`` (a
    best-effort ``dotted`` name such as ``fractions.Fraction``), or
    ``"method"`` (attribute call on an opaque receiver; only ``attr`` is
    trustworthy).
    """

    kind: str
    attr: str
    dotted: str = ""
    qualname: Optional[str] = None


def attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c(...)`` → ``["a", "b", "c"]``; leading ``""`` if the head
    of the chain is not a plain name (call result, subscript, ...)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "")
    return parts[::-1]


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/core/dp.py`` → ``repro.core.dp``; other roots keep their
    directory spine (``tests/lint/fixtures/x.py`` → ``tests.lint.fixtures.x``).
    """
    parts = list(Path(relpath).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "__main__"


def _docstring(node: ast.AST) -> str:
    try:
        return ast.get_docstring(node) or ""  # type: ignore[arg-type]
    except TypeError:
        return ""


class ProjectGraph:
    """The whole-program model: modules, functions, and the call graph."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}       # by relpath
        self.by_name: Dict[str, str] = {}              # dotted name → relpath
        self.functions: Dict[str, FunctionInfo] = {}   # by qualname
        #: caller qualname → set of project callee qualnames
        self.edges: Dict[str, Set[str]] = {}
        #: (qualname, call node) → resolved Callee, filled lazily
        self._call_cache: Dict[Tuple[str, int, int], Callee] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Sequence[Tuple[str, ast.Module, Path]]) -> "ProjectGraph":
        """Build the model from ``(relpath, parsed tree, path)`` triples."""
        graph = cls()
        for relpath, tree, path in files:
            graph._add_module(relpath, tree, path)
        for module in graph.modules.values():
            graph._link_module(module)
        return graph

    def _add_module(self, relpath: str, tree: ast.Module, path: Path) -> None:
        name = module_name_for(relpath)
        module = ModuleInfo(name=name, relpath=relpath, path=path, tree=tree)
        module.seed_domain = _SEED_DOMAIN_MARK in _docstring(tree)
        self._collect_imports(module)
        self._collect_bindings(module)
        self._collect_functions(module)
        self.modules[relpath] = module
        self.by_name[name] = relpath

    def _collect_imports(self, module: ModuleInfo) -> None:
        package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                if node.level == 0:
                    base = node.module or ""
                else:
                    spine = module.name.split(".")
                    spine = spine[: len(spine) - node.level]
                    base = ".".join(spine)
                    if node.module:
                        base = f"{base}.{node.module}" if base else node.module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _collect_bindings(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.toplevel.add(node.name)
            elif isinstance(node, ast.ClassDef):
                module.toplevel.add(node.name)
                module.classes.add(node.name)
            elif isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    module.toplevel.add(target.id)
        for local in module.imports:
            module.toplevel.add(local)

    def _collect_functions(self, module: ModuleInfo) -> None:
        def visit(body: Sequence[ast.stmt], prefix: str,
                  class_name: Optional[str], parent: Optional[str]) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local = f"{prefix}{node.name}" if prefix else node.name
                    doc = _docstring(node)
                    args = node.args
                    params = tuple(
                        a.arg
                        for a in [*getattr(args, "posonlyargs", []), *args.args,
                                  *args.kwonlyargs]
                    )
                    info = FunctionInfo(
                        qualname=f"{module.name}:{local}",
                        module=module.name,
                        local=local,
                        relpath=module.relpath,
                        node=node,
                        params=params,
                        class_name=class_name,
                        parent=parent,
                        exact_marked="exact" in node.name.lower()
                        or _EXACT_MARK in doc.lower(),
                    )
                    module.functions[local] = info
                    self.functions[info.qualname] = info
                    visit(node.body, local + ".", class_name, info.qualname)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{node.name}.", node.name,
                          parent)
        visit(module.tree.body, "", None, None)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_module(self, dotted: str, importer: ModuleInfo) -> Optional[str]:
        """Map a dotted module spelling to a relpath, if it is in-project.

        Tries the exact name, then the importer's package-relative
        spelling (bare ``helper`` next to the importer), then a unique
        ``*.name`` suffix match — in that order.
        """
        if dotted in self.by_name:
            return self.by_name[dotted]
        if "." in importer.name:
            sibling = importer.name.rsplit(".", 1)[0] + "." + dotted
            if sibling in self.by_name:
                return self.by_name[sibling]
        suffix = "." + dotted
        matches = [rel for name, rel in self.by_name.items()
                   if name.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve_dotted(self, dotted: str, importer: ModuleInfo) -> Optional[FunctionInfo]:
        """Resolve ``pkg.mod.func`` / ``pkg.mod.Cls.method`` to a project
        function, trying the longest module prefix first."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            relpath = self._resolve_module(".".join(parts[:cut]), importer)
            if relpath is None:
                continue
            module = self.modules[relpath]
            local = ".".join(parts[cut:])
            if local in module.functions:
                return module.functions[local]
            return None
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        func: Optional[FunctionInfo],
        node: ast.Call,
        local_names: Optional[Set[str]] = None,
    ) -> Callee:
        """Resolve one call expression inside ``func`` (or module level)."""
        chain = attr_chain(node.func)
        head, attr = chain[0], chain[-1]
        if head == "":
            return Callee(kind="method", attr=attr)
        # self.method() inside a class body
        if (
            head == "self"
            and len(chain) == 2
            and func is not None
            and func.class_name is not None
        ):
            local = f"{func.class_name}.{attr}"
            target = module.functions.get(local)
            if target is not None:
                return Callee(kind="project", attr=attr,
                              dotted=target.dotted, qualname=target.qualname)
            return Callee(kind="method", attr=attr)
        # a local variable shadows everything: opaque method / callable
        if local_names and head in local_names:
            return Callee(kind="method", attr=attr)
        if len(chain) == 1:
            target = module.functions.get(head)
            if target is not None and "." not in head:
                # only top-level functions are callable by bare name
                if target.parent is None and target.class_name is None:
                    return Callee(kind="project", attr=attr,
                                  dotted=target.dotted, qualname=target.qualname)
            if head in module.imports:
                dotted = module.imports[head]
                resolved = self.resolve_dotted(dotted, module)
                if resolved is not None:
                    return Callee(kind="project", attr=attr,
                                  dotted=resolved.dotted,
                                  qualname=resolved.qualname)
                return Callee(kind="external", attr=dotted.split(".")[-1],
                              dotted=dotted)
            return Callee(kind="external", attr=head, dotted=head)
        if head in module.imports:
            dotted = module.imports[head] + "." + ".".join(chain[1:])
            resolved = self.resolve_dotted(dotted, module)
            if resolved is not None:
                return Callee(kind="project", attr=attr,
                              dotted=resolved.dotted, qualname=resolved.qualname)
            return Callee(kind="external", attr=attr, dotted=dotted)
        if head in module.toplevel:
            # method on a module-level object (or Class.method)
            dotted = f"{module.name}.{'.'.join(chain)}"
            local = ".".join(chain)
            target = module.functions.get(local)
            if target is not None:
                return Callee(kind="project", attr=attr,
                              dotted=target.dotted, qualname=target.qualname)
            return Callee(kind="method", attr=attr, dotted=dotted)
        return Callee(kind="method", attr=attr, dotted=".".join(chain))

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def link(self) -> None:
        """(Re)build the project call-graph edges."""
        self.edges = {}
        for module in self.modules.values():
            self._link_module(module)

    def _link_module(self, module: ModuleInfo) -> None:
        for info in module.functions.values():
            edges = self.edges.setdefault(info.qualname, set())
            for call in self.calls_in(info):
                callee = self.resolve_call(module, info, call)
                if callee.kind == "project" and callee.qualname is not None:
                    edges.add(callee.qualname)

    def calls_in(self, func: FunctionInfo) -> Iterator[ast.Call]:
        """Call expressions directly inside ``func`` (not in nested defs)."""
        return own_calls(func.node)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self.edges.values())


def own_statements(
    node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Module",
) -> Iterator[ast.stmt]:
    """Statements belonging to ``node`` itself, descending into control
    flow but not into nested function/class definitions."""
    stack: List[ast.stmt] = list(node.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.excepthandler, ast.withitem)):
                stack.extend(
                    grand for grand in ast.iter_child_nodes(child)
                    if isinstance(grand, ast.stmt)
                )


def stmt_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expressions directly attached to one statement (no sub-stmts)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child
        elif isinstance(child, ast.withitem):
            yield child.context_expr
            if child.optional_vars is not None:
                yield child.optional_vars
        elif isinstance(child, ast.excepthandler) and child.type is not None:
            yield child.type


def walk_expr(expr: ast.expr) -> Iterator[ast.AST]:
    """Walk an expression tree without descending into lambda bodies."""
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))


def own_calls(
    node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Module",
) -> Iterator[ast.Call]:
    """Call expressions in ``node``'s own statements (not nested defs)."""
    for stmt in own_statements(node):
        for expr in stmt_expressions(stmt):
            for child in walk_expr(expr):
                if isinstance(child, ast.Call):
                    yield child


@dataclass
class DefUse:
    """Line-level def/use chain of one name inside one function."""

    name: str
    defs: List[int] = field(default_factory=list)
    uses: List[int] = field(default_factory=list)


def def_use_chains(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Dict[str, DefUse]:
    """Per-function def-use chains: every binding and read of each local.

    Parameters count as a definition on the ``def`` line.  Nested
    function bodies are excluded — they have their own chains.
    """
    chains: Dict[str, DefUse] = {}

    def chain(name: str) -> DefUse:
        return chains.setdefault(name, DefUse(name))

    args = node.args
    for arg in [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]:
        chain(arg.arg).defs.append(node.lineno)
    for stmt in own_statements(node):
        for expr in stmt_expressions(stmt):
            for child in walk_expr(expr):
                if isinstance(child, ast.Name):
                    if isinstance(child.ctx, (ast.Store, ast.Del)):
                        chain(child.id).defs.append(child.lineno)
                    else:
                        chain(child.id).uses.append(child.lineno)
    for entry in chains.values():
        entry.defs.sort()
        entry.uses.sort()
    return chains
