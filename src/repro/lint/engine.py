"""The lint engine: parse once, walk once, dispatch to every rule.

A :class:`Rule` declares which AST node types it wants via ``interests``
and receives each matching node exactly once per file, together with a
:class:`ModuleContext` carrying the parse tree, source lines, and a
resolved import map (so ``dt.datetime.now`` is recognisable as
``datetime.datetime.now`` regardless of aliasing).  A per-function rule
asks for ``FunctionDef`` nodes and reads the body itself.

Inline suppression: a ``# reprolint: disable=RULE1,RULE2`` (or
``disable=all``) comment on the offending line silences those rules for
that line only.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from .findings import Finding, Severity

__all__ = [
    "FunctionNode",
    "ModuleContext",
    "Rule",
    "LintEngine",
    "default_rules",
    "iter_python_files",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_SUPPRESSION = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass
class ModuleContext:
    """Everything a rule may need about the file being checked."""

    path: str  # normalised (posix, root-relative when possible)
    tree: ast.Module
    lines: Sequence[str]
    imports: Dict[str, str] = field(default_factory=dict)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def dotted_name(self, node: ast.expr) -> Optional[str]:
        """Flatten a ``Name``/``Attribute`` chain to ``a.b.c`` text.

        Returns ``None`` when the chain hangs off anything else (a call
        result, a subscript, ...).
        """
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        return ".".join(parts)

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully-qualify a dotted name through the module's imports.

        ``dt.datetime.now`` resolves to ``datetime.datetime.now`` after
        ``import datetime as dt``; names with no import binding come back
        verbatim so rules can still pattern-match local identifiers.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        mapped = self.imports.get(head)
        if mapped is None:
            return dotted
        return f"{mapped}.{rest}" if rest else mapped

    def enclosing_function(self, node: ast.AST) -> Optional[FunctionNode]:
        """The innermost ``def`` around ``node`` (None at module level)."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None


class Rule:
    """Base class / protocol for lint rules.

    Subclasses set the class attributes and implement :meth:`visit`,
    yielding a :class:`Finding` for each violation.  Rules must be
    stateless across files (a fresh walk shares one instance).
    """

    rule_id: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    interests: Tuple[Type[ast.AST], ...] = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self, node: ast.AST, ctx: ModuleContext, message: str
    ) -> Finding:
        """Build a Finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=ctx.path,
            line=lineno,
            column=column,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            snippet=ctx.line_text(lineno),
        )


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Map local alias → fully-qualified origin for every import."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{module}.{alias.name}" if module else alias.name
    return imports


def _collect_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number → rule ids disabled on that line."""
    suppressions: Dict[int, Set[str]] = {}
    for index, line in enumerate(lines, start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        rules = {token.strip() for token in match.group(1).split(",")}
        suppressions[index] = {token for token in rules if token}
    return suppressions


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = (path,)
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def default_rules() -> List[Rule]:
    """One instance of every registered rule, in rule-id order."""
    from .rules import ALL_RULES

    return [rule_cls() for rule_cls in ALL_RULES]


class LintEngine:
    """Parses each file once and dispatches AST nodes to all rules."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = (
            list(rules) if rules is not None else default_rules()
        )
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str) -> List[Finding]:
        """Lint one module's source text (``path`` is for reporting)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 0) + 1,
                    rule_id="PARSE",
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            ]
        lines = source.splitlines()
        ctx = ModuleContext(
            path=path,
            tree=tree,
            lines=lines,
            imports=_collect_imports(tree),
        )
        suppressions = _collect_suppressions(lines)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            for rule in self._dispatch.get(type(node), ()):
                for finding in rule.visit(node, ctx):
                    disabled = suppressions.get(finding.line, set())
                    if "all" in disabled or finding.rule_id in disabled:
                        continue
                    findings.append(finding)
        findings.sort()
        return findings

    def lint_file(self, path: Path, root: Optional[Path] = None) -> List[Finding]:
        """Lint one file; paths are reported relative to ``root``."""
        display = _display_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [
                Finding(
                    path=display,
                    line=1,
                    column=1,
                    rule_id="IO",
                    severity=Severity.ERROR,
                    message=f"cannot read file: {exc}",
                )
            ]
        return self.lint_source(source, display)

    def lint_paths(
        self, paths: Sequence[Path], root: Optional[Path] = None
    ) -> List[Finding]:
        """Lint files and directory trees; returns all findings sorted."""
        findings: List[Finding] = []
        for path in iter_python_files(paths):
            findings.extend(self.lint_file(path, root))
        findings.sort()
        return findings


def _display_path(path: Path, root: Optional[Path]) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
