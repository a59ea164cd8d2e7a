"""Per-file analysis context: AST, imports, layers and suppressions.

The context is built once per file and shared by every rule, so the tree
is parsed once, the import table is resolved once, and rules stay small:
most are a walk over ``ctx.tree`` plus calls to :meth:`FileContext.resolve`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath

#: Directories under the ``repro`` package whose code runs inside the
#: deterministic simulation and therefore may not touch ambient
#: nondeterminism (wall clocks, unseeded RNGs, process entropy).
DETERMINISTIC_LAYERS = frozenset(
    {"sim", "core", "net", "chaos", "election", "cluster", "storage"}
)

#: Suppression comments, e.g. ``lint: ignore[DET001, MSG002] -- reason``.
#: Anchored to the start of the comment token so prose that merely
#: *mentions* the syntax (like this comment) never suppresses anything.
_SUPPRESSION_RE = re.compile(
    r"^#\s*lint:\s*ignore\[(?P<rules>[A-Za-z0-9_*,\s]*)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(slots=True)
class Suppression:
    """One ``# lint: ignore[...]`` comment, tracked for use and misuse."""

    line: int
    rules: tuple[str, ...]
    reason: str | None
    used: bool = False

    def matches(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


def layer_of(rel_path: str) -> str | None:
    """The architectural layer a file belongs to.

    The layer is the path segment directly below the ``repro`` package
    directory (``src/repro/core/group.py`` -> ``core``). Trees that do
    not contain a ``repro`` segment (test fixtures) fall back to the first
    directory under the scan root, so fixture layouts like
    ``<tmp>/core/mod.py`` classify the same way.
    """
    parts = PurePosixPath(rel_path).parts
    if "repro" in parts[:-1]:
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
        below = parts[anchor + 1 :]
        return below[0] if len(below) > 1 else None
    return parts[0] if len(parts) > 1 else None


def _module_package(rel_path: str) -> tuple[str, ...]:
    """Dotted-package parts of a module file, for relative-import resolution.

    Both ``pkg/mod.py`` and ``pkg/__init__.py`` resolve level-1 imports
    against ``pkg``, so the package is simply the containing directory.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts.pop()
    return tuple(parts)


@dataclass(slots=True)
class FileContext:
    """Everything a rule needs to know about one source file."""

    rel: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    layer: str | None = None
    imports: dict[str, str] = field(default_factory=dict)
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: (start, end, qualname) spans of every def/class, innermost last.
    symbols: list[tuple[int, int, str]] = field(default_factory=list)
    #: Lazily computed flat node list shared by every rule (see ``walk``).
    _nodes: tuple[ast.AST, ...] | None = None

    @classmethod
    def parse(cls, source: str, rel: str) -> "FileContext":
        """Build a context; raises ``SyntaxError`` on unparseable source."""
        tree = ast.parse(source, filename=rel)
        ctx = cls(
            rel=rel,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            layer=layer_of(rel),
        )
        ctx._collect_imports()
        ctx._collect_suppressions()
        ctx._collect_symbols(tree.body, prefix="")
        return ctx

    # ------------------------------------------------------------- imports
    def _collect_imports(self) -> None:
        package = _module_package(self.rel)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a`` (to package a); with an
                    # asname it binds the full dotted module.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node, package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    @staticmethod
    def _resolve_from_base(node: ast.ImportFrom, package: tuple[str, ...]) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: climb ``level - 1`` packages above this module's
        # package, then descend into ``node.module``.
        anchor = package[: len(package) - (node.level - 1)] if node.level > 1 else package
        parts = list(anchor)
        if node.module:
            parts.extend(node.module.split("."))
        return ".".join(parts)

    def walk(self) -> tuple[ast.AST, ...]:
        """Every node of the tree, walked once and shared by all rules.

        A dozen rules each calling ``ast.walk(ctx.tree)`` re-traverses the
        file a dozen times; the flat tuple makes the traversal cost
        per-file instead of per-rule (the scan's former hot path).  Order
        matches ``ast.walk`` (breadth-first), so findings keep their
        historical ordering.
        """
        if self._nodes is None:
            self._nodes = tuple(ast.walk(self.tree))
        return self._nodes

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a name/attribute chain, through import aliases.

        ``random.Random`` (after ``import random``) -> ``"random.Random"``;
        ``Random`` (after ``from random import Random``) -> the same.
        Returns ``None`` for anything that is not a resolvable chain
        (calls on call results, subscripts, locals the file never imported).
        """
        chain: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        chain.append(root)
        return ".".join(reversed(chain))

    # -------------------------------------------------------- suppressions
    def _collect_suppressions(self) -> None:
        # Tokenize so that the marker only counts in real comments — a
        # docstring *describing* the suppression syntax is not an ignore.
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return  # unparseable files are reported as LINT000 anyway
        for number, text in comments:
            match = _SUPPRESSION_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            self.suppressions[number] = Suppression(
                line=number, rules=rules, reason=match.group("reason")
            )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True (and mark used) if ``line`` carries an ignore for ``rule_id``."""
        suppression = self.suppressions.get(line)
        if suppression is not None and suppression.matches(rule_id):
            suppression.used = True
            return True
        return False

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    # ------------------------------------------------------------- symbols
    def _collect_symbols(self, body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{node.name}"
                self.symbols.append(
                    (node.lineno, node.end_lineno or node.lineno, qualname)
                )
                self._collect_symbols(node.body, prefix=f"{qualname}.")

    def symbol_at(self, line: int) -> str:
        """Qualname of the innermost def/class enclosing ``line``.

        Used by the v2 baseline fingerprint: symbols survive file moves,
        absolute line numbers do not. Module-level code (imports,
        constants) reports ``<module>``.
        """
        best: tuple[int, str] | None = None
        for start, end, qualname in self.symbols:
            if start <= line <= end:
                span = end - start
                if best is None or span < best[0]:
                    best = (span, qualname)
        return best[1] if best is not None else "<module>"
