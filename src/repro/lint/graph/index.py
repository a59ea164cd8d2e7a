"""The project index: every file's facts, linked, with an on-disk cache.

The index is phase two's input: a map of modules to
:class:`~repro.lint.graph.facts.FileFacts` plus the cross-file lookups
the whole-program rules need — dotted-symbol resolution through package
re-exports, class lookup, and method resolution over the class hierarchy.

The cache is a single sorted-JSON file keyed by **content hash** (sha256
of the source bytes), so ``touch``-ing a file re-hashes but never
re-extracts, while any real edit invalidates exactly that file. A
version stamp (:data:`~repro.lint.graph.facts.FACTS_VERSION`) guards
against stale schemas. Cache hits and misses are identical by
construction — facts round-trip losslessly through JSON — which the CI
cache-correctness check enforces byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.context import FileContext
from repro.lint.graph.facts import FACTS_VERSION, ClassFacts, FileFacts, FunctionFacts, extract_facts

_CACHE_VERSION = 1

#: Symbol-resolution hop budget: re-export chains longer than this are a
#: cycle (``from .a import x`` <-> ``from .b import x``), not a symbol.
_MAX_HOPS = 16


def _content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class IndexCache:
    """Load/store of per-file facts keyed by content hash."""

    path: Path
    entries: dict[str, dict] = field(default_factory=dict)  # rel -> {hash, facts}

    @classmethod
    def load(cls, path: str | Path) -> "IndexCache":
        path = Path(path)
        cache = cls(path=path)
        if not path.exists():
            return cache
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache  # unreadable cache == cold cache, never an error
        if (
            not isinstance(document, dict)
            or document.get("cache_version") != _CACHE_VERSION
            or document.get("facts_version") != FACTS_VERSION
        ):
            return cache
        files = document.get("files", {})
        if isinstance(files, dict):
            cache.entries = files
        return cache

    def lookup(self, rel: str, digest: str) -> FileFacts | None:
        entry = self.entries.get(rel)
        if entry is None or entry.get("hash") != digest:
            return None
        try:
            return FileFacts.from_json(entry["facts"])
        except (KeyError, TypeError):
            return None

    def store(self, rel: str, digest: str, facts: FileFacts) -> None:
        self.entries[rel] = {"hash": digest, "facts": facts.to_json()}

    def write(self, scanned: set[str]) -> None:
        """Persist entries for the scanned files (dropping deleted ones)."""
        document = {
            "cache_version": _CACHE_VERSION,
            "facts_version": FACTS_VERSION,
            "tool": "repro-lint",
            "files": {
                rel: entry
                for rel, entry in sorted(self.entries.items())
                if rel in scanned
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )


@dataclass(slots=True)
class ProjectIndex:
    """All files' facts plus the cross-file resolution lookups."""

    files: dict[str, FileFacts] = field(default_factory=dict)   # rel -> facts
    modules: dict[str, FileFacts] = field(default_factory=dict)  # module -> facts
    #: Files whose facts were re-extracted (cache misses) this build.
    reindexed: tuple[str, ...] = ()

    # ---------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        contexts: dict[str, FileContext],
        cache: IndexCache | None = None,
    ) -> "ProjectIndex":
        """Build the index from parsed file contexts, consulting ``cache``."""
        index = cls()
        reindexed: list[str] = []
        for rel in sorted(contexts):
            ctx = contexts[rel]
            digest = _content_hash(ctx.source)
            facts = cache.lookup(rel, digest) if cache is not None else None
            if facts is None:
                facts = extract_facts(ctx)
                reindexed.append(rel)
                if cache is not None:
                    cache.store(rel, digest, facts)
            index.files[rel] = facts
            index.modules[facts.module] = facts
        index.reindexed = tuple(reindexed)
        if cache is not None:
            cache.write(scanned=set(contexts))
        return index

    # -------------------------------------------------------------- lookups
    def function(self, dotted: str) -> tuple[FileFacts, FunctionFacts] | None:
        """``repro.core.group.ReplicationGroup._on_prepare`` -> its facts pair."""
        module, _sep, qualname = dotted.rpartition(".")
        # Method: module.Class.method — the module is one segment shorter.
        facts = self.modules.get(module)
        if facts is not None and qualname in facts.functions:
            return facts, facts.functions[qualname]
        parent, _sep, cls_name = module.rpartition(".")
        facts = self.modules.get(parent)
        if facts is not None:
            method = f"{cls_name}.{qualname}"
            if method in facts.functions:
                return facts, facts.functions[method]
        return None

    def cls(self, dotted: str) -> tuple[FileFacts, ClassFacts] | None:
        module, _sep, name = dotted.rpartition(".")
        facts = self.modules.get(module)
        if facts is not None and name in facts.classes:
            return facts, facts.classes[name]
        return None

    def resolve_symbol(self, dotted: str | None) -> str | None:
        """Chase package re-exports until ``dotted`` names a real symbol.

        ``repro.lint.Baseline`` (bound by ``repro/lint/__init__.py``)
        resolves to ``repro.lint.baseline.Baseline``. Returns the input
        unchanged when it already names an indexed class/function, or
        None when nothing in the project matches.
        """
        for _hop in range(_MAX_HOPS):
            if dotted is None:
                return None
            if self.cls(dotted) is not None or self.function(dotted) is not None:
                return dotted
            module, _sep, attr = dotted.rpartition(".")
            facts = self.modules.get(module)
            if facts is None or attr not in facts.imports:
                return None
            dotted = facts.imports[attr]
        return None

    def find_method(self, dotted_cls: str, name: str) -> str | None:
        """Resolve ``name`` on ``dotted_cls`` or its base-class chain."""
        seen: set[str] = set()
        queue = [dotted_cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            resolved = self.resolve_symbol(current)
            if resolved is None:
                continue
            pair = self.cls(resolved)
            if pair is None:
                continue
            facts, cls_facts = pair
            if name in cls_facts.methods or name in cls_facts.properties:
                return f"{facts.module}.{cls_facts.name}.{name}"
            queue.extend(cls_facts.bases)
        return None

    def attr_type(self, dotted_cls: str, attr: str) -> str | None:
        """The constructor class assigned to ``self.<attr>`` on a class or
        its bases (``self.recovery = RecoveryCoordinator(self)``)."""
        seen: set[str] = set()
        queue = [dotted_cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            resolved = self.resolve_symbol(current)
            if resolved is None:
                continue
            pair = self.cls(resolved)
            if pair is None:
                continue
            _facts, cls_facts = pair
            for name, ctor in cls_facts.attr_types:
                if name == attr:
                    return self.resolve_symbol(ctor)
            queue.extend(cls_facts.bases)
        return None

    def layer_of_function(self, dotted: str) -> str | None:
        pair = self.function(dotted)
        return pair[0].layer if pair is not None else None

    def message_classes(self) -> dict[str, tuple[FileFacts, ClassFacts]]:
        """Every indexed message dataclass, keyed by dotted name."""
        out: dict[str, tuple[FileFacts, ClassFacts]] = {}
        for module in sorted(self.modules):
            facts = self.modules[module]
            for name in sorted(facts.classes):
                cls_facts = facts.classes[name]
                if cls_facts.is_message:
                    out[f"{module}.{name}"] = (facts, cls_facts)
        return out
