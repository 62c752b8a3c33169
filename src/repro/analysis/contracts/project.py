"""File discovery, configuration, the project symbol table and the
incremental fact cache.

:func:`build_project` walks the program tree (``src`` by default) plus
optional *reference* roots (tests/benchmarks/examples — read-side
evidence for the C-rules), extracts
:class:`~repro.analysis.contracts.facts.ModuleFacts` per file, and
assembles a :class:`ProjectIndex` both rule families run over.

Configuration
-------------
``[tool.detlint]`` in ``pyproject.toml`` supplies project defaults for
both rule families::

    [tool.detlint]
    exclude = ["tests/"]   # path substrings whose D-findings are skipped
    select  = []           # empty = all rules
    ignore  = []           # rule codes disabled globally

``exclude`` only silences D-findings: excluded files are still scanned,
because the C-rules read them as evidence.  CLI flags override the
config; ``tomllib`` is used when available (Python 3.11+) and config
loading degrades to defaults without it.

Incremental cache
-----------------
Extraction parses every file with ``ast`` — cheap once, but the analyzer
is meant to run on every commit, so facts are memoized in a JSON cache
(default ``.contracts_cache.json`` next to the tree root, gitignored):

- a file whose ``(mtime_ns, size)`` pair is unchanged is trusted without
  being read;
- a touched-but-identical file (mtime changed, bytes identical) is
  detected by SHA-256 and its facts reused;
- anything else is re-parsed, and the entry is rewritten.

Cache entries also record the facts schema version — bumping
``FACTS_VERSION`` invalidates every entry at once.  The D-rule
violations are facts too, so a warm run reparses nothing for either
rule family: it stats files and loads one JSON document, well under a
second, which is the budget the pre-commit hook holds it to.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.contracts.facts import (FACTS_VERSION, ClassFact,
                                            ModuleFacts, extract_facts,
                                            parse_error_facts)

__all__ = ["DetlintConfig", "ProjectIndex", "build_project", "load_config",
           "DEFAULT_CACHE"]

#: Cache filename (relative to cwd unless an absolute path is given).
DEFAULT_CACHE = ".contracts_cache.json"

_CACHE_VERSION = 1


def _module_name(path: Path) -> str:
    """Dotted module path for a file (``src/repro/comm/bus.py`` ->
    ``repro.comm.bus``); falls back to the stem outside a package."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro", "tests", "benchmarks", "examples"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _normalize(path: Path) -> Path:
    """Cwd-relative form when possible.  Fingerprints and cache keys are
    built from these paths, so analyzing ``/abs/repo/src`` and ``src``
    must yield identical identities or the baseline ratchet would break
    under one invocation style and not the other."""
    if path.is_absolute():
        try:
            return path.relative_to(Path.cwd())
        except ValueError:
            return path
    return path


@dataclass
class DetlintConfig:
    """Effective configuration after merging pyproject + CLI flags."""

    select: tuple[str, ...] = ()      # empty selects every rule
    ignore: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def excludes_path(self, path: str) -> bool:
        """True when ``path`` holds an ``exclude`` substring: its
        D-findings are dropped."""
        return any(pat in path for pat in self.exclude)


def load_config(root: Optional[Path] = None) -> DetlintConfig:
    """Read ``[tool.detlint]`` from the nearest ``pyproject.toml``.

    Searches ``root`` (default: cwd) and its parents; returns defaults
    when no file, no table, or no toml parser is available.
    """
    try:
        import tomllib
    except ImportError:  # pragma: no cover - py3.10 without tomli
        return DetlintConfig()
    base = (root or Path.cwd()).resolve()
    candidates = [base, *base.parents] if base.is_dir() \
        else [base.parent, *base.parent.parents]
    for directory in candidates:
        pyproject = directory / "pyproject.toml"
        if not pyproject.is_file():
            continue
        try:
            table = tomllib.loads(pyproject.read_text("utf-8"))
        except (OSError, tomllib.TOMLDecodeError):
            return DetlintConfig()
        section = table.get("tool", {}).get("detlint", {})
        return DetlintConfig(
            select=tuple(section.get("select", ())),
            ignore=tuple(section.get("ignore", ())),
            exclude=tuple(section.get("exclude", ())),
        )
    return DetlintConfig()


def discover_files(roots: Sequence[Path]) -> list[Path]:
    """Every ``*.py`` under ``roots`` (sorted, pycache/hidden skipped)."""
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(p for p in sorted(root.rglob("*.py"))
                         if "__pycache__" not in p.parts
                         and not any(part.startswith(".")
                                     for part in p.parts))
        elif root.suffix == ".py" and root.exists():
            files.append(root)
    return files


@dataclass
class ProjectIndex:
    """The assembled whole-program view the contract rules consume."""

    program: list[ModuleFacts] = field(default_factory=list)
    references: list[ModuleFacts] = field(default_factory=list)
    files_scanned: int = 0
    files_reparsed: int = 0
    cache_hits: int = 0

    # -- derived tables (built lazily, cached) -----------------------------

    _classes: Optional[dict[str, tuple[ModuleFacts, ClassFact]]] = None
    _string_counts: Optional[dict[str, int]] = None

    def modules(self) -> Iterable[ModuleFacts]:
        return self.program

    def classes(self) -> dict[str, tuple[ModuleFacts, ClassFact]]:
        """``module.ClassName`` (and unique bare-name alias) -> facts."""
        if self._classes is None:
            table: dict[str, tuple[ModuleFacts, ClassFact]] = {}
            bare: dict[str, list[str]] = {}
            for facts in self.program:
                for cls in facts.classes:
                    qual = f"{facts.module}.{cls.name}"
                    table[qual] = (facts, cls)
                    bare.setdefault(cls.name, []).append(qual)
            for name, quals in bare.items():
                if name not in table and len(quals) == 1:
                    table[name] = table[quals[0]]
            self._classes = table
        return self._classes

    def resolve_class(self, name: str) -> Optional[str]:
        """Canonical ``module.ClassName`` key for a (possibly bare or
        import-resolved) class reference, if it is a project class."""
        table = self.classes()
        if name in table:
            facts, cls = table[name]
            return f"{facts.module}.{cls.name}"
        # Import resolution yields e.g. ``repro.data.shard.ShardedDiscovery
        # Index`` whose module is the defining module — but re-exports
        # (``from repro.data.mesh import DiscoveryIndex`` imported as
        # ``repro.data.DiscoveryIndex``) won't be keyed that way, so fall
        # back to the terminal class name when it is unique.
        terminal = name.rsplit(".", 1)[-1]
        if terminal != name and terminal in table:
            facts, cls = table[terminal]
            return f"{facts.module}.{cls.name}"
        return None

    def string_occurrences(self, needle: str) -> int:
        """Occurrences of ``needle`` across *all* scanned files: exact
        string-literal matches plus literals containing it as a
        substring (rendered metric names, pytest match patterns...)."""
        counts = self._all_string_counts()
        total = counts.get(needle, 0)
        for value, n in counts.items():
            if value != needle and needle in value:
                total += n
        return total

    def _all_string_counts(self) -> dict[str, int]:
        if self._string_counts is None:
            counts: dict[str, int] = {}
            for facts in (*self.program, *self.references):
                for value, n in facts.strings.items():
                    counts[value] = counts.get(value, 0) + n
            self._string_counts = counts
        return self._string_counts


# -- cache ---------------------------------------------------------------------


def _load_cache(path: Optional[Path]) -> dict:
    if path is None or not path.is_file():
        return {"version": _CACHE_VERSION, "facts_version": FACTS_VERSION,
                "files": {}}
    try:
        data = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError):
        data = {}
    if data.get("version") != _CACHE_VERSION \
            or data.get("facts_version") != FACTS_VERSION \
            or not isinstance(data.get("files"), dict):
        return {"version": _CACHE_VERSION, "facts_version": FACTS_VERSION,
                "files": {}}
    return data


def _save_cache(path: Optional[Path], cache: dict) -> None:
    if path is None:
        return
    try:
        path.write_text(json.dumps(cache, sort_keys=True), "utf-8")
    except OSError:  # pragma: no cover - read-only checkout
        pass


def _facts_for_file(path: Path, kind: str, cache_files: dict,
                    index: ProjectIndex) -> ModuleFacts:
    key = path.as_posix()
    module = _module_name(path)
    try:
        stat = path.stat()
    except OSError as exc:
        return parse_error_facts(key, module, 1, str(exc))
    entry = cache_files.get(key)
    if entry is not None and entry.get("mtime_ns") == stat.st_mtime_ns \
            and entry.get("size") == stat.st_size:
        index.cache_hits += 1
        return ModuleFacts.from_dict(entry["facts"])
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return parse_error_facts(key, module, 1, str(exc))
    digest = hashlib.sha256(raw).hexdigest()
    if entry is not None and entry.get("sha256") == digest:
        # Touched but unchanged: refresh the stat pair, keep the facts.
        entry["mtime_ns"] = stat.st_mtime_ns
        entry["size"] = stat.st_size
        index.cache_hits += 1
        return ModuleFacts.from_dict(entry["facts"])
    index.files_reparsed += 1
    try:
        source = raw.decode("utf-8")
        facts = extract_facts(source, key, module)
    except SyntaxError as exc:
        facts = parse_error_facts(key, module, exc.lineno or 1,
                                  exc.msg or "syntax error")
    except UnicodeDecodeError as exc:
        facts = parse_error_facts(key, module, 1, str(exc))
    cache_files[key] = {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size,
                        "sha256": digest, "kind": kind,
                        "facts": facts.to_dict()}
    return facts


def build_project(paths: Sequence[str | Path],
                  refs: Sequence[str | Path] = (),
                  cache_path: Optional[str | Path] = DEFAULT_CACHE,
                  ) -> ProjectIndex:
    """Scan program + reference roots into a :class:`ProjectIndex`.

    ``cache_path=None`` disables the incremental cache entirely (every
    file is parsed fresh — the cold-run behaviour).
    """
    cache_file = Path(cache_path) if cache_path is not None else None
    cache = _load_cache(cache_file)
    files = cache["files"]
    index = ProjectIndex()
    live_keys: set[str] = set()
    for path in discover_files([Path(p) for p in paths]):
        path = _normalize(path)
        live_keys.add(path.as_posix())
        index.program.append(_facts_for_file(path, "program", files, index))
    for path in discover_files([Path(p) for p in refs]):
        path = _normalize(path)
        key = path.as_posix()
        if key in live_keys:
            continue
        live_keys.add(key)
        index.references.append(
            _facts_for_file(path, "reference", files, index))
    index.files_scanned = len(index.program) + len(index.references)
    # Evict entries for files that no longer exist in the scan set but
    # keep entries from other scan configurations (different roots).
    stale = [k for k, v in files.items()
             if k not in live_keys and not Path(k).exists()]
    for k in stale:
        del files[k]
    _save_cache(cache_file, cache)
    return index
