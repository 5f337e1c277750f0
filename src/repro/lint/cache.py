"""Per-file content-hash result cache for the incremental lint runner.

Local-rule violations, program-rule facts, suppression directives, and
parse errors all depend only on one file's *text*, so they are keyed by
the sha256 of that text. On an unchanged tree every per-file pass is a
cache hit and ``make lint`` reduces to loading one JSON document plus the
(cheap) program-rule settlement, which must always re-run because it
joins facts across files.

Invalidation is deliberately blunt:

* the envelope carries :func:`linter_digest`, a sha256 of the linter's own
  sources — editing any rule, fact schema, or the entry layout discards
  the whole cache, with nothing to bump by hand;
* the envelope also carries the selected rule set — a ``--select`` run
  and a full run never share entries;
* entries for files not seen in the current run are dropped on save, so
  deleted files cannot resurrect stale findings.

The cache file (default ``.repro-lint-cache.json`` in the working
directory) is an implementation detail: deleting it is always safe and
merely costs one cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

__all__ = ["LintCache", "DEFAULT_CACHE_PATH", "content_hash",
           "linter_digest"]

DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def content_hash(source: str) -> str:
    """Stable key for one file's text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def linter_digest() -> str:
    """sha256 over the names and bytes of the ``repro/lint/*.py`` sources."""
    digest = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.name.encode("utf-8") + b"\0")
        digest.update(source.read_bytes())
    return digest.hexdigest()


class LintCache:
    """Load/store per-file lint results keyed by content hash."""

    def __init__(self, path: str, selected: Iterable[str]):
        self.path = path
        self.selected = sorted(selected)
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._touched: Dict[str, Dict[str, Any]] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(document, dict):
            return
        if document.get("linter") != linter_digest():
            return
        if document.get("rules") != self.selected:
            return
        files = document.get("files")
        if isinstance(files, dict):
            self._entries = files

    # -- per-file API -----------------------------------------------------
    def get(self, path: str, digest: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``path`` when its content still matches."""
        entry = self._entries.get(path)
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            self._touched[path] = entry
            return entry
        self.misses += 1
        return None

    def put(self, path: str, digest: str, entry: Dict[str, Any]) -> None:
        """Record this run's results for ``path``."""
        entry = dict(entry)
        entry["hash"] = digest
        self._entries[path] = entry
        self._touched[path] = entry

    # -- persistence ------------------------------------------------------
    def save(self) -> None:
        """Write the entries touched this run (atomic replace, best effort)."""
        document = {
            "linter": linter_digest(),
            "rules": self.selected,
            "files": self._touched,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            fd, tmp_path = tempfile.mkstemp(prefix=".repro-lint-cache.",
                                            suffix=".tmp", dir=directory)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp_path, self.path)
        except OSError:
            # a read-only tree degrades to uncached runs, never to failure
            return

    def __repr__(self) -> str:  # pragma: no cover
        return (f"LintCache(path={self.path!r}, hits={self.hits}, "
                f"misses={self.misses})")
