"""The lint result cache: its envelope is keyed on the linter's own sources."""

from repro.lint import cache as lint_cache
from repro.lint.cache import LintCache, content_hash, linter_digest

RULES = ["D1", "D2"]
SOURCE = "x = 1\n"


def _save_one_entry(path):
    cache = LintCache(str(path), RULES)
    cache.put("a.py", content_hash(SOURCE), {"violations": []})
    cache.save()


def _reload_hits(path):
    cache = LintCache(str(path), RULES)
    return cache.get("a.py", content_hash(SOURCE)) is not None


def test_same_linter_digest_reuses_entries(tmp_path):
    path = tmp_path / "cache.json"
    _save_one_entry(path)
    assert _reload_hits(path)


def test_cache_from_another_linter_is_discarded(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    monkeypatch.setattr(lint_cache, "linter_digest", lambda: "old-rules")
    _save_one_entry(path)
    assert _reload_hits(path)
    monkeypatch.setattr(lint_cache, "linter_digest", lambda: "edited-rules")
    assert not _reload_hits(path)


def test_linter_digest_is_a_stable_sha256():
    digest = linter_digest()
    assert len(digest) == 64 and int(digest, 16) >= 0
    linter_digest.cache_clear()
    assert linter_digest() == digest
