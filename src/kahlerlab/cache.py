"""Input-hash result cache for CLI runs.

A run's cache key is the SHA-256 of its canonical configuration (command
name, parameters, and a fingerprint of the package source, so that no edit
to the code can be answered from a result of the code before it).  Payloads
are stored verbatim as text files under a local cache directory, so a cache
hit reproduces the original output byte for byte — which is exactly what the
determinism contract wants.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

__all__ = ["config_hash", "source_fingerprint", "ResultCache"]

DEFAULT_CACHE_DIR = ".artifact-cache"


def config_hash(payload: dict[str, Any]) -> str:
    """Canonical SHA-256 of a JSON-serializable config dict."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """SHA-256 over the names and bytes of the package's *.py files."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


class ResultCache:
    """Text payloads keyed by config hash.

    ``enabled=False`` turns every operation into a no-op (the ``--no-cache``
    path), so callers never need to branch.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR, enabled: bool = True):
        self.root = Path(root)
        self.enabled = enabled

    def _path(self, key: str, suffix: str) -> Path:
        return self.root / f"{key}{suffix}"

    def load(self, key: str, suffix: str = ".txt") -> str | None:
        if not self.enabled:
            return None
        p = self._path(key, suffix)
        if not p.is_file():
            return None
        return p.read_text(encoding="utf-8")

    def store(self, key: str, text: str, suffix: str = ".txt") -> None:
        if not self.enabled:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._path(key, suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self._path(key, suffix))

    def get_or_make(self, key: str, producer: Callable[[], str], suffix: str = ".txt") -> tuple[str, bool]:
        """Return (payload, was_hit)."""
        hit = self.load(key, suffix)
        if hit is not None:
            return hit, True
        text = producer()
        self.store(key, text, suffix)
        return text, False
