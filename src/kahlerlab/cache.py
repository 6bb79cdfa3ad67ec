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

CACHE_DIR = Path(".artifact-cache")


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
    """Text payloads keyed by config hash, one file each under CACHE_DIR.

    ``enabled=False`` (the ``--no-cache`` path) always runs the producer and
    stores nothing, so callers never need to branch.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def get_or_make(self, key: str, producer: Callable[[], str], suffix: str) -> tuple[str, bool]:
        """Return (payload, was_hit). A new payload is written to a temporary
        file and renamed into place, so no reader sees a partial one."""
        path = CACHE_DIR / f"{key}{suffix}"
        if self.enabled and path.is_file():
            return path.read_text(encoding="utf-8"), True
        text = producer()
        if self.enabled:
            CACHE_DIR.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)
        return text, False
