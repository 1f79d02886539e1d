"""Content-addressed result cache for simulation runs.

Every run in this repo is a pure function of its inputs: the scenario
spec, the variant, the seed, and the :class:`~repro.config.RunConfig`
(the determinism contract the goldens pin). That makes run summaries
perfectly cacheable — *if* the key really captures all the content:

``key = sha256(scenario ⊕ variant ⊕ seed ⊕ config ⊕ code ⊕ schema)``

* **scenario** — :func:`~repro.config.canonical_json` of the full spec
  (grid, layout, events, policy, even the app factory's code object and
  closure), not its name: editing a scenario invalidates its entries.
* **config** — :meth:`RunConfig.cache_key_data`, which enumerates every
  field; the property suite in ``tests/serving/test_cache_key.py``
  mutates each one and asserts a key change.
* **code** — :func:`code_fingerprint`, a digest over every ``.py`` file
  of the installed ``repro`` package. Any code change — an engine fast
  path, a policy constant — invalidates the whole cache, which is the
  only sound default for a bit-exact contract.
* **schema** — bumped when the cached value's format changes.

Keys are hex SHA-256 strings, independent of the process (no reliance on
``hash()``, pickle memo order, or set iteration order).

Key derivation is memoised: the canonical text of a scenario and of a
config is remembered per live object when that object is transitively
immutable (frozen dataclasses, tuples, atoms — see
:func:`repro.config._memo_json`), so a repeated request costs one
SHA-256 over remembered text. Anything holding a function, a mutable
container or a plain object is re-encoded on every call. The memo is an
accelerator only: the key bytes are those of the recipe above.

Storage is two-layer: an in-memory LRU dict for the hot working set, and
an optional on-disk layer (one JSON file per entry, atomic rename
writes, LRU eviction by mtime) so a sweep's results survive process
restarts. Values are JSON-able summary dicts — exactly the payload
``repro run --json`` writes — so a disk round trip is byte-preserving.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..config import RunConfig, _memo_json, canonical_json

__all__ = ["CACHE_SCHEMA", "ResultCache", "cache_key", "code_fingerprint"]

#: bump when the cached summary payload format changes.
CACHE_SCHEMA = 1


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` package's source code.

    SHA-256 over every ``*.py`` file under the package root, keyed by
    its package-relative path, so the fingerprint is independent of
    where the tree is checked out but sensitive to any source change.
    Computed once per process (the package cannot change underneath a
    running interpreter).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


_CODE_FINGERPRINT: Optional[str] = None

#: what ``config=None`` means; one instance, so its key text is memoised.
_DEFAULT_CONFIG = RunConfig()


def _config_json(config: RunConfig) -> str:
    return canonical_json(config.cache_key_data())


def cache_key(
    scenario: Any,
    variant: str,
    seed: int,
    config: Optional[RunConfig] = None,
    *,
    code: Optional[str] = None,
) -> str:
    """The content address of one run.

    ``scenario`` is a :class:`~repro.experiments.scenarios.ScenarioSpec`,
    a :class:`~repro.experiments.largegrid.LargeGridSpec`, or any other
    canonically serializable run definition. ``code`` overrides the
    source fingerprint (tests use this to simulate a code change).
    """
    config = config if config is not None else _DEFAULT_CONFIG
    payload = "\n".join(
        (
            f"schema={CACHE_SCHEMA}",
            f"code={code if code is not None else code_fingerprint()}",
            f"scenario={_memo_json(scenario)}",
            f"variant={variant}",
            f"seed={int(seed)}",
            f"config={_memo_json(config, _config_json)}",
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`ResultCache`."""

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class ResultCache:
    """Two-layer (memory + disk) LRU cache of run summaries.

    ``directory=None`` keeps the cache purely in memory. The disk layer
    holds one ``<key>.json`` per entry; a memory eviction does not touch
    the disk copy, so the memory layer is a working-set accelerator over
    the durable layer. All methods are safe against concurrent readers
    (writes are atomic renames); concurrent writers of the *same* key
    write identical bytes by construction.
    """

    max_memory_entries: int = 512
    directory: Optional[str] = None
    max_disk_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        if self.max_disk_entries < 1:
            raise ValueError("max_disk_entries must be >= 1")
        self._memory: OrderedDict[str, Any] = OrderedDict()
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored summary for ``key``, or None (counted as a miss).

        Disk hits are promoted into the memory layer and refreshed on
        disk (mtime is the disk layer's LRU clock).
        """
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return value
        path = self._path(key)
        if path is not None and path.exists():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    document = json.load(fh)
                value = document["summary"]
            except (OSError, ValueError, KeyError):
                # a torn or foreign file: treat as absent
                value = None
            if value is not None:
                os.utime(path)
                self._remember(key, value)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return None

    # -- storage -----------------------------------------------------------

    def put(self, key: str, summary: Any, meta: Optional[dict] = None) -> None:
        """Store a JSON-able ``summary`` under ``key`` in both layers."""
        self._remember(key, summary)
        self.stats.stores += 1
        path = self._path(key)
        if path is None:
            return
        document = {"key": key, "summary": summary, "meta": meta or {}}
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".cache-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(document, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._evict_disk()

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return Path(self.directory) / f"{key}.json"

    def _entries_on_disk(self) -> list[Path]:
        if self.directory is None:
            return []
        return [
            p
            for p in Path(self.directory).iterdir()
            if p.suffix == ".json" and not p.name.startswith(".")
        ]

    def _evict_disk(self) -> None:
        entries = self._entries_on_disk()
        if len(entries) <= self.max_disk_entries:
            return
        entries.sort(key=lambda p: (p.stat().st_mtime, p.name))
        for path in entries[: len(entries) - self.max_disk_entries]:
            try:
                path.unlink()
                self.stats.evictions += 1
            except OSError:
                pass

    def clear(self) -> None:
        """Drop both layers (the disk directory itself is kept)."""
        self._memory.clear()
        for path in self._entries_on_disk():
            try:
                path.unlink()
            except OSError:
                pass
