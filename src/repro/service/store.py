"""Sharded, content-addressed on-disk result store.

The store is the engine's second cache tier: entries are keyed by the
same content hash as the in-memory result cache
(:meth:`~repro.engine.request.AnalysisRequest.result_key`), so a result
computed by any process — a daemon, a one-shot CLI run, a benchmark
script — is replayable by every later process that builds the same request.

Layout and durability:

* keys are 64-character SHA-256 hex digests; entries live in
  ``root/<key[:2]>/<key>.res`` so no directory grows beyond ~1/256 of
  the store (the usual content-addressed sharding, cf. ``.git/objects``);
* writes are atomic: the payload goes to a temporary file in the final
  shard directory and is published with :func:`os.replace`, so readers
  never observe a half-written entry and concurrent writers of the same
  key simply race to an identical result;
* every entry starts with a versioned header and a payload checksum.
  Reads tolerate arbitrary corruption — bad magic, a stale format
  version, truncation, checksum mismatch, unpicklable payload — by
  deleting the entry and reporting a miss, which makes the store safe to
  reuse across releases and crashes: the worst case is recomputation.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.obs import metrics

#: Bump whenever the pickled payload layout changes incompatibly; every
#: entry written under an older version is evicted on first read.
#: Version 2: results' ``entry_states`` hold lane-packed cache states.
#: Version 3: ``iterations`` counts node pops on non-widening passes, so
#: a stored loop-free or sharded result no longer matches a fresh run's
#: fingerprint (which includes ``iterations``).
#: Version 4: classifications are named tuples, pickled by position; a
#: version-3 entry holds them as frozen dataclasses.
STORE_FORMAT_VERSION = 4

#: First header line of every entry (magic + format version).
_MAGIC = b"repro-result-store"

#: Entry filename suffix.
_SUFFIX = ".res"

_KEY_ALPHABET = frozenset("0123456789abcdef")


class StoreError(ValueError):
    """Raised for malformed keys; never for on-disk corruption (corrupt
    entries are evicted and reported as misses)."""


@dataclass
class StoreStats:
    """Accounting for one store instance (its own process only)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_evicted: int = 0
    version_evicted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "StoreStats":
        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            corrupt_evicted=self.corrupt_evicted,
            version_evicted=self.version_evicted,
        )

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate, {self.writes} writes, "
            f"{self.corrupt_evicted} corrupt + {self.version_evicted} stale evicted)"
        )


class ResultStore:
    """A persistent key → analysis-result mapping under one directory.

    Values are pickled Python objects (analysis results are plain
    dataclasses).  All methods are thread-safe; cross-process safety
    follows from atomic publication via :func:`os.replace`.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        version: int = STORE_FORMAT_VERSION,
        fsync: bool = False,
    ):
        self.root = Path(root)
        self.version = version
        self.fsync = fsync
        self.stats = StoreStats()
        self._stats_lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths and headers
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """The entry path for ``key`` (which must be a hex digest)."""
        if len(key) < 3 or not set(key) <= _KEY_ALPHABET:
            raise StoreError(f"store keys must be hex digests, got {key!r}")
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def _header(self, digest: str) -> bytes:
        return b"%s v%d\n%s\n" % (_MAGIC, self.version, digest.encode("ascii"))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Return the stored value for ``key``, or ``default``.

        Any malformed entry — wrong magic, stale version, truncated or
        corrupted payload — is deleted and treated as a miss.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return default
        except OSError:
            self._evict(path, "corrupt_evicted")
            return default

        value, failure = self._decode(raw)
        if failure is not None:
            self._evict(path, failure)
            return default
        self._count("hits")
        return value

    def _decode(self, raw: bytes) -> tuple[Any, str | None]:
        """Parse one entry; returns ``(value, None)`` or
        ``(None, stats_field)`` naming the eviction reason."""
        magic_end = raw.find(b"\n")
        if magic_end < 0:
            return None, "corrupt_evicted"
        magic_line = raw[:magic_end]
        if not magic_line.startswith(_MAGIC + b" v"):
            return None, "corrupt_evicted"
        try:
            version = int(magic_line[len(_MAGIC) + 2 :])
        except ValueError:
            return None, "corrupt_evicted"
        if version != self.version:
            return None, "version_evicted"
        digest_end = raw.find(b"\n", magic_end + 1)
        if digest_end < 0:
            return None, "corrupt_evicted"
        digest = raw[magic_end + 1 : digest_end].decode("ascii", errors="replace")
        payload = raw[digest_end + 1 :]
        if hashlib.sha256(payload).hexdigest() != digest:
            return None, "corrupt_evicted"
        try:
            return pickle.loads(payload), None
        except Exception:
            # Checksum passed but the payload does not unpickle in this
            # process (e.g. written by an incompatible code revision
            # under the same format version) — still just a miss.
            return None, "corrupt_evicted"

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = self._header(hashlib.sha256(payload).hexdigest()) + payload
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("writes")
        metrics().counter("store.bytes_written").inc(len(blob))

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix == _SUFFIX:
                    yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size_bytes(self) -> int:
        """Total on-disk payload size (headers included)."""
        total = 0
        for key in self.keys():
            try:
                total += self.path_for(key).stat().st_size
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count(self, field_name: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, field_name, getattr(self.stats, field_name) + amount)
        metrics().counter(f"store.{field_name}").inc(amount)

    def _evict(self, path: Path, reason_field: str) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        with self._stats_lock:
            setattr(self.stats, reason_field, getattr(self.stats, reason_field) + 1)
            self.stats.misses += 1
        metrics().counter(f"store.{reason_field}").inc()
        metrics().counter("store.misses").inc()
