"""On-disk content-addressed result store.

One entry per job fingerprint (:func:`~repro.service.hashing.job_key`),
stored as a pair of files under ``<root>/objects/<key[:2]>/``:

``<key>.pkl``
    The pickled result payload — the full simulation value (a
    ``TransientResult``, ``EnsembleStatistics``, ``ACResult``, or the
    reduced per-point dict of a sweep job), waveforms included.
``<key>.json``
    The BENCH-style metadata record: schema version, job kind, label,
    original compute seconds, creation time, the package version that
    produced it, a deterministic result summary, and the SHA-256 +
    byte length of the payload file.

Design points:

atomic writes
    Both files are written to a temporary name in the same directory
    and ``os.replace``-d into place — readers never observe a partial
    entry.  The payload lands first, the metadata last, so a metadata
    file implies a complete payload.  The job journal writes through
    the same :func:`~repro.resilience.checkpoint.atomic_write`.
corruption detection
    ``get`` re-hashes the payload against the recorded checksum and
    validates the schema version; a truncated, tampered or
    version-skewed entry is treated as a *miss* (and swept from disk),
    never an exception.
eviction
    :meth:`ResultStore.gc` prunes by age and/or entry count (oldest
    first) and removes orphaned halves of interrupted writes; the
    ``python -m repro.service gc`` subcommand is a thin wrapper.

The default root is ``~/.cache/repro`` (override with the
``REPRO_CACHE_DIR`` environment variable or an explicit path).
Concurrent writers are safe: entries are immutable once published and
``os.replace`` is atomic within a filesystem.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.checkpoint import atomic_write
from repro.resilience.faults import active_plan

__all__ = [
    "STORE_SCHEMA",
    "CachedResult",
    "GcStats",
    "ResultStore",
    "default_store_root",
    "result_summary",
]

#: Metadata schema tag; entries with any other tag are treated as misses.
STORE_SCHEMA = "repro-store/1"


def default_store_root() -> Path:
    """The default store directory (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def result_summary(value) -> dict:
    """Deterministic BENCH-style summary of a job result.

    Only spec-determined quantities go in (point counts, final time,
    flop/factorization totals, statistic shapes) — never wall-clock —
    so resubmitting an identical job yields a byte-identical record.
    """
    summary: dict = {"type": type(value).__name__}
    flops = getattr(value, "flops", None)
    if flops is not None:
        summary["flops"] = int(flops.total)
        summary["factorizations"] = int(flops.factorizations)
        summary["solves"] = int(flops.linear_solves)
    if hasattr(value, "times") and hasattr(value, "node_names"):
        times = value.times
        summary["points"] = int(len(times))
        if len(times):
            summary["t_final"] = float(times[-1])
        summary["nodes"] = list(value.node_names)
    if hasattr(value, "frequencies"):
        summary["frequencies"] = int(len(value.frequencies))
    if hasattr(value, "mean") and hasattr(value, "times"):
        summary["samples"] = int(len(value.times))
    if isinstance(value, dict):
        summary["keys"] = sorted(str(key) for key in value)
    if isinstance(value, list):
        summary["entries"] = len(value)
    return summary


@dataclass
class CachedResult:
    """One store hit: the unpickled payload plus its metadata record."""

    key: str
    value: object
    meta: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "")

    @property
    def label(self) -> str:
        return self.meta.get("label", "")

    @property
    def seconds(self) -> float:
        """Original compute time, as recorded at ``put`` time."""
        return float(self.meta.get("seconds", 0.0))

    def record(self) -> dict:
        """The deterministic result record served to clients.

        Byte-identical across hits of the same entry: wall-clock and
        store-local details are excluded.
        """
        return {
            "schema": self.meta.get("schema", STORE_SCHEMA),
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "repro": self.meta.get("repro", ""),
            "payload_sha256": self.meta.get("payload_sha256", ""),
            "payload_bytes": self.meta.get("payload_bytes", 0),
            "summary": self.meta.get("summary", {}),
        }


@dataclass
class GcStats:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    scanned: int = 0
    removed: int = 0
    corrupt: int = 0
    bytes_freed: int = 0
    remaining: int = 0

    def summary(self) -> str:
        return (
            f"gc: scanned {self.scanned}, removed {self.removed} "
            f"({self.corrupt} corrupt), freed {self.bytes_freed} bytes, "
            f"{self.remaining} entries remain"
        )


class ResultStore:
    """Content-addressed result store rooted at *root*.

    The instance keeps per-process ``hits`` / ``misses`` / ``puts``
    counters for reporting; the on-disk state is shared by every
    process pointing at the same root.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.objects = self.root / "objects"
        self._shards = str(self.objects) + os.sep
        #: Shard prefixes whose directory this store has made, so that
        #: :meth:`put` calls ``mkdir`` once per shard, not per entry.
        self._made_shards: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    @classmethod
    def resolve(cls, cache) -> "ResultStore":
        """Coerce a ``cache=`` knob value into a store.

        Accepts a ready store, ``True``/the empty string (default
        root) or an explicit path.
        """
        if isinstance(cache, ResultStore):
            return cache
        if cache is True or cache == "":
            return cls()
        return cls(cache)

    # -- paths ----------------------------------------------------------

    def _files(self, key: str) -> tuple[str, str]:
        """Metadata and payload file names of *key*, by string joins: a
        cache hit is cheap enough that pathlib's ``/`` would be a third
        of it."""
        stem = self._shards + key[:2] + os.sep + key
        return stem + ".json", stem + ".pkl"

    def _paths(self, key: str) -> tuple[Path, Path]:
        meta_file, payload_file = self._files(key)
        return Path(meta_file), Path(payload_file)

    # -- read -----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        meta_path, payload_path = self._paths(key)
        return meta_path.exists() and payload_path.exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.objects.glob("*/*.json"))

    def keys(self) -> list[str]:
        """Keys of every published entry, sorted."""
        return sorted(path.stem for path in self.objects.glob("*/*.json"))

    def get(self, key: str) -> CachedResult | None:
        """Fetch an entry; any corruption reads as a miss, never raises."""
        meta_file, payload_file = self._files(key)
        try:
            with open(meta_file, "rb") as handle:
                meta = json.loads(handle.read())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(meta, dict) or meta.get("schema") != STORE_SCHEMA:
            self.misses += 1
            return None
        try:
            with open(payload_file, "rb") as handle:
                payload = handle.read()
        except OSError:
            self.misses += 1
            return None
        plan = active_plan()
        if plan is not None and payload and plan.corrupt_read(key):
            # Deterministic chaos hook: flip the leading byte so the
            # checksum below catches the "corruption" through exactly
            # the path a real bit-flip would take (discard + miss).
            payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
        digest = hashlib.sha256(payload).hexdigest()
        if (
            len(payload) != meta.get("payload_bytes")
            or digest != meta.get("payload_sha256")
        ):
            self._discard(key)
            self.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._discard(key)
            self.misses += 1
            return None
        self.hits += 1
        return CachedResult(key=key, value=value, meta=meta)

    # -- write ----------------------------------------------------------

    def put(
        self,
        key: str,
        value,
        *,
        kind: str = "",
        label: str = "",
        seconds: float = 0.0,
    ) -> CachedResult:
        """Publish *value* under *key*; returns the stored entry.

        The payload file is written (atomically) before the metadata
        file, so readers racing a writer either miss or see a complete
        entry.
        """
        import repro

        meta_path, payload_path = self._paths(key)
        if key[:2] not in self._made_shards:
            meta_path.parent.mkdir(parents=True, exist_ok=True)
            self._made_shards.add(key[:2])
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "schema": STORE_SCHEMA,
            "key": key,
            "kind": kind,
            "label": label,
            "seconds": float(seconds),
            "created_utc": time.time(),
            "repro": repro.__version__,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "summary": result_summary(value),
        }
        meta_bytes = (json.dumps(meta, sort_keys=True) + "\n").encode()
        try:
            atomic_write(payload_path, payload)
            atomic_write(meta_path, meta_bytes)
        except FileNotFoundError:
            # The shard was removed after this store made it (by another
            # process or a user): make it again and write once more.
            meta_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(payload_path, payload)
            atomic_write(meta_path, meta_bytes)
        self.puts += 1
        return CachedResult(key=key, value=value, meta=meta)

    def _discard(self, key: str) -> int:
        """Remove both halves of an entry; returns bytes freed."""
        freed = 0
        for path in self._paths(key):
            try:
                freed += path.stat().st_size
                path.unlink()
            except OSError:
                pass
        return freed

    # -- maintenance ----------------------------------------------------

    def stats(self) -> dict:
        """Entry count and payload byte total of the on-disk store."""
        entries = 0
        payload_bytes = 0
        for meta_path in self.objects.glob("*/*.json"):
            entries += 1
            try:
                meta = json.loads(meta_path.read_text())
                payload_bytes += int(meta.get("payload_bytes", 0))
            except (OSError, ValueError):
                pass
        return {
            "root": str(self.root),
            "entries": entries,
            "payload_bytes": payload_bytes,
        }

    def gc(
        self,
        max_age_seconds: float | None = None,
        max_entries: int | None = None,
    ) -> GcStats:
        """Evict entries: corrupt first, then by age, then oldest-first
        down to *max_entries*.  Orphaned halves of interrupted writes
        are always removed."""
        stats = GcStats()
        now = time.time()
        entries: list[tuple[float, str]] = []
        seen_meta = set()
        for meta_path in sorted(self.objects.glob("*/*.json")):
            key = meta_path.stem
            seen_meta.add(key)
            stats.scanned += 1
            _, payload_path = self._paths(key)
            try:
                meta = json.loads(meta_path.read_text())
                created = float(meta["created_utc"])
                ok = (
                    meta.get("schema") == STORE_SCHEMA
                    and payload_path.stat().st_size == meta["payload_bytes"]
                )
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
                created = 0.0
            if not ok:
                stats.bytes_freed += self._discard(key)
                stats.removed += 1
                stats.corrupt += 1
                continue
            entries.append((created, key))
        for payload_path in sorted(self.objects.glob("*/*.pkl")):
            if payload_path.stem not in seen_meta:
                stats.bytes_freed += self._discard(payload_path.stem)
                stats.corrupt += 1
                stats.removed += 1
        entries.sort()
        if max_age_seconds is not None:
            cutoff = now - max_age_seconds
            kept = []
            for created, key in entries:
                if created < cutoff:
                    stats.bytes_freed += self._discard(key)
                    stats.removed += 1
                else:
                    kept.append((created, key))
            entries = kept
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            for created, key in entries[:excess]:
                stats.bytes_freed += self._discard(key)
                stats.removed += 1
            entries = entries[excess:]
        stats.remaining = len(entries)
        return stats
