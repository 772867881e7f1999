"""Crash-safe job journal: re-queue in-flight work after a restart.

The content-addressed :class:`~repro.service.store.ResultStore` already
checkpoints every *completed* job (the record is the checkpoint), so
resuming finished work is a cache hit.  What a crash loses is the
*in-flight* set — jobs accepted but not yet published.  The
:class:`JobJournal` closes that gap: the daemon writes a tiny JSON
entry (job spec + seed) next to the store when it accepts a job and
deletes it once the result is published or the job fails terminally.
After a restart, :meth:`JobJournal.pending` lists exactly the work that
was cut off; entries whose key is already in the store are cleared
without re-simulating (asserted in the chaos tests via factorization
counters), the rest re-execute with their original seeds and therefore
produce byte-identical records.

Entries are written with :func:`atomic_write` (temp file + rename), as
are the store's own objects, so a crash mid-write never leaves a
truncated entry that could poison recovery.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["JobJournal", "atomic_write"]


def atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to *path* via a same-directory temp file + rename."""
    handle, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class JobJournal:
    """Filesystem journal of accepted-but-unfinished jobs.

    Parameters
    ----------
    root:
        Directory holding the ``journal/`` subdirectory — conventionally
        the same root as the :class:`~repro.service.store.ResultStore`
        so journal and checkpoints travel together.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.journal_dir = self.root / "journal"
        self.journal_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.journal_dir / f"{key}.json"

    def record(self, key: str, spec: dict, seed: int | None = None) -> None:
        """Journal *key* as in-flight with its job *spec* and *seed*."""
        entry = {"schema": "repro-journal/1", "spec": spec, "seed": seed}
        atomic_write(self._path(key), json.dumps(entry, sort_keys=True).encode())

    def clear(self, key: str) -> None:
        """Remove *key* from the journal (job reached a terminal state)."""
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def pending(self) -> dict[str, dict]:
        """All journaled entries, keyed by job key.

        Unreadable or malformed entries are dropped (and deleted): a
        partial write cannot describe a job faithfully, and the result
        store still protects any record the job did publish.
        """
        entries: dict[str, dict] = {}
        for path in sorted(self.journal_dir.glob("*.json")):
            key = path.stem
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                self.clear(key)
                continue
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != "repro-journal/1"
                or not isinstance(entry.get("spec"), dict)
            ):
                self.clear(key)
                continue
            entries[key] = entry
        return entries

    def __len__(self) -> int:
        return len(self.pending())
