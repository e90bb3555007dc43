"""Spill tier under the in-memory SufficientStatsCache LRU.

The stats cache's byte budget forces a hard choice on big workloads:
evict a contingency table and pay a full ``m``-sample rebuild when it
comes back.  With a store attached, eviction *demotes* instead — the
entry's exact fields are pickled into the ``spill`` table — and a later
lookup *promotes* it back into memory, bit-identical to the table that
was evicted (tables are pure functions of their variable tuple, so a
spilled row can never go stale within its dataset fingerprint).

The tier is namespaced by dataset fingerprint: one store file may back
many sessions over different datasets without key collisions.  A
process-local key index (loaded once at attach) keeps the probe on the
miss path an O(1) set lookup — SQLite is only touched when the key is
actually there, so a cold stream pays nothing for having a spill tier.

A row is the pickled ``(value, nbytes, kind)`` triple.  Rows written
before the stats cache dropped superset marginalization carry three more
fields (``varset, dims, dense``); :meth:`SpillTier.get` still promotes
them, reading only the leading triple.

Only real values spill: the batched group kernel's transient ``_PENDING``
reservation placeholders are dropped on eviction exactly as before (their
identity-based sentinel would not survive a pickle round trip, and they
are meaningless outside the group evaluation that reserved them).
"""

from __future__ import annotations

import pickle
import threading
import time

from .db import StoreDB

__all__ = ["SpillTier", "DEFAULT_SPILL_BYTES"]

#: Disk budget per (store, dataset) spill namespace.  Generous relative
#: to the 64 MiB in-memory default — disk is the point — but still
#: bounded so one hot dataset cannot grow a store file without limit.
DEFAULT_SPILL_BYTES = 256 << 20  # 256 MiB


class SpillTier:
    """Disk extension of one dataset's stats cache; promote on lookup.

    All methods are called by :class:`~repro.engine.statscache.
    SufficientStatsCache` under its own lock, but the tier carries its
    own lock too so a shared store stays safe if two caches over the
    same dataset fingerprint ever coexist (server revival races).
    """

    def __init__(
        self, db: StoreDB, dataset_fp: str, max_bytes: int = DEFAULT_SPILL_BYTES
    ) -> None:
        self.db = db
        self.dataset_fp = str(dataset_fp)
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        #: Undecodable spill blobs dropped (each costs one table rebuild).
        self.n_blob_errors = 0
        # Key index: spill keys currently on disk -> nbytes.  Loaded once;
        # kept exact by put/evict, self-healing on phantom reads (a row
        # another process evicted reads as a miss and drops from the index).
        self._keys: dict[str, int] = {
            key: int(nbytes)
            for key, nbytes in self.db.execute(
                "SELECT key, nbytes FROM spill WHERE dataset_fp=?",
                (self.dataset_fp,),
            )
        }
        self.current_bytes = sum(self._keys.values())

    @staticmethod
    def key_text(key) -> str:
        """Canonical text form of a cache key (tuples of ints/strs)."""
        return repr(key)

    def has(self, key) -> bool:
        return self.key_text(key) in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------ #
    # demote / promote
    # ------------------------------------------------------------------ #
    def put(self, key, value, nbytes: int, kind: str) -> bool:
        """Persist one evicted entry; returns False when not admitted."""
        nbytes = int(nbytes)
        if nbytes > self.max_bytes or not self.db.active:
            return False
        kt = self.key_text(key)
        blob = pickle.dumps((value, nbytes, kind), protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self.db.execute(
                "INSERT OR REPLACE INTO spill(dataset_fp, key, blob, nbytes, last_used)"
                " VALUES (?,?,?,?,?)",
                (self.dataset_fp, kt, blob, nbytes, time.time()),
            )
            old = self._keys.get(kt)
            if old is not None:
                self.current_bytes -= old
            self._keys[kt] = nbytes
            self.current_bytes += nbytes
            self._evict_to_budget()
        return True

    def get(self, key):
        """Fetch one spilled entry's fields, refreshing its recency.

        Returns the ``(value, nbytes, kind)`` triple the eviction stored,
        or ``None`` — missing rows and blobs that do not decode to such a
        triple (or to an older six-field row, module docstring) both read
        as a miss and drop from the index, so a damaged spill row costs
        one rebuild, never a crash.
        """
        kt = self.key_text(key)
        with self._lock:
            if kt not in self._keys:
                return None
            rows = self.db.execute(
                "SELECT blob FROM spill WHERE dataset_fp=? AND key=?",
                (self.dataset_fp, kt),
            )
            if not rows:
                self.current_bytes -= self._keys.pop(kt, 0)
                return None
            try:
                fields = pickle.loads(rows[0][0])
                if not isinstance(fields, tuple) or len(fields) not in (3, 6):
                    raise ValueError("malformed spill row")
                value, nbytes, kind = fields[:3]
                fields = (value, int(nbytes), str(kind))
            except Exception:
                self.n_blob_errors += 1
                self.db.execute(
                    "DELETE FROM spill WHERE dataset_fp=? AND key=?",
                    (self.dataset_fp, kt),
                )
                self.current_bytes -= self._keys.pop(kt, 0)
                return None
            self.db.execute(
                "UPDATE spill SET last_used=? WHERE dataset_fp=? AND key=?",
                (time.time(), self.dataset_fp, kt),
            )
        return fields

    def _evict_to_budget(self) -> None:
        """Drop least-recently-used rows until the disk budget holds."""
        while self.current_bytes > self.max_bytes and self._keys:
            row = self.db.execute(
                "SELECT key, nbytes FROM spill WHERE dataset_fp=?"
                " ORDER BY last_used ASC LIMIT 1",
                (self.dataset_fp,),
            )
            if not row:
                break
            kt, nbytes = row[0]
            self.db.execute(
                "DELETE FROM spill WHERE dataset_fp=? AND key=?",
                (self.dataset_fp, kt),
            )
            self._keys.pop(kt, None)
            self.current_bytes -= int(nbytes)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._keys),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpillTier(dataset={self.dataset_fp[:8]}…, entries={len(self._keys)}, "
            f"bytes={self.current_bytes})"
        )
