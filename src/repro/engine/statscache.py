"""Sufficient-statistics cache for CI testing.

Every CI test the paper runs re-scans the dataset to fill a contingency
table — ``m * (d + 2)`` data accesses per test (Sec. IV-D).  Across a
*stream* of learning requests on the same dataset (different alphas, group
sizes, blanket targets) the vast majority of those tables are rebuilt
identically, because the table over a variable tuple does not depend on any
test parameter.  :class:`SufficientStatsCache` memoizes those tables:

* entries are keyed by variable tuples (conditioning set + endpoints) and
  hold the exact ``(nz, rx, ry)`` count array the uncached path would have
  built (construction is shared with the testers through
  :func:`repro.citests.contingency.ci_counts`, so hits are bit-identical);
* a byte-budgeted LRU bounds memory: every ``get`` refreshes recency and
  every ``put`` evicts from the cold end until the budget holds;
* lookups are exact-key only.  Serving a sub-tuple by marginalizing a
  cached superset table was tried and removed: at m = 2000 a marginal
  computed one set at a time costs more than building the table fresh
  inside a fused batch, and finding the superset took a linear scan
  under the cache lock on every miss;
* encoded conditioning-set codes are cached too, so a miss that shares its
  conditioning set with an earlier test (the Markov-blanket grow pattern:
  same ``S``, sweeping ``y``) skips the mixed-radix re-encoding;
* the batched group kernel lands all tables of one offset-stacked build
  through :meth:`SufficientStatsCache.fill_many` — one lock acquisition
  per kernel call instead of one per table.

Hit/miss/eviction/byte counters are exact and feed both
:class:`~repro.citests.base.CITestCounters` and the Table IV simulated
perf-counter path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from ..citests.contingency import ci_counts, encode_columns
from ..datasets.dataset import DiscreteDataset

__all__ = ["CacheStats", "SufficientStatsCache", "CachedTableBuilder"]

#: Placeholder value of a reserved-but-not-yet-built table entry.  The
#: batched group path reserves cache slots in exact looped order during
#: planning (so LRU recency, evictions and hit/miss counters are
#: bit-identical to per-set evaluation), builds all tables with one
#: stacked bincount, then fills the surviving slots.  Pending entries are
#: transient — they exist only while one group evaluation is in flight.
_PENDING = object()

DEFAULT_BUDGET_BYTES = 64 << 20  # 64 MiB


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of the cache's exact work counters."""

    hits: int
    misses: int
    evictions: int
    puts: int
    current_bytes: int
    max_bytes: int
    n_entries: int
    # Spill-tier counters (all zero, and omitted from as_dict, unless a
    # store's spill tier is attached): stores = entries demoted to disk on
    # eviction, hits/promotes = looked-up entries restored into memory,
    # misses = memory misses the tier could not serve either.
    spill_enabled: bool = False
    spill_stores: int = 0
    spill_hits: int = 0
    spill_misses: int = 0
    spill_promotes: int = 0
    spill_entries: int = 0
    spill_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "n_entries": self.n_entries,
            "hit_rate": self.hit_rate,
        }
        if self.spill_enabled:
            out["spill"] = {
                "stores": self.spill_stores,
                "hits": self.spill_hits,
                "misses": self.spill_misses,
                "promotes": self.spill_promotes,
                "entries": self.spill_entries,
                "bytes": self.spill_bytes,
            }
        return out


@dataclass
class _Entry:
    value: object
    nbytes: int
    kind: str  # "table" | "codes"


def _is_pending(entry: _Entry) -> bool:
    """True for a reserved-but-unfilled group slot (identity sentinel —
    meaningless outside its group evaluation, so never spilled)."""
    value = entry.value
    return isinstance(value, tuple) and bool(value) and value[0] is _PENDING


class SufficientStatsCache:
    """Byte-budgeted LRU cache of contingency tables and column encodings.

    The cache itself is dataset-agnostic (keys are opaque); binding to a
    concrete dataset — and the encoding reuse logic — lives in
    :class:`CachedTableBuilder`.  One cache instance may be shared by
    any number of testers over the *same* dataset (that invariant is the
    caller's: :class:`~repro.engine.session.LearningSession` owns exactly
    one dataset and one cache).
    """

    def __init__(self, max_bytes: int = DEFAULT_BUDGET_BYTES, *, spill=None) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        # Guards the entry map and byte accounting; uncontended in the
        # per-process/per-session setups, but lets thread-backend testers
        # share one cache, and gives put_many its single-acquisition bulk
        # insert.  (Counters are plain ints — GIL-atomic increments.)
        self._lock = threading.Lock()
        # Optional disk tier (repro.engine.store.SpillTier): evictions
        # demote real entries instead of dropping them, and a miss whose
        # key is spilled promotes it back — bit-identical, since tables
        # are pure functions of their keys.  None keeps every code path
        # and counter exactly as without a store.
        self._spill = spill
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0
        self.spill_stores = 0
        self.spill_hits = 0
        self.spill_misses = 0
        self.spill_promotes = 0

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]  # locks don't pickle; workers get a fresh one
        state["_spill"] = None  # the disk tier (SQLite conn) stays home
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # generic LRU plumbing
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, *, count: bool = True) -> _Entry | None:
        """Fetch an entry, refreshing its recency.

        ``count=False`` suppresses the hit/miss accounting — used by
        internal probes (e.g. the encoding lookup) so that the public
        hit/miss counters track *tables* exactly, one event per CI test.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._promote_locked(key)
                if entry is None:
                    if count:
                        self.misses += 1
                    return None
            else:
                self._entries.move_to_end(key)
        if count:
            self.hits += 1
        return entry

    def _promote_locked(self, key: Hashable) -> "_Entry | None":
        """Restore a spilled entry into memory; None without a spill hit.

        The probe is an O(1) set lookup against the tier's key index, so
        streams that never spilled pay nothing here; an actual promote
        re-admits the entry at the hot end (it is live traffic) and then
        re-balances the budget — which may demote colder entries in turn.
        """
        if self._spill is None:
            return None
        if not self._spill.has(key):
            self.spill_misses += 1
            return None
        fields = self._spill.get(key)
        if fields is None:  # phantom index entry / undecodable blob
            self.spill_misses += 1
            return None
        self.spill_hits += 1
        entry = _Entry(*fields)
        self._entries[key] = entry
        self.current_bytes += entry.nbytes
        self.spill_promotes += 1
        self._evict_locked()
        return entry

    def put(self, key: Hashable, value: object, nbytes: int, kind: str = "table") -> None:
        """Insert (or replace) an entry and evict until the budget holds.

        An entry larger than the whole budget is not admitted at all —
        caching it would immediately evict everything else for a value
        that can never be re-served within budget.
        """
        with self._lock:
            self._insert_locked(key, value, nbytes, kind)
            self._evict_locked()

    def put_many(self, entries: Iterable[tuple]) -> None:
        """Bulk insert under one lock acquisition and one eviction sweep.

        ``entries`` holds ``(key, value, nbytes, kind)`` tuples — the
        :meth:`put` signature.  Deferring eviction to one end-of-batch
        sweep yields the same final contents and eviction count as
        per-entry puts (eviction always pops the cold end, and fresh
        inserts are hottest).
        """
        with self._lock:
            for key, value, nbytes, kind in entries:
                self._insert_locked(key, value, nbytes, kind)
            self._evict_locked()

    def fill_many(self, items: Iterable[tuple[Hashable, object]]) -> None:
        """Set the values of still-resident entries in one critical section.

        This is the landing path of the batched group kernel: slots were
        reserved (with exact sizes) in looped order during planning, all
        tables were then built by one offset-stacked bincount, and here
        every table whose slot survived lands in the cache under a single
        lock acquisition.  No recency, byte or counter effects — those
        happened at reservation time, exactly where the looped path would
        have paid them; entries evicted since reservation are skipped.
        """
        with self._lock:
            for key, value in items:
                entry = self._entries.get(key)
                if entry is not None:
                    entry.value = value

    def _insert_locked(self, key: Hashable, value: object, nbytes: int, kind: str) -> None:
        nbytes = int(nbytes)
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old.nbytes
        if nbytes > self.max_bytes:
            return
        self._entries[key] = _Entry(value, nbytes, kind)
        self.current_bytes += nbytes
        self.puts += 1

    def _evict_locked(self) -> None:
        while self.current_bytes > self.max_bytes and self._entries:
            key, evicted = self._entries.popitem(last=False)
            self.current_bytes -= evicted.nbytes
            self.evictions += 1
            if self._spill is not None and not _is_pending(evicted):
                # Demote instead of drop: the entry lands on disk and a
                # later lookup promotes it back, bit-identical.  Pending
                # group reservations are transient and never spill.
                if self._spill.put(key, evicted.value, evicted.nbytes, evicted.kind):
                    self.spill_stores += 1

    def discard(self, key: Hashable) -> None:
        """Remove one entry (no-op when absent); no hit/miss effects."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.current_bytes -= entry.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def stats(self) -> CacheStats:
        spill = self._spill.stats() if self._spill is not None else None
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            puts=self.puts,
            current_bytes=self.current_bytes,
            max_bytes=self.max_bytes,
            n_entries=len(self._entries),
            spill_enabled=spill is not None,
            spill_stores=self.spill_stores,
            spill_hits=self.spill_hits,
            spill_misses=self.spill_misses,
            spill_promotes=self.spill_promotes,
            spill_entries=0 if spill is None else spill["entries"],
            spill_bytes=0 if spill is None else spill["bytes"],
        )

    def find_dense_superset(self, want: frozenset[int]) -> None:
        """Always ``None``: superset marginalization was removed (module
        docstring) and nothing in the package calls this.  It remains only
        because ``perfbench/spans.py`` traces it by name, and goes when
        that target does."""
        return None


class CachedTableBuilder:
    """Dataset-bound front door of the stats cache for the CI testers.

    ``ci_counts(x, y, s)`` returns exactly what the uncached tester path
    would compute — ``(counts, nz_structural, from_cache, z_cached,
    xy_cached)`` — from a direct key hit or a fresh build.  Column
    encodings (the ``(x, y)`` cell codes and the conditioning-set codes)
    are themselves cached and only materialised on a table miss, so a hit
    really does touch zero data; the two ``*_cached`` flags report the
    reuse so the work counters bill only the columns actually read.
    Fresh builds are inserted back so later queries hit directly.
    """

    def __init__(
        self,
        dataset: DiscreteDataset,
        cache: SufficientStatsCache,
        compress_threshold: int = 4,
    ) -> None:
        self.dataset = dataset
        self.cache = cache
        self.compress_threshold = int(compress_threshold)

    # Keys: ("t", v0, v1, ..., x, y) for tables (conditioning vars first,
    # endpoints last — the table's axis order), ("e", v0, v1, ...) for
    # encoded conditioning columns, ("xy", x, y) for endpoint cell codes.
    @staticmethod
    def table_key(x: int, y: int, s: tuple[int, ...]) -> tuple:
        return ("t",) + s + (x, y)

    @staticmethod
    def codes_key(s: tuple[int, ...]) -> tuple:
        return ("e",) + s

    @staticmethod
    def xy_key(x: int, y: int) -> tuple:
        return ("xy", x, y)

    def lookup(
        self, x: int, y: int, s: tuple[int, ...]
    ) -> tuple[str, object]:
        """Resolve a table request against the cache, pending-aware.

        Returns one of::

            ("hit", (counts, nz_structural))   # resident table
            ("pending", src_table_key)         # slot some in-flight group
                                               # evaluation reserved but
                                               # has not built yet
            ("miss", None)

        The pending payload is the **full table key** (tag + variables +
        endpoints), so the fused multi-group engine can match it against
        the slots it reserved itself.  Hits and pending hits count one
        cache hit and refresh recency, exactly like per-set evaluation; a
        miss leaves the counters untouched — the caller decides how it is
        built and accounts it.
        """
        key = self.table_key(x, y, s)
        entry = self.cache.get(key, count=False)
        if entry is None:
            return "miss", None
        self.cache.hits += 1
        value = entry.value
        if value[0] is _PENDING:  # type: ignore[index]
            return "pending", key
        return "hit", value

    def reserve(self, x: int, y: int, s: tuple[int, ...]) -> None:
        """Reserve a dense table's cache slot before its batched build.

        The placeholder carries the exact size (``nz * rx * ry`` int64
        cells — what ``np.bincount`` will produce), so recency and
        evictions behave exactly as if the looped path had stored the real
        table at this position.  The value lands later through
        :meth:`SufficientStatsCache.fill_many`; an oversized reservation is
        rejected like any oversized put.
        """
        ar = self.dataset.arity
        nz_structural = 1
        for v in s:
            nz_structural *= int(ar(v))
        self.cache.put(
            self.table_key(x, y, s),
            (_PENDING, nz_structural),
            nz_structural * ar(x) * ar(y) * 8,
        )

    def discard_pending(self, x: int, y: int, sets: Sequence[tuple[int, ...]]) -> None:
        """Drop any still-pending reservations for the given sets.

        Abort path of a batched group evaluation: placeholders that never
        received their fill must not outlive the group, or later lookups
        would trip over them.  Filled (real) entries are left alone.
        """
        for s in sets:
            key = self.table_key(x, y, s)
            entry = self.cache._entries.get(key)
            if entry is not None and entry.value[0] is _PENDING:  # type: ignore[index]
                self.cache.discard(key)

    def ci_counts(
        self,
        x: int,
        y: int,
        s: tuple[int, ...],
        xy_codes: np.ndarray | None = None,
        known_miss: bool = False,
    ) -> tuple[np.ndarray, int, bool, bool, bool]:
        """Resolve-or-build; ``known_miss=True`` skips the cache lookup
        when the caller has just performed it (the batched group planner's
        compressed-set fallback)."""
        ds = self.dataset
        rx, ry = ds.arity(x), ds.arity(y)
        rz = [ds.arity(v) for v in s]

        if not known_miss:
            status, payload = self.lookup(x, y, s)
            if status == "hit":
                counts, nz_structural = payload  # type: ignore[misc]
                return counts, nz_structural, True, True, True
            # "pending" outside a group evaluation can only be a stale
            # placeholder from an aborted group that escaped cleanup: fall
            # through and rebuild — the put below replaces the placeholder,
            # self-healing the slot.

        self.cache.misses += 1
        z_cached = False
        z_codes = None
        if s:
            z_codes, z_cached = self.encoded_z(s, rz)
        xy_cached = xy_codes is not None  # caller already paid for them
        if xy_codes is None:
            xy_codes, xy_cached = self.encoded_xy(x, y, ry)
        counts, nz_structural, _dense = ci_counts(
            ds.column(x),
            ds.column(y),
            ds.columns(s) if z_codes is None else [],
            rx,
            ry,
            rz,
            compress_threshold=self.compress_threshold,
            xy_codes=xy_codes,
            z_codes=z_codes,
        )
        self.cache.put(self.table_key(x, y, s), (counts, nz_structural), counts.nbytes)
        return counts, nz_structural, False, z_cached, xy_cached

    def encoded_z(self, s: tuple[int, ...], rz: Sequence[int]) -> tuple[np.ndarray, bool]:
        """Pre-compression mixed-radix codes of the conditioning columns,
        cached so same-``S``-different-endpoints streams encode once.

        Returns ``(codes, from_cache)``; the flag lets the caller bill
        data accesses only for encodings that actually read the columns.
        """
        key = self.codes_key(s)
        entry = self.cache.get(key, count=False)
        if entry is not None:
            return entry.value, True  # type: ignore[return-value]
        codes, _ = encode_columns(self.dataset.columns(s), list(rz))
        self.cache.put(key, codes, codes.nbytes, kind="codes")
        return codes, False

    def encoded_xy(self, x: int, y: int, ry: int) -> tuple[np.ndarray, bool]:
        """Endpoint cell codes ``x * ry + y``, cached per ``(x, y)`` pair
        so a warm path never re-reads the endpoint columns either."""
        key = self.xy_key(x, y)
        entry = self.cache.get(key, count=False)
        if entry is not None:
            return entry.value, True  # type: ignore[return-value]
        ds = self.dataset
        codes = ds.column(x).astype(np.int64) * ry + ds.column(y)
        self.cache.put(key, codes, codes.nbytes, kind="codes")
        return codes, False
