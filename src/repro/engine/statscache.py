"""Sufficient-statistics cache for CI testing.

Every CI test the paper runs re-scans the dataset to fill a contingency
table — ``m * (d + 2)`` data accesses per test (Sec. IV-D).  Across a
*stream* of learning requests on the same dataset (different alphas, group
sizes, blanket targets) the vast majority of those tables are rebuilt
identically, because the table over a variable tuple does not depend on any
test parameter.  :class:`SufficientStatsCache` memoizes those tables — and
only those: the cell codes a table is counted from are built on the fly
from the data columns (paper optimisation (iv)), never stored:

* entries are keyed by variable tuples (conditioning set + endpoints) and
  hold the exact ``(nz, rx, ry)`` count array the uncached path would have
  built (a miss is built from the columns exactly as without a cache —
  :func:`repro.citests.contingency.ci_counts` or the fused column kernel —
  so hits are bit-identical);
* a byte-budgeted LRU bounds memory: every ``get`` refreshes recency and
  every ``put`` evicts from the cold end until the budget holds;
* lookups are exact-key only.  Serving a sub-tuple by marginalizing a
  cached superset table was tried and removed: at m = 2000 a marginal
  computed one set at a time costs more than building the table fresh
  inside a fused batch, and finding the superset took a linear scan
  under the cache lock on every miss;
* a miss bills the data accesses of the uncached path — ``m * (d + 2)``,
  or ``m * d`` for a set after the first of its gs-group;
* the fused group kernel reads the cache side-effect free while it plans
  and builds, then replays the cache events of the tests it keeps through
  :meth:`CachedTableBuilder.commit` — one lock acquisition per kernel
  call instead of one per table.  A round that cannot evict (no spill
  tier, and every table it could store fits the free budget) is replayed
  in one pass that inserts finished entries; any other round keeps the
  reserve-then-fill replay, so evictions match per-set evaluation;
* every entry carries one score memo, ``(kind, statistic, dof, p_value,
  n_logs)``, written by the last tester that scored its table (``kind``
  is a string naming the statistic class and its ``dof_adjust``).  A hit
  by a tester of the same kind answers from the memo without re-scoring;
  the verdict ``p_value > alpha`` is taken fresh, so one memo serves
  every alpha.  The memo holds exactly the floats the scoring code
  computed, is not billed against the byte budget (like the entry's
  object overhead) and is not spilled: a promoted entry is scored once
  and memoised again.

An entry is one plain tuple, ``(value, nbytes, kind) + memo``: a table
value ``(counts, nz_structural)``, its billed bytes, ``"table"``, then the
five memo fields inline (none before a tester scores the table, so
``entry[3:]`` is the memo or ``()``).  Every field is an atom, a count
array or a tuple of them, so the cyclic GC untracks an entry once
collected (its value tuple first, the entry itself by the next
collection at the latest): tens of thousands of resident tables add
nothing to later collections.  Writing a memo replaces the entry tuple
in place (same key, same LRU position).

Hit/miss/eviction/byte counters are exact and feed both
:class:`~repro.citests.base.CITestCounters` and the Table IV simulated
perf-counter path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Sequence
from itertools import compress, repeat

import numpy as np

from ..citests.contingency import ci_counts, table_key
from ..datasets.dataset import DiscreteDataset

__all__ = ["CacheStats", "SufficientStatsCache", "CachedTableBuilder"]

#: Placeholder value of a reserved table slot.  A kernel call's commit
#: replays each round of the one-group sequence as "reserve every missed
#: slot, then fill the survivors", so a slot evicted inside its own round
#: is dropped instead of spilled, exactly as per-set evaluation would
#: drop it.  Pending entries exist only inside that locked replay.
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


#: An entry, ``(value, nbytes, kind) + memo`` (module docstring): ``kind``
#: is ``"table"`` (the spill tier's row format keeps the field) and the
#: memo fields are the score of the last tester that scored the table,
#: never spilled.
Entry = tuple


def _is_pending(entry: Entry) -> bool:
    """True for a reserved-but-unfilled group slot (identity sentinel —
    meaningless outside its group evaluation, so never spilled)."""
    value = entry[0]
    return isinstance(value, tuple) and bool(value) and value[0] is _PENDING


class SufficientStatsCache:
    """Byte-budgeted LRU cache of contingency tables.

    The cache itself is dataset-agnostic (keys are opaque); binding to a
    concrete dataset lives in :class:`CachedTableBuilder`.  One cache
    instance may be shared by any number of testers over the *same*
    dataset (that invariant is the caller's:
    :class:`~repro.engine.session.LearningSession` owns exactly one
    dataset and one cache).
    """

    def __init__(self, max_bytes: int = DEFAULT_BUDGET_BYTES, *, spill=None) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[Hashable, Entry] = OrderedDict()
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

    def get(self, key: Hashable) -> Entry | None:
        """Fetch an entry, refreshing its recency and counting a hit or a
        miss (one event per CI test)."""
        with self._lock:
            entry = self._get_locked(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def peek(self, key: Hashable) -> Entry | None:
        """A resident entry (value and memo) without any side effect (no
        recency, counter, or spill event); ``None`` when absent or a
        pending slot."""
        return self.peek_many((key,))[0]

    def peek_many(self, keys: Sequence[Hashable]) -> list[Entry | None]:
        """:meth:`peek` of every key, in order (the fused planner's one
        pass over a call's keys)."""
        found = list(map(self._entries.get, keys))
        for i in compress(range(len(found)), found):
            if _is_pending(found[i]):
                found[i] = None
        return found

    def _get_locked(self, key: Hashable) -> Entry | None:
        entry = self._entries.get(key)
        if entry is None:
            return self._promote_locked(key)
        self._entries.move_to_end(key)
        return entry

    def _promote_locked(self, key: Hashable) -> Entry | None:
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
        entry = self._entries[key] = fields
        self.current_bytes += entry[1]
        self.spill_promotes += 1
        self._evict_locked()
        return entry

    def put(
        self, key: Hashable, value: object, nbytes: int, kind: str = "table"
    ) -> Entry | None:
        """Insert (or replace) an entry and evict until the budget holds;
        returns the new entry, or ``None`` when it was not admitted.

        An entry larger than the whole budget is not admitted at all —
        caching it would immediately evict everything else for a value
        that can never be re-served within budget.
        """
        with self._lock:
            return self._put_locked(key, value, nbytes, kind)

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

    def _put_locked(
        self, key: Hashable, value: object, nbytes: int, kind: str
    ) -> Entry | None:
        entry = self._insert_locked(key, value, nbytes, kind)
        # The fresh entry is the hottest, so the sweep never evicts it.
        self._evict_locked()
        return entry

    def _insert_locked(
        self, key: Hashable, value: object, nbytes: int, kind: str, memo: tuple = ()
    ) -> Entry | None:
        nbytes = int(nbytes)
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old[1]
        if nbytes > self.max_bytes:
            return None
        entry = self._entries[key] = (value, nbytes, kind) + memo
        self.current_bytes += nbytes
        self.puts += 1
        return entry

    def _evict_locked(self) -> None:
        while self.current_bytes > self.max_bytes and self._entries:
            key, evicted = self._entries.popitem(last=False)
            value, nbytes, kind = evicted[:3]
            self.current_bytes -= nbytes
            self.evictions += 1
            if self._spill is not None and not _is_pending(evicted):
                # Demote instead of drop: the entry lands on disk and a
                # later lookup promotes it back, bit-identical.  A slot
                # reserved in the round being replayed is never spilled.
                if self._spill.put(key, value, nbytes, kind):
                    self.spill_stores += 1

    def set_memo(self, key: Hashable, memo: tuple) -> None:
        """Leave ``memo`` on the resident entry of ``key`` (no recency,
        counter or spill event); a no-op when the key is not resident."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries[key] = entry[:3] + memo

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
    would compute — ``(counts, nz_structural)`` plus the ``from_cache``
    flag and the entry's score memo — from a direct key hit or a fresh
    build from the data columns, which is then inserted so later queries
    hit directly (the caller leaves its score with
    :meth:`SufficientStatsCache.set_memo`).  The fused kernel instead
    builds on its own and replays its tests' cache events through
    :meth:`commit`.
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

    #: ``("t", v0, v1, ..., x, y)``: the table's key
    #: (:func:`repro.citests.contingency.table_key`).
    table_key = staticmethod(table_key)

    def commit(
        self,
        keys: Sequence[tuple],
        tables: Sequence[tuple | None],
        memos: Sequence,
        nbytes: Sequence[int],
        dense: Sequence[bool],
        ends: Sequence[int],
    ) -> list[bool]:
        """Replay the cache events of already-evaluated tests, in order.

        The fused kernel plans and builds without touching the cache, then
        hands the tests it keeps here as parallel per-test lists, in
        commit order: each test's ``key`` (its :meth:`table_key`), its
        ``table`` (``(counts, nz_structural)``), the ``nbytes`` a stored
        table bills (8 per int64 cell) and whether it is ``dense``; its
        score memo comes as columns, ``memos = (kind, statistics, dofs,
        p_values, n_logs)`` with one kind for the call; ``ends`` closes each
        *round* (one exclusive end index per round).  For each test this
        makes exactly the events a one-test-at-a-time evaluation of the
        same stream would make: one table lookup (a hit ends there), else
        one store.  Recency, evictions, spill traffic and counters
        therefore match per-set evaluation, under one lock acquisition.
        The entry each test hits or stores takes the test's memo.

        A round that cannot evict — no spill tier, and the free budget
        holds every table it could store — is replayed in one pass that
        inserts finished entries (and a call none of whose rounds can
        evict, all of them in one pass).  Any other round stores a dense
        table as a sized reservation filled when its round ends, and a
        compressed one directly, so a slot evicted inside its own round is
        dropped, as per-set evaluation would drop it.

        Returns one flag per test: ``True`` for a table hit.
        """
        cache = self.cache
        kind, *columns = memos
        hits: list[bool] = []
        a = 0
        with cache._lock:
            if cache._spill is None and cache.current_bytes + sum(nbytes) <= cache.max_bytes:
                # No round can evict, and replaying rounds one after the
                # other is replaying their concatenation: one pass.
                ends = [len(keys)]
            for b in ends:
                rnd_memos = [kind] + [col[a:b] for col in columns]
                rnd = (keys[a:b], tables[a:b], rnd_memos, nbytes[a:b], dense[a:b])
                if cache._spill is None and cache.current_bytes + sum(rnd[3]) <= cache.max_bytes:
                    self._commit_round_fitting(*rnd, hits)
                else:
                    self._commit_round_evicting(*rnd, hits)
                a = b
        return hits

    def _commit_round_fitting(
        self,
        keys: Sequence[tuple],
        tables: Sequence,
        memos: Sequence,
        nbytes: Sequence[int],
        dense: Sequence[bool],
        hits: list[bool],
    ) -> None:
        """One-pass replay of a round that cannot evict (see :meth:`commit`);
        the arguments are the round's slices of :meth:`commit`'s lists."""
        cache = self.cache
        entries = cache._entries
        get = entries.get
        to_end = entries.move_to_end
        kind, stats, dofs, pvals, logs = memos
        n_hits = n_puts = added = 0
        for key, value in zip(
            keys,
            zip(tables, nbytes, repeat("table"), repeat(kind), stats, dofs, pvals, logs),
            strict=True,
        ):
            entry = get(key)
            if entry is not None:
                to_end(key)
                n_hits += 1
                hits.append(True)
                if entry[3:] != value[3:]:
                    entries[key] = entry[:3] + value[3:]
                continue
            hits.append(False)
            entries[key] = value
            added += value[1]
            n_puts += 1
        cache.hits += n_hits
        cache.misses += len(keys) - n_hits
        cache.puts += n_puts
        cache.current_bytes += added

    def _commit_round_evicting(
        self,
        keys: Sequence[tuple],
        tables: Sequence,
        memos: Sequence,
        nbytes: Sequence[int],
        dense: Sequence[bool],
        hits: list[bool],
    ) -> None:
        """Reserve-then-fill replay of a round that may evict (same
        arguments as :meth:`_commit_round_fitting`)."""
        cache = self.cache
        entries = cache._entries
        kind, *columns = memos
        reserved = []
        for key, table, memo, size, is_dense in zip(
            keys, tables, zip(repeat(kind), *columns), nbytes, dense, strict=True
        ):
            entry = cache._get_locked(key)
            if entry is not None:
                cache.hits += 1
                hits.append(True)
                if entries.get(key) is entry:  # a promote may not stay resident
                    entries[key] = entry[:3] + memo
                continue
            cache.misses += 1
            hits.append(False)
            if is_dense:
                # int64 cells: what the wave's histogram holds.
                cache._put_locked(key, (_PENDING, table[1]), size, "table")
                reserved.append((key, table, memo))
            else:
                cache._insert_locked(key, table, size, "table", memo)
                cache._evict_locked()
        for key, table, memo in reserved:
            entry = entries.get(key)
            if entry is not None:
                entries[key] = (table,) + entry[1:3] + memo

    def ci_counts(
        self, x: int, y: int, s: tuple[int, ...]
    ) -> tuple[np.ndarray, int, bool, tuple]:
        """Resolve-or-build one table (the looped path's front door).

        Returns ``(counts, nz_structural, from_cache, memo)``: ``memo`` is
        the score memo of the entry that held the table (``()`` for a
        fresh build or an entry nobody scored yet).
        """
        key = self.table_key(x, y, s)
        entry = self.cache.get(key)
        if entry is not None:
            counts, nz_structural = entry[0]  # type: ignore[misc]
            return counts, nz_structural, True, entry[3:]
        ds = self.dataset
        counts, nz_structural, _dense = ci_counts(
            ds.column(x),
            ds.column(y),
            ds.columns(s),
            ds.arity(x),
            ds.arity(y),
            [ds.arity(v) for v in s],
            compress_threshold=self.compress_threshold,
        )
        self.cache.put(key, (counts, nz_structural), counts.nbytes)
        return counts, nz_structural, False, ()
