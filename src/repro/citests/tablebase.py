"""Shared machinery of the contingency-table CI testers.

:class:`GSquareTest <repro.citests.gsquare.GSquareTest>` and
:class:`ChiSquareTest <repro.citests.chisquare.ChiSquareTest>` differ only
in the statistic computed from the ``(nz, rx, ry)`` table; everything else
— table construction, the stats-cache front door, work-counter accounting
and the group-evaluation strategy — lives here once.

Two group-evaluation paths, bit-identical by construction and by test:

* **looped** (``batch_groups=False``): one :func:`ci_counts` and one
  statistic reduction per conditioning set — the seed behaviour, kept as
  the reference oracle for the fused kernel;
* **fused** (default): :meth:`ContingencyTableTest.test_groups` takes any
  number of endpoint groups and evaluates every dense conditioning set of
  every group through one *megagroup* pipeline per wave:

  - the plan turns each set into one kernel row ``(vars, strides,
    offset)``: its ``d + 2`` columns (conditioning variables, ``x``,
    ``y``), their mixed-radix place values (memoised per set next to its
    ``(rz, nz)``) and a disjoint base in a flat histogram — exactly
    ``nz * rx * ry`` cells per set, no padding;
  - :func:`~repro.citests.contingency.column_counts` fills every table of
    the wave in one pass over the variable-major columns (the native loop
    of :mod:`repro.citests.native`, or per-column gathers and one
    ``np.bincount``); no cell codes are stored between calls;
  - sets are bucketed by exact table shape ``(rx, ry, nz)`` for the
    statistic stage: per bucket, one stacked elementwise pass into arena
    scratch and one contiguous-row reduction per set (the same value
    sequence the looped path reduces, so the float sums are bit-identical);
  - one ``gammaincc`` call covers the whole wave.

  ``test_group`` is the single-group spelling of the same engine.
  Compressed-Z sets (structural ``nz`` beyond ``compress_threshold * m``)
  are built one at a time through the pure :func:`ci_counts`; they are the
  only sets whose endpoint codes are ever built.

  A fused call runs in three stages:

  - **plan** has no side effects: with a stats cache attached it reads
    resident entries without recency or counter changes.  An entry whose
    score memo is of this tester's kind (statistic class and
    ``dof_adjust``) answers its set right here, deciding ``p > alpha``
    fresh: the set takes no wave slot, no copy-in and no elementwise
    pass;
  - **build** evaluates every other planned set — absent tables from the
    columns, exactly as without a cache; resident dense tables without
    such a memo are copied into their wave's histogram, so one stacked
    reduction scores them and fresh builds alike;
  - **commit** keeps, per item, either every set or (``prefix=gs``, the
    skeleton's speculative rounds) the groups up to and including the
    first accepting one, and bills only those: work counters (a memo
    answer bills the ``n_logs`` and cells a re-score would), and with a
    cache the one table lookup and one store each test makes, replayed
    in the order of the one-group rounds under one cache-lock acquisition
    (:meth:`~repro.engine.statscache.CachedTableBuilder.commit`), which
    also leaves each kept test's score memo on its entry.  LRU recency,
    evictions, spill traffic and hit/miss counters therefore match
    one-set-at-a-time evaluation of those rounds bit for bit, and
    discarded sets leave no trace.  An exception before the commit
    leaves the cache and the counters as they were.

The looped path answers from the same memos (a hit skips the statistic
and ``chi2_sf``) and writes them when it scores a table.

Kernel scratch lives in a :class:`~repro.citests.arena.KernelArena` (the
calling thread's process-wide one by default; workers share one per
process) and is reused from call to call.  The wave histogram is not
arena scratch: every wave allocates a fresh int64 one (``np.zeros`` on
the native path, ``np.bincount``'s output on the NumPy path), up to
8 MiB at ``_MAX_WAVE_CELLS``.

Work-counter accounting is identical in both paths and with or without a
cache: a table hit reads no data; any other test reads its ``d``
conditioning columns, plus the two endpoint columns when it is the first
set of its gs-group — ``m * (d + 2)`` or ``m * d`` data accesses (Sec.
IV-D).  The fused tester's one-slot endpoint memo (``_xy_codes``) is
deliberately *not* credited: the counters model the paper's abstract
per-test data-access machine, and the memo is a constant-factor
implementation detail.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain, repeat

import numpy as np
from scipy.special import gammaincc

from ..datasets.dataset import DiscreteDataset, smallest_uint_dtype
from .arena import KernelArena, thread_arena
from .base import CITestCounters, CITestResult
from .contingency import ci_counts, column_counts, n_configurations
from .native import native_available

__all__ = ["ContingencyTableTest", "chi2_sf", "chi2_sf_array", "wave_arena_hint"]

_UINT8_LIMIT = np.iinfo(np.uint8).max
_UINT16_LIMIT = np.iinfo(np.uint16).max
_INT32_LIMIT = np.iinfo(np.int32).max

#: Wave caps: one fused build is bounded both in histogram cells (the
#: bincount output the statistic stage walks) and in row samples
#: (``n_rows * m``, the NumPy path's per-wave code buffers), so
#: arbitrarily large work items stream through the arena in bounded
#: memory instead of sizing it to the whole chunk.
_MAX_WAVE_CELLS = 1 << 20
_MAX_WAVE_CODES = 1 << 20


def _cell_dtype(limit: int, narrow: bool) -> np.dtype:
    """Smallest dtype that holds cell codes in ``[0, limit]`` exactly.

    ``narrow=False`` restricts the choice to the ``int32``/``int64`` pair
    the native kernel accumulates in (whole cell indices, bounded by the
    wave's histogram size); the NumPy path accumulates row-local codes
    (bounded by the largest table of the wave) and narrows all the way
    down (``uint8``/``uint16`` for typical Table II waves), cutting its
    memory traffic.  Counting is exact at every tier — the codes are
    bounded by construction — so the histogram is bit-identical across
    tiers.
    """
    if narrow:
        if limit <= _UINT8_LIMIT:
            return np.dtype(np.uint8)
        if limit <= _UINT16_LIMIT:
            return np.dtype(np.uint16)
    if limit <= _INT32_LIMIT:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def wave_arena_hint(n_rows: int, n_samples: int) -> dict:
    """Kernel-arena prewarm hint for waves of ``n_rows`` kernel rows.

    Sizes the NumPy path's widest per-wave buffer (the ``intp`` codes, see
    :func:`~repro.citests.contingency.column_counts`), capped at the wave
    code cap; empty under the native kernel, which keeps no per-row
    scratch.  Purely an allocation warm-up: a wrong hint costs at most a
    few buffer growth copies, never correctness.
    """
    if native_available():
        return {}
    n = min(max(int(n_rows), 1) * max(int(n_samples), 1), _MAX_WAVE_CODES)
    return {"codes": (n, np.dtype(np.intp).str)}


def chi2_sf(stat: float, dof: float) -> float:
    """Chi-squared survival function without ``scipy.stats`` dispatch."""
    if dof <= 0:
        return 1.0
    return float(gammaincc(dof / 2.0, stat / 2.0))


def chi2_sf_array(stats: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`chi2_sf` — one ``gammaincc`` call per wave.

    Elementwise identical to the scalar form (same ufunc, applied to the
    same float64 values).
    """
    halved = np.asarray(stats, dtype=np.float64) / 2.0
    positive = dofs > 0
    if positive.all():
        return gammaincc(dofs / 2.0, halved)
    safe = np.where(positive, dofs, 1.0)
    return np.where(positive, gammaincc(safe / 2.0, halved), 1.0)


class _Scratch:
    """Arena adapter handed to the ``_elementwise`` hooks.

    Each key names one reusable float64/bool slot; views are valid until
    the same key is taken again (the engine consumes every bucket's terms
    before starting the next).
    """

    __slots__ = ("_arena",)

    def __init__(self, arena: KernelArena) -> None:
        self._arena = arena

    def f64(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        return self._arena.take("ew_" + key, shape, np.float64)

    def bool_(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        return self._arena.take("ew_" + key, shape, np.bool_)


class _Job:
    """One planned conditioning set of one group.

    ``dense`` jobs are scored in waves — built there from the kernel row
    ``vars`` (``s + (x, y)``) with the set's memoised ``place`` values, or
    copied in when their table was resident in the stats cache as the call
    planned; compressed-Z jobs are scored one at a time.  On the cache
    path ``key`` is the table key, after the build ``table`` holds
    ``(counts, nz_structural)`` and ``memo`` the score the commit stores
    on the entry; a job answered from its resident entry's memo is not
    built at all.  ``cells``/``logs`` are the work the test bills when it
    commits.
    """

    __slots__ = (
        "g", "i", "s", "rz", "nz", "place", "vars", "cells", "dense", "key", "table",
        "logs", "offset", "memo",
    )

    def __init__(self, g, i, s, rz, nz, place, vars_, cells, dense):
        self.g = g
        self.i = i
        self.s = s
        self.rz = rz
        self.nz = nz
        self.place = place
        self.vars = vars_
        self.cells = cells
        self.dense = dense
        self.key = None
        self.table = None
        self.logs = 0
        self.offset = 0
        self.memo = None


def _set_geometry(s: tuple[int, ...], arities: list[int]) -> tuple[list[int], int, tuple]:
    """``(rz, nz, place)`` of a conditioning set: its arities, structural
    configuration count, and the place value of every kernel-row column
    in units of the group's ``(rx * ry, ry, 1)`` (``prod(rz[l] for l >
    j)`` per conditioning variable, then ``1, 1`` for the endpoints)."""
    rz = [arities[v] for v in s]
    place = [1] * (len(s) + 2)
    for j in range(len(s) - 2, -1, -1):
        place[j] = place[j + 1] * rz[j + 1]
    return rz, n_configurations(rz), tuple(place)


def _runs(jobs: list[_Job]) -> list[tuple[int, int, int]]:
    """``(start, stop, group)`` spans of consecutive jobs of one group."""
    runs = []
    b, n = 0, len(jobs)
    while b < n:
        g = jobs[b].g
        c = b + 1
        while c < n and jobs[c].g == g:
            c += 1
        runs.append((b, c, g))
        b = c
    return runs


class ContingencyTableTest:
    """Base of the table-driven CI testers (see module docstring).

    Subclasses provide the statistic:

    * ``_stat_from_counts(counts) -> (stat, n_logs, n_nonempty)`` — looped
      single-table path;
    * ``_elementwise(stack, scratch=None) -> (terms, mask, n_z)`` — per-cell
      statistic terms of a ``(..., nz, rx, ry)`` stack (``terms`` sums to
      the pre-scaling statistic over cells, ``mask`` marks the cells billed
      as log/flop work, ``n_z`` are the per-slice totals); when ``scratch``
      is given, the large intermediates come from its arena slots instead
      of fresh allocations — same ufuncs over the same values, so the
      results stay bit-identical;
    * ``_finalize_stats(sums) -> stats`` — scale/clamp the per-set term
      sums into the statistic (e.g. ``max(2 * s, 0)`` for G^2).

    Parameters
    ----------
    dataset:
        The observations (either storage layout).
    alpha:
        Significance level; p > alpha accepts independence.
    dof_adjust:
        ``"structural"`` (classical, the paper's definition) or ``"slices"``
        (count only non-empty Z slices).
    compress_threshold:
        Compress Z codes through ``np.unique`` when the structural
        configuration count exceeds ``compress_threshold * n_samples``;
        bounds memory at any depth (and bounds what the fused kernel will
        stack).
    stats_cache:
        Optional :class:`~repro.engine.statscache.SufficientStatsCache`;
        tables are then pulled through the cache (memoized by variable
        tuple).  Results are bit-identical either way.
    batch_groups:
        ``True`` (default) routes group evaluation through the fused
        kernel, and an uncached tester keeps the endpoint codes of the
        last ``(x, y)`` pair it encoded in one slot; ``False`` is the
        baseline regime: the looped per-set reference path, re-deriving
        the endpoint codes once per call and storing none.
    arena:
        Optional :class:`~repro.citests.arena.KernelArena` (one per
        worker); by default each kernel call uses the calling thread's
        :func:`~repro.citests.arena.thread_arena`, so a tester serving
        from several threads never shares scratch between them.
    """

    def __init__(
        self,
        dataset: DiscreteDataset,
        alpha: float = 0.05,
        dof_adjust: str = "structural",
        compress_threshold: int = 4,
        stats_cache=None,
        batch_groups: bool = True,
        arena: KernelArena | None = None,
    ) -> None:
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if dof_adjust not in ("structural", "slices"):
            raise ValueError("dof_adjust must be 'structural' or 'slices'")
        self.dataset = dataset
        self.alpha = float(alpha)
        self.dof_adjust = dof_adjust
        self.compress_threshold = int(compress_threshold)
        self.batch_groups = bool(batch_groups)
        self.counters = CITestCounters()
        self._arena = arena
        # The kernel's column matrix, resolved on first use (``_columns``).
        self._cols: np.ndarray | None = None
        # ``(x, y, codes)`` of the last endpoint pair an uncached fused
        # tester encoded (``_xy_codes``).  It needs no lock: it is replaced
        # as one tuple and read once into a local, so even a shared tester
        # only ever sees a pair together with that pair's codes.
        self._xy_slot: tuple[int, int, np.ndarray] | None = None
        # Memo of per-set geometry ``s -> (rz, nz, place)`` (tiny tuples;
        # the planner touches it once per (group, set) pair, so a kernel
        # row needs no per-row arithmetic).
        self._set_info: dict[tuple[int, ...], tuple[list[int], int, tuple]] = {}
        #: Per-instance native-path switch (A/B benchmarking, tests); the
        #: effective path is this AND the import-time backend detection.
        self.use_native = True
        # Plain-int arity list: the fused planner reads arities per set
        # per group, and numpy scalar unboxing would dominate it.
        self._arities = [dataset.arity(v) for v in range(dataset.n_variables)]
        # Stats-cache score memos are shared only between testers of one
        # statistic and one dof rule (statscache module docstring).
        self._memo_kind = (type(self), dof_adjust)
        self._builder = None
        if stats_cache is not None:
            from ..engine.statscache import CachedTableBuilder

            self._builder = CachedTableBuilder(
                dataset, stats_cache, compress_threshold=self.compress_threshold
            )

    @property
    def arena(self) -> KernelArena:
        """The kernel scratch pool of the current call (class docstring)."""
        return self._arena if self._arena is not None else thread_arena()

    def _columns(self) -> np.ndarray:
        """The ``(n_vars, m)`` column matrix the kernel reads: the dataset's
        own values when they are variable-major, C-contiguous and
        ``uint8``/``uint16``, else a read-only variable-major copy in the
        smallest unsigned dtype covering the largest arity (values equal
        ``column(i)`` exactly), built once."""
        if self._cols is None:
            ds = self.dataset
            values = ds.values
            if (
                ds.layout == "variable-major"
                and values.dtype in (np.uint8, np.uint16)
                and values.flags.c_contiguous
            ):
                self._cols = values
            else:
                dtype = smallest_uint_dtype(max(self._arities, default=1) - 1)
                cols = np.empty((ds.n_variables, ds.n_samples), dtype=dtype)
                for i in range(ds.n_variables):
                    cols[i] = ds.column(i)
                cols.setflags(write=False)
                self._cols = cols
        return self._cols

    def _xy_codes(self, x: int, y: int) -> np.ndarray | None:
        """Per-sample endpoint cell codes ``x * ry + y`` (read-only) for a
        looped build, or ``None`` with a stats cache attached (the builder
        reads the endpoint columns only on a table miss).

        A fused tester answers a repeat of its last pair from the one-slot
        memo; a looped tester (the baseline regime) re-derives the codes
        on every call and stores none."""
        if self._builder is not None:
            return None
        slot = self._xy_slot
        if slot is not None and slot[0] == x and slot[1] == y:
            return slot[2]
        ds = self.dataset
        codes = ds.column(x).astype(np.int64) * ds.arity(y)
        codes += ds.column(y)
        codes.setflags(write=False)
        if self.batch_groups:
            self._xy_slot = (int(x), int(y), codes)
        return codes

    # ------------------------------------------------------------------ #
    # statistic hooks (subclass responsibility)
    # ------------------------------------------------------------------ #
    def _stat_from_counts(self, counts: np.ndarray) -> tuple[float, int, int]:
        raise NotImplementedError

    def _elementwise(
        self, stack: np.ndarray, scratch: _Scratch | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _finalize_stats(self, sums: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def test(self, x: int, y: int, s: Sequence[int]) -> CITestResult:
        """Single CI test ``I(x, y | s)``."""
        s = tuple(int(v) for v in s)
        return self._test_single(x, y, s, self._xy_codes(x, y), xy_reused=False)

    def test_group(self, x: int, y: int, sets: Sequence[Sequence[int]]) -> list[CITestResult]:
        """Evaluate several conditioning sets sharing endpoints ``(x, y)``.

        The XY encoding is computed once and reused for every set in the
        group (the gs memory-reuse optimisation); under ``batch_groups``
        the whole group runs through the fused kernel (module docstring).
        """
        sets = [tuple(map(int, s)) for s in sets]
        if not self.batch_groups or len(sets) < 2:
            return self._test_group_looped(x, y, sets)
        return self._test_groups_fused([(x, y, sets)], None, None)[0]

    def test_groups(
        self,
        items: Sequence[tuple[int, int, Sequence[Sequence[int]]]],
        prefix: int | None = None,
        decide: Callable[[CITestResult], CITestResult] | None = None,
    ) -> list[list[CITestResult]]:
        """Evaluate many endpoint groups through one fused kernel pass.

        ``items`` holds ``(x, y, sets)`` triples; the return value is one
        result list per item, each bit-identical to what per-item
        ``test_group`` calls (and therefore the looped oracle) would have
        produced — cross-group fusion changes kernel invocation counts,
        never values or cache/counter semantics.

        ``prefix=gs`` reads each item's sets as consecutive ``gs``-groups
        and keeps, per item, every group up to and including the first
        one holding an accepting set; the later groups are evaluated but
        discarded without a trace (no counter, cache event or result).
        Counters and cache events of the kept groups are those of
        one-group-per-item calls made round by round (group ``j`` of
        every item still live, then group ``j + 1``).  ``decide``
        re-decides every result before that acceptance check (a wrapper
        tester's own decision rule); the returned results are decided.
        """
        # Normalise lazily: callers in the batched-learn hot path already
        # send plain-int endpoints and tuple sets, so re-tupling every set
        # of every group would cost more than the whole plan stage.
        items = [
            (
                x if type(x) is int else int(x),
                y if type(y) is int else int(y),
                [s if type(s) is tuple else tuple(map(int, s)) for s in sets],
            )
            for x, y, sets in items
        ]
        if not items:
            return []
        if self.batch_groups:
            return self._test_groups_fused(items, prefix, decide)
        # Looped reference path, in the fused commit's round order: group
        # j of every item still live, then group j + 1; an item stops after
        # its first accepting group, so nothing is ever discarded.
        longest = max(len(sets) for _, _, sets in items)
        step = prefix or max(longest, 1)
        out: list[list[CITestResult]] = [[] for _ in items]
        live = range(len(items))
        for j in range(0, longest, step):
            still = []
            for g in live:
                x, y, sets = items[g]
                if j >= len(sets):
                    continue
                res = self._test_group_looped(x, y, sets[j : j + step])
                if decide is not None:
                    res = [decide(r) for r in res]
                out[g].extend(res)
                if not any(r.independent for r in res):
                    still.append(g)
            live = still
        return out

    # ------------------------------------------------------------------ #
    # looped path (reference oracle)
    # ------------------------------------------------------------------ #
    def _test_group_looped(
        self, x: int, y: int, sets: list[tuple[int, ...]]
    ) -> list[CITestResult]:
        xy_codes = self._xy_codes(x, y)
        return [
            self._test_single(x, y, s, xy_codes, xy_reused=i > 0) for i, s in enumerate(sets)
        ]

    def _test_single(
        self,
        x: int,
        y: int,
        s: tuple[int, ...],
        xy_codes: np.ndarray | None,
        xy_reused: bool,
    ) -> CITestResult:
        ds = self.dataset
        rx, ry = ds.arity(x), ds.arity(y)

        from_cache: bool | None = None
        entry = None
        if self._builder is not None:
            counts, nz_structural, from_cache, entry = self._builder.ci_counts(x, y, s)
        else:
            counts, nz_structural = self._table(x, y, s, rx, ry, xy_codes)
        memo = None if entry is None else entry.memo
        if memo is not None and memo[0] == self._memo_kind:
            res, n_logs = self._from_memo(x, y, s, memo), memo[4]
        else:
            res, n_logs = self._score(x, y, s, counts, nz_structural, rx, ry)
            if entry is not None:
                entry.memo = self._memo(res, n_logs)
        self.counters.record(
            depth=len(s),
            m=ds.n_samples,
            cells=counts.size,
            logs=n_logs,
            xy_reused=xy_reused,
            from_cache=from_cache,
        )
        return res

    def _table(
        self, x: int, y: int, s: tuple[int, ...], rx: int, ry: int, xy_codes: np.ndarray | None
    ) -> tuple[np.ndarray, int]:
        """``(counts, nz_structural)`` of one looped-path test without a
        stats cache (the sample-level tester's hook)."""
        ds = self.dataset
        counts, nz_structural, _dense = ci_counts(
            ds.column(x),
            ds.column(y),
            ds.columns(s),
            rx,
            ry,
            [ds.arity(v) for v in s],
            compress_threshold=self.compress_threshold,
            xy_codes=xy_codes,
        )
        return counts, nz_structural

    def _memo(self, res: CITestResult, n_logs: int) -> tuple:
        """The stats-cache score memo of a freshly scored table."""
        return (self._memo_kind, res.statistic, res.dof, res.p_value, n_logs)

    def _from_memo(self, x: int, y: int, s: tuple[int, ...], memo: tuple) -> CITestResult:
        """The result a score memo answers, decided at this tester's alpha."""
        _kind, stat, dof, p, _n_logs = memo
        return CITestResult(x, y, s, stat, dof, p, p > self.alpha)

    def _score(
        self,
        x: int,
        y: int,
        s: tuple[int, ...],
        counts: np.ndarray,
        nz_structural: int,
        rx: int,
        ry: int,
    ) -> tuple[CITestResult, int]:
        """Statistic and decision for one built table, plus its log count
        (no accounting: callers bill the test when it counts)."""
        stat, n_logs, n_nonempty = self._stat_from_counts(counts)
        if self.dof_adjust == "structural":
            dof = (rx - 1) * (ry - 1) * float(nz_structural)
        else:
            dof = (rx - 1) * (ry - 1) * float(max(n_nonempty, 1))
        p = chi2_sf(stat, dof)
        res = CITestResult(
            x=x, y=y, s=s, statistic=stat, dof=dof, p_value=p, independent=p > self.alpha
        )
        return res, n_logs

    # ------------------------------------------------------------------ #
    # fused path (megagroup kernel): plan -> build -> commit
    # ------------------------------------------------------------------ #
    def _test_groups_fused(
        self,
        items: list[tuple[int, int, list[tuple[int, ...]]]],
        prefix: int | None,
        decide: Callable[[CITestResult], CITestResult] | None,
    ) -> list[list[CITestResult]]:
        ds = self.dataset
        m = ds.n_samples
        ar = self._arities
        dense_limit = self.compress_threshold * max(m, 1)
        builder = self._builder
        set_info = self._set_info

        results: list[list[CITestResult | None]] = [
            [None] * len(sets) for _, _, sets in items
        ]
        gshape: list[tuple[int, int]] = [(0, 0)] * len(items)
        entries: list[_Job] = []  # dense sets, scored in waves
        loose: list[_Job] = []  # compressed sets, scored one at a time
        # The job behind every (group, set); on the cache path repeats of
        # one table key within the call share one (built and scored once).
        jobs: list[list[_Job]] = []

        # -- plan: no side effects on the cache or the counters ---------- #
        # With a cache, resident entries are read without recency or counter
        # effects; commit replays the cache events of the tests that count.
        # A resident entry memoised by this tester's kind answers its test
        # here: the job is never built or scored.
        peek = builder.cache.peek if builder is not None else None
        kind = self._memo_kind
        planned: dict[tuple, _Job] = {}
        for g, (x, y, sets) in enumerate(items):
            ry = ar[y]
            sc = ar[x] * ry
            gshape[g] = (ar[x], ry)
            pair = (x, y)
            row: list[_Job] = []
            jobs.append(row)
            for i, s in enumerate(sets):
                if builder is not None:
                    key = builder.table_key(x, y, s)
                    job = planned.get(key)
                    if job is not None:
                        row.append(job)
                        continue
                info = set_info.get(s)
                if info is None:
                    info = set_info[s] = _set_geometry(s, ar)
                rz, nz, place = info
                dense = nz <= dense_limit
                job = _Job(g, i, s, rz, nz, place, s + pair, nz * sc, dense)
                row.append(job)
                if builder is not None:
                    job.key = key
                    planned[key] = job
                    entry = peek(key)
                    if entry is not None:
                        job.table = entry.value
                        memo = entry.memo
                        if memo is not None and memo[0] == kind:
                            job.memo, job.logs = memo, memo[4]
                            job.cells = job.table[0].size
                            results[g][i] = self._from_memo(x, y, s, memo)
                            continue
                (entries if dense else loose).append(job)

        # -- build -------------------------------------------------------- #
        if entries:
            for wave in self._waves(entries, gshape):
                self._build_wave(wave, items, gshape, results)
        for job in loose:
            x, y, _sets = items[job.g]
            rx, ry = gshape[job.g]
            if job.table is None:
                counts, nz_structural, _dense = ci_counts(
                    ds.column(x),
                    ds.column(y),
                    ds.columns(job.s),
                    rx,
                    ry,
                    job.rz,
                    compress_threshold=self.compress_threshold,
                )
                job.table = (counts, nz_structural)
            counts, nz_structural = job.table
            res, job.logs = self._score(x, y, job.s, counts, nz_structural, rx, ry)
            results[job.g][job.i] = res
            job.cells = counts.size
            if builder is not None:
                job.memo = self._memo(res, job.logs)
        if builder is not None:
            for g, row in enumerate(jobs):
                for i, job in enumerate(row):
                    if job.g != g or job.i != i:
                        results[g][i] = results[job.g][job.i]

        # -- decide the kept prefix of every item ------------------------- #
        if decide is not None:
            results = [[decide(r) for r in res] for res in results]  # type: ignore[arg-type]
        keep = [len(res) for res in results]
        if prefix is not None:
            for g, res in enumerate(results):
                if len(res) <= prefix:
                    continue  # one group: kept whole
                for k, r in enumerate(res):
                    if r.independent:  # type: ignore[union-attr]
                        keep[g] = min(keep[g], (k // prefix + 1) * prefix)
                        results[g] = res[: keep[g]]
                        break

        # -- commit: accounting (and cache events) of the kept tests ------ #
        # Commit order is the rounds a one-group-per-item engine would run:
        # group j of every item that keeps it, then group j + 1.  A test
        # at position i reads the endpoint columns only as the first set of
        # its gs-group (the group-evaluation XY reuse).
        step = prefix or max(keep, default=1) or 1
        seq: list[tuple[int, _Job]] = []
        rounds: list[list[_Job]] = []
        for j in range(0, max(keep, default=0), step):
            start = len(seq)
            for g, row in enumerate(jobs):
                seq.extend((i, row[i]) for i in range(j, min(j + step, keep[g])))
            rounds.append([job for _, job in seq[start:]])
        hits = builder.commit(rounds) if builder is not None else [False] * len(seq)
        per_depth: dict[int, int] = {}
        n_kept = n_hits = cells = logs = cols = 0
        for (i, job), hit in zip(seq, hits, strict=True):
            d = len(job.s)
            n_kept += 1
            cells += job.cells
            logs += job.logs
            per_depth[d] = per_depth.get(d, 0) + 1
            if hit:
                n_hits += 1
            else:
                cols += d if i % step else d + 2
        counters = self.counters
        if builder is not None:
            counters.cache_hits += n_hits
            counters.cache_misses += n_kept - n_hits
        counters.n_tests += n_kept
        counters.data_accesses += m * cols
        counters.table_cells += cells
        counters.log_ops += logs
        pdt = counters.per_depth_tests
        for d, c in per_depth.items():
            pdt[d] = pdt.get(d, 0) + c
        return results  # type: ignore[return-value]

    def _waves(
        self, entries: list[_Job], gshape: list[tuple[int, int]]
    ) -> list[list[_Job]]:
        """Split the dense jobs into waves under the wave caps (module
        constants).

        Shape-major job order (stable, groups stay whole — the shape is a
        per-group property): each wave then carries only a couple of
        endpoint-shape slabs, cutting per-slab elementwise dispatches.
        Per-set results are order-independent (cache events are replayed
        at commit, in plan order).  A single oversized job still gets a
        one-job wave — the caps bound steady-state arena footprint, they
        are not admission control.
        """
        buckets: dict[tuple[int, int], list[_Job]] = {}
        for e in entries:
            shp = gshape[e.g]
            lst = buckets.get(shp)
            if lst is None:
                buckets[shp] = [e]
            else:
                lst.append(e)
        max_rows = max(_MAX_WAVE_CODES // max(self.dataset.n_samples, 1), 1)
        waves: list[list[_Job]] = []
        wave: list[_Job] = []
        cells = 0
        for shp in sorted(buckets):
            for e in buckets[shp]:
                if wave and (cells + e.cells > _MAX_WAVE_CELLS or len(wave) >= max_rows):
                    waves.append(wave)
                    wave, cells = [], 0
                wave.append(e)
                cells += e.cells
        if wave:
            waves.append(wave)
        return waves

    def _build_wave(
        self,
        wave: list[_Job],
        items: list[tuple[int, int, list[tuple[int, ...]]]],
        gshape: list[tuple[int, int]],
        results: list[list[CITestResult | None]],
    ) -> None:
        """Fused build + statistics for one wave of dense jobs.

        Jobs whose table is already resident in the stats cache (but not
        memoised by this tester's kind, which the plan answers) take a
        slot in the wave's histogram like built ones (their table is
        copied in), so one stacked reduction scores hits and builds alike.
        With a cache, every job leaves with its score memo.
        """
        builder = self._builder
        arena = self.arena
        n = len(wave)

        # -- global histogram layout ------------------------------------- #
        # Offsets are assigned in (rx, ry, nz)-sorted order: all tables
        # sharing an endpoint-shape (rx, ry) become one contiguous slab of
        # z-slices (the statistic terms are per-z-slice computations, so
        # one elementwise dispatch covers the whole slab regardless of the
        # nz mix), and within a slab equal-nz runs are contiguous (the
        # per-set term sums reduce uniform same-length rows, which keeps
        # them bit-identical to the looped per-table sums).
        exy = [gshape[e.g] for e in wave]
        shape_order = [(exy[w][0], exy[w][1], e.nz, w) for w, e in enumerate(wave)]
        shape_order.sort()
        scales_l = [0] * n
        total = 0
        for rx, ry, nz, w in shape_order:
            sc = rx * ry
            scales_l[w] = sc
            wave[w].offset = total
            total += nz * sc
        if builder is None:
            counts = self._count(wave, scales_l, total, gshape)
            built = wave
        else:
            built = [e for e in wave if e.table is None]
            if built:
                sc_built = [scales_l[w] for w, e in enumerate(wave) if e.table is None]
                counts = self._count(built, sc_built, total, gshape)
            else:
                counts = np.zeros(total, dtype=np.int64)
            if len(built) < n:
                for e in wave:
                    if e.table is not None:
                        counts[e.offset : e.offset + e.cells] = e.table[0].reshape(-1)

        # -- statistics: one elementwise pass per endpoint shape ---------- #
        # The terms/marginals of G^2 and X^2 are per-z-slice computations,
        # so the whole (rx, ry) slab — every set sharing that endpoint
        # shape, any nz mix — goes through ``_elementwise`` as one stacked
        # (z_total, rx, ry) array: per-cell values are unchanged by the
        # stacking, and the axis reductions stay within single z-slices.
        # Only the per-set aggregations below need exact spans.
        all_stats = np.empty(n, dtype=np.float64)
        all_dofs = np.empty(n, dtype=np.float64)
        all_logs = np.zeros(n, dtype=np.int64)
        order_arr = np.fromiter((t[3] for t in shape_order), np.intp, n)
        nz_arr = np.fromiter((t[2] for t in shape_order), np.intp, n)
        scratch = _Scratch(arena)
        structural = self.dof_adjust == "structural"
        i = 0
        while i < n:
            rx, ry = shape_order[i][:2]
            j = i
            z_total = 0
            while j < n and shape_order[j][0] == rx and shape_order[j][1] == ry:
                z_total += shape_order[j][2]
                j += 1
            pos = wave[shape_order[i][3]].offset  # slab base (padding-aware)
            slab = counts[pos : pos + z_total * rx * ry].reshape(z_total, rx, ry)
            terms, mask, n_z = self._elementwise(slab, scratch)
            terms_flat = terms.reshape(-1)
            mask_flat = mask.reshape(-1)
            # Log billing: integer cell counts are order-independent, so
            # one segmented reduction per slab bills every set exactly as
            # the looped path's per-table ``count_nonzero`` would.
            spans = nz_arr[i:j] * (rx * ry)
            starts = np.zeros(j - i, dtype=np.intp)
            np.cumsum(spans[:-1], out=starts[1:])
            all_logs[order_arr[i:j]] = np.add.reduceat(
                mask_flat, starts, dtype=np.int64
            )
            # Equal-nz runs inside the slab: uniform (count, span) rows.
            # Every row is one set's full unpadded table — the same
            # contiguous value sequence the looped path reduces, so the
            # pairwise float sums are bit-identical per set.
            k, cell0, z0 = i, 0, 0
            while k < j:
                nz = shape_order[k][2]
                m_run = k
                while m_run < j and shape_order[m_run][2] == nz:
                    m_run += 1
                cnt = m_run - k
                span = nz * rx * ry
                block = terms_flat[cell0 : cell0 + cnt * span].reshape(cnt, span)
                idx = order_arr[k:m_run]
                all_stats[idx] = block.sum(axis=1)
                if structural:
                    all_dofs[idx] = (rx - 1) * (ry - 1) * float(nz)
                else:
                    nz_rows = n_z.reshape(-1)[z0 : z0 + cnt * nz].reshape(cnt, nz)
                    n_nonempty = np.count_nonzero(nz_rows > 0, axis=1)
                    all_dofs[idx] = (
                        (rx - 1) * (ry - 1) * np.maximum(n_nonempty, 1).astype(np.float64)
                    )
                cell0 += cnt * span
                z0 += cnt * nz
                k = m_run
            i = j

        # Finalisation (scale/clamp) is elementwise, so one whole-wave call
        # equals the per-run calls the run loop used to make.
        all_stats = self._finalize_stats(all_stats)
        ps = chi2_sf_array(all_stats, all_dofs)

        # -- results, log billing, cache copies --------------------------- #
        stats_l, dofs_l, ps_l = all_stats.tolist(), all_dofs.tolist(), ps.tolist()
        logs_l = all_logs.tolist()
        # ``p > alpha`` vectorised over float64 is the same comparison the
        # looped path makes per test.
        ind_l = (ps > self.alpha).tolist()
        for b, c, g in _runs(wave):
            x, y, _sets = items[g]
            res_g = results[g]
            sub = wave[b:c]
            recs = map(
                CITestResult,
                repeat(x),
                repeat(y),
                (e.s for e in sub),
                stats_l[b:c],
                dofs_l[b:c],
                ps_l[b:c],
                ind_l[b:c],
            )
            for e, r, lg in zip(sub, recs, logs_l[b:c], strict=True):
                res_g[e.i] = r
                e.logs = lg
                if builder is not None:
                    e.memo = self._memo(r, lg)
        if builder is not None:
            for e in built:
                # Materialise a standalone copy: a contiguous *view* would
                # pin the whole wave histogram in the byte-budgeted cache
                # while billing only the slice.
                rx, ry = gshape[e.g]
                table = counts[e.offset : e.offset + e.cells].reshape(e.nz, rx, ry).copy()
                e.table = (table, e.nz)

    def _count(
        self,
        rows: list[_Job],
        scales_l: list[int],
        total: int,
        gshape: list[tuple[int, int]],
    ) -> np.ndarray:
        """Flat histogram of ``total`` cells holding the tables of ``rows``
        (jobs with laid-out offsets; ``scales_l`` their ``rx * ry``).

        The plan arrays are assembled without per-row arithmetic: every
        row's place values come from the set memo and are scaled by one
        vectorised multiply — ``rx * ry`` for the conditioning columns,
        ``ry`` for ``x`` and ``1`` for ``y``.
        """
        n = len(rows)
        k = np.fromiter((len(e.vars) for e in rows), np.int64, n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(k, out=ptr[1:])
        size = int(ptr[-1])
        vars_ = np.fromiter(chain.from_iterable(e.vars for e in rows), np.int64, size)
        strides = np.fromiter(chain.from_iterable(e.place for e in rows), np.int64, size)
        scale = np.repeat(np.fromiter(scales_l, np.int64, n), k)
        scale[ptr[1:] - 2] = np.fromiter((gshape[e.g][1] for e in rows), np.int64, n)
        scale[ptr[1:] - 1] = 1
        strides *= scale
        offsets = np.fromiter((e.offset for e in rows), np.int64, n)
        native_ok = self.use_native and native_available()
        # Native: whole cell indices; NumPy: row-local codes (see
        # ``_cell_dtype``).
        limit = total if native_ok else max(e.cells for e in rows)
        return column_counts(
            self._columns(),
            ptr,
            vars_,
            strides,
            offsets,
            total,
            _cell_dtype(limit, narrow=not native_ok),
            arena=self.arena,
            use_native=native_ok,
        )
