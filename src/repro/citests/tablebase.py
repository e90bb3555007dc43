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
  - one flat pass scores the whole wave, whatever its mix of table
    shapes: every cell's marginals ``N_x+z``, ``N_+yz``, ``N_++z`` are
    segment sums of integer counts (exact in float64 in any order)
    gathered back to the cell, and the statistic's per-cell formula — the
    one the looped path applies with broadcast marginals — runs once over
    all cells into arena scratch.  Tables sit back to back in span order,
    so each run of equal-span sets is one contiguous ``(count, span)``
    block whose row sums are the value sequences the looped path reduces:
    the float sums are bit-identical;
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
    fresh: the set takes no wave slot, no copy-in and no scoring;
  - **build** evaluates every other planned set — absent tables from the
    columns, exactly as without a cache; resident dense tables without
    such a memo are copied into their wave's histogram, so one scoring
    pass covers them and fresh builds alike;
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
process) and is reused from call to call: the native path's wave
histogram (up to 2 MiB at ``_MAX_WAVE_CELLS``) and every cell-sized
buffer of the scoring pass included.  Tables the stats cache keeps are
copied out of the histogram before the call returns.  Only the NumPy
path's histogram is a fresh array per wave (``np.bincount``'s output),
next to the small per-segment marginal sums.

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
from itertools import chain
from operator import attrgetter

import numpy as np
from scipy.special import gammaincc

from ..datasets.dataset import DiscreteDataset, smallest_uint_dtype
from .arena import KernelArena, thread_arena
from .base import CITestCounters, CITestResult
from .contingency import ci_counts, column_counts, n_configurations
from .native import native_available

__all__ = ["ContingencyTableTest", "chi2_sf", "chi2_sf_array", "memo_kind", "wave_arena_hint"]

_UINT8_LIMIT = np.iinfo(np.uint8).max
_UINT16_LIMIT = np.iinfo(np.uint16).max
_INT32_LIMIT = np.iinfo(np.int32).max

#: Wave caps: one fused build is bounded both in histogram cells (the
#: scoring pass keeps about a dozen cell-sized arena buffers, ~80 bytes
#: per cell, so ~21 MiB at this cap) and in row samples (``n_rows * m``,
#: the NumPy path's per-wave code buffers), so arbitrarily large work
#: items stream through the arena in bounded memory instead of sizing it
#: to the whole chunk.
_MAX_WAVE_CELLS = 1 << 18
_MAX_WAVE_CODES = 1 << 20

#: Layout order of a wave's tables (``_build_wave``).
_CELLS = attrgetter("cells")


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


def memo_kind(cls: type, dof_adjust: str) -> str:
    """The stats-cache score-memo kind of ``cls`` testers under
    ``dof_adjust``: a string, so that a memo holds only atoms (see
    :mod:`repro.engine.statscache`)."""
    return f"{cls.__module__}.{cls.__qualname__}/{dof_adjust}"


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


class ContingencyTableTest:
    """Base of the table-driven CI testers (see module docstring).

    Subclasses provide the statistic:

    * ``_elementwise(counts, n_xz, n_yz, n_z, out) -> (terms, mask)`` — the
      per-cell formula: statistic terms of every cell from its count and
      its three marginals (``terms`` sums to the pre-scaling statistic over
      a table's cells, ``mask`` marks the cells billed as log/flop work).
      The looped oracle passes one table with broadcast marginals, the
      fused path a whole wave with gathered ones; ``out(key, dtype)``
      supplies each cell-shaped destination (fresh arrays, or arena
      scratch), so both paths run the same ufuncs over the same values;
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
        self._memo_kind = memo_kind(type(self), dof_adjust)
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
    def _elementwise(
        self,
        counts: np.ndarray,
        n_xz: np.ndarray,
        n_yz: np.ndarray,
        n_z: np.ndarray,
        out: Callable[[str, type], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _finalize_stats(self, sums: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _stat_from_counts(self, counts: np.ndarray) -> tuple[float, int, int]:
        """``(statistic, n_logs, n_nonempty_z_slices)`` of one ``(nz, rx,
        ry)`` table: the per-cell formula over broadcast marginals (integer
        sums, exact in float64), then one contiguous sum."""
        n_xz = counts.sum(axis=-1, dtype=np.float64)
        n_yz = counts.sum(axis=-2, dtype=np.float64)
        n_z = n_xz.sum(axis=-1)
        shape = counts.shape
        terms, mask = self._elementwise(
            counts,
            n_xz[..., :, None],
            n_yz[..., None, :],
            n_z[..., None, None],
            lambda _key, dtype: np.empty(shape, dtype),
        )
        stat = float(self._finalize_stats(terms.sum()))
        return stat, int(np.count_nonzero(mask)), int(np.count_nonzero(n_z > 0))

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
        memo: tuple = ()
        builder = self._builder
        if builder is not None:
            counts, nz_structural, from_cache, memo = builder.ci_counts(x, y, s)
        else:
            counts, nz_structural = self._table(x, y, s, rx, ry, xy_codes)
        if memo and memo[0] == self._memo_kind:
            res, n_logs = self._from_memo(x, y, s, memo), memo[4]
        else:
            res, n_logs = self._score(x, y, s, counts, nz_structural, rx, ry)
            if builder is not None:
                builder.cache.set_memo(builder.table_key(x, y, s), self._memo(res, n_logs))
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
        jobs: list[list[_Job]] = []  # the job behind every (group, set)

        # -- plan: no side effects on the cache or the counters ---------- #
        # With a cache, resident entries are read without recency or counter
        # effects; commit replays the cache events of the tests that count.
        # A resident entry memoised by this tester's kind answers its test
        # here: the job is never built or scored.  A table key repeated
        # within the call is planned (and built) once per occurrence, as
        # without a cache: the commit turns every repeat into a hit.
        peek = builder.cache.peek if builder is not None else None
        table_key = builder.table_key if builder is not None else None
        kind = self._memo_kind
        for g, (x, y, sets) in enumerate(items):
            ry = ar[y]
            sc = ar[x] * ry
            gshape[g] = (ar[x], ry)
            pair = (x, y)
            row: list[_Job] = []
            jobs.append(row)
            for i, s in enumerate(sets):
                info = set_info.get(s)
                if info is None:
                    info = set_info[s] = _set_geometry(s, ar)
                rz, nz, place = info
                dense = nz <= dense_limit
                job = _Job(g, i, s, rz, nz, place, s + pair, nz * sc, dense)
                row.append(job)
                if builder is not None:
                    job.key = key = table_key(x, y, s)
                    entry = peek(key)
                    if entry is not None:
                        job.table = entry[0]
                        memo = entry[3:]
                        if memo and memo[0] == kind:
                            job.memo, job.logs = memo, memo[4]
                            job.cells = job.table[0].size
                            results[g][i] = self._from_memo(x, y, s, memo)
                            continue
                (entries if dense else loose).append(job)

        # -- build -------------------------------------------------------- #
        if entries:
            for wave in self._waves(entries):
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

    def _waves(self, entries: list[_Job]) -> list[list[_Job]]:
        """Split the dense jobs, in plan order, into waves under the wave
        caps (module constants).

        A wave is scored in one flat pass whatever its mix of table
        shapes, and per-set results do not depend on which wave a job
        lands in (cache events are replayed at commit, in plan order).  A
        single oversized job still gets a one-job wave — the caps bound
        steady-state arena footprint, they are not admission control.
        """
        max_rows = max(_MAX_WAVE_CODES // max(self.dataset.n_samples, 1), 1)
        waves: list[list[_Job]] = []
        wave: list[_Job] = []
        cells = 0
        for e in entries:
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

        Tables are laid out back to back in span order (``nz * rx * ry``,
        stable), so every run of equal-span sets is one contiguous block
        of the histogram.  Jobs whose table is already resident in the
        stats cache (but not memoised by this tester's kind, which the
        plan answers) take a slot like built ones (their table is copied
        in), so one scoring pass covers hits and builds alike.  With a
        cache, every job leaves with its score memo and every built job
        with a standalone copy of its table.
        """
        builder = self._builder
        arena = self.arena
        lay = sorted(wave, key=_CELLS)
        geo = np.array([gshape[e.g] + (e.nz,) for e in lay], dtype=np.intp)
        span = geo[:, 0] * geo[:, 1] * geo[:, 2]
        off = np.zeros(len(lay), dtype=np.intp)
        np.cumsum(span[:-1], out=off[1:])
        total = int(off[-1] + span[-1])
        for e, o in zip(lay, off.tolist(), strict=True):
            e.offset = o
        built = lay if builder is None else [e for e in lay if e.table is None]
        if built:
            counts = self._count(built, total, gshape)
        else:
            counts = arena.take("hist", (total,), np.int64)
        if len(built) < len(lay):
            for e in lay:
                if e.table is not None:
                    counts[e.offset : e.offset + e.cells] = e.table[0].reshape(-1)

        sums, dofs, logs = self._score_wave(counts, geo, off, span, arena)
        # Finalisation (scale/clamp) is elementwise, so one whole-wave call
        # equals the looped path's per-table one.
        stats = self._finalize_stats(sums)
        ps = chi2_sf_array(stats, dofs)
        # ``p > alpha`` vectorised over float64 is the same comparison the
        # looped path makes per test.
        kind = None if builder is None else self._memo_kind
        for e, stat, dof, p, ind, lg in zip(
            lay,
            stats.tolist(),
            dofs.tolist(),
            ps.tolist(),
            (ps > self.alpha).tolist(),
            logs.tolist(),
            strict=True,
        ):
            x, y, _sets = items[e.g]
            results[e.g][e.i] = CITestResult(x, y, e.s, stat, dof, p, ind)
            e.logs = lg
            if kind is not None:
                e.memo = (kind, stat, dof, p, lg)
        if builder is not None:
            for e in built:
                # Materialise a standalone copy: a view would pin the whole
                # (arena) histogram in the byte-budgeted cache while billing
                # only the slice, and the next wave overwrites it.
                rx, ry = gshape[e.g]
                table = counts[e.offset : e.offset + e.cells].reshape(e.nz, rx, ry).copy()
                e.table = (table, e.nz)

    def _score_wave(
        self,
        counts: np.ndarray,
        geo: np.ndarray,
        off: np.ndarray,
        span: np.ndarray,
        arena: KernelArena,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-set ``(term sums, dofs, log counts)`` of a wave histogram in
        one flat pass over its cells.

        Set ``r`` (row ``(rx, ry, nz)`` of ``geo``) owns the ``span[r]``
        cells from ``off[r]``, in span order.  Every cell's three marginals
        are segment sums of integer counts — exact in float64 in any
        summation order — gathered back to the cell, so the per-cell
        formula sees exactly the values the looped oracle broadcasts.  The
        terms of each run of equal-span sets are then summed as the rows
        of one contiguous ``(count, span)`` block: the value sequence the
        oracle reduces per table, so the pairwise float sums are
        bit-identical.  All cell-sized scratch is arena slots.
        """
        total = counts.shape[0]
        n = off.shape[0]
        rx, ry, nz = geo[:, 0], geo[:, 1], geo[:, 2]

        def cells(key: str, dtype) -> np.ndarray:
            return arena.take("ew_" + key, (total,), dtype)

        # The set of every cell (ones at set starts, summed), and the
        # cell's position in its own table (a running count reset to zero
        # at every set start).
        job = cells("job", np.intp)
        job.fill(0)
        job[off[1:]] = 1
        np.cumsum(job, out=job)
        loc = cells("loc", np.intp)
        loc.fill(1)
        loc[0] = 0
        loc[off[1:]] = 1 - span[:-1]
        np.cumsum(loc, out=loc)
        # Cell coordinates: y, and the position inside its z-slice.
        y = cells("y", np.intp)
        np.remainder(loc, np.take(ry, job, out=y, mode="clip"), out=y)
        zpos = cells("zpos", np.intp)
        np.remainder(loc, np.take(rx * ry, job, out=zpos, mode="clip"), out=zpos)
        # Dense 1-based marginal ids: an (x, z) row starts where y == 0, a
        # z-slice where its position is 0; a (y, z) column is slice and y.
        first = cells("first", np.bool_)
        xz = job
        np.cumsum(np.equal(y, 0, out=first), out=xz)
        zid = loc
        np.cumsum(np.equal(zpos, 0, out=first), out=zid)
        yz = zpos
        np.multiply(zid, int(ry.max()), out=yz)
        yz += y
        obs = cells("obs", np.float64)
        np.copyto(obs, counts)
        slice_tot = np.bincount(zid, weights=obs)
        n_xz = np.take(np.bincount(xz, weights=obs), xz, out=cells("nxz", np.float64), mode="clip")
        n_yz = np.take(np.bincount(yz, weights=obs), yz, out=cells("nyz", np.float64), mode="clip")
        n_z = np.take(slice_tot, zid, out=cells("nz", np.float64), mode="clip")
        terms, mask = self._elementwise(obs, n_xz, n_yz, n_z, cells)

        # Log billing: integer cell counts are order-independent, so one
        # segmented reduction bills every set exactly as the looped path's
        # per-table ``count_nonzero`` would.
        logs = np.add.reduceat(mask, off, dtype=np.int64)
        sums = np.empty(n, dtype=np.float64)
        spans = span.tolist()
        a = 0
        while a < n:
            width = spans[a]
            b = a + 1
            while b < n and spans[b] == width:
                b += 1
            o = int(off[a])
            sums[a:b] = terms[o : o + (b - a) * width].reshape(b - a, width).sum(axis=1)
            a = b
        dof_xy = ((rx - 1) * (ry - 1)).astype(np.float64)
        if self.dof_adjust == "structural":
            return sums, dof_xy * nz.astype(np.float64), logs
        zbase = np.zeros(n, dtype=np.intp)
        np.cumsum(nz[:-1], out=zbase[1:])
        nonempty = np.add.reduceat(slice_tot[1:] > 0, zbase, dtype=np.int64)
        return sums, dof_xy * np.maximum(nonempty, 1).astype(np.float64), logs

    def _count(
        self,
        rows: list[_Job],
        total: int,
        gshape: list[tuple[int, int]],
    ) -> np.ndarray:
        """Flat histogram of ``total`` cells holding the tables of ``rows``
        (jobs with laid-out offsets).

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
        shp = np.array([gshape[e.g] for e in rows], dtype=np.int64).reshape(n, 2)
        scale = np.repeat(shp[:, 0] * shp[:, 1], k)
        scale[ptr[1:] - 2] = shp[:, 1]
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
