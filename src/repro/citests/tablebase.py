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
    shapes: one integer pass
    (:func:`~repro.citests.contingency.wave_marginals` — the native
    marginals loop, or NumPy segment sums as the fallback) gives every
    cell its count and its marginals ``N_x+z``, ``N_+yz``, ``N_++z``
    (exact in float64 in any order), and only the float work stays in
    NumPy: the statistic's per-cell formula — the one the looped path
    applies with broadcast marginals — runs once over all cells into
    arena scratch.  Tables sit back to back in span order, so each run of
    equal-span sets is one contiguous ``(count, span)`` block whose row
    sums are the value sequences the looped path reduces: the float sums
    are bit-identical;
  - one ``gammaincc`` call covers the whole wave.

  ``test_group`` is the single-group spelling of the same engine.
  Compressed-Z sets (structural ``nz`` beyond ``compress_threshold * m``)
  are built one at a time through the pure :func:`ci_counts`; they are the
  only sets whose endpoint codes are ever built.

  A fused call holds no per-set objects: the plan is parallel per-set
  columns in plan order (:class:`_Plan`), waves are index arrays, and
  results, memos and stored tables are built with C-level ``map``/``zip``.
  It runs in three stages:

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

import operator
from collections.abc import Callable, Sequence
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter

import numpy as np
from scipy.special import gammaincc

from ..datasets.dataset import DiscreteDataset, smallest_uint_dtype
from .arena import KernelArena, thread_arena
from .base import CITestCounters, CITestResult
from .contingency import (
    ci_counts,
    column_counts,
    n_configurations,
    table_key_vars,
    table_keys,
    wave_marginals,
)
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


class _Geometry(dict):
    """Per-tester memo ``s -> (rz, nz, place, dense_nz)`` of conditioning-set
    geometry, filled on first lookup: the set's arities, structural
    configuration count, the place value of every kernel-row column in
    units of the group's ``(rx * ry, ry, 1)`` (``prod(rz[l] for l > j)``
    per conditioning variable, then ``1, 1`` for the endpoints), and
    ``nz`` again when the set is dense (``nz <= dense_limit``), else ``0``
    — an int64-safe field the planner gathers for every set."""

    def __init__(self, arities: list[int], dense_limit: int) -> None:
        super().__init__()
        self.arities = arities
        self.dense_limit = dense_limit

    def __missing__(self, s: tuple[int, ...]) -> tuple[list[int], int, tuple, int]:
        rz = [self.arities[v] for v in s]
        place = [1] * (len(s) + 2)
        for j in range(len(s) - 2, -1, -1):
            place[j] = place[j + 1] * rz[j + 1]
        nz = n_configurations(rz)
        info = self[s] = (rz, nz, tuple(place), nz if nz <= self.dense_limit else 0)
        return info


_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_PLACE = itemgetter(2)
_DENSE_NZ = itemgetter(3)
_INDEPENDENT = itemgetter(6)
#: ``CITestResult(*fields)`` without the Python-level ``__new__``.
_RESULT = partial(tuple.__new__, CITestResult)


class _Plan:
    """One fused call's conditioning sets as parallel per-set columns, in
    plan order (item-major, then set order within the item).

    ``sets``/``pairs`` name each test and ``keys`` holds its table key
    (:func:`~repro.citests.contingency.table_key`: the stats-cache key,
    whose variables after the head are the kernel row ``s + (x, y)``);
    ``info`` is its :class:`_Geometry`
    row, ``grp`` its item, ``nz`` its dense configuration count (``0`` for
    a compressed set), ``cells`` the table cells it bills; ``tables`` is
    its table ``(counts, nz_structural)`` (resident as planned, or built),
    and ``resident``
    marks the tables the plan found in the cache; ``results`` and the
    score columns ``stat``, ``dof``, ``pval`` and ``logs`` (the fields of
    its score memo) are filled as sets are scored or answered.  ``rx`` and
    ``ry`` are per item.
    """

    __slots__ = (
        "sets", "pairs", "info", "grp", "nz", "cells", "rx", "ry", "keys", "tables",
        "resident", "stat", "dof", "pval", "logs", "results",
    )


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
        # ``cols.max(axis=1)`` of the column matrix, for the native plan
        # check (resolved with ``_columns``).
        self._col_max: np.ndarray | None = None
        #: Per-instance native-path switch (A/B benchmarking, tests); the
        #: effective path is this AND the import-time backend detection.
        self.use_native = True
        # Plain-int arity list: the fused planner reads arities per set
        # per group, and numpy scalar unboxing would dominate it.
        self._arities = [dataset.arity(v) for v in range(dataset.n_variables)]
        # Memo of per-set geometry (``_Geometry``: tiny tuples the planner
        # gathers once per (group, set) pair, so a kernel row needs no
        # per-row arithmetic).
        self._set_info = _Geometry(
            self._arities, self.compress_threshold * max(dataset.n_samples, 1)
        )
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
            self._col_max = self._cols.max(axis=1, initial=0).astype(np.int64)
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
        builder = self._builder

        # -- plan: no side effects on the cache or the counters ---------- #
        # Every (item, set) pair becomes one row of parallel per-set
        # columns.  With a cache, resident entries are read without recency
        # or counter effects; commit replays the cache events of the tests
        # that count.  A resident entry memoised by this tester's kind
        # answers its test here: the set is never built or scored.  A table
        # key repeated within the call is planned (and built) once per
        # occurrence, as without a cache: the commit turns every repeat
        # into a hit.
        lens = [len(sets) for _, _, sets in items]
        plan = _Plan()
        plan.sets = sets = list(chain.from_iterable(sets for _, _, sets in items))
        n = len(sets)
        plan.pairs = pairs = list(
            chain.from_iterable(map(repeat, [(x, y) for x, y, _ in items], lens))
        )
        plan.keys = table_keys(sets, pairs)
        plan.info = info = list(map(self._set_info.__getitem__, sets))
        plan.grp = grp = np.repeat(np.arange(len(items)), lens)
        plan.rx = np.array([ar[x] for x, _, _ in items], dtype=np.int64)
        plan.ry = np.array([ar[y] for _, y, _ in items], dtype=np.int64)
        plan.nz = nz = np.fromiter(map(_DENSE_NZ, info), np.int64, n)
        plan.cells = cells = nz * (plan.rx * plan.ry)[grp]
        plan.stat, plan.dof, plan.pval = [None] * n, [None] * n, [None] * n
        plan.logs = np.zeros(n, dtype=np.int64)
        plan.results = results = [None] * n
        plan.tables = tables = [None] * n
        todo = np.ones(n, dtype=np.bool_)
        plan.resident = np.zeros(n, dtype=np.bool_)
        if builder is not None:
            kind = self._memo_kind
            found = builder.cache.peek_many(plan.keys)
            at = list(compress(range(n), found))
            plan.resident[at] = True
            answered = []
            for p in at:
                entry = found[p]
                tables[p] = entry[0]
                if entry[3:4] == (kind,):
                    answered.append(p)
            if answered:
                # Answered from the memo: its fields, decided at this alpha.
                todo[answered] = False
                _kind, stat, dof, pval, logs = zip(
                    *(found[p][3:] for p in answered), strict=True
                )
                for col, values in zip((plan.stat, plan.dof, plan.pval), (stat, dof, pval)):
                    list(map(col.__setitem__, answered, values))
                plan.logs[answered] = logs
                cells[answered] = [tables[p][0].size for p in answered]
                pxy = [pairs[p] for p in answered]
                done = map(
                    _RESULT,
                    zip(
                        map(_FIRST, pxy),
                        map(_SECOND, pxy),
                        map(sets.__getitem__, answered),
                        stat,
                        dof,
                        pval,
                        map(operator.gt, pval, repeat(self.alpha)),
                        strict=True,
                    ),
                )
                list(map(results.__setitem__, answered, done))

        # -- build -------------------------------------------------------- #
        for wave in self._waves(np.flatnonzero(todo & (nz > 0)), cells):
            self._build_wave(plan, wave)
        for p in np.flatnonzero(todo & (nz == 0)).tolist():
            x, y = pairs[p]
            s = sets[p]
            rx, ry = ar[x], ar[y]
            if tables[p] is None:
                counts, nz_structural, _dense = ci_counts(
                    ds.column(x),
                    ds.column(y),
                    ds.columns(s),
                    rx,
                    ry,
                    info[p][0],
                    compress_threshold=self.compress_threshold,
                )
                tables[p] = (counts, nz_structural)
            counts, nz_structural = tables[p]
            res, lg = self._score(x, y, s, counts, nz_structural, rx, ry)
            results[p] = res
            plan.stat[p], plan.dof[p], plan.pval[p] = res[3:6]
            plan.logs[p] = lg
            cells[p] = counts.size

        # -- decide the kept prefix of every item ------------------------- #
        if decide is not None:
            plan.results = results = list(map(decide, results))
        starts = list(accumulate(lens, initial=0))
        keep = list(lens)
        if prefix is not None and max(lens) > prefix:
            # Per item longer than one group: every group up to and
            # including the first one holding an accepting set.
            ind = list(map(_INDEPENDENT, results))
            for g, (b, k) in enumerate(zip(starts[:-1], lens, strict=True)):
                if k > prefix and True in ind[b : b + k]:
                    first = ind.index(True, b, b + k) - b
                    keep[g] = min(k, (first // prefix + 1) * prefix)
        out = [results[b : b + k] for b, k in zip(starts[:-1], keep, strict=True)]

        # -- commit: accounting (and cache events) of the kept tests ------ #
        # Commit order is the rounds a one-group-per-item engine would run:
        # group j of every item that keeps it, then group j + 1 — a stable
        # sort of the kept tests by round (plan order itself when every
        # test is kept in one round).  A test at position i reads the
        # endpoint columns only as the first set of its gs-group (the
        # group-evaluation XY reuse).
        step = prefix or max(keep) or 1
        pos = np.arange(n) - np.array(starts)[grp]  # place in its item
        if keep == lens and max(lens) <= step:
            order = np.arange(n)
            ends = [n]
        else:
            kept = np.flatnonzero(pos < np.array(keep)[grp])
            rnd = pos[kept] // step
            order = kept[np.argsort(rnd, kind="stable")]
            ends = np.cumsum(np.bincount(rnd)).tolist()
        if builder is not None:
            cols = (plan.keys, tables, plan.stat, plan.dof, plan.pval)
            if len(ends) > 1 or len(order) < n:  # not plan order
                cols = [list(map(col.__getitem__, order.tolist())) for col in cols]
            keys, tables, stat, dof, pval = cols
            hits = np.array(
                builder.commit(
                    keys,
                    tables,
                    (self._memo_kind, stat, dof, pval, plan.logs[order].tolist()),
                    (cells[order] * 8).tolist(),
                    (nz[order] > 0).tolist(),
                    ends,
                ),
                dtype=np.bool_,
            )
        else:
            hits = np.zeros(len(order), dtype=np.bool_)
        d = np.fromiter(map(len, sets), np.int64, n)[order]
        miss = ~hits
        reads = d[miss] + 2 * (pos[order][miss] % step == 0)
        n_kept = len(order)
        n_hits = n_kept - int(np.count_nonzero(miss))
        counters = self.counters
        if builder is not None:
            counters.cache_hits += n_hits
            counters.cache_misses += n_kept - n_hits
        counters.n_tests += n_kept
        counters.data_accesses += m * int(reads.sum())
        counters.table_cells += int(cells[order].sum())
        counters.log_ops += int(plan.logs[order].sum())
        # New depths enter ``per_depth_tests`` in commit order, as the
        # looped path would record them.
        pdt = counters.per_depth_tests
        per_depth = np.bincount(d).tolist()
        for dd in dict.fromkeys(d.tolist()):
            pdt[dd] = pdt.get(dd, 0) + per_depth[dd]
        return out  # type: ignore[return-value]

    def _waves(self, dense: np.ndarray, cells: np.ndarray) -> list[np.ndarray]:
        """Split the dense sets ``dense`` (plan positions, in plan order)
        into waves under the wave caps (module constants).

        A wave is scored in one flat pass whatever its mix of table
        shapes, and per-set results do not depend on which wave a set
        lands in (cache events are replayed at commit, in plan order).  A
        single oversized set still gets a one-set wave — the caps bound
        steady-state arena footprint, they are not admission control.
        """
        if not len(dense):
            return []
        max_rows = max(_MAX_WAVE_CODES // max(self.dataset.n_samples, 1), 1)
        sizes = cells[dense]
        if len(dense) <= max_rows and int(sizes.sum()) <= _MAX_WAVE_CELLS:
            return [dense]
        waves: list[np.ndarray] = []
        start = total = 0
        for i, c in enumerate(sizes.tolist()):
            if i > start and (total + c > _MAX_WAVE_CELLS or i - start >= max_rows):
                waves.append(dense[start:i])
                start, total = i, 0
            total += c
        waves.append(dense[start:])
        return waves

    def _build_wave(self, plan: _Plan, wave: np.ndarray) -> None:
        """Fused build + statistics for one wave of dense sets (plan
        positions).

        Tables are laid out back to back in span order (``nz * rx * ry``,
        then ``rx``, then ``ry``; stable), so every run of equal-span sets
        is one contiguous block of the histogram, and every run of
        equal-shape sets one ``(count, nz, rx, ry)`` block.  Sets whose
        table is already resident in the stats cache (but not memoised by
        this tester's kind, which the plan answers) take a slot like built
        ones (their table is copied in), so one scoring pass covers hits
        and builds alike.  With a cache, every set leaves with its score
        memo and every built set with a standalone copy of its table.
        """
        builder = self._builder
        arena = self.arena
        tables = plan.tables
        g = plan.grp[wave]
        rx, ry, span = plan.rx[g], plan.ry[g], plan.cells[wave]
        order = np.lexsort((ry, rx, span))
        lay = wave[order]
        geo = np.empty((len(lay), 3), dtype=np.int64)
        geo[:, 0] = rx[order]
        geo[:, 1] = ry[order]
        geo[:, 2] = plan.nz[lay]
        span = span[order]
        off = np.zeros(len(lay), dtype=np.int64)
        np.cumsum(span[:-1], out=off[1:])
        total = int(off[-1] + span[-1])
        at = lay.tolist()
        resident = plan.resident[lay]
        built = np.flatnonzero(~resident)
        if len(built):
            counts = self._count(plan, lay[built], off[built], total)
        else:
            counts = arena.take("hist", (total,), np.int64)
        for r in np.flatnonzero(resident).tolist():
            o = int(off[r])
            counts[o : o + int(span[r])] = tables[at[r]][0].reshape(-1)

        sums, dofs, logs = self._score_wave(counts, geo, off, span, arena)
        # Finalisation (scale/clamp) is elementwise, so one whole-wave call
        # equals the looped path's per-table one.
        stats = self._finalize_stats(sums)
        ps = chi2_sf_array(stats, dofs)
        # ``p > alpha`` vectorised over float64 is the same comparison the
        # looped path makes per test.
        stats, dofs, pvals = stats.tolist(), dofs.tolist(), ps.tolist()
        for col, values in zip((plan.stat, plan.dof, plan.pval), (stats, dofs, pvals)):
            list(map(col.__setitem__, at, values))
        pxy = list(map(plan.pairs.__getitem__, at))
        done = map(
            _RESULT,
            zip(
                map(_FIRST, pxy),
                map(_SECOND, pxy),
                map(plan.sets.__getitem__, at),
                stats,
                dofs,
                pvals,
                (ps > self.alpha).tolist(),
                strict=True,
            ),
        )
        results = plan.results
        list(map(results.__setitem__, at, done))
        plan.logs[lay] = logs
        if builder is None or not len(built):
            return
        # Standalone copies of the built tables: a view would pin the whole
        # (arena) histogram in the byte-budgeted cache while billing only
        # the slice, and the next wave overwrites it.
        for p, o, (rx, ry, z) in zip(
            lay[built].tolist(), off[built].tolist(), geo[built].tolist(), strict=True
        ):
            tables[p] = (counts[o : o + rx * ry * z].reshape(z, rx, ry).copy(), z)

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
        cells from ``off[r]``, in span order.  Every cell's count and
        three marginals come from one integer pass
        (:func:`~repro.citests.contingency.wave_marginals`: native, or
        NumPy segment sums), exact in float64, so the per-cell formula
        sees exactly the values the looped oracle broadcasts.  The terms
        of each run of equal-span sets are then summed as the rows of one
        contiguous ``(count, span)`` block: the value sequence the oracle
        reduces per table, so the pairwise float sums are bit-identical.
        All cell-sized scratch is arena slots.
        """
        total = counts.shape[0]
        n = off.shape[0]

        def cells(key: str, dtype) -> np.ndarray:
            return arena.take("ew_" + key, (total,), dtype)

        obs, n_xz, n_yz, n_z, nonempty = wave_marginals(
            counts, geo, off, cells, use_native=self.use_native
        )
        terms, mask = self._elementwise(obs, n_xz, n_yz, n_z, cells)

        # Log billing: integer cell counts are order-independent, so one
        # segmented reduction bills every set exactly as the looped path's
        # per-table ``count_nonzero`` would.
        logs = np.add.reduceat(mask, off, dtype=np.int64)
        sums = np.empty(n, dtype=np.float64)
        cuts = (np.flatnonzero(span[1:] != span[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, n], strict=True):
            width = int(span[a])
            o = int(off[a])
            sums[a:b] = terms[o : o + (b - a) * width].reshape(b - a, width).sum(axis=1)
        dof_xy = ((geo[:, 0] - 1) * (geo[:, 1] - 1)).astype(np.float64)
        if self.dof_adjust == "structural":
            return sums, dof_xy * geo[:, 2].astype(np.float64), logs
        return sums, dof_xy * np.maximum(nonempty, 1).astype(np.float64), logs

    def _count(
        self,
        plan: _Plan,
        rows: np.ndarray,
        offsets: np.ndarray,
        total: int,
    ) -> np.ndarray:
        """Flat histogram of ``total`` cells holding the tables of the
        plan positions ``rows`` at bases ``offsets``.

        The plan arrays are assembled without per-row arithmetic: every
        row's columns are its table key's variables ``s + (x, y)``, its place values
        come from the set memo and are scaled by one vectorised multiply —
        ``rx * ry`` for the conditioning columns, ``ry`` for ``x`` and
        ``1`` for ``y``.
        """
        n = len(rows)
        at = rows.tolist()
        k = np.fromiter(map(len, map(plan.sets.__getitem__, at)), np.int64, n) + 2
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(k, out=ptr[1:])
        size = int(ptr[-1])
        vars_ = np.fromiter(
            chain.from_iterable(map(table_key_vars, map(plan.keys.__getitem__, at))),
            np.int64,
            size,
        )
        strides = np.fromiter(
            chain.from_iterable(map(_PLACE, map(plan.info.__getitem__, at))), np.int64, size
        )
        g = plan.grp[rows]
        ry = plan.ry[g]
        scale = np.repeat(plan.rx[g] * ry, k)
        scale[ptr[1:] - 2] = ry
        scale[ptr[1:] - 1] = 1
        strides *= scale
        native_ok = self.use_native and native_available()
        cols = self._columns()
        # Native: whole cell indices; NumPy: row-local codes (see
        # ``_cell_dtype``).
        limit = total if native_ok else int(plan.cells[rows].max())
        return column_counts(
            cols,
            ptr,
            vars_,
            strides,
            offsets,
            total,
            _cell_dtype(limit, narrow=not native_ok),
            arena=self.arena,
            use_native=native_ok,
            col_max=self._col_max,
        )
