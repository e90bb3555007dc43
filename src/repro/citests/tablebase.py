"""Shared machinery of the contingency-table CI testers.

:class:`GSquareTest <repro.citests.gsquare.GSquareTest>` and
:class:`ChiSquareTest <repro.citests.chisquare.ChiSquareTest>` differ only
in the statistic computed from the ``(nz, rx, ry)`` table; everything else
— encodings, table construction, the stats-cache front door, work-counter
accounting and the group-evaluation strategy — lives here once.

Two group-evaluation paths, bit-identical by construction and by test:

* **looped** (``batch_groups=False``): one :func:`ci_counts` and one
  statistic reduction per conditioning set — the seed behaviour, kept as
  the reference oracle for the fused kernel;
* **fused** (default): :meth:`ContingencyTableTest.test_groups` takes any
  number of endpoint groups and evaluates every dense conditioning set of
  every group through one *megagroup* pipeline per wave:

  - cell codes for all sets of all groups are built into one arena-backed
    ``(n_sets_total, m)`` matrix (vectorized per-depth mixed-radix
    encoding over the narrow column matrix, or the cached per-set codes on
    the stats-cache path);
  - each set gets a disjoint base offset in a flat histogram — exactly
    ``nz * rx * ry`` cells per set, no padding — and a single
    ``np.bincount`` (or the native one-pass loop,
    :mod:`repro.citests.native`) fills every table of every group at once
    (:func:`~repro.citests.contingency.fused_cell_counts`);
  - sets are bucketed by exact table shape ``(rx, ry, nz)`` for the
    statistic stage: per bucket, one stacked elementwise pass into arena
    scratch and one contiguous-row reduction per set (the same value
    sequence the looped path reduces, so the float sums are bit-identical);
  - one ``gammaincc`` call covers the whole wave.

  ``test_group`` is the single-group spelling of the same engine.
  Compressed-Z sets (structural ``nz`` beyond ``compress_threshold * m``)
  fall back to the looped path.  With a stats cache attached, planning
  walks groups and sets in order resolving hits and *reserving* exact-size
  slots for the misses (so LRU recency, evictions and hit/miss counters
  replay the looped event sequence bit-for-bit), then the waves build and
  fill the surviving slots in bulk.  Because pending slots are tracked by
  full table key, duplicate resolution works *across* the fused groups,
  exactly as a looped pass over the same (group, set) stream would have
  hit them.

All large scratch lives in a :class:`~repro.citests.arena.KernelArena`
(the calling thread's process-wide one by default; workers share one per
process): steady-state group evaluation performs zero large allocations.

Work-counter accounting is identical in both paths: per test, the same
``data_accesses``/``table_cells``/``log_ops`` record the looped path would
make (group-position XY reuse, stats-cache hit/miss/encoding flags).  The
:class:`~repro.datasets.encoded.EncodedDataset` memoization layer is
deliberately *not* credited — see its module docstring.
"""

from __future__ import annotations

from itertools import repeat
from collections.abc import Sequence

import numpy as np
from scipy.special import gammaincc

from ..datasets.dataset import DiscreteDataset
from ..datasets.encoded import EncodedDataset
from .arena import KernelArena, thread_arena
from .base import CITestCounters, CITestResult
from .contingency import ci_counts, fused_cell_counts, n_configurations
from .native import native_available

__all__ = ["ContingencyTableTest", "chi2_sf", "chi2_sf_array"]

_UINT8_LIMIT = np.iinfo(np.uint8).max
_UINT16_LIMIT = np.iinfo(np.uint16).max
_INT32_LIMIT = np.iinfo(np.int32).max

#: Wave caps: one fused build is bounded both in histogram cells (the
#: bincount output the statistic stage walks) and in code elements
#: (``n_rows * m``), so arbitrarily large work items stream through the
#: arena in bounded memory instead of sizing it to the whole chunk.
#: The code cap doubles as a cache-blocking parameter: the fill, the
#: endpoint adds and the histogram all re-walk the ``n_rows x m`` code
#: matrix, so waves are sized to keep it (~2 MB at uint16) inside the
#: last-level cache — measured optimum on the alarm/2000 workload, where
#: both smaller (per-wave dispatch overhead) and larger (cache spill)
#: waves are 10-50% slower.
_MAX_WAVE_CELLS = 1 << 20
_MAX_WAVE_CODES = 1 << 20


def _cell_dtype(limit: int, narrow: bool) -> np.dtype:
    """Smallest dtype that holds cell codes in ``[0, limit]`` exactly.

    ``narrow=False`` restricts the choice to the ``int32``/``int64`` pair
    the native kernel dispatches on; the pure-NumPy path narrows all the
    way down (``uint8``/``uint16`` for typical Table II waves), halving
    kernel memory traffic.  Counting is exact at every tier — the codes
    are bounded by construction, and ``np.bincount`` widens internally —
    so the histogram is bit-identical across tiers.
    """
    if narrow:
        if limit <= _UINT8_LIMIT:
            return np.dtype(np.uint8)
        if limit <= _UINT16_LIMIT:
            return np.dtype(np.uint16)
    if limit <= _INT32_LIMIT:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


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


class _FusedEntry:
    """One dense (set, group) pair awaiting a wave build."""

    __slots__ = ("g", "i", "s", "rz", "nz", "cells", "z1d", "z_flag", "xy_flag", "offset")

    def __init__(self, g, i, s, rz, nz, cells, z1d, z_flag, xy_flag):
        self.g = g
        self.i = i
        self.s = s
        self.rz = rz
        self.nz = nz
        self.cells = cells
        self.z1d = z1d
        self.z_flag = z_flag
        self.xy_flag = xy_flag
        self.offset = 0


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
    encoded:
        Optional shared :class:`~repro.datasets.encoded.EncodedDataset`
        over the *same* dataset; by default the tester keeps a private one.
    batch_groups:
        ``True`` (default) routes group evaluation through the fused
        kernel; ``False`` keeps the looped per-set reference path.
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
        encoded: EncodedDataset | None = None,
        batch_groups: bool = True,
        arena: KernelArena | None = None,
    ) -> None:
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if dof_adjust not in ("structural", "slices"):
            raise ValueError("dof_adjust must be 'structural' or 'slices'")
        if encoded is not None and encoded.dataset is not dataset:
            raise ValueError("encoded layer must wrap the tester's dataset")
        self.dataset = dataset
        self.alpha = float(alpha)
        self.dof_adjust = dof_adjust
        self.compress_threshold = int(compress_threshold)
        self.batch_groups = bool(batch_groups)
        self.counters = CITestCounters()
        self.encoded = encoded if encoded is not None else EncodedDataset(dataset)
        self._arena = arena
        # Memo of dense conditioning-code rows keyed by set tuple (the set
        # of distinct dense Z encodings a skeleton run touches is small —
        # a few hundred — while the test stream revisits them thousands of
        # times), plus a derived cache of *scaled* rows keyed
        # ``(set, rx * ry)``: storing ``z * scale`` lets a wave fill land
        # each row on its slab base with one constant add, so the kernel
        # never multiplies, and a scaled miss over a memoised set is one
        # vector multiply rather than a re-encode.  Like the EncodedDataset
        # memoization, this is pure allocation reuse: values are exactly
        # (``scale`` times) the codes a fresh encode would produce, and it
        # is deliberately not credited in the work counters.  Each tier is
        # FIFO-bounded to ~8 MiB.  The dicts live on the EncodedDataset
        # (when it memoizes) so warm rows are shared across testers over
        # the same data, exactly like ``xy_codes``; non-memoizing encoded
        # layers (baseline learners) get private throwaway dicts.
        if self.encoded.memoize:
            self._z_rows = self.encoded.z_rows
            self._z_scaled = self.encoded.z_scaled
        else:
            self._z_rows = {}
            self._z_scaled = {}
        self._z_rows_cap = max(64, (1 << 23) // (4 * max(dataset.n_samples, 1)))
        # Depth-0 stand-in for the wave fill's concatenate (uint8 widens
        # into any wave dtype without copies of its own).
        self._zero_row = np.zeros(dataset.n_samples, np.uint8)
        # Companion memo of per-set geometry ``s -> (rz, nz)`` (tiny
        # tuples; the planner touches it once per (group, set) pair).
        self._set_info: dict[tuple[int, ...], tuple[list[int], int]] = {}
        #: Per-instance native-path switch (A/B benchmarking, tests); the
        #: effective path is this AND the import-time backend detection.
        self.use_native = True
        # Plain-int arity list: the fused planner reads arities per set
        # per group, and numpy scalar unboxing would dominate it.
        self._arities = [dataset.arity(v) for v in range(dataset.n_variables)]
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
        # With a stats cache the builder resolves (and memoizes) the XY
        # encoding lazily — only on a table miss — so a warm path never
        # re-reads the endpoint columns.
        xy_codes = None if self._builder is not None else self.encoded.xy_codes(x, y)
        return self._test_single(x, y, s, xy_codes, xy_reused=False)

    def test_group(self, x: int, y: int, sets: Sequence[Sequence[int]]) -> list[CITestResult]:
        """Evaluate several conditioning sets sharing endpoints ``(x, y)``.

        The XY encoding is computed once and reused for every set in the
        group (the gs memory-reuse optimisation); under ``batch_groups``
        the whole group runs through the fused kernel (module docstring).
        """
        sets = [tuple(map(int, s)) for s in sets]
        if not self.batch_groups or len(sets) < 2:
            return self._test_group_looped(x, y, sets)
        try:
            return self._test_groups_fused([(x, y, sets)])[0]
        except BaseException:
            # Abort mid-group (interrupt, allocation failure, ...): drop
            # any reserved-but-unfilled cache slots so the shared cache is
            # not left with pending placeholders that later lookups would
            # trip over.
            if self._builder is not None:
                self._builder.discard_pending(x, y, sets)
            raise

    def test_groups(
        self, items: Sequence[tuple[int, int, Sequence[Sequence[int]]]]
    ) -> list[list[CITestResult]]:
        """Evaluate many endpoint groups through one fused kernel pass.

        ``items`` holds ``(x, y, sets)`` triples; the return value is one
        result list per item, each bit-identical to what per-item
        ``test_group`` calls (and therefore the looped oracle) would have
        produced — cross-group fusion changes kernel invocation counts,
        never values or cache/counter semantics.
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
        if not self.batch_groups:
            return [self._test_group_looped(x, y, sets) for x, y, sets in items]
        try:
            return self._test_groups_fused(items)
        except BaseException:
            if self._builder is not None:
                for x, y, sets in items:
                    self._builder.discard_pending(x, y, sets)
            raise

    # ------------------------------------------------------------------ #
    # looped path (reference oracle)
    # ------------------------------------------------------------------ #
    def _test_group_looped(
        self, x: int, y: int, sets: list[tuple[int, ...]]
    ) -> list[CITestResult]:
        xy_codes = None if self._builder is not None else self.encoded.xy_codes(x, y)
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
        known_miss: bool = False,
    ) -> CITestResult:
        ds = self.dataset
        rx, ry = ds.arity(x), ds.arity(y)
        rz = [ds.arity(v) for v in s]

        from_cache: bool | None = None
        z_reused = False
        if self._builder is not None:
            counts, nz_structural, from_cache, z_reused, xy_cached = self._builder.ci_counts(
                x, y, s, xy_codes=xy_codes, known_miss=known_miss
            )
            xy_reused = xy_reused or xy_cached
        else:
            counts, nz_structural, _dense = ci_counts(
                ds.column(x),
                ds.column(y),
                ds.columns(s),
                rx,
                ry,
                rz,
                compress_threshold=self.compress_threshold,
                xy_codes=xy_codes,
            )
        return self._finish(
            x, y, s, counts, nz_structural, rx, ry, xy_reused, from_cache, z_reused
        )

    def _finish(
        self,
        x: int,
        y: int,
        s: tuple[int, ...],
        counts: np.ndarray,
        nz_structural: int,
        rx: int,
        ry: int,
        xy_reused: bool,
        from_cache: bool | None,
        z_reused: bool,
    ) -> CITestResult:
        """Statistic, decision and work accounting for one built table."""
        stat, n_logs, n_nonempty = self._stat_from_counts(counts)
        if self.dof_adjust == "structural":
            dof = (rx - 1) * (ry - 1) * float(nz_structural)
        else:
            dof = (rx - 1) * (ry - 1) * float(max(n_nonempty, 1))
        p = chi2_sf(stat, dof)
        self.counters.record(
            depth=len(s),
            m=self.dataset.n_samples,
            cells=counts.size,
            logs=n_logs,
            xy_reused=xy_reused,
            from_cache=from_cache,
            z_reused=z_reused,
        )
        return CITestResult(
            x=x, y=y, s=s, statistic=stat, dof=dof, p_value=p, independent=p > self.alpha
        )

    # ------------------------------------------------------------------ #
    # fused path (megagroup kernel)
    # ------------------------------------------------------------------ #
    def _test_groups_fused(
        self, items: list[tuple[int, int, list[tuple[int, ...]]]]
    ) -> list[list[CITestResult]]:
        m = self.dataset.n_samples
        ar = self._arities
        dense_limit = self.compress_threshold * max(m, 1)
        builder = self._builder
        set_info = self._set_info

        results: list[list[CITestResult | None]] = [
            [None] * len(sets) for _, _, sets in items
        ]
        group_xy: list[np.ndarray | None] = [None] * len(items)
        entries: list[_FusedEntry] = []
        hits: list[tuple[int, int, tuple]] = []
        dups: list[tuple[int, int, tuple]] = []
        # Table keys reserved by THIS call; a pending payload outside this
        # set is a stale placeholder from an aborted evaluation, which the
        # planner rebuilds over (the fresh reservation self-heals the slot).
        pending: set[tuple] = set()

        # Plan strictly in (group, set) order so every cache event — hits,
        # misses, encoding fetches, slot reservations, the compressed
        # fallback's builds — happens exactly where a looped pass over the
        # same stream would have produced it; recency, evictions and
        # counters stay bit-identical even across fused groups.
        # Work-counter deltas for the fused entries are plan-derivable
        # (depth, table size, reuse flags), so they are accumulated here —
        # one pass that already iterates every (group, set) — and flushed
        # once below; the totals are exactly the sum of the per-test
        # ``record`` calls the looped path makes (same flags, same
        # arithmetic).  Only ``log_ops`` needs built tables; the wave
        # builds flush it separately.
        cells_acc = cols_acc = n_fused = 0
        per_depth: dict[int, int] = {}
        gshape: list[tuple[int, int]] = [(0, 0)] * len(items)
        if builder is None:
            # Lean plan (no cache events to order): the common batched-learn
            # configuration runs this loop once per (group, set), so the
            # builder branches are hoisted out of it entirely.
            for g, (x, y, sets) in enumerate(items):
                ry = ar[y]
                sc = ar[x] * ry
                gshape[g] = (ar[x], ry)
                group_xy[g] = self.encoded.xy_codes(x, y)
                for i, s in enumerate(sets):
                    info = set_info.get(s)
                    if info is None:
                        rz = [ar[v] for v in s]
                        nz = n_configurations(rz)
                        set_info[s] = (rz, nz)
                    else:
                        rz, nz = info
                    if nz <= dense_limit:
                        entries.append(
                            _FusedEntry(g, i, s, rz, nz, nz * sc, None, False, False)
                        )
                        n_fused += 1
                        cells_acc += nz * sc
                        d = len(s)
                        cols_acc += d + (0 if i > 0 else 2)
                        per_depth[d] = per_depth.get(d, 0) + 1
                    else:
                        results[g][i] = self._test_single(
                            x, y, s, group_xy[g], xy_reused=i > 0, known_miss=False
                        )
        else:
            for g, (x, y, sets) in enumerate(items):
                ry = ar[y]
                sc = ar[x] * ry
                gshape[g] = (ar[x], ry)
                for i, s in enumerate(sets):
                    status, payload = builder.lookup(x, y, s)
                    if status == "hit":
                        hits.append((g, i, payload))  # type: ignore[arg-type]
                        continue
                    if status == "pending" and payload in pending:
                        dups.append((g, i, payload))  # type: ignore[arg-type]
                        continue
                    info = set_info.get(s)
                    if info is None:
                        rz = [ar[v] for v in s]
                        nz = n_configurations(rz)
                        set_info[s] = (rz, nz)
                    else:
                        rz, nz = info
                    if nz <= dense_limit:
                        # Looped miss-build event order at this position:
                        # conditioning codes, endpoint codes, table store
                        # (here: slot reservation).
                        zc, zf = builder.encoded_z(s, rz) if s else (None, False)
                        xy_fetched, xyf = builder.encoded_xy(x, y, ry)
                        if group_xy[g] is None:
                            group_xy[g] = xy_fetched
                        builder.reserve(x, y, s)
                        pending.add(builder.table_key(x, y, s))
                        entries.append(
                            _FusedEntry(g, i, s, rz, nz, nz * sc, zc, zf, xyf)
                        )
                        n_fused += 1
                        cells_acc += nz * sc
                        d = len(s)
                        cols_acc += (0 if zf else d) + (0 if (i > 0 or xyf) else 2)
                        per_depth[d] = per_depth.get(d, 0) + 1
                    else:
                        # Compressed-Z set: data-dependent table height,
                        # looped path (builds and stores immediately; the
                        # planning lookup above established the miss).
                        results[g][i] = self._test_single(
                            x,
                            y,
                            s,
                            None,
                            xy_reused=i > 0,
                            known_miss=True,
                        )

        built_by_key: dict[tuple, tuple[np.ndarray, int]] = {}
        if entries:
            counters = self.counters
            counters.n_tests += n_fused
            counters.data_accesses += m * cols_acc
            counters.table_cells += cells_acc
            if builder is not None:
                counters.cache_misses += n_fused
                builder.cache.misses += len(entries)
            pdt = counters.per_depth_tests
            for d, c in per_depth.items():
                pdt[d] = pdt.get(d, 0) + c
            if builder is None:
                # Shape-major entry order (stable, groups stay whole —
                # the shape is a per-group property): each wave then
                # carries only a couple of endpoint-shape slabs, cutting
                # per-slab elementwise dispatches, while group runs stay
                # contiguous for the broadcast endpoint adds.  Per-set
                # results and counters are order-independent; only the
                # cache builder's event stream pins plan order (above).
                # Bucketing is a cheaper stable (shape, group) sort — the
                # plan emits entries in group order, so per-bucket
                # insertion order is already group-major — and the wave
                # split happens in the same walk over the sorted buckets.
                buckets: dict[tuple[int, int], list[_FusedEntry]] = {}
                for e in entries:
                    shp = gshape[e.g]
                    lst = buckets.get(shp)
                    if lst is None:
                        buckets[shp] = [e]
                    else:
                        lst.append(e)
                max_rows = max(_MAX_WAVE_CODES // max(m, 1), 1)
                wave: list[_FusedEntry] = []
                cells = 0
                waves: list[list[_FusedEntry]] = []
                for shp in sorted(buckets):
                    for e in buckets[shp]:
                        if wave and (
                            cells + e.cells > _MAX_WAVE_CELLS
                            or len(wave) >= max_rows
                        ):
                            waves.append(wave)
                            wave, cells = [], 0
                        wave.append(e)
                        cells += e.cells
                if wave:
                    waves.append(wave)
            else:
                waves = self._split_waves(entries)
            for wave in waves:
                self._build_wave(wave, items, gshape, group_xy, results, built_by_key)

        if builder is not None:
            # Every table this call produced lands in its reserved slot
            # (when still resident) under one lock acquisition.
            if built_by_key:
                builder.cache.fill_many(built_by_key.items())

            # Duplicates of in-flight builds: hit accounting happened at
            # planning (the reserved slot took the direct hit); serve.
            for g, i, src_key in dups:
                x, y, sets = items[g]
                counts, nz_structural = built_by_key[src_key]
                results[g][i] = self._finish(
                    x, y, sets[i], counts, nz_structural, ar[x], ar[y],
                    xy_reused=True, from_cache=True, z_reused=True,
                )

        for g, i, payload in hits:
            x, y, sets = items[g]
            counts, nz_structural = payload  # type: ignore[misc]
            results[g][i] = self._finish(
                x, y, sets[i], counts, nz_structural, ar[x], ar[y],
                xy_reused=True, from_cache=True, z_reused=True,
            )

        return results  # type: ignore[return-value]

    def _split_waves(self, entries: list[_FusedEntry]) -> list[list[_FusedEntry]]:
        """Greedy plan-order split under the wave caps (module constant).

        A single oversized entry still gets a (one-entry) wave — the caps
        bound steady-state arena footprint, they are not admission control.
        """
        m = max(self.dataset.n_samples, 1)
        max_rows = max(_MAX_WAVE_CODES // m, 1)
        waves: list[list[_FusedEntry]] = []
        wave: list[_FusedEntry] = []
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
        wave: list[_FusedEntry],
        items: list[tuple[int, int, list[tuple[int, ...]]]],
        gshape: list[tuple[int, int]],
        group_xy: list[np.ndarray | None],
        results: list[list[CITestResult | None]],
        built_by_key: dict[tuple, tuple[np.ndarray, int]],
    ) -> None:
        """Fused build + statistics for one wave of dense entries.

        Rows keep the planner's (group, set) order — group runs stay
        contiguous, so the endpoint codes enter the cell matrix as one
        broadcast add per run instead of an ``n x m`` gather.  The
        histogram layout is row-order independent (each row carries its
        own offset).
        """
        m = self.dataset.n_samples
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
        native_ok = self.use_native and native_available()
        cell_dt = _cell_dtype(total, narrow=not native_ok)

        # -- conditioning codes (scaled, offset) into the cell matrix ----- #
        # Row w is filled with ``z_codes * scale + offset`` directly: the
        # z-row memo stores *scaled* rows keyed ``(set, scale)``, so a wave
        # fill is one ``concatenate`` of memo rows (a C memcpy/cast loop —
        # no per-row ufunc dispatch) plus one broadcast add that lands
        # every row on its slab base.  Integer arithmetic bounded by
        # ``total``, so exact in ``cell_dt`` (and the concatenate casts —
        # narrow memo row into the wave dtype — are value-preserving
        # widenings).
        z2d = arena.take("cells", (n, m), cell_dt)
        od_all = np.fromiter((e.offset for e in wave), cell_dt, n)
        if builder is not None:
            # Cache path: the raw codes were fetched through the builder in
            # plan order; one concatenate (value-preserving casts: codes
            # are below ``nz``) then one broadcast scale and offset each.
            zero_row = self._zero_row
            np.concatenate(
                [e.z1d if e.s else zero_row for e in wave],
                out=z2d.reshape(-1),
                casting="unsafe",
            )
            z2d *= np.fromiter(scales_l, cell_dt, n)[:, None]
            z2d += od_all[:, None]
        else:
            zmemo = self._z_rows
            zscaled = self._z_scaled
            cap = self._z_rows_cap
            zero_row = self._zero_row
            rows: list[np.ndarray] = []
            miss: list[int] = []
            first_at: dict[tuple[int, ...], int] = {}
            for w, e in enumerate(wave):
                if not e.s:
                    rows.append(zero_row)  # depth-0: cell code is xy + offset
                    continue
                sc = scales_l[w]
                key = (e.s, sc)
                row = zscaled.get(key)
                if row is None:
                    base = zmemo.get(e.s)
                    if base is None:
                        first_at.setdefault(e.s, w)
                        miss.append(w)
                        rows.append(zero_row)  # placeholder, rewritten below
                        continue
                    lim = e.nz * sc
                    if lim <= _INT32_LIMIT:
                        row = base * np.int32(sc)
                        if lim <= _UINT16_LIMIT:
                            # Narrow storage halves the memo-read traffic
                            # of every later fill; the values are unchanged.
                            row = row.astype(
                                np.uint8 if lim <= _UINT8_LIMIT else np.uint16
                            )
                        if len(zscaled) >= cap:
                            zscaled.pop(next(iter(zscaled)))
                        zscaled[key] = row
                    else:  # pragma: no cover - needs a >2^31-cell single table
                        row = base.astype(np.int64) * sc
                rows.append(row)
            np.concatenate(rows, out=z2d.reshape(-1))
            z2d += od_all[:, None]
            if miss:
                self._encode_missing(wave, miss, first_at, z2d, od_all, scales_l)

        # -- endpoint codes + per-row geometry ---------------------------- #
        runs: list[tuple[int, int, int]] = []
        b = 0
        while b < n:
            g = wave[b].g
            c = b + 1
            while c < n and wave[c].g == g:
                c += 1
            runs.append((b, c, g))
            b = c
        native_ok = self.use_native and native_available()
        if native_ok:
            # The native kernel wants the gather form: a stacked endpoint
            # matrix plus a per-row group index.
            gpos: dict[int, int] = {}
            for _, _, g in runs:
                if g not in gpos:
                    gpos[g] = len(gpos)
            xy_mat = arena.take("xymat", (len(gpos), m), cell_dt)
            for g, k in gpos.items():
                np.copyto(xy_mat[k], group_xy[g], casting="unsafe")
            row_group = np.fromiter((gpos[e.g] for e in wave), np.int64, n)
        else:
            xy_mat = row_group = None

        counts = fused_cell_counts(
            z2d,
            xy_mat,
            row_group,
            None,
            None,
            total,
            use_native=native_ok,
            # Raw (int64) endpoint rows: the widening add into ``add_out``
            # replaces both a per-run narrowing cast and bincount's hidden
            # intp conversion copy.
            xy_runs=[(b, c, group_xy[g]) for b, c, g in runs],
            add_out=None if native_ok else arena.take("codes", (n, m), np.intp),
        )

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

        # -- results + cache copies --------------------------------------- #
        # Every other counter delta was accumulated at plan time (they are
        # plan-derivable); only the log billing needs the built tables.
        stats_l, dofs_l, ps_l = all_stats.tolist(), all_dofs.tolist(), ps.tolist()
        # ``p > alpha`` vectorised over float64 is the same comparison the
        # looped path makes per test.
        ind_l = (ps > self.alpha).tolist()
        cached = builder is not None
        for b, c, g in runs:
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
            if not cached:
                for e, r in zip(sub, recs, strict=True):
                    res_g[e.i] = r
                continue
            for w, r in zip(range(b, c), recs, strict=True):
                e = wave[w]
                res_g[e.i] = r
                # Materialise a standalone copy: a contiguous *view* would
                # pin the whole wave histogram in the byte-budgeted cache
                # while billing only the slice.
                rx, ry = exy[w]
                span = e.nz * rx * ry
                table = (
                    counts[e.offset : e.offset + span].reshape(e.nz, rx, ry).copy()
                )
                built_by_key[builder.table_key(x, y, e.s)] = (table, e.nz)
        self.counters.log_ops += int(all_logs.sum())

    def _encode_missing(
        self,
        wave: list[_FusedEntry],
        miss: list[int],
        first_at: dict[tuple[int, ...], int],
        z2d: np.ndarray,
        od_all: np.ndarray,
        scales_l: list[int],
    ) -> None:
        """Encode the wave's memo-missing conditioning sets, then fill rows.

        Each *distinct* missing set is mixed-radix encoded once (vectorized
        per depth block over the narrow column matrix), scaled per distinct
        ``(set, scale)`` pair, memoised as an ``int32`` row, and every
        missing row — first occurrence or in-wave duplicate — is then
        served from the scaled row with its offset added, exactly like a
        memo hit.
        """
        cols = self.encoded.cols_matrix()
        m = cols.shape[1]
        arena = self.arena
        distinct = sorted(first_at.values(), key=lambda w: len(wave[w].s))
        k = len(distinct)
        zenc = arena.take("zenc", (k, m), np.int32)
        b = 0
        while b < k:
            d = len(wave[distinct[b]].s)
            c = b
            while c < k and len(wave[distinct[c]].s) == d:
                c += 1
            rows = [wave[w] for w in distinct[b:c]]
            block = zenc[b:c]
            gather = arena.take("gather", (c - b, m), cols.dtype)
            np.take(
                cols,
                np.fromiter((e.s[0] for e in rows), np.intp, c - b),
                axis=0,
                out=gather,
            )
            np.copyto(block, gather, casting="unsafe")
            for j in range(1, d):
                radix = np.fromiter((e.rz[j] for e in rows), np.int32, c - b)
                block *= radix[:, None]
                np.take(
                    cols,
                    np.fromiter((e.s[j] for e in rows), np.intp, c - b),
                    axis=0,
                    out=gather,
                )
                np.add(block, gather, out=block, casting="unsafe")
            b = c
        spos = {wave[w].s: pos for pos, w in enumerate(distinct)}
        made: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
        for w in miss:
            e = wave[w]
            sc = scales_l[w]
            key = (e.s, sc)
            row = made.get(key)
            if row is None:
                lim = e.nz * sc
                if lim <= _INT32_LIMIT:
                    # The scaled copy doubles as the scaled-cache row below.
                    row = zenc[spos[e.s]] * np.int32(sc)
                    if lim <= _UINT16_LIMIT:
                        row = row.astype(
                            np.uint8 if lim <= _UINT8_LIMIT else np.uint16
                        )
                    made[key] = row
                else:  # pragma: no cover - needs a >2^31-cell single table
                    row = zenc[spos[e.s]].astype(np.int64) * sc
            np.add(row, od_all[w : w + 1], out=z2d[w], casting="unsafe")
        zmemo = self._z_rows
        zscaled = self._z_scaled
        cap = self._z_rows_cap
        for s, pos in spos.items():
            if len(zmemo) >= cap:
                zmemo.pop(next(iter(zmemo)))
            zmemo[s] = zenc[pos].copy()
        for key, row in made.items():
            if len(zscaled) >= cap:
                zscaled.pop(next(iter(zscaled)))
            zscaled[key] = row
