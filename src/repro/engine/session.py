"""Persistent learning sessions.

A :class:`LearningSession` turns structure learning from a one-shot script
into a long-lived service object.  It owns, for exactly one dataset:

* the encoded :class:`~repro.datasets.dataset.DiscreteDataset` (coerced to
  the Fast-BNS variable-major layout once, up front);
* one :class:`~repro.engine.statscache.SufficientStatsCache` shared by
  every tester the session hands out — a ``relearn(alpha=...)`` or a
  Markov-blanket query after a ``learn()`` answers most of its CI tests
  from cached tables instead of re-scanning ``m`` samples per test;
* a long-lived :class:`~repro.parallel.backends.WorkerPool` (when
  ``n_jobs > 1``) whose per-process caches likewise persist across calls —
  the seed code paid a fresh pool spawn per ``learn_structure`` call.
  Workers receive the session's encoding layer through the zero-copy
  shared-memory plane (:mod:`repro.datasets.shm`) when the platform
  provides it, so session memory stays ``O(dataset)`` rather than
  ``O(n_jobs x dataset)``; the exported blocks live exactly as long as
  the pool — ``close()`` (and therefore ``with``-statement exit) unlinks
  them, with a finalizer backstop for crashed runs.

Successive calls are exact: cached tables are byte-identical to freshly
built ones (shared construction code), p-values are alpha-free so relearns
re-threshold rather than re-test, and the CI-level scheduler's output is
scheduling-order invariant.  ``learn()`` here equals
:func:`repro.core.learn.learn_structure` with ``method="fast-bns"`` on the
same inputs, bit for bit.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from ..citests.base import CITestCounters, ConditionalIndependenceTest
from ..core.learn import make_tester
from ..core.markov_blanket import MarkovBlanketResult, grow_shrink, iamb
from ..core.orientation import orient_skeleton
from ..core.result import LearnResult
from ..core.skeleton import learn_skeleton
from ..datasets.dataset import DiscreteDataset
from ..datasets.encoded import EncodedDataset
from .fingerprint import (
    dataset_fingerprint,
    engine_config_fingerprint,
    request_fingerprint,
)
from .statscache import DEFAULT_BUDGET_BYTES, CacheStats, SufficientStatsCache

__all__ = ["LearningSession"]


class LearningSession:
    """One dataset, one stats cache, one worker pool — many queries.

    Parameters
    ----------
    data:
        A :class:`DiscreteDataset` or a ``(n_samples, n_variables)`` array
        of category codes (``arities`` then optional, as in
        :func:`~repro.core.learn.learn_structure`).
    test, alpha, dof_adjust:
        Session defaults; every query may override ``alpha`` (and
        sequential queries may override ``test``) per call.
    n_jobs, backend:
        ``n_jobs > 1`` keeps a long-lived CI-level worker pool for the
        skeleton phase of ``learn()`` calls.  The pool is spawned lazily on
        the first parallel query and reused until :meth:`close`.
    cache_bytes:
        LRU byte budget of the session's stats cache; with ``n_jobs > 1``
        each worker process additionally keeps its own cache with the same
        budget (worker memory is per-process by design — no shared-table
        synchronisation, mirroring the paper's no-atomics property).
    use_shm:
        Dataset transport for process workers: ``None`` (default) attaches
        them to the session's encoding layer through the zero-copy
        shared-memory plane when available, falling back to pickling;
        ``True`` requires the plane, ``False`` forces the pickled path.
        Bit-identical results either way.
    store:
        Optional durable store (:class:`~repro.engine.store.EngineStore`
        or a database path, which the session then owns and closes).
        When present, ``learn()`` consults the store's skeleton-blob
        tier before running ``learn_skeleton`` — a restarted process
        resumes its learned structures without relearning — and the
        stats cache gains the store's spill tier: entries evicted from
        the in-memory byte budget land in SQLite and promote back on
        lookup.  Every store key carries the dataset and engine-config
        fingerprints, so reuse is exact: a mismatch is a miss, never a
        wrong answer.
    """

    def __init__(
        self,
        data: DiscreteDataset | np.ndarray,
        arities: Sequence[int] | None = None,
        *,
        test: str = "g2",
        alpha: float = 0.05,
        dof_adjust: str = "structural",
        n_jobs: int = 1,
        backend: str = "process",
        cache_bytes: int = DEFAULT_BUDGET_BYTES,
        use_shm: bool | None = None,
        store=None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(data, DiscreteDataset):
            self.dataset = data.with_layout("variable-major")
        else:
            self.dataset = DiscreteDataset.from_rows(
                np.asarray(data), arities=arities, layout="variable-major"
            )
        self.test = test
        self.alpha = float(alpha)
        self.dof_adjust = dof_adjust
        self.n_jobs = int(n_jobs)
        self.backend = backend
        self.use_shm = use_shm
        self.cache_bytes = int(cache_bytes)
        # A path means the session owns (and closes) the store; a handed
        # EngineStore belongs to the caller (the server shares one store
        # across every session it spins up).
        from .store import EngineStore

        self._owns_store = store is not None and not isinstance(store, EngineStore)
        self.store = EngineStore.ensure(store)
        self.n_skeleton_learns = 0
        self.n_skeleton_loads = 0
        #: Failed best-effort pool teardowns after a worker crash.
        self.n_pool_shutdown_errors = 0
        self._fingerprint: str | None = None
        spill = None
        if self.store is not None:
            # Fingerprint eagerly: every store key needs it, and the
            # spill tier is namespaced by it.
            spill = self.store.spill_tier(self.fingerprint)
        self.cache = SufficientStatsCache(max_bytes=cache_bytes, spill=spill)
        # One encoding layer shared by every tester the session hands out
        # (and shipped to workers at pool start): columns are widened and
        # endpoint pairs encoded once per dataset, not once per tester.
        self.encoded = EncodedDataset(self.dataset)
        self._testers: dict[tuple[str, float, str], ConditionalIndependenceTest] = {}
        self._pool = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # identity & introspection
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the session's dataset (lazy, cached)."""
        if self._fingerprint is None:
            self._fingerprint = dataset_fingerprint(self.dataset)
        return self._fingerprint

    @property
    def names(self) -> tuple[str, ...]:
        return self.dataset.names

    @property
    def n_variables(self) -> int:
        return self.dataset.n_variables

    def cache_stats(self) -> CacheStats:
        """Exact counters of the session-local (master) stats cache."""
        return self.cache.stats()

    def worker_cache_stats(self) -> list[dict]:
        """Per-worker cache snapshots, when a process pool is live."""
        if self._pool is None:
            return []
        return self._pool.cache_stats()

    def counters(self) -> CITestCounters:
        """Aggregate CI-test counters over every tester the session built."""
        total = CITestCounters()
        for tester in self._testers.values():
            c = tester.counters
            total.n_tests += c.n_tests
            total.data_accesses += c.data_accesses
            total.table_cells += c.table_cells
            total.log_ops += c.log_ops
            total.cache_hits += c.cache_hits
            total.cache_misses += c.cache_misses
            for depth, n in c.per_depth_tests.items():
                total.per_depth_tests[depth] = total.per_depth_tests.get(depth, 0) + n
        return total

    # ------------------------------------------------------------------ #
    # testers & pool
    # ------------------------------------------------------------------ #
    def tester(
        self,
        test: str | None = None,
        alpha: float | None = None,
        dof_adjust: str | None = None,
    ) -> ConditionalIndependenceTest:
        """A tester over the session dataset sharing the session cache.

        Testers are memoized per ``(test, alpha, dof_adjust)``; all of them
        read and write the *same* stats cache, which is what makes a
        relearn at a new alpha nearly table-free.
        """
        self._check_open()
        key = (
            test or self.test,
            float(alpha if alpha is not None else self.alpha),
            dof_adjust or self.dof_adjust,
        )
        tester = self._testers.get(key)
        if tester is None:
            tester = make_tester(
                self.dataset,
                key[0],
                alpha=key[1],
                dof_adjust=key[2],
                stats_cache=self.cache,
                encoded=self.encoded,
            )
            self._testers[key] = tester
        return tester

    def _skeleton_key(self, test: str | None, alpha: float, gs, max_depth) -> tuple[str, str]:
        """Store key of one skeleton run plus its engine-config lineage.

        Every result-affecting knob participates as spelled (``gs="auto"``
        and a fixed gs key separately even though their skeletons are
        bit-identical — the conservative choice the result cache already
        makes), so a store hit can only ever be the exact artifact an
        identical run computed.
        """
        cfg = {"test": test or self.test, "dof_adjust": self.dof_adjust}
        config_fp = engine_config_fingerprint(cfg)
        key = request_fingerprint(
            self.fingerprint,
            "skeleton",
            {**cfg, "alpha": alpha, "gs": gs, "max_depth": max_depth},
        )
        return key, config_fp

    def _ensure_pool(self):
        if self._pool is None:
            from ..parallel.adaptive import DEFAULT_SEED_GS
            from ..parallel.backends import WorkerPool

            # Long-lived pool: prewarm each worker's kernel arena for the
            # default adaptive seed group size (later learns at larger gs
            # just grow the buffers once to the new high-water mark).
            n = min(DEFAULT_SEED_GS * 4 * max(self.dataset.n_samples, 1), 1 << 24)
            self._pool = WorkerPool(
                self.dataset,
                self.n_jobs,
                backend=self.backend,
                test=self.test,
                alpha=self.alpha,
                dof_adjust=self.dof_adjust,
                cache_bytes=self.cache_bytes,
                encoded=self.encoded,
                use_shm=self.use_shm,
                arena_hint={"cells": (n, "<i4")},
            )
        return self._pool

    @property
    def uses_shm(self) -> bool:
        """True while a live worker pool serves from the shared plane."""
        return self._pool is not None and self._pool.uses_shm

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def learn(
        self,
        *,
        alpha: float | None = None,
        test: str | None = None,
        gs: int | str = 1,
        max_depth: int | None = None,
        apply_r4: bool = False,
        v_structures: str = "standard",
    ) -> LearnResult:
        """Learn a CPDAG (Fast-BNS semantics) reusing session state.

        A ``test`` override forces the sequential path even when the
        session holds a pool (workers are initialised for the session's
        test); ``alpha`` overrides ride the pool exactly, since p-values
        are alpha-free.  ``gs="auto"`` sizes CI-test groups adaptively on
        the parallel path (fixed fallback sequentially) — bit-identical
        results either way.
        """
        self._check_open()
        alpha = float(alpha if alpha is not None else self.alpha)
        # The parallel path never builds a tester (workers re-threshold
        # cached p-values), so validate here or a bad alpha would silently
        # turn every verdict into "dependent".
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        n_nodes = self.dataset.n_variables

        t0 = time.perf_counter()
        skel_key = config_fp = None
        restored = None
        if self.store is not None:
            skel_key, config_fp = self._skeleton_key(test, alpha, gs, max_depth)
            restored = self.store.get_skeleton(skel_key)
        if restored is not None:
            # Warm path: the exact (skeleton, sepsets, stats) a previous
            # run computed for this fingerprint — orientation below still
            # runs live (it is cheap and parameter-dependent).
            skeleton, sepsets, stats = restored
            self.n_skeleton_loads += 1
        elif self.n_jobs > 1 and (test is None or test == self.test):
            from concurrent.futures import BrokenExecutor

            from ..parallel.ci_level import ci_level_skeleton

            pool = self._ensure_pool()
            try:
                skeleton, sepsets, stats = ci_level_skeleton(
                    pool,
                    n_nodes,
                    gs=gs,
                    group_endpoints=True,
                    max_depth=max_depth,
                    n_samples=self.dataset.n_samples,
                    alpha_override=None if alpha == pool.alpha else alpha,
                )
            except BrokenExecutor:
                # A worker died mid-learn (killed, OOM).  Drop the pool —
                # shutdown unlinks its shm plane — so the next learn
                # respawns a fresh one, and let the error surface as this
                # request's clean failure.
                self._pool = None
                try:
                    pool.shutdown()
                except Exception:
                    # Teardown of an already-broken pool is best-effort;
                    # the counter keeps the failure auditable.
                    self.n_pool_shutdown_errors += 1
                raise
        else:
            from ..parallel.adaptive import resolve_fixed_gs

            skeleton, sepsets, stats = learn_skeleton(
                self.tester(test, alpha),
                n_nodes,
                gs=resolve_fixed_gs(gs),
                group_endpoints=True,
                onthefly=True,
                max_depth=max_depth,
            )
        if restored is None:
            self.n_skeleton_learns += 1
            if self.store is not None:
                self.store.put_skeleton(
                    skel_key, self.fingerprint, config_fp, (skeleton, sepsets, stats)
                )
        t1 = time.perf_counter()
        if v_structures == "standard":
            cpdag = orient_skeleton(skeleton, sepsets, apply_r4=apply_r4)
        else:
            from ..core.conservative import orient_skeleton_robust

            cpdag, _classification = orient_skeleton_robust(
                self.tester(test, alpha), skeleton, sepsets, rule=v_structures, apply_r4=apply_r4
            )
        t2 = time.perf_counter()
        return LearnResult(
            cpdag=cpdag,
            skeleton=skeleton,
            sepsets=sepsets,
            stats=stats,
            names=self.dataset.names,
            elapsed={"skeleton": t1 - t0, "orientation": t2 - t1, "total": t2 - t0},
        )

    def relearn(self, **overrides) -> LearnResult:
        """Alias of :meth:`learn` for the warm-path reading of the code:
        the second call with different parameters is where the session's
        caches pay off."""
        return self.learn(**overrides)

    def markov_blanket(
        self,
        target: int | str,
        algorithm: str = "iamb",
        alpha: float | None = None,
        max_conditioning: int | None = 3,
    ) -> MarkovBlanketResult:
        """Discover one variable's Markov blanket on the session substrate.

        Blanket queries are prime cache traffic: the grow phase sweeps
        every candidate against the *same* conditioning set (one encoding,
        many endpoints) and the shrink phase re-tests tuples the grow phase
        already built.
        """
        self._check_open()
        if algorithm not in ("iamb", "grow-shrink"):
            raise ValueError("algorithm must be 'iamb' or 'grow-shrink'")
        if isinstance(target, str):
            target = self.dataset.index_of(target)
        fn = iamb if algorithm == "iamb" else grow_shrink
        return fn(
            self.tester(None, alpha),
            self.dataset.n_variables,
            int(target),
            max_conditioning=max_conditioning,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (the server's eviction check)."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._owns_store and self.store is not None:
            self.store.close()
        self._closed = True

    def __enter__(self) -> "LearningSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LearningSession(n_variables={self.dataset.n_variables}, "
            f"n_samples={self.dataset.n_samples}, test={self.test!r}, "
            f"n_jobs={self.n_jobs}, cache_bytes={self.cache_bytes})"
        )
