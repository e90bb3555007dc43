"""Worker-pool plumbing shared by the three parallel granularities.

Process workers are created once per learning run (the paper's OpenMP
threads live for the whole parallel region; re-spawning per depth would be
the "parallel overhead" failure mode).  Each worker builds its own CI tester
at initialisation, so no test-time traffic carries data — only compact
``(edge, conditioning sets)`` descriptions and boolean verdicts cross the
process boundary.

Workers receive their dataset through the **zero-copy shared-memory
plane** (:mod:`repro.datasets.shm`) whenever possible: the pool exports
the encoding layer's int64 columns (and memoized pair codes) into
``multiprocessing.shared_memory`` blocks and ships only block names +
shapes; every worker attaches read-only views of the same physical pages,
so per-worker private memory stays flat in the dataset size and pool
start-up skips the per-worker pickling/widening pass.  When shared memory
is unavailable (or ``use_shm=False``, or the baseline non-memoizing
regime), the pool falls back to the classic pickled-dataset shipping —
bit-identical results, only the memory/start-up cost differs.  The blocks
are unlinked at :meth:`WorkerPool.shutdown` (which
``LearningSession.__exit__`` triggers) with a finalizer backstop, so
crashes cannot leak ``/dev/shm`` segments.

When ``cache_bytes`` is set, every worker additionally keeps a per-process
:class:`~repro.engine.statscache.SufficientStatsCache`.  A pool owned by a
long-lived :class:`~repro.engine.session.LearningSession` then accumulates
sufficient statistics *across* successive ``learn``/``relearn`` calls —
repeated tables are served from worker memory instead of re-scanning the
dataset.  Because p-values do not depend on the significance level, a
relearn at a different alpha reuses the same pool: ``eval_groups`` accepts
an ``alpha`` override and workers re-threshold the cached p-values.

The ``thread`` backend exists for comparison and for the sample-level
scheme (threads already share one address space, so the shm plane is
moot there); CPython's GIL limits its speedup, which is documented
honestly in EXPERIMENTS.md at the repository root.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from collections.abc import Sequence

from ..citests.base import ConditionalIndependenceTest, evaluate_groups
from ..datasets.dataset import DiscreteDataset

__all__ = ["WorkerPool", "GroupJob", "EdgeJob"]

# Module-level worker state (set by the process-pool initializer).  The
# arena is the worker's kernel scratch pool: it outlives every job the
# worker runs, which is what makes the fused group kernel allocation-free
# in steady state (buffers grow to the high-water mark once, then recycle).
_WORKER_TESTER: ConditionalIndependenceTest | None = None
_WORKER_ARENA = None

GroupJob = tuple[int, int, tuple[tuple[int, ...], ...]]
# (u, v, conditioning sets) -> per-set independence verdicts
EdgeJob = tuple[int, int, tuple[int, ...], tuple[int, ...], int]
# (u, v, side1, side2, depth) -> (n_tests_executed, accepting set | None)


def _init_worker(
    dataset: DiscreteDataset | None,
    test: str,
    alpha: float,
    dof_adjust: str,
    cache_bytes: int | None = None,
    encoded=None,
    memoize_encodings: bool = True,
    shm_handle=None,
    arena_hint: dict | None = None,
) -> None:
    global _WORKER_TESTER, _WORKER_ARENA
    from ..citests.arena import KernelArena
    from ..core.learn import make_tester
    from ..datasets.encoded import EncodedDataset

    # The encoding layer arrives once per worker at pool start.  Preferred
    # transport is the shared-memory plane: ``shm_handle`` names the
    # exported blocks and the attach is zero-copy (module docstring).
    # Otherwise the layer (or the bare dataset) was pickled in; baseline
    # pools pass memoize_encodings=False so workers re-derive encodings
    # per test, like their sequential counterparts.
    if shm_handle is not None:
        encoded = EncodedDataset.attach_shm(shm_handle)
        dataset = encoded.dataset
    elif encoded is not None:
        dataset = encoded.dataset
    else:
        encoded = EncodedDataset(dataset, memoize=memoize_encodings)
    stats_cache = None
    if cache_bytes is not None:
        from ..engine.statscache import SufficientStatsCache

        stats_cache = SufficientStatsCache(max_bytes=cache_bytes)
    _WORKER_ARENA = KernelArena()
    if arena_hint:
        _WORKER_ARENA.prewarm(arena_hint)
    _WORKER_TESTER = make_tester(
        dataset, test, alpha=alpha, dof_adjust=dof_adjust, stats_cache=stats_cache,
        encoded=encoded, arena=_WORKER_ARENA,
    )


def _eval_group(job: GroupJob, alpha: float | None = None) -> list[bool]:
    """CI-level work unit: evaluate a group of conditioning sets for one
    edge; returns one verdict per set.

    ``alpha`` overrides the worker tester's significance level for this
    job (exact: the p-value is alpha-free, only the threshold moves).
    """
    assert _WORKER_TESTER is not None, "worker not initialised"
    u, v, sets = job
    results = _WORKER_TESTER.test_group(u, v, list(sets))
    if alpha is not None and alpha != _WORKER_TESTER.alpha:
        return [r.p_value > alpha for r in results]
    return [r.independent for r in results]


def _verdicts(tester, jobs: Sequence[GroupJob], alpha: float | None) -> list[list[bool]]:
    """Evaluate a chunk of group jobs on one tester (fused when possible,
    see :func:`~repro.citests.base.evaluate_groups`)."""
    per_job = evaluate_groups(tester, [(u, v, list(sets)) for u, v, sets in jobs])
    if alpha is not None and alpha != tester.alpha:
        return [[r.p_value > alpha for r in results] for results in per_job]
    return [[r.independent for r in results] for results in per_job]


def _eval_group_chunk(
    jobs: Sequence[GroupJob], alpha: float | None = None
) -> list[list[bool]]:
    """CI-level work chunk: several group jobs in one IPC round-trip."""
    assert _WORKER_TESTER is not None, "worker not initialised"
    return _verdicts(_WORKER_TESTER, jobs, alpha)


def _worker_arena_stats() -> dict | None:
    """This worker's kernel-arena counters (None before initialisation)."""
    if _WORKER_ARENA is None:
        return None
    out = _WORKER_ARENA.stats()
    out["worker_pid"] = os.getpid()
    return out


def _worker_cache_stats() -> dict | None:
    """Stats of this worker's stats cache (None when caching is off)."""
    assert _WORKER_TESTER is not None, "worker not initialised"
    builder = getattr(_WORKER_TESTER, "_builder", None)
    if builder is None:
        return None
    import os

    out = builder.cache.stats().as_dict()
    out["worker_pid"] = os.getpid()
    return out


def _read_private_kb() -> int | None:
    """This process's private (unshared) resident memory in KiB.

    ``Private_Clean + Private_Dirty`` from ``smaps_rollup`` — the honest
    per-worker footprint metric: pages of an attached shared-memory plane
    count toward plain RSS in *every* attacher but are private to none.
    Returns ``None`` where the proc interface is unavailable.
    """
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
            total = 0
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
        return total
    except (OSError, ValueError, IndexError):
        return None


def _worker_warm() -> dict:
    """Touch every widened column and report this worker's footprint.

    Forces the encoding layer fully resident (a shm attacher faults in the
    shared plane; a pickled-path worker materialises its private widened
    copies), so post-warm footprints compare like for like.
    """
    assert _WORKER_TESTER is not None, "worker not initialised"
    encoded = _WORKER_TESTER.encoded
    checksum = 0
    for i in range(encoded.dataset.n_variables):
        checksum += int(encoded.col64(i).sum())
    return {
        "worker_pid": os.getpid(),
        "private_kb": _read_private_kb(),
        "encoded_nbytes": encoded.stats()["nbytes"],
        "checksum": checksum,
    }


def _eval_edge(job: EdgeJob) -> tuple[int, tuple[int, ...] | None]:
    """Edge-level work unit: process one edge task to completion."""
    assert _WORKER_TESTER is not None, "worker not initialised"
    from ..core.edges import EdgeTask

    u, v, side1, side2, depth = job
    task = EdgeTask(u, v, side1, side2, depth)
    executed = 0
    while not task.done:
        sets = task.next_group(1)
        task.advance(1)
        executed += 1
        res = _WORKER_TESTER.test(u, v, sets[0])
        if res.independent:
            return executed, res.s
    return executed, None


class WorkerPool:
    """An executor plus the matching group/edge evaluation callables.

    ``process`` backend: module-level worker functions with per-process
    testers (zero shared state).  ``thread`` backend: closures over
    thread-local testers built lazily per worker thread (the dataset arrays
    are shared read-only, as OpenMP threads would share them).

    ``cache_bytes`` gives each worker a byte-budgeted sufficient-statistics
    cache (see module docstring); ``None`` keeps the seed behaviour.
    ``encoded`` optionally provides a (possibly pre-warmed)
    :class:`~repro.datasets.encoded.EncodedDataset` whose plane is exported
    (or, on fallback, pickled) to every worker at pool start, so all jobs
    of a worker share one encoding layer; without it, the pool builds a
    fresh layer over the dataset.

    ``use_shm`` controls the zero-copy plane: ``None`` (default) uses it
    whenever the backend is ``process``, encodings are memoized and the
    platform provides working shared memory; ``True`` requires it (errors
    surface instead of falling back); ``False`` forces the pickled path.
    ``start_method`` picks the multiprocessing context (``"fork"`` where
    available, else ``"spawn"``, by default) — the shm plane makes the two
    equivalent in what workers receive.
    """

    def __init__(
        self,
        dataset: DiscreteDataset,
        n_jobs: int,
        backend: str = "process",
        test: str = "g2",
        alpha: float = 0.05,
        dof_adjust: str = "structural",
        cache_bytes: int | None = None,
        encoded=None,
        memoize_encodings: bool = True,
        use_shm: bool | None = None,
        start_method: str | None = None,
        arena_hint: dict | None = None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if backend not in ("process", "thread"):
            raise ValueError("backend must be 'process' or 'thread'")
        if encoded is not None and encoded.dataset is not dataset:
            raise ValueError("encoded layer must wrap the pool's dataset")
        if use_shm and backend == "thread":
            raise ValueError("thread workers already share memory; use_shm applies to processes")
        if use_shm and not memoize_encodings:
            raise ValueError(
                "the shm plane ships a fully memoized encoding layer; it cannot "
                "serve the non-memoizing baseline regime"
            )
        self.n_jobs = n_jobs
        self.backend = backend
        self.alpha = float(alpha)
        self.cache_bytes = cache_bytes
        self.arities = tuple(int(dataset.arity(i)) for i in range(dataset.n_variables))
        self._shm_export = None
        self._executor: Executor
        if backend == "process":
            if start_method is not None:
                ctx = multiprocessing.get_context(start_method)
            else:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    ctx = multiprocessing.get_context("spawn")
            # Dataset transport, in order of preference: shared-memory
            # plane (block names only), pickled encoding layer, pickled
            # bare dataset.  Each ships the data exactly once per worker.
            if memoize_encodings and use_shm is not False:
                from ..datasets.encoded import EncodedDataset
                from ..datasets.shm import try_export_encoded

                export_source = encoded if encoded is not None else EncodedDataset(dataset)
                self._shm_export = try_export_encoded(export_source, use_shm)
            if self._shm_export is not None:
                initargs = (
                    None, test, alpha, dof_adjust, cache_bytes, None, True,
                    self._shm_export.handle, arena_hint,
                )
            elif encoded is not None:
                initargs = (
                    None, test, alpha, dof_adjust, cache_bytes, encoded, True, None,
                    arena_hint,
                )
            else:
                initargs = (
                    dataset, test, alpha, dof_adjust, cache_bytes, None,
                    memoize_encodings, None, arena_hint,
                )
            self._executor = ProcessPoolExecutor(
                max_workers=n_jobs,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=initargs,
            )
        else:
            import threading

            from ..datasets.encoded import EncodedDataset

            local = threading.local()
            # Thread workers share the dataset arrays read-only (as OpenMP
            # threads would); they share one encoding layer the same way.
            shared_encoded = (
                encoded
                if encoded is not None
                else EncodedDataset(dataset, memoize=memoize_encodings)
            )

            def tester() -> ConditionalIndependenceTest:
                if not hasattr(local, "tester"):
                    from ..citests.arena import KernelArena
                    from ..core.learn import make_tester

                    stats_cache = None
                    if cache_bytes is not None:
                        from ..engine.statscache import SufficientStatsCache

                        stats_cache = SufficientStatsCache(max_bytes=cache_bytes)
                    # One arena per worker thread: arenas recycle buffers
                    # and are not safe to share across concurrent kernels.
                    arena = KernelArena()
                    if arena_hint:
                        arena.prewarm(arena_hint)
                    local.tester = make_tester(
                        dataset,
                        test,
                        alpha=alpha,
                        dof_adjust=dof_adjust,
                        stats_cache=stats_cache,
                        encoded=shared_encoded,
                        arena=arena,
                    )
                return local.tester

            def eval_group_local(job: GroupJob, alpha: float | None = None) -> list[bool]:
                u, v, sets = job
                results = tester().test_group(u, v, list(sets))
                if alpha is not None and alpha != tester().alpha:
                    return [r.p_value > alpha for r in results]
                return [r.independent for r in results]

            def eval_group_chunk_local(
                jobs: Sequence[GroupJob], alpha: float | None = None
            ) -> list[list[bool]]:
                return _verdicts(tester(), jobs, alpha)

            def eval_edge_local(job: EdgeJob) -> tuple[int, tuple[int, ...] | None]:
                from ..core.edges import EdgeTask

                u, v, side1, side2, depth = job
                task = EdgeTask(u, v, side1, side2, depth)
                executed = 0
                while not task.done:
                    sets = task.next_group(1)
                    task.advance(1)
                    executed += 1
                    res = tester().test(u, v, sets[0])
                    if res.independent:
                        return executed, res.s
                return executed, None

            self._executor = ThreadPoolExecutor(max_workers=n_jobs)
            self._eval_group_fn = eval_group_local
            self._eval_group_chunk_fn = eval_group_chunk_local
            self._eval_edge_fn = eval_edge_local
        if backend == "process":
            self._eval_group_fn = _eval_group
            self._eval_group_chunk_fn = _eval_group_chunk
            self._eval_edge_fn = _eval_edge

    def eval_groups(
        self, jobs: Sequence[GroupJob], alpha: float | None = None
    ) -> list[list[bool]]:
        """Evaluate group jobs across the pool.

        Group jobs are tiny (an edge id plus a handful of index tuples), so
        one IPC round-trip per job would dominate; jobs are therefore
        shipped in explicit chunks — ``4 * n_jobs`` chunks keep enough
        slack for dynamic balancing — and each chunk is evaluated by *one*
        ``test_groups`` call on the worker, so the fused kernel batches
        table builds across the chunk's edges, not just within each group.
        """
        fn = (
            self._eval_group_chunk_fn
            if alpha is None
            else partial(self._eval_group_chunk_fn, alpha=alpha)
        )
        chunksize = max(1, len(jobs) // (4 * self.n_jobs))
        chunks = [jobs[i : i + chunksize] for i in range(0, len(jobs), chunksize)]
        out: list[list[bool]] = []
        for chunk_verdicts in self._executor.map(fn, chunks):
            out.extend(chunk_verdicts)
        return out

    def eval_edges(
        self, jobs: Sequence[EdgeJob]
    ) -> list[tuple[int, tuple[int, ...] | None]]:
        # Edge-level uses a static block partition (chunksize = block
        # size), reproducing the |Ed|/t dedication of Sec. IV-A.
        return list(
            self._executor.map(
                self._eval_edge_fn, jobs, chunksize=max(1, -(-len(jobs) // self.n_jobs))
            )
        )

    def cache_stats(self) -> list[dict]:
        """Per-worker stats-cache snapshots (process backend only; empty
        when caching is disabled or the backend keeps thread-local caches).

        Probes are claimed by whichever workers are idle, so an
        oversubmitted batch is deduplicated by worker PID; the result is a
        best-effort sample — one exact snapshot per *responding* worker,
        never a double-counted one.
        """
        if self.cache_bytes is None or self.backend != "process":
            return []
        by_pid: dict[int, dict] = {}
        for stats in self._executor.map(
            _run_probe, [_worker_cache_stats] * (4 * self.n_jobs), chunksize=1
        ):
            if stats is not None:
                by_pid[stats["worker_pid"]] = stats
        return list(by_pid.values())

    def arena_stats(self) -> list[dict]:
        """Per-worker kernel-arena snapshots (process backend only).

        Best-effort sampling like :meth:`cache_stats`: one snapshot per
        responding worker, deduplicated by PID.  Used by benches and tests
        to verify steady-state buffer reuse (``n_grows`` plateaus while
        ``n_takes`` keeps climbing).
        """
        if self.backend != "process":
            return []
        by_pid: dict[int, dict] = {}
        for stats in self._executor.map(
            _run_probe, [_worker_arena_stats] * (4 * self.n_jobs), chunksize=1
        ):
            if stats is not None:
                by_pid[stats["worker_pid"]] = stats
        return list(by_pid.values())

    @property
    def uses_shm(self) -> bool:
        """True when workers attach the shared-memory plane (vs. pickled)."""
        return self._shm_export is not None

    def warm_up(self) -> list[dict]:
        """Force worker start-up and report per-worker memory footprints.

        Every responding worker touches its full encoding layer and
        reports ``{worker_pid, private_kb, encoded_nbytes, checksum}``
        (``private_kb`` is ``None`` off Linux).  Deduplicated by PID like
        :meth:`cache_stats`; process backend only (thread workers share
        this process's footprint).
        """
        if self.backend != "process":
            return []
        by_pid: dict[int, dict] = {}
        for stats in self._executor.map(
            _run_probe, [_worker_warm] * (4 * self.n_jobs), chunksize=1
        ):
            by_pid[stats["worker_pid"]] = stats
        return list(by_pid.values())

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)
        # Workers are gone: the creator unlinks the shared plane.  Safe
        # after a worker crash too (BrokenProcessPool leaves shutdown
        # callable, and ShmExport.close is idempotent with a finalizer
        # backstop for pools dropped without shutdown).
        if self._shm_export is not None:
            self._shm_export.close()
            self._shm_export = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _run_probe(fn):
    return fn()
