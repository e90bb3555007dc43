"""The one worker pool shared by the three parallel granularities.

Process workers are created once per learning run (the paper's OpenMP
threads live for the whole parallel region; re-spawning per depth would be
the "parallel overhead" failure mode).  Each worker builds its own CI tester
at initialisation, so no test-time traffic carries data — only compact
``(edge, conditioning sets)`` descriptions and boolean verdicts cross the
process boundary.

Workers receive their dataset through the **zero-copy shared-memory
plane** (:mod:`repro.datasets.shm`) whenever possible: the pool exports
the dataset's own values — same dtype, same layout — into one
``multiprocessing.shared_memory`` block and ships only its name and
shape; every worker attaches a read-only dataset over the same physical
pages and builds its tester over it.  For variable-major ``uint8`` /
``uint16`` data the fused kernel then reads the shared block itself
(``ContingencyTableTest._columns``), so per-worker private memory stays
flat in the dataset size under both ``fork`` and ``spawn``.  When shared
memory is unavailable (or ``use_shm=False``) the pool falls back to
shipping the dataset pickled (inherited under ``fork``) — bit-identical
results, only the memory/start-up cost differs.  The block is unlinked at
:meth:`WorkerPool.shutdown` (which ``LearningSession.__exit__`` triggers)
with a finalizer backstop, so crashes cannot leak ``/dev/shm`` segments.

When ``cache_bytes`` is set, every worker additionally keeps a per-process
:class:`~repro.engine.statscache.SufficientStatsCache`.  A pool owned by a
long-lived :class:`~repro.engine.session.LearningSession` then accumulates
sufficient statistics *across* successive ``learn``/``relearn`` calls —
repeated tables are served from worker memory instead of re-scanning the
dataset.  Because p-values do not depend on the significance level, a
relearn at a different alpha reuses the same pool: ``eval_groups`` accepts
an ``alpha`` override and workers re-threshold the cached p-values.

Three job kinds cross the pool: CI-level group chunks
(:meth:`WorkerPool.eval_groups`), edge-level whole edges
(:meth:`WorkerPool.eval_edges`) and sample-level count slices
(:meth:`WorkerPool.partial_counts`, counted over the worker's own
dataset, not its tester).

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

import numpy as np

from ..citests.base import ConditionalIndependenceTest, evaluate_groups
from ..citests.contingency import encode_columns
from ..datasets.dataset import DiscreteDataset

__all__ = ["WorkerPool", "GroupJob", "EdgeJob", "CountJob"]

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
CountJob = tuple[int, int, tuple[int, ...], int, int, int]
# (x, y, s, lo, hi, table_size) -> dense counts of samples [lo, hi)


def _new_arena(arena_hint: dict | None):
    """A worker's kernel scratch pool, prewarmed for ``arena_hint``."""
    from ..citests.arena import KernelArena

    arena = KernelArena()
    if arena_hint:
        arena.prewarm(arena_hint)
    return arena


def _make_worker_tester(
    dataset: DiscreteDataset,
    arena,
    test: str,
    alpha: float,
    dof_adjust: str,
    cache_bytes: int | None,
    batch_groups: bool,
) -> ConditionalIndependenceTest:
    """One worker's tester, with its own stats cache when ``cache_bytes``
    is set and its own ``arena``.  The baseline regime
    (``batch_groups=False``) gets the looped per-set path, as
    :func:`~repro.core.learn.learn_structure` gives the sequential
    baselines."""
    from ..core.learn import make_tester

    stats_cache = None
    if cache_bytes is not None:
        from ..engine.statscache import SufficientStatsCache

        stats_cache = SufficientStatsCache(max_bytes=cache_bytes)
    return make_tester(
        dataset, test, alpha=alpha, dof_adjust=dof_adjust, stats_cache=stats_cache,
        arena=arena, batch_groups=batch_groups,
    )


def _init_worker(
    source,
    test: str,
    alpha: float,
    dof_adjust: str,
    cache_bytes: int | None,
    batch_groups: bool,
    arena_hint: dict | None,
) -> None:
    """Process-worker initializer.  ``source`` is the pickled (or, under
    ``fork``, inherited) dataset, or the handle of its shared-memory
    export, attached zero-copy here (module docstring)."""
    global _WORKER_TESTER, _WORKER_ARENA
    from ..datasets.shm import ShmRawHandle, attach_dataset

    dataset = attach_dataset(source) if isinstance(source, ShmRawHandle) else source
    _WORKER_ARENA = _new_arena(arena_hint)
    _WORKER_TESTER = _make_worker_tester(
        dataset, _WORKER_ARENA, test, alpha, dof_adjust, cache_bytes, batch_groups
    )


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
    """Touch the array the kernel reads and report this worker's
    footprint.

    Faults that array fully in (a shm attacher maps the shared block; a
    pickled-path worker its private copy), so post-warm footprints
    compare like for like: the fused kernel's column matrix, or for a
    looped (baseline) tester the dataset's own values, so warming builds
    no column copy that tester never reads.  ``reads_shared_block`` says
    whether that array is the attached shared-memory block itself.
    """
    assert _WORKER_TESTER is not None, "worker not initialised"
    dataset = _WORKER_TESTER.dataset
    cols = _WORKER_TESTER._columns() if _WORKER_TESTER.batch_groups else dataset.values
    attached = getattr(dataset, "_shm_holder", None) is not None
    return {
        "worker_pid": os.getpid(),
        "private_kb": _read_private_kb(),
        "checksum": int(cols.sum(dtype=np.int64)),
        "reads_shared_block": attached and np.shares_memory(cols, dataset.values),
    }


def _eval_edge_on(tester, job: EdgeJob) -> tuple[int, tuple[int, ...] | None]:
    """Edge-level work unit: process one edge task to completion."""
    from ..core.edges import EdgeTask

    u, v, side1, side2, depth = job
    task = EdgeTask(u, v, side1, side2, depth)
    executed = 0
    while not task.done:
        sets = task.next_group(1)
        task.advance(1)
        executed += 1
        res = tester.test(u, v, sets[0])
        if res.independent:
            return executed, res.s
    return executed, None


def _eval_edge(job: EdgeJob) -> tuple[int, tuple[int, ...] | None]:
    assert _WORKER_TESTER is not None, "worker not initialised"
    return _eval_edge_on(_WORKER_TESTER, job)


def _partial_counts_on(ds: DiscreteDataset, job: CountJob) -> np.ndarray:
    """Sample-level work unit: count one slice of the samples into a
    private dense table."""
    x, y, s, lo, hi, table_size = job
    rx, ry = ds.arity(x), ds.arity(y)
    cell = ds.column(x)[lo:hi].astype(np.int64) * ry + ds.column(y)[lo:hi]
    if s:
        z_codes, _ = encode_columns([ds.column(v)[lo:hi] for v in s], [ds.arity(v) for v in s])
        cell = z_codes * (rx * ry) + cell
    return np.bincount(cell, minlength=table_size)


def _partial_counts(job: CountJob) -> np.ndarray:
    assert _WORKER_TESTER is not None, "worker not initialised"
    return _partial_counts_on(_WORKER_TESTER.dataset, job)


class WorkerPool:
    """An executor plus the matching group/edge/count job callables.

    ``process`` backend: module-level worker functions with per-process
    testers (zero shared state).  ``thread`` backend: closures over
    thread-local testers built lazily per worker thread (the dataset arrays
    are shared read-only, as OpenMP threads would share them).

    ``cache_bytes`` gives each worker a byte-budgeted sufficient-statistics
    cache (see module docstring); ``None`` keeps the seed behaviour.
    ``batch_groups=False`` is the baseline regime: every worker's tester
    runs the looped per-set path and keeps no endpoint codes, like its
    sequential counterpart.

    ``use_shm`` controls the zero-copy plane: ``None`` (default) uses it
    whenever the backend is ``process`` and the platform provides working
    shared memory; ``True`` requires it (errors surface instead of
    falling back); ``False`` forces the pickled path.  ``start_method``
    picks the multiprocessing context (``"fork"`` where available, else
    ``"spawn"``, by default) — the shm plane makes the two equivalent in
    what workers receive.
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
        batch_groups: bool = True,
        use_shm: bool | None = None,
        start_method: str | None = None,
        arena_hint: dict | None = None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if backend not in ("process", "thread"):
            raise ValueError("backend must be 'process' or 'thread'")
        if use_shm and backend == "thread":
            raise ValueError("thread workers already share memory; use_shm applies to processes")
        self.n_jobs = n_jobs
        self.backend = backend
        self.alpha = float(alpha)
        self.cache_bytes = cache_bytes
        self.arities = tuple(int(dataset.arity(i)) for i in range(dataset.n_variables))
        self._shm_export = None
        self._executor: Executor
        if backend == "process":
            from ..datasets.shm import try_export_dataset

            if start_method is not None:
                ctx = multiprocessing.get_context(start_method)
            else:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    ctx = multiprocessing.get_context("spawn")
            # Dataset transport: the shared-memory block's handle when the
            # export succeeds, else the dataset itself (pickled, or
            # inherited under fork).  Each ships the data once per worker.
            self._shm_export = try_export_dataset(dataset, use_shm)
            source = dataset if self._shm_export is None else self._shm_export.handle
            self._executor = ProcessPoolExecutor(
                max_workers=n_jobs,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(
                    source, test, alpha, dof_adjust, cache_bytes, batch_groups, arena_hint,
                ),
            )
            self._eval_group_chunk_fn = _eval_group_chunk
            self._eval_edge_fn = _eval_edge
            self._partial_counts_fn = _partial_counts
        else:
            import threading

            local = threading.local()

            def tester() -> ConditionalIndependenceTest:
                if not hasattr(local, "tester"):
                    # One arena per worker thread: arenas recycle buffers
                    # and are not safe to share across concurrent kernels.
                    local.tester = _make_worker_tester(
                        dataset, _new_arena(arena_hint), test, alpha, dof_adjust,
                        cache_bytes, batch_groups,
                    )
                return local.tester

            self._executor = ThreadPoolExecutor(max_workers=n_jobs)
            self._eval_group_chunk_fn = lambda jobs, alpha=None: _verdicts(tester(), jobs, alpha)
            self._eval_edge_fn = lambda job: _eval_edge_on(tester(), job)
            self._partial_counts_fn = partial(_partial_counts_on, dataset)

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

    def partial_counts(self, jobs: Sequence[CountJob]) -> list[np.ndarray]:
        """Sample-level fork/join: one slice-private table per job, each
        counted over the worker's own dataset (the attached block or the
        pickled copy; thread workers share the caller's arrays)."""
        return list(self._executor.map(self._partial_counts_fn, jobs))

    def _probe(self, fn) -> list[dict]:
        """One ``fn()`` snapshot per responding process worker.

        Probes are claimed by whichever workers are idle, so an
        oversubmitted batch is deduplicated by worker PID; the result is a
        best-effort sample — one exact snapshot per *responding* worker,
        never a double-counted one.  ``None`` snapshots are dropped; thread
        workers share this process, so they report nothing.
        """
        if self.backend != "process":
            return []
        by_pid: dict[int, dict] = {}
        for stats in self._executor.map(_run_probe, [fn] * (4 * self.n_jobs), chunksize=1):
            if stats is not None:
                by_pid[stats["worker_pid"]] = stats
        return list(by_pid.values())

    def cache_stats(self) -> list[dict]:
        """Per-worker stats-cache snapshots (:meth:`_probe`; empty when
        caching is disabled or the backend keeps thread-local caches)."""
        return [] if self.cache_bytes is None else self._probe(_worker_cache_stats)

    def arena_stats(self) -> list[dict]:
        """Per-worker kernel-arena snapshots (:meth:`_probe`).  Used by
        benches and tests to verify steady-state buffer reuse (``n_grows``
        plateaus while ``n_takes`` keeps climbing)."""
        return self._probe(_worker_arena_stats)

    @property
    def uses_shm(self) -> bool:
        """True when workers attach the shared-memory plane (vs. pickled)."""
        return self._shm_export is not None

    def warm_up(self) -> list[dict]:
        """Force worker start-up and report per-worker memory footprints.

        Every responding worker (:meth:`_probe`) touches the column matrix
        its kernel reads and reports ``{worker_pid, private_kb, checksum,
        reads_shared_block}`` (``private_kb`` is ``None`` off Linux).
        """
        return self._probe(_worker_warm)

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
