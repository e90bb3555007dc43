"""Sample-level parallel skeleton phase (the fine-grained scheme, Sec. IV-A).

Every CI test's contingency-table fill is split across workers: each worker
counts its slice of the samples into a private table and the master merges
the partial tables (the "local contingency table per thread" variant the
paper describes; the atomic-increment variant has no faithful shared-memory
analog in Python, and the paper already concludes the local-table variant
is the better of the two).  The algorithmic order is the sequential gs = 1
Fast-BNS order, so results are identical — only the per-test fork/join
overhead and merge cost differ, which is exactly the scheme's weakness:
thousands of tiny parallel regions.

Thread workers share the dataset arrays; process workers attach the
zero-copy shared-memory plane (:mod:`repro.datasets.shm`) when the
platform provides it, and otherwise receive the dataset once at pool
creation (no per-test data shipping — only the partial tables return).
The plane keeps the dataset's layout, so a sample-major baseline's
workers still slice strided columns.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from collections.abc import Sequence

import numpy as np

from ..citests.contingency import encode_columns, n_configurations
from ..citests.gsquare import g2_test_from_counts
from ..core.result import DepthStats, SkeletonStats
from ..core.sepsets import SepSetStore
from ..core.skeleton import build_depth_tasks, depth_has_work
from ..core.trace import TraceRecorder
from ..core.workpool import WorkPool
from ..datasets.dataset import DiscreteDataset
from ..graphs.undirected import UndirectedGraph

__all__ = ["sample_level_skeleton", "parallel_contingency"]

# fork-inherited dataset for process workers
_SAMPLE_DATASET: DiscreteDataset | None = None


def _init_sample_worker(source) -> None:
    """``source`` is the dataset itself or its shared-memory handle."""
    global _SAMPLE_DATASET
    from ..datasets.shm import ShmRawHandle, attach_dataset

    _SAMPLE_DATASET = attach_dataset(source) if isinstance(source, ShmRawHandle) else source


def _partial_counts(job: tuple[int, int, tuple[int, ...], int, int, int]) -> np.ndarray:
    """Count one slice of the samples into a private dense table."""
    assert _SAMPLE_DATASET is not None, "sample worker not initialised"
    return _partial_counts_on(_SAMPLE_DATASET, job)


def _partial_counts_on(
    ds: DiscreteDataset, job: tuple[int, int, tuple[int, ...], int, int, int]
) -> np.ndarray:
    x, y, s, lo, hi, table_size = job
    rx, ry = ds.arity(x), ds.arity(y)
    x_col = ds.column(x)[lo:hi]
    y_col = ds.column(y)[lo:hi]
    cell = x_col.astype(np.int64) * ry + y_col
    if s:
        rz = [ds.arity(v) for v in s]
        z_codes, _ = encode_columns([ds.column(v)[lo:hi] for v in s], rz)
        cell = z_codes * (rx * ry) + cell
    return np.bincount(cell, minlength=table_size)


def parallel_contingency(
    dataset: DiscreteDataset,
    executor: Executor,
    use_process_workers: bool,
    n_jobs: int,
    x: int,
    y: int,
    s: Sequence[int],
) -> tuple[np.ndarray, int] | None:
    """Contingency table of ``I(x, y | s)`` computed by sample slicing.

    Returns ``(counts, nz_structural)`` with ``counts`` shaped
    ``(nz, rx, ry)``, or ``None`` when the dense table would be too large
    for slice-private tables (the caller then falls back to a sequential
    compressed-table test; such deep tests are rare).
    """
    m = dataset.n_samples
    rx, ry = dataset.arity(x), dataset.arity(y)
    rz = [dataset.arity(v) for v in s]
    nz = n_configurations(rz)
    table_size = nz * rx * ry
    if table_size > 4 * max(m, 1):
        return None
    bounds = np.linspace(0, m, n_jobs + 1, dtype=np.int64)
    jobs = [
        (x, y, tuple(int(v) for v in s), int(bounds[k]), int(bounds[k + 1]), table_size)
        for k in range(n_jobs)
        if bounds[k] < bounds[k + 1]
    ]
    if use_process_workers:
        partials = list(executor.map(_partial_counts, jobs))
    else:
        partials = list(executor.map(lambda j: _partial_counts_on(dataset, j), jobs))
    counts = np.sum(partials, axis=0).reshape(nz, rx, ry)
    return counts, nz


def sample_level_skeleton(
    dataset: DiscreteDataset,
    n_nodes: int,
    n_jobs: int,
    backend: str = "process",
    alpha: float = 0.05,
    dof_adjust: str = "structural",
    group_endpoints: bool = True,
    max_depth: int | None = None,
    recorder: TraceRecorder | None = None,
    use_shm: bool | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Run the skeleton phase with sample-level parallelism (G^2 test).

    ``use_shm`` follows the :class:`~repro.parallel.backends.WorkerPool`
    contract: ``None`` auto-detects (process backend, working shared
    memory), ``True`` requires the plane, ``False`` forces the pickled
    path.
    """
    if recorder is not None:
        raise ValueError("trace recording is not supported by the sample-level backend")
    if n_nodes != dataset.n_variables:
        raise ValueError("n_nodes must equal the dataset's variable count")
    if use_shm and backend != "process":
        raise ValueError("thread workers already share memory; use_shm applies to processes")
    from ..citests.gsquare import GSquareTest

    fallback = GSquareTest(dataset, alpha=alpha, dof_adjust=dof_adjust)
    t_start = time.perf_counter()

    shm_export = None
    if backend == "process":
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover
            ctx = multiprocessing.get_context("spawn")
        from ..datasets.shm import try_export_dataset

        shm_export = try_export_dataset(dataset, use_shm)
        executor: Executor = ProcessPoolExecutor(
            max_workers=n_jobs,
            mp_context=ctx,
            initializer=_init_sample_worker,
            initargs=(dataset if shm_export is None else shm_export.handle,),
        )
        use_process = True
    elif backend == "thread":
        executor = ThreadPoolExecutor(max_workers=n_jobs)
        use_process = False
    else:
        raise ValueError("backend must be 'process' or 'thread'")

    graph = UndirectedGraph.complete(n_nodes)
    sepsets = SepSetStore()
    stats = SkeletonStats()

    try:
        depth = 0
        while True:
            if max_depth is not None and depth > max_depth:
                break
            if depth > 0 and not depth_has_work(graph, depth):
                break
            if graph.n_edges == 0:
                break

            d_stats = DepthStats(depth=depth, n_edges_start=graph.n_edges)
            t_depth = time.perf_counter()
            tasks = build_depth_tasks(graph, depth, group_endpoints)
            item_rank = {id(t): i for i, t in enumerate(tasks)}
            pool = WorkPool()
            for idx in range(len(tasks) - 1, -1, -1):
                pool.push(tasks[idx])
            found: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}

            while pool:
                task = pool.pop()
                sets = task.next_group(1)
                task.advance(1)
                s = sets[0]
                d_stats.n_tests += 1
                d_stats.n_groups += 1
                parts = parallel_contingency(
                    dataset, executor, use_process, n_jobs, task.u, task.v, s
                )
                if parts is None:
                    res = fallback.test(task.u, task.v, s)
                    independent = res.independent
                    accepting = res.s if independent else None
                else:
                    counts, nz = parts
                    rx, ry = dataset.arity(task.u), dataset.arity(task.v)
                    _, _, _, independent = g2_test_from_counts(
                        counts, nz, rx, ry, alpha, dof_adjust
                    )
                    accepting = tuple(s) if independent else None
                if accepting is not None:
                    found.setdefault((task.u, task.v), []).append(
                        (item_rank[id(task)], accepting)
                    )
                elif not task.done:
                    pool.push(task)

            for (u, v), hits in found.items():
                hits.sort(key=lambda pair: pair[0])
                sepsets.record(u, v, hits[0][1])
                graph.remove_edge(u, v)
            d_stats.n_edges_removed = len(found)
            d_stats.elapsed_s = time.perf_counter() - t_depth
            stats.depths.append(d_stats)
            stats.n_tests += d_stats.n_tests
            stats.n_groups += d_stats.n_groups
            depth += 1
    finally:
        executor.shutdown(wait=True)
        if shm_export is not None:
            shm_export.close()

    stats.elapsed_s = time.perf_counter() - t_start
    return graph, sepsets, stats
