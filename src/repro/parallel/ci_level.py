"""CI-level parallel skeleton phase (the paper's Fast-BNS-par scheme).

The master owns the dynamic work pool; each scheduling round pops up to
``n_jobs * BATCH_FACTOR`` edges, ships one gs-group of CI tests per edge to
the workers, applies the verdicts and pushes unfinished edges back.  This
mirrors the paper's design (Sec. IV-B): threads process groups of CI tests
from *different* edges, an edge is handled by at most one thread at a time,
completed edges leave the pool immediately, and no atomic operations are
needed because a contingency table is never shared.

Only the per-depth search lives here; the depth loop, deferred removals and
stats roll-up are :func:`~repro.core.skeleton.drive_skeleton`'s.
"""

from __future__ import annotations

import time

from ..core.edges import EdgeTask
from ..core.result import DepthStats, SkeletonStats
from ..core.sepsets import SepSetStore
from ..core.skeleton import Hit, drive_skeleton
from ..core.trace import TestRecord, TraceRecorder
from ..core.workpool import WorkPool
from ..graphs.undirected import UndirectedGraph
from .adaptive import AdaptiveGroupScheduler, resolve_gs
from .backends import WorkerPool

__all__ = ["ci_level_skeleton"]

#: Work items per worker in one scheduling round.
BATCH_FACTOR = 4


def ci_level_skeleton(
    workers: WorkerPool,
    n_nodes: int,
    gs: int | str | AdaptiveGroupScheduler = 1,
    group_endpoints: bool = True,
    max_depth: int | None = None,
    recorder: TraceRecorder | None = None,
    n_samples: int = 1,
    alpha_override: float | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Run the skeleton phase with CI-level parallelism.

    Produces output identical to the sequential engine with the same
    ``group_endpoints`` for *any* ``gs`` (removal decisions are deferred
    to depth end and the accepting-set tie-break is work-item order, both
    scheduling independent) — which is what licenses ``gs="auto"``: an
    :class:`~repro.parallel.adaptive.AdaptiveGroupScheduler` (passed
    directly, or built by ``"auto"``) re-sizes each work item's next group
    from live waste/latency counters and pool pressure without touching
    the result.  Scheduled sizes land in each depth's ``gs_histogram``.

    ``alpha_override`` re-thresholds verdicts at a different significance
    level than the workers were initialised with — the
    :class:`~repro.engine.session.LearningSession` relearn path, which
    reuses a long-lived pool (and its workers' stats caches) across alphas.
    """
    gs = resolve_gs(gs, arities=getattr(workers, "arities", None))
    scheduler = gs if isinstance(gs, AdaptiveGroupScheduler) else None
    round_size = max(1, workers.n_jobs * BATCH_FACTOR)

    def search(tasks: list[EdgeTask], d_stats: DepthStats, stats: SkeletonStats) -> list[Hit]:
        item_rank = {id(t): i for i, t in enumerate(tasks)}
        pool = WorkPool()
        for task in reversed(tasks):
            pool.push(task)

        hits: list[Hit] = []
        while pool:
            batch = pool.pop_many(round_size)
            jobs = []
            job_meta = []
            n_pending = len(pool) + len(batch)
            for task in batch:
                g = (
                    gs
                    if scheduler is None
                    else scheduler.gs_for(task, n_pending=n_pending, n_workers=workers.n_jobs)
                )
                sets = task.next_group(g)
                jobs.append((task.u, task.v, tuple(sets)))
                job_meta.append((task, sets))
            t_round = time.perf_counter()
            verdict_lists = workers.eval_groups(jobs, alpha=alpha_override)
            round_s = time.perf_counter() - t_round
            round_tests = sum(len(sets) for _, sets in job_meta)
            for (task, sets), verdicts in zip(job_meta, verdict_lists, strict=True):
                task.advance(len(sets))
                d_stats.n_tests += len(sets)
                d_stats.n_groups += 1
                d_stats.gs_histogram[len(sets)] = d_stats.gs_histogram.get(len(sets), 0) + 1
                if recorder is not None:
                    recorder.record_group(
                        task.u,
                        task.v,
                        task.total_tests,
                        [
                            TestRecord(depth=d_stats.depth, m=n_samples, cells=0, independent=ind)
                            for ind in verdicts
                        ],
                    )
                first_idx = next((i for i, ind in enumerate(verdicts) if ind), -1)
                if scheduler is not None:
                    # Worker-seconds share of the group — the live latency
                    # counter behind the scheduler's growth damping.
                    scheduler.observe(
                        task,
                        len(sets),
                        first_idx,
                        round_s * len(sets) / max(round_tests, 1),
                    )
                if first_idx >= 0:
                    d_stats.n_redundant_tests += len(sets) - 1 - first_idx
                    hits.append((item_rank[id(task)], task.u, task.v, tuple(sets[first_idx])))
                elif not task.done:
                    pool.push(task)

        stats.pool_pushes += pool.n_pushes
        stats.pool_pops += pool.n_pops
        stats.pool_peak = max(stats.pool_peak, pool.peak_size)
        return hits

    return drive_skeleton(n_nodes, search, group_endpoints, max_depth, recorder)
