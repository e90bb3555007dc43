"""Edge-level parallel skeleton phase (the "bnlearn-par" analog).

Each depth statically partitions the frozen edge list into ``n_jobs``
contiguous blocks; every worker processes its block's edges to completion.
This is the coarse-grained scheme the paper criticises: the per-edge CI-test
workload is highly skewed (hub endpoints produce combinatorially more
conditioning sets, and early independence acceptance truncates work
unpredictably), so the depth's wall time is the *slowest block's* time while
other workers idle — no work stealing, no pool.

The depth loop is the shared :func:`~repro.core.skeleton.drive_skeleton`;
this module supplies only the per-depth search, so the output is identical
to the sequential engine (Fast-BNS semantics per edge: endpoint grouping
honoured inside each work item; removal deferred to depth end).

Workers come from the shared :class:`~repro.parallel.backends.WorkerPool`,
so edge-level runs ride the zero-copy shared-memory dataset plane (or its
pickled fallback) exactly like CI-level runs; the group-size machinery
(fixed or adaptive) does not apply here — each worker drives its edge test
by test, which is precisely the coarse-grained behaviour under study.
"""

from __future__ import annotations

from ..core.edges import EdgeTask
from ..core.result import DepthStats, SkeletonStats
from ..core.sepsets import SepSetStore
from ..core.skeleton import Hit, drive_skeleton
from ..core.trace import TraceRecorder
from ..graphs.undirected import UndirectedGraph
from .backends import WorkerPool

__all__ = ["edge_level_skeleton"]


def edge_level_skeleton(
    workers: WorkerPool,
    n_nodes: int,
    group_endpoints: bool = True,
    max_depth: int | None = None,
    recorder: TraceRecorder | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Run the skeleton phase with static edge-level parallelism."""
    if recorder is not None:
        raise ValueError(
            "trace recording requires per-test visibility; use the sequential "
            "engine or the CI-level backend to record traces"
        )

    def search(tasks: list[EdgeTask], d_stats: DepthStats, stats: SkeletonStats) -> list[Hit]:
        # Static block partition: worker k gets the contiguous slice
        # [k * ceil(n/t), ...) — the |Ed| / t dedication of Sec. IV-A.
        results = workers.eval_edges([(t.u, t.v, t.side1, t.side2, t.depth) for t in tasks])
        hits: list[Hit] = []
        for rank, (task, (n_exec, accepting)) in enumerate(zip(tasks, results, strict=True)):
            d_stats.n_tests += n_exec
            d_stats.n_groups += n_exec  # gs = 1 semantics inside workers
            if accepting is not None:
                hits.append((rank, task.u, task.v, tuple(accepting)))
        return hits

    return drive_skeleton(n_nodes, search, group_endpoints, max_depth)
