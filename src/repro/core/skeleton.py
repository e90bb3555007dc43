"""Skeleton phase of PC-stable / Fast-BNS (Algorithm 1 of the paper).

One engine drives every sequential variant through three switches that map
one-to-one onto the paper's optimisations:

``group_endpoints``
    ``True`` (Fast-BNS): one work item per undirected edge, conditioning
    sets drawn from side 1 (``adj(u) \\ {v}``) then side 2
    (``adj(v) \\ {u}``); side 2 is skipped once side 1 accepts independence.
    ``False`` (original PC-stable work decomposition): two independent work
    items per edge, one per direction, neither aware of the other's outcome
    until the end of the depth (the deferred-removal semantics a
    parallel-safe implementation without grouping must use — this is what
    the paper's ``S_grouping = 2 / (2 - rho_d)`` analysis assumes).

``gs``
    Group size: how many CI tests a work item executes before re-deciding.
    All ``gs`` tests of a group run before the decision, so ``gs > 1``
    introduces redundant tests (the Fig. 4 trade-off) while letting the
    tester reuse the encoded X/Y columns across the group.

``onthefly``
    ``True``: conditioning sets are regenerated from the progress counter by
    combination unranking (no subset storage).  ``False``: every edge's full
    subset list is materialised up front (the memory-hungry baseline);
    results are identical, only memory/bookkeeping differ and are reported
    in :class:`~repro.core.result.SkeletonStats`.

Both settings of every switch produce the *same* skeleton and separating
sets (property-tested), because the decision logic — first accepting set in
side-1-then-side-2 order wins — is shared.

Edge removals are applied at the end of each depth.  Within a depth this is
behaviourally identical to immediate removal (conditioning sets come from
the depth's frozen snapshot and every edge is an independent work item) and
it makes the engine's output invariant to work-item scheduling order, which
is exactly the property the parallel backends rely on.  The depth loop
itself — termination, the per-depth task snapshot, deferred removals with
the lowest-work-item-rank tie-break, and the stats roll-up — is
:func:`drive_skeleton`, shared by every scheme: the sequential engine, the
CI- and edge-level backends each pass it their own per-depth search, and
the sample-level backend is this engine at ``gs=1`` over a sample-sliced
tester.

That invariance is also what lets the sequential engine run each depth as
*rounds*: a round pops up to :data:`ROUND_CAP` ready work items, takes each
one's next ``gs``-group and evaluates all of them in one
``test_groups`` call, so the fused kernel builds the tables of many edges
per invocation even at ``gs=1`` (Sec. IV-B's grouping argument applied one
level up, across edges).  Verdicts, deferred removals and the trace are
applied exactly as a one-edge-at-a-time loop would apply them.

The tail of a depth is *thin*: a few edges with many tests left, each
needing one round per group.  A round that pops every live task and holds
fewer than :data:`SPEC_BELOW` of them is thin, and there each task
contributes its next :data:`LOOKAHEAD` groups instead of one.  The pops of
the following one-group rounds are known in advance — the same tasks, in
the same order, until each accepts or runs out — so
:func:`~repro.citests.base.evaluate_prefix` evaluates them all at once and
keeps, per task, every group up to and including the first accepting one.
The discarded groups leave no trace: test counts, redundancy, pool
statistics, the trace, tester counters and stats-cache events are those of
the one-group rounds (Fig. 4's redundant tests, computed but never
committed).
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..citests.base import ConditionalIndependenceTest, CITestResult, evaluate_prefix
from ..graphs.undirected import UndirectedGraph
from .edges import EdgeTask
from .result import DepthStats, SkeletonStats
from .sepsets import SepSetStore
from .trace import TestRecord, TraceRecorder
from .workpool import WorkPool

__all__ = [
    "learn_skeleton",
    "drive_skeleton",
    "Hit",
    "DepthSearch",
    "build_depth_tasks",
    "depth_has_work",
    "ROUND_CAP",
    "SPEC_BELOW",
    "LOOKAHEAD",
]

#: Most work items one round evaluates in a single ``test_groups`` call.
#: Bounds a round's live results and pending tables, so even munin3's
#: ~541k depth-0 pairs stream through in rounds of this size; at alarm
#: scale (666 pairs) depth 0 takes one round.  The fused kernel splits a
#: round into cache-sized waves itself, so a larger cap only saves calls.
ROUND_CAP = 1024

#: A round popping every live task is thin (speculative) below this many
#: tasks.  Wider rounds already fill the kernel, and their tasks are
#: mostly depth-opening groups, where a lookahead would mostly be wasted.
SPEC_BELOW = 64

#: Groups per task in a thin round.  On alarm at gs=1 the depth tails
#: then take ~90 kernel calls per learn instead of ~490, for ~2% extra
#: (discarded) tests.
LOOKAHEAD = 8


def build_depth_tasks(
    graph: UndirectedGraph,
    depth: int,
    group_endpoints: bool,
) -> list[EdgeTask]:
    """Work items of one depth from the graph's adjacency snapshot.

    Grouped mode yields one task per edge; ungrouped mode yields one task
    per *direction* (side 2 empty / side 1 empty respectively) except at
    depth 0 where the marginal test is unique either way.
    """
    snapshot = graph.adjacency_snapshot()
    tasks: list[EdgeTask] = []
    for u, v in sorted(graph.edges()):
        side1 = tuple(sorted(snapshot[u] - {v}))
        side2 = tuple(sorted(snapshot[v] - {u}))
        if group_endpoints or depth == 0:
            task = EdgeTask(u, v, side1, side2, depth)
            if task.total_tests > 0:
                tasks.append(task)
        else:
            t1 = EdgeTask(u, v, side1, (), depth)
            if t1.total_tests > 0:
                tasks.append(t1)
            t2 = EdgeTask(u, v, (), side2, depth)
            if t2.total_tests > 0:
                tasks.append(t2)
    return tasks


def depth_has_work(graph: UndirectedGraph, depth: int) -> bool:
    """Continuation check of Algorithm 1 line 20: some pair ``(u, v)`` must
    still satisfy ``|adj(u) \\ {v}| >= depth`` (either direction)."""
    for u, v in graph.edges():
        if graph.degree(u) - 1 >= depth or graph.degree(v) - 1 >= depth:
            return True
    return False


def _test_records(
    task: EdgeTask, results: list[CITestResult], tester: ConditionalIndependenceTest
) -> list[TestRecord]:
    """Simulator records of one executed group (table size per test)."""
    depth = task.depth
    dataset = getattr(tester, "dataset", None)
    if dataset is None:
        return [TestRecord(depth=depth, m=1, cells=0, independent=r.independent) for r in results]
    m = dataset.n_samples
    rxy = dataset.arity(task.u) * dataset.arity(task.v)
    records = []
    for res in results:
        nz = 1
        for var in res.s:
            nz *= dataset.arity(var)
        cells = rxy * min(nz, max(m, 1))
        records.append(TestRecord(depth=depth, m=m, cells=cells, independent=res.independent))
    return records


#: One accepting set found by a depth search: ``(work_item_rank, u, v,
#: sepset)``.  Per edge, the hit of the lowest work-item rank wins.
Hit = tuple[int, int, int, tuple[int, ...]]

#: A scheme's search body: runs one depth's CI tests over the snapshot's
#: work items (in :func:`build_depth_tasks` order, which defines the
#: ranks), bills its tests to the depth's stats (and any pool counts to
#: the run's), and returns its hits.
DepthSearch = Callable[[list[EdgeTask], DepthStats, SkeletonStats], list[Hit]]


def drive_skeleton(
    n_nodes: int,
    search: DepthSearch,
    group_endpoints: bool = True,
    max_depth: int | None = None,
    recorder: TraceRecorder | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Algorithm 1's depth loop, shared by every skeleton scheme.

    Per depth: stop past ``max_depth``, on an empty graph or when no edge
    has enough neighbours left (:func:`depth_has_work`); otherwise snapshot
    the work items, let ``search`` run the depth's tests, then remove every
    edge with a hit — the lowest-rank hit's set is its sepset — and roll
    the depth's stats up into the run's.  The schemes differ only in
    ``search``, i.e. in how a depth's tests are scheduled.
    """
    t_start = time.perf_counter()
    graph = UndirectedGraph.complete(n_nodes)
    sepsets = SepSetStore()
    stats = SkeletonStats()

    depth = 0
    while (
        (max_depth is None or depth <= max_depth)
        and graph.n_edges > 0
        and (depth == 0 or depth_has_work(graph, depth))
    ):
        d_stats = DepthStats(depth=depth, n_edges_start=graph.n_edges)
        t_depth = time.perf_counter()
        if recorder is not None:
            recorder.begin_depth(depth, graph.n_edges)

        tasks = build_depth_tasks(graph, depth, group_endpoints)
        best: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        for rank, u, v, sepset in search(tasks, d_stats, stats):
            prev = best.get((u, v))
            if prev is None or rank < prev[0]:
                best[u, v] = (rank, sepset)
        # Apply removals (deferred; see module docstring).
        for (u, v), (_rank, sepset) in best.items():
            sepsets.record(u, v, sepset)
            graph.remove_edge(u, v)
            if recorder is not None:
                recorder.mark_removed(u, v)
        d_stats.n_edges_removed = len(best)
        d_stats.elapsed_s = time.perf_counter() - t_depth
        stats.depths.append(d_stats)
        stats.n_tests += d_stats.n_tests
        stats.n_redundant_tests += d_stats.n_redundant_tests
        stats.n_groups += d_stats.n_groups
        if recorder is not None:
            recorder.end_depth(d_stats.n_edges_removed)
        depth += 1

    stats.elapsed_s = time.perf_counter() - t_start
    return graph, sepsets, stats


def learn_skeleton(
    tester: ConditionalIndependenceTest,
    n_nodes: int,
    gs: int = 1,
    group_endpoints: bool = True,
    onthefly: bool = True,
    max_depth: int | None = None,
    recorder: TraceRecorder | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Learn the skeleton with the sequential engine.

    Parameters are documented in the module docstring; ``max_depth`` caps
    the conditioning-set size (``None`` runs to the natural PC-stable
    termination).
    """
    if gs < 1:
        raise ValueError("gs must be >= 1")
    if n_nodes < 0:
        raise ValueError("n_nodes must be >= 0")

    def search(tasks: list[EdgeTask], d_stats: DepthStats, stats: SkeletonStats) -> list[Hit]:
        rank = {id(t): i for i, t in enumerate(tasks)}
        materialised: list[list[tuple[int, ...]]] | None = None
        if not onthefly:
            materialised = [task.materialised_sets() for task in tasks]
            stats.materialised_set_ints += sum(len(s) for sets in materialised for s in sets)
        # Per-task group records, replayed to the recorder in task order at
        # depth end.  An ungrouped edge has two work items that may share a
        # round; recording as they run would interleave their groups in the
        # edge's record, unlike the one-edge-at-a-time loop's trace.
        traced: list[list[list[TestRecord]]] | None = (
            [[] for _ in tasks] if recorder is not None else None
        )

        pool = WorkPool()
        pool.push_many(tasks[::-1])

        hits: list[Hit] = []
        while pool:
            batch = pool.pop_many(ROUND_CAP)
            width = gs * LOOKAHEAD if not pool and len(batch) < SPEC_BELOW else gs
            if materialised is None:
                items = [(task.u, task.v, task.next_group(width)) for task in batch]
            else:
                items = []
                for task in batch:
                    start = task.progress
                    sets = materialised[rank[id(task)]][start : start + width]
                    items.append((task.u, task.v, sets))
            unfinished = []
            n_tests = n_groups = 0
            for task, kept in zip(batch, evaluate_prefix(tester, items, gs), strict=True):
                n_kept = len(kept)
                task.advance(n_kept)
                n_tests += n_kept
                if n_kept <= gs:
                    groups = [kept]
                else:
                    groups = [kept[b : b + gs] for b in range(0, n_kept, gs)]
                    # Every kept group past the first stands for one more
                    # one-group round: a pop, and a push back before it.
                    pool.count_cycles(len(groups) - 1)
                n_groups += len(groups)
                if traced is not None:
                    for results in groups:
                        traced[rank[id(task)]].append(_test_records(task, results, tester))
                last = groups[-1]
                accepts = [r.independent for r in last]
                if True in accepts:
                    first_idx = accepts.index(True)
                    # Tests executed after the accepting one (within its
                    # group) are the gs redundancy of Fig. 4.
                    d_stats.n_redundant_tests += len(last) - 1 - first_idx
                    hits.append((rank[id(task)], task.u, task.v, last[first_idx].s))
                elif not task.done:
                    unfinished.append(task)
            d_stats.n_tests += n_tests
            d_stats.n_groups += n_groups
            # Pushed back lowest rank on top: rounds sweep items in order.
            pool.push_many(unfinished[::-1])

        if traced is not None:
            for task, groups in zip(tasks, traced, strict=True):
                for records in groups:
                    recorder.record_group(task.u, task.v, task.total_tests, records)
        stats.pool_pushes += pool.n_pushes
        stats.pool_pops += pool.n_pops
        return hits

    graph, sepsets, stats = drive_skeleton(n_nodes, search, group_endpoints, max_depth, recorder)
    counters = getattr(tester, "counters", None)
    if counters is not None:
        stats.counters = counters.snapshot()
    return graph, sepsets, stats
