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
is exactly the property the parallel backends rely on.

That invariance is also what lets the sequential engine run each depth as
*rounds*: a round pops up to :data:`ROUND_CAP` ready work items, takes each
one's next ``gs``-group and evaluates all of them in one
``test_groups`` call, so the fused kernel builds the tables of many edges
per invocation even at ``gs=1`` (Sec. IV-B's grouping argument applied one
level up, across edges).  Verdicts, deferred removals and the trace are
applied exactly as a one-edge-at-a-time loop would apply them.
"""

from __future__ import annotations

import time

from ..citests.base import ConditionalIndependenceTest, CITestResult, evaluate_groups
from ..graphs.undirected import UndirectedGraph
from .edges import EdgeTask
from .result import DepthStats, SkeletonStats
from .sepsets import SepSetStore
from .trace import TestRecord, TraceRecorder
from .workpool import WorkPool

__all__ = ["learn_skeleton", "build_depth_tasks", "depth_has_work", "ROUND_CAP"]

#: Most work items one round evaluates in a single ``test_groups`` call.
#: Bounds a round's live results and pending tables, so even munin3's
#: ~541k depth-0 pairs stream through in rounds of this size; at alarm
#: scale (666 pairs) depth 0 takes one round.  The fused kernel splits a
#: round into cache-sized waves itself, so a larger cap only saves calls.
ROUND_CAP = 1024


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

    t_start = time.perf_counter()
    graph = UndirectedGraph.complete(n_nodes)
    sepsets = SepSetStore()
    stats = SkeletonStats()

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
        if recorder is not None:
            recorder.begin_depth(depth, graph.n_edges)

        tasks = build_depth_tasks(graph, depth, group_endpoints)
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
        for task in reversed(tasks):
            pool.push(task)

        # first accepting conditioning set per edge, in work-item order:
        # (edge, item_rank) -> sepset; applied at depth end.
        found: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}

        while pool:
            batch = pool.pop_many(ROUND_CAP)
            items = []
            for task in batch:
                if materialised is None:
                    sets = task.next_group(gs)
                else:
                    start = task.progress
                    sets = materialised[rank[id(task)]][start : start + gs]
                items.append((task.u, task.v, sets))
            unfinished = []
            for task, (_, _, sets), results in zip(
                batch, items, evaluate_groups(tester, items), strict=True
            ):
                n_exec = len(sets)
                task.advance(n_exec)
                d_stats.n_tests += n_exec
                d_stats.n_groups += 1
                if traced is not None:
                    traced[rank[id(task)]].append(_test_records(task, results, tester))
                first_idx = next((i for i, r in enumerate(results) if r.independent), -1)
                if first_idx >= 0:
                    # Tests executed after the accepting one (within this
                    # group) are the gs redundancy of Fig. 4.
                    d_stats.n_redundant_tests += n_exec - 1 - first_idx
                    found.setdefault((task.u, task.v), []).append(
                        (rank[id(task)], results[first_idx].s)
                    )
                elif not task.done:
                    unfinished.append(task)
            # Pushed back lowest rank on top: rounds sweep items in order.
            for task in reversed(unfinished):
                pool.push(task)

        if recorder is not None:
            for task, groups in zip(tasks, traced, strict=True):
                for records in groups:
                    recorder.record_group(task.u, task.v, task.total_tests, records)
        # Apply removals (deferred; see module docstring).
        for (u, v), hits in found.items():
            hits.sort(key=lambda pair: pair[0])
            sepsets.record(u, v, hits[0][1])
            graph.remove_edge(u, v)
            if recorder is not None:
                recorder.mark_removed(u, v)
        d_stats.n_edges_removed = len(found)
        d_stats.elapsed_s = time.perf_counter() - t_depth
        stats.depths.append(d_stats)
        stats.n_tests += d_stats.n_tests
        stats.n_redundant_tests += d_stats.n_redundant_tests
        stats.n_groups += d_stats.n_groups
        stats.pool_pushes += pool.n_pushes
        stats.pool_pops += pool.n_pops
        if recorder is not None:
            recorder.end_depth(d_stats.n_edges_removed)

        depth += 1

    stats.elapsed_s = time.perf_counter() - t_start
    counters = getattr(tester, "counters", None)
    if counters is not None:
        stats.counters = counters.snapshot()
    return graph, sepsets, stats
