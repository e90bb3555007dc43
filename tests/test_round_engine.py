"""Round engine of the sequential skeleton (:mod:`repro.core.skeleton`).

Each depth runs as rounds: up to ``ROUND_CAP`` ready work items, one
``gs``-group each, evaluated in one ``test_groups`` call.  Rounds may only
change how many kernel calls a learn makes: skeleton, sepsets, test counts
and the recorded trace must be those of the CI-level scheduler and of a
one-edge-at-a-time loop (which is the engine at ``ROUND_CAP = 1``).
"""

from __future__ import annotations

import pytest

from repro.citests.gsquare import GSquareTest
from repro.core import skeleton as skel
from repro.core.skeleton import learn_skeleton
from repro.core.trace import TraceRecorder
from repro.datasets.sampling import forward_sample
from repro.networks.catalog import get_network
from repro.networks.generators import random_network
from repro.parallel import WorkerPool
from repro.parallel.ci_level import ci_level_skeleton

GROUP_SIZES = (1, 3, 8)


def _summary(graph, sepsets, stats):
    return sorted(graph.edges()), sepsets.as_dict(), stats.n_tests, stats.n_redundant_tests


@pytest.fixture(scope="module", params=[3, 11])
def random_data(request):
    net = random_network(10, 15, rng=request.param, max_parents=3)
    return forward_sample(net, 600, rng=request.param + 100)


@pytest.fixture(scope="module")
def ci_level_reference(random_data):
    out = {}
    with WorkerPool(random_data, 2, backend="thread") as pool:
        for gs in GROUP_SIZES:
            for grouped in (True, False):
                out[gs, grouped] = _summary(
                    *ci_level_skeleton(
                        pool, random_data.n_variables, gs=gs, group_endpoints=grouped
                    )
                )
    return out


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("onthefly", [True, False])
@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("gs", GROUP_SIZES)
def test_rounds_match_ci_level(
    random_data, ci_level_reference, monkeypatch, gs, grouped, onthefly, cap
):
    if cap is not None:
        monkeypatch.setattr(skel, "ROUND_CAP", cap)
    got = learn_skeleton(
        GSquareTest(random_data),
        random_data.n_variables,
        gs=gs,
        group_endpoints=grouped,
        onthefly=onthefly,
    )
    assert _summary(*got) == ci_level_reference[gs, grouped]


def _traced(data, monkeypatch, cap, **kwargs):
    """Learn with a recorder; also return each depth's task edge order."""
    orders = []
    build = skel.build_depth_tasks

    def spy(graph, depth, group_endpoints):
        tasks = build(graph, depth, group_endpoints)
        orders.append([(t.u, t.v) for t in tasks])
        return tasks

    monkeypatch.setattr(skel, "build_depth_tasks", spy)
    monkeypatch.setattr(skel, "ROUND_CAP", cap)
    recorder = TraceRecorder()
    learn_skeleton(GSquareTest(data), data.n_variables, recorder=recorder, **kwargs)
    monkeypatch.undo()
    return recorder, orders


@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("gs", [1, 3])
def test_trace_follows_task_order(random_data, monkeypatch, gs, grouped):
    rounds, orders = _traced(random_data, monkeypatch, 4, gs=gs, group_endpoints=grouped)
    assert len(rounds.depths) == len(orders)
    for depth, order in zip(rounds.depths, orders, strict=True):
        # Ungrouped depths carry two work items per edge; the trace keeps
        # one record per edge, first seen.
        assert [(e.u, e.v) for e in depth.edges] == list(dict.fromkeys(order))
    # A cap of 1 is the one-edge-at-a-time loop: same trace, record for record.
    one_by_one, _ = _traced(random_data, monkeypatch, 1, gs=gs, group_endpoints=grouped)
    assert rounds.depths == one_by_one.depths


def test_alarm_rounds_fuse_edges(monkeypatch):
    data = forward_sample(get_network("alarm"), 500, rng=1)
    tester = GSquareTest(data)
    calls: list[list[tuple]] = []
    fused = tester.test_groups

    def spy(items):
        calls.append(list(items))
        return fused(items)

    tester.test_groups = spy
    first_round: dict[int, int] = {}
    build = skel.build_depth_tasks

    def count_tasks(graph, depth, group_endpoints):
        tasks = build(graph, depth, group_endpoints)
        first_round[depth] = min(len(tasks), skel.ROUND_CAP)
        return tasks

    monkeypatch.setattr(skel, "build_depth_tasks", count_tasks)
    _, _, stats = learn_skeleton(tester, data.n_variables, gs=1)

    assert sum(len(items) for items in calls) == stats.n_groups
    assert first_round[0] == data.n_variables * (data.n_variables - 1) // 2
    seen: set[int] = set()
    for items in calls:
        depth = len(items[0][2][0])
        if depth not in seen:
            seen.add(depth)
            # A depth's first call carries every ready work item.
            assert len(items) == first_round[depth]
    assert seen == set(first_round)
    assert all(first_round[d] > 1 for d in first_round if d <= 2)
