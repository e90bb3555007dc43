"""Round engine of the sequential skeleton (:mod:`repro.core.skeleton`).

Each depth runs as rounds: up to ``ROUND_CAP`` ready work items, one
``gs``-group each, evaluated in one ``test_groups`` call.  Rounds may only
change how many kernel calls a learn makes: skeleton, sepsets, test counts
and the recorded trace must be those of the CI-level scheduler and of a
one-edge-at-a-time loop (which is the engine at ``ROUND_CAP = 1``).

Thin rounds (every live task popped, fewer than ``SPEC_BELOW`` of them)
evaluate ``LOOKAHEAD`` groups per task and keep a prefix.  That may only
change the kernel call count too: every observable — stats, counters,
trace, stats-cache counters and LRU order — must equal the engine with
speculation off (``SPEC_BELOW = 0``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.citests.chisquare import ChiSquareTest
from repro.citests.gsquare import GSquareTest
from repro.citests.mutual_info import MutualInformationTest
from repro.citests.oracle import OracleCITest
from repro.core import skeleton as skel
from repro.core.skeleton import learn_skeleton
from repro.core.trace import TraceRecorder
from repro.datasets.sampling import forward_sample
from repro.engine.session import LearningSession
from repro.engine.statscache import SufficientStatsCache
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
    kept: list[list] = []
    fused = tester.test_groups

    def spy(items, **kwargs):
        calls.append(list(items))
        kept.append(fused(items, **kwargs))
        return kept[-1]

    tester.test_groups = spy
    first_round: dict[int, int] = {}
    build = skel.build_depth_tasks

    def count_tasks(graph, depth, group_endpoints):
        tasks = build(graph, depth, group_endpoints)
        first_round[depth] = min(len(tasks), skel.ROUND_CAP)
        return tasks

    monkeypatch.setattr(skel, "build_depth_tasks", count_tasks)
    _, _, stats = learn_skeleton(tester, data.n_variables, gs=1)

    # Thin rounds evaluate several groups per item and keep a prefix: the
    # kept groups (gs=1: kept tests) are the one-group rounds' groups.
    assert sum(len(res) for out in kept for res in out) == stats.n_groups == stats.n_tests
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


# ---------------------------------------------------------------------- #
# speculative thin rounds
# ---------------------------------------------------------------------- #
SPEC_GRID = [(la, below) for la in (1, 2, 8, 64) for below in (0, 64, 10**9)]


def _stats_doc(stats):
    doc = dataclasses.asdict(stats)
    doc.pop("elapsed_s")
    for depth in doc["depths"]:
        depth.pop("elapsed_s")
    return doc


def _cache_doc(cache):
    return dataclasses.asdict(cache.stats()), list(cache._entries)


def _spec(monkeypatch, lookahead, below):
    monkeypatch.setattr(skel, "LOOKAHEAD", lookahead)
    monkeypatch.setattr(skel, "SPEC_BELOW", below)


TESTERS = {
    "g2": lambda d: GSquareTest(d),
    "chi2": lambda d: ChiSquareTest(d),
    "g2-cached": lambda d: GSquareTest(d, stats_cache=SufficientStatsCache(6_000)),
    "mi": lambda d: MutualInformationTest(d),
    "mi-threshold": lambda d: MutualInformationTest(d, mode="threshold"),
}


def _observed(data, kind, **kwargs):
    tester = TESTERS[kind](data)
    recorder = TraceRecorder()
    graph, sepsets, stats = learn_skeleton(
        tester, data.n_variables, recorder=recorder, **kwargs
    )
    builder = getattr(tester, "_builder", None)
    return (
        sorted(graph.edges()),
        sepsets.as_dict(),
        _stats_doc(stats),
        recorder.depths,
        None if builder is None else _cache_doc(builder.cache),
    )


@pytest.mark.parametrize(
    "kind, gs, grouped",
    [
        ("g2", 1, True),
        ("g2", 3, True),
        ("g2", 1, False),
        ("g2", 3, False),
        ("chi2", 1, True),
        ("chi2", 3, False),
        ("g2-cached", 1, True),
        ("g2-cached", 1, False),
        ("g2-cached", 3, True),
        ("mi", 1, True),
        ("mi-threshold", 1, True),
        ("mi-threshold", 3, False),
    ],
)
def test_speculation_is_invisible(random_data, monkeypatch, kind, gs, grouped):
    _spec(monkeypatch, 8, 0)
    want = _observed(random_data, kind, gs=gs, group_endpoints=grouped)
    for lookahead, below in SPEC_GRID:
        _spec(monkeypatch, lookahead, below)
        got = _observed(random_data, kind, gs=gs, group_endpoints=grouped)
        assert got == want, (lookahead, below)


def test_mi_threshold_prefix_follows_its_own_rule(random_data, monkeypatch):
    # The kept prefix must stop at MI's accepts; stopping at G^2's would
    # change the test counts of edges where the two rules disagree.
    _spec(monkeypatch, 8, 10**9)
    mi = _observed(random_data, "mi-threshold", gs=1)
    g2 = _observed(random_data, "g2", gs=1)
    assert mi[2]["n_tests"] != g2[2]["n_tests"]
    _spec(monkeypatch, 1, 0)
    assert _observed(random_data, "mi-threshold", gs=1) == mi


@pytest.mark.parametrize("gs", [1, 3])
def test_testers_without_test_groups_stop_at_first_accept(monkeypatch, gs):
    # The d-separation oracle has no fused kernel: evaluate_prefix runs one
    # test_group per group and stops at the first accept, so it never
    # evaluates (or counts) a test the one-group rounds would not run.
    net = random_network(12, 20, rng=5, max_parents=3)

    def run():
        tester = OracleCITest.from_network(net, n_samples=100)
        recorder = TraceRecorder()
        graph, sepsets, stats = learn_skeleton(tester, net.n_nodes, gs=gs, recorder=recorder)
        return sorted(graph.edges()), sepsets.as_dict(), _stats_doc(stats), recorder.depths

    _spec(monkeypatch, 8, 0)
    want = run()
    _spec(monkeypatch, 8, 10**9)
    assert run() == want


def _session_run(data, budget, store):
    kwargs = {} if budget is None else {"cache_bytes": budget}
    steps = []
    with LearningSession(data, store=store, **kwargs) as session:
        for request in (
            {"alpha": 0.05, "gs": 1},
            {"alpha": 0.01, "gs": 3},
            {"alpha": 0.05, "gs": 1, "test": "mi"},
            {"alpha": 0.1, "gs": 8, "test": "chi2", "max_depth": 2},
        ):
            res = session.learn(**request)
            steps.append((sorted(res.skeleton.edges()), _stats_doc(res.stats)))
            steps.append(_cache_doc(session.cache))
        steps.append(session.markov_blanket(3).blanket)
        steps.append(_cache_doc(session.cache))
    return steps


@pytest.mark.parametrize("spill", [False, True])
@pytest.mark.parametrize("budget", [30_000, 200_000, None])
def test_session_cache_replay_is_exact(random_data, monkeypatch, tmp_path, budget, spill):
    def store(name):
        return str(tmp_path / f"{name}.sqlite") if spill else None

    _spec(monkeypatch, 8, 0)
    want = _session_run(random_data, budget, store("ref"))
    for lookahead, below in [(2, 64), (8, 64), (8, 10**9), (64, 10**9)]:
        _spec(monkeypatch, lookahead, below)
        got = _session_run(random_data, budget, store(f"{lookahead}-{below}"))
        assert got == want, (lookahead, below)


def test_alarm_gs1_call_budget():
    data = forward_sample(get_network("alarm"), 2000, rng=1)
    tester = GSquareTest(data)
    calls: list[int] = []
    fused = tester.test_groups

    def spy(items, **kwargs):
        calls.append(sum(len(sets) for _, _, sets in items))
        return fused(items, **kwargs)

    tester.test_groups = spy
    _, _, stats = learn_skeleton(tester, data.n_variables, gs=1)
    assert len(calls) <= 120
    # The discarded speculative tests stay a small fraction.
    assert stats.n_tests <= sum(calls) <= 1.05 * stats.n_tests
