"""Score memos on stats-cache entries.

Every cached table carries the score of the last tester that scored it,
``(kind, statistic, dof, p_value, n_logs)``; a hit by a tester of the same
statistic and dof rule answers from the memo and decides ``p > alpha``
fresh.  Covered here: memo-answered results and work counters equal
uncached testers for every statistic, dof rule and alpha sharing one
cache; memos never cross kinds; promoted spill entries are re-scored; a
relearn at a new alpha computes nothing; and the looped oracle replays
speculative rounds in the fused commit's order.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.citests.tablebase as tablebase
import repro.engine.session as session_mod
import repro.engine.statscache as statscache
from repro.citests.chisquare import ChiSquareTest
from repro.citests.gsquare import GSquareTest
from repro.citests.mutual_info import MutualInformationTest
from repro.citests.tablebase import memo_kind
from repro.core.learn import learn_structure, make_tester
from repro.core.markov_blanket import iamb
from repro.datasets.sampling import forward_sample
from repro.engine import LearningSession, SufficientStatsCache
from repro.networks.catalog import get_network

TESTS = ("g2", "chi2", "mi", "mi-threshold")
N_QUERY_VARS = 6  # a small pool so queries collide on cached tables


def _tester(data, name, dof, alpha, cache=None, fused=True):
    if name == "mi-threshold":
        return MutualInformationTest(
            data,
            alpha=alpha,
            mode="threshold",
            mi_threshold=0.002,
            dof_adjust=dof,
            stats_cache=cache,
            batch_groups=fused,
        )
    return make_tester(
        data, name, alpha=alpha, dof_adjust=dof, stats_cache=cache, batch_groups=fused
    )


def _query(seed: int, kind: str):
    rng = np.random.default_rng(seed)

    def item():
        x, y = (int(v) for v in rng.choice(N_QUERY_VARS, 2, replace=False))
        rest = [v for v in range(N_QUERY_VARS) if v not in (x, y)]
        sets = []
        for _ in range(int(rng.integers(1, 5))):
            d = int(rng.integers(0, 3))
            sets.append(tuple(sorted(int(v) for v in rng.choice(rest, d, replace=False))))
        return x, y, sets

    if kind == "groups":
        prefix = [None, 1, 2][int(rng.integers(0, 3))]
        return [item() for _ in range(int(rng.integers(1, 4)))], prefix
    return item()


def _run(tester, kind, query):
    if kind == "test":
        x, y, sets = query
        return [tester.test(x, y, sets[0])]
    if kind == "group":
        return tester.test_group(*query)
    items, prefix = query
    return tester.test_groups(items, prefix=prefix)


def _work(counters):
    return (
        counters.n_tests,
        counters.table_cells,
        counters.log_ops,
        dict(counters.per_depth_tests),
    )


_OPS = st.lists(
    st.tuples(
        st.sampled_from(TESTS),
        st.sampled_from(["structural", "slices"]),
        st.sampled_from([0.01, 0.05, 0.2]),
        st.booleans(),
        st.sampled_from(["test", "group", "groups"]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=12,
)


class TestSharedCacheMemo:
    @given(_OPS)
    @settings(max_examples=40, deadline=None)
    def test_memo_hits_equal_uncached_testers(self, small_random_data, ops):
        data = small_random_data
        cache = SufficientStatsCache()
        cached: dict[tuple, object] = {}
        refs: dict[tuple, object] = {}
        for name, dof, alpha, fused, kind, seed in ops:
            key = (name, dof, alpha, fused)
            if key not in cached:
                cached[key] = _tester(data, name, dof, alpha, cache, fused)
                refs[key] = _tester(data, name, dof, alpha, fused=False)
            query = _query(seed, kind)
            assert _run(cached[key], kind, query) == _run(refs[key], kind, query)
        for key, tester in cached.items():
            assert _work(tester.counters) == _work(refs[key].counters)
        # Every memo is labelled with the kind that computed it: scoring
        # the entry's table afresh with that kind gives the memo back.
        kinds = {
            memo_kind(cls, dof): (cls, dof)
            for cls in (GSquareTest, ChiSquareTest)
            for dof in ("structural", "slices")
        }
        for value, _nbytes, _kind, *memo in cache._entries.values():
            kind, *score = memo
            cls, dof = kinds[kind]
            scorer = cls(data, dof_adjust=dof)
            counts, nz = value
            rx, ry = counts.shape[1:]
            res, n_logs = scorer._score(0, 1, (), counts, nz, rx, ry)
            assert score == [res.statistic, res.dof, res.p_value, n_logs]

    @pytest.mark.parametrize("fused", [True, False])
    def test_memo_never_answers_another_kind(self, asia_data, fused):
        cache = SufficientStatsCache()
        key = ("t", 2, 0, 1)
        scored = []
        for cls, dof in [
            (GSquareTest, "structural"),
            (ChiSquareTest, "structural"),
            (GSquareTest, "slices"),
            (GSquareTest, "structural"),
        ]:
            tester = cls(asia_data, dof_adjust=dof, stats_cache=cache, batch_groups=fused)
            got = tester.test_group(0, 1, [(2,), (2,)])[0]
            ref = cls(asia_data, dof_adjust=dof).test(0, 1, (2,))
            assert got == ref
            assert cache._entries[key][3] == memo_kind(cls, dof)
            scored.append(got.statistic)
        assert scored[0] != scored[1]  # G^2 and X^2 differ on this table
        assert scored[3] == scored[0]


class TestMemoLifecycle:
    def test_relearn_at_new_alpha_computes_nothing(self, small_random_data, monkeypatch):
        calls = []

        def counted(real, name):
            @functools.wraps(real)
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        # gs=64 puts every (edge, depth) in one group, so no set is ever
        # evaluated speculatively and discarded (a discarded set leaves no
        # cache entry, so a later call builds it again).
        for fused, gs in ((True, 64), (False, 1)):
            with monkeypatch.context() as mp:
                mp.setattr(
                    session_mod, "make_tester", functools.partial(make_tester, batch_groups=fused)
                )
                with LearningSession(small_random_data) as s:
                    s.learn(gs=gs)
                    for owner, name in (
                        (tablebase, "column_counts"),
                        (tablebase, "ci_counts"),
                        (statscache, "ci_counts"),
                        (GSquareTest, "_elementwise"),
                        (GSquareTest, "_stat_from_counts"),
                    ):
                        mp.setattr(owner, name, counted(getattr(owner, name), name))
                    got = s.relearn(alpha=0.01, gs=gs)
            assert calls == []
            want = learn_structure(small_random_data, alpha=0.01, gs=gs)
            assert got.cpdag == want.cpdag

    def test_promoted_spill_entries_rescore(self, tmp_path):
        data = forward_sample(get_network("alarm"), 1000, rng=7)
        targets = range(8)
        with LearningSession(data, store=str(tmp_path / "s.sqlite"), cache_bytes=30_000) as s:
            learned = s.learn()
            blankets = [s.markov_blanket(t).blanket for t in targets]
            relearned = s.relearn(alpha=0.01, gs=3)
            stats = s.cache_stats()
            memos = [entry[3:] or None for entry in s.cache._entries.values()]
        assert stats.spill_promotes > 0
        # A promoted entry arrives without its memo; the test that
        # promoted it scored it again, so every resident entry holds one.
        assert memos and all(memo is not None for memo in memos)
        assert learned.cpdag == learn_structure(data).cpdag
        assert relearned.cpdag == learn_structure(data, alpha=0.01, gs=3).cpdag
        ref = make_tester(data, "g2")
        n = data.n_variables
        assert blankets == [
            iamb(ref, n, t, max_conditioning=3).blanket for t in targets
        ]


class TestLoopedRoundOrder:
    @pytest.mark.parametrize("budget", [30_000, 200_000])
    def test_looped_session_matches_fused_cache_events(self, budget, monkeypatch):
        # Speculative rounds (``test_groups(prefix=gs)``) commit group j of
        # every live item before group j + 1; the looped oracle evaluates
        # in the same order, so even a tight budget evicts identically.
        data = forward_sample(get_network("alarm"), 1000, rng=7)

        def run():
            with LearningSession(data, cache_bytes=budget) as s:
                s.learn(gs=1)
                for t in range(8):
                    s.markov_blanket(t)
                s.relearn(alpha=0.01, gs=3)
                s.learn()
                return s.cache_stats(), s.counters()

        fused_stats, fused_counters = run()
        monkeypatch.setattr(
            session_mod, "make_tester", functools.partial(make_tester, batch_groups=False)
        )
        looped_stats, looped_counters = run()
        assert fused_stats.evictions > 0
        assert looped_stats == fused_stats
        assert looped_counters == fused_counters
