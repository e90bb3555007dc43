"""Tests for the repro.engine subsystem.

Covers the ISSUE-1 acceptance surface: cached vs. uncached results are
bit-identical (statistics, p-values, CPDAGs, sepsets), the LRU respects
its byte budget, hit/miss counters are exact, and the batch server dedupes
identical requests.
"""

from __future__ import annotations

import gc
import itertools
import json

import numpy as np
import pytest

from repro.citests.base import CITestCounters
from repro.citests.chisquare import ChiSquareTest
from repro.citests.contingency import ci_counts
from repro.citests.gsquare import GSquareTest
from repro.cli import main
from repro.core.learn import learn_structure
from repro.engine import (
    BatchRequest,
    BatchServer,
    LearningSession,
    SufficientStatsCache,
    dataset_fingerprint,
)
from repro.engine.statscache import CachedTableBuilder


# --------------------------------------------------------------------- #
# SufficientStatsCache: LRU byte budget and exact counters
# --------------------------------------------------------------------- #
class TestLRUBudget:
    def _table(self, n_bytes: int) -> np.ndarray:
        return np.zeros(n_bytes // 8, dtype=np.int64)

    def test_byte_budget_respected_and_oldest_evicted(self):
        cache = SufficientStatsCache(max_bytes=1000)
        for i in range(5):
            cache.put(("t", i), self._table(400), 400)
        assert cache.current_bytes <= 1000
        assert cache.current_bytes == 800
        assert cache.evictions == 3
        # Only the two most recent entries survive.
        assert ("t", 3) in cache and ("t", 4) in cache
        assert ("t", 0) not in cache and ("t", 2) not in cache

    def test_get_refreshes_recency(self):
        cache = SufficientStatsCache(max_bytes=1000)
        cache.put("a", self._table(400), 400)
        cache.put("b", self._table(400), 400)
        assert cache.get("a") is not None  # refresh "a": "b" is now coldest
        cache.put("c", self._table(400), 400)
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_oversized_entry_not_admitted(self):
        cache = SufficientStatsCache(max_bytes=100)
        cache.put("big", self._table(800), 800)
        assert "big" not in cache
        assert cache.current_bytes == 0

    def test_replace_same_key_accounts_bytes_once(self):
        cache = SufficientStatsCache(max_bytes=1000)
        cache.put("k", self._table(400), 400)
        cache.put("k", self._table(240), 240)
        assert cache.current_bytes == 240
        assert len(cache) == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SufficientStatsCache(max_bytes=-1)

    def test_put_many_matches_sequential_puts(self):
        """Bulk insert ends with the same contents, bytes and counters as
        the equivalent sequence of single puts (eviction is deferred to
        one end-of-batch sweep, which cannot change the surviving set)."""
        entries = [
            (("t", i), self._table(300), 300, "table") for i in range(6)
        ]
        bulk = SufficientStatsCache(max_bytes=1000)
        bulk.put_many(entries)
        seq = SufficientStatsCache(max_bytes=1000)
        for key, value, nbytes, kind in entries:
            seq.put(key, value, nbytes, kind=kind)
        assert list(bulk._entries) == list(seq._entries)
        assert bulk.current_bytes == seq.current_bytes
        assert (bulk.puts, bulk.evictions) == (seq.puts, seq.evictions)

    def test_cache_pickles_without_lock(self):
        import pickle

        cache = SufficientStatsCache(max_bytes=1000)
        cache.put("k", self._table(400), 400)
        clone = pickle.loads(pickle.dumps(cache))
        assert "k" in clone and clone.current_bytes == 400
        clone.put("k2", self._table(400), 400)  # fresh lock works


class TestExactCounters:
    def test_builder_hit_miss_counts(self, asia_data):
        cache = SufficientStatsCache()
        builder = CachedTableBuilder(asia_data, cache)
        # Three distinct queries: all misses.
        builder.ci_counts(0, 1, ())
        builder.ci_counts(0, 1, (2,))
        builder.ci_counts(0, 1, (2, 3))
        assert (cache.hits, cache.misses) == (0, 3)
        # Exact repeats: direct hits.
        builder.ci_counts(0, 1, (2,))
        builder.ci_counts(0, 1, (2, 3))
        assert (cache.hits, cache.misses) == (2, 3)
        # A query introducing an uncovered variable is a genuine miss.
        counts, nz, from_cache, *_ = builder.ci_counts(0, 4, (5,))
        assert not from_cache and cache.misses == 4
        # Lookups are exact-key: a subset of a cached table is a miss too.
        counts2, nz2, from_cache2, *_ = builder.ci_counts(2, 3, ())
        assert not from_cache2 and (cache.hits, cache.misses) == (2, 5)

    def test_tester_counters_split_hits_and_misses(self, asia_data):
        cache = SufficientStatsCache()
        tester = GSquareTest(asia_data, stats_cache=cache)
        tester.test(0, 1, (2,))
        tester.test(0, 1, (2,))
        c = tester.counters
        assert c.n_tests == 2
        assert (c.cache_hits, c.cache_misses) == (1, 1)
        # A hit must not touch the data: only the miss paid m * (d + 2).
        assert c.data_accesses == asia_data.n_samples * 3

    def test_session_cache_holds_tables_only(self, asia_data, monkeypatch):
        # Learn, blanket and relearn leave nothing but contingency tables
        # in the session cache, and the fused kernel's replayed events
        # hit and miss exactly like the looped per-set path.
        import functools

        import repro.engine.session as session_mod
        from repro.core.learn import make_tester

        def run():
            with LearningSession(asia_data) as s:
                s.learn()
                s.markov_blanket(3)
                s.relearn(alpha=0.01, gs=3)
                entries = dict(s.cache._entries)
                return entries, s.cache_stats()

        entries, fused = run()
        assert entries
        for key, (value, _nbytes, kind, *_memo) in entries.items():
            assert key[0] == "t" and kind == "table"
            counts, nz = value
            assert isinstance(counts, np.ndarray) and counts.shape[0] <= nz
        monkeypatch.setattr(
            session_mod, "make_tester", functools.partial(make_tester, batch_groups=False)
        )
        looped_entries, looped = run()
        assert (fused.hits, fused.misses) == (looped.hits, looped.misses)
        assert sorted(looped_entries) == sorted(entries)

    def test_counters_without_cache_stay_zero(self, asia_data):
        tester = GSquareTest(asia_data)
        tester.test(0, 1, (2,))
        assert tester.counters.cache_hits == 0
        assert tester.counters.cache_misses == 0

    def test_snapshot_and_reset_carry_cache_fields(self):
        c = CITestCounters()
        c.record(depth=1, m=10, cells=8, logs=4, xy_reused=False, from_cache=True)
        c.record(depth=1, m=10, cells=8, logs=4, xy_reused=False, from_cache=False)
        snap = c.snapshot()
        assert (snap.cache_hits, snap.cache_misses) == (1, 1)
        c.reset()
        assert (c.cache_hits, c.cache_misses) == (0, 0)


class TestEntryStorage:
    def _session_state(self, data):
        with LearningSession(data) as s:
            s.learn(gs=1)
            s.markov_blanket(3)
            s.relearn(alpha=0.01, gs=3)
            # A young entry can be examined before the young value tuple
            # it holds, so the collection that untracks the value may
            # leave the entry for the next one.
            gc.collect()
            gc.collect()
            return list(s.cache._entries.items()), s.cache_stats(), s.counters()

    def test_entries_and_memos_leave_the_gc(self, asia_data):
        # Resident tables must cost the cyclic GC nothing: once collected,
        # no entry (memo fields inline) or table value is tracked any more.
        entries, _stats, _counters = self._session_state(asia_data)
        assert entries
        for _key, entry in entries:
            value, _nbytes, _kind, *memo = entry
            assert memo, "every stored table is scored by the test that stored it"
            assert not gc.is_tracked(entry)
            assert not gc.is_tracked(value)

    def test_one_pass_commit_equals_reserve_then_fill(self, asia_data, monkeypatch):
        # Without evictions the one-pass round replay must leave exactly
        # the entries (order, values, memos) and counters that the
        # reserve-then-fill replay leaves.
        fast = self._session_state(asia_data)
        monkeypatch.setattr(
            CachedTableBuilder,
            "_commit_round_fitting",
            CachedTableBuilder._commit_round_evicting,
        )
        slow = self._session_state(asia_data)
        assert [k for k, _ in fast[0]] == [k for k, _ in slow[0]]
        for (_k, a), (_k2, b) in zip(fast[0], slow[0], strict=True):
            np.testing.assert_array_equal(a[0][0], b[0][0])
            assert a[0][1] == b[0][1] and a[1:] == b[1:]
        assert fast[1:] == slow[1:]


# --------------------------------------------------------------------- #
# bit-identical results, cached vs. uncached
# --------------------------------------------------------------------- #
class TestBitIdentical:
    @pytest.mark.parametrize("tester_cls", [GSquareTest, ChiSquareTest])
    def test_statistics_identical_over_query_stream(self, asia_data, tester_cls):
        plain = tester_cls(asia_data)
        cached = tester_cls(asia_data, stats_cache=SufficientStatsCache())
        n = asia_data.n_variables
        queries = []
        for x, y in itertools.combinations(range(min(n, 5)), 2):
            rest = [v for v in range(n) if v not in (x, y)]
            queries += [
                (x, y, ()),
                (x, y, (rest[0],)),
                (x, y, (rest[0], rest[1])),
                (x, y, (rest[0],)),  # repeat: direct hit
                (x, y, ()),  # repeat: direct hit
            ]
        for x, y, s in queries:
            a = plain.test(x, y, s)
            b = cached.test(x, y, s)
            assert a.statistic == b.statistic, (x, y, s)
            assert a.p_value == b.p_value, (x, y, s)
            assert a.dof == b.dof and a.independent == b.independent
        assert cached.counters.cache_hits > 0

    def test_subset_query_builds_fresh(self, asia_data):
        """A sub-tuple of a cached table is built from the data (lookups
        are exact-key) and equals the uncached table byte for byte; its
        repeat is then a direct hit."""
        cache = SufficientStatsCache()
        builder = CachedTableBuilder(asia_data, cache)
        builder.ci_counts(0, 1, (2, 3, 4))
        counts, nz, from_cache, *_ = builder.ci_counts(2, 4, (3,))
        assert not from_cache and (cache.hits, cache.misses) == (0, 2)
        assert builder.ci_counts(2, 4, (3,))[2] and cache.hits == 1
        direct, nz_direct, _ = ci_counts(
            asia_data.column(2),
            asia_data.column(4),
            asia_data.columns((3,)),
            asia_data.arity(2),
            asia_data.arity(4),
            [asia_data.arity(3)],
        )
        assert nz == nz_direct
        np.testing.assert_array_equal(counts, direct)

    def test_session_learn_identical_to_learn_structure(self, asia_data):
        ref = learn_structure(asia_data, method="fast-bns", alpha=0.05, gs=2)
        with LearningSession(asia_data, alpha=0.05) as sess:
            got = sess.learn(gs=2)
            assert sorted(got.skeleton.edges()) == sorted(ref.skeleton.edges())
            assert sorted(got.cpdag.directed_edges()) == sorted(ref.cpdag.directed_edges())
            assert sorted(got.cpdag.undirected_edges()) == sorted(
                ref.cpdag.undirected_edges()
            )
            assert got.sepsets == ref.sepsets

    def test_relearn_reuses_cache_and_matches_fresh_run(self, asia_data):
        with LearningSession(asia_data, alpha=0.05) as sess:
            sess.learn()
            misses_after_first = sess.cache_stats().misses
            got = sess.relearn(alpha=0.01)
            ref = learn_structure(asia_data, method="fast-bns", alpha=0.01)
            assert sorted(got.cpdag.directed_edges()) == sorted(ref.cpdag.directed_edges())
            assert got.sepsets == ref.sepsets
            # The relearn hit the cache (counters moved) and added few
            # fresh tables relative to the first pass.
            assert sess.counters().cache_hits > 0
            assert sess.cache_stats().misses - misses_after_first < misses_after_first

    def test_blanket_on_session_matches_plain_tester(self, asia_data):
        from repro.core.markov_blanket import iamb

        plain = iamb(GSquareTest(asia_data, alpha=0.05), asia_data.n_variables, 2,
                     max_conditioning=3)
        with LearningSession(asia_data, alpha=0.05) as sess:
            sess.learn()  # warm the cache first
            got = sess.markov_blanket(2, algorithm="iamb", max_conditioning=3)
        assert got.blanket == plain.blanket
        assert got.n_tests == plain.n_tests

    def test_parallel_session_matches_sequential(self, asia_data):
        ref = learn_structure(asia_data, method="fast-bns", alpha=0.05)
        with LearningSession(asia_data, alpha=0.05, n_jobs=2) as sess:
            got = sess.learn()
            got2 = sess.relearn(alpha=0.01)
        ref2 = learn_structure(asia_data, method="fast-bns", alpha=0.01)
        assert sorted(got.cpdag.directed_edges()) == sorted(ref.cpdag.directed_edges())
        assert sorted(got2.cpdag.directed_edges()) == sorted(ref2.cpdag.directed_edges())


# --------------------------------------------------------------------- #
# batch server
# --------------------------------------------------------------------- #
class TestBatchServer:
    def test_dedupes_identical_requests(self, asia_data):
        with LearningSession(asia_data) as sess:
            server = BatchServer(sess)
            reqs = [
                {"op": "learn", "alpha": 0.05},
                {"op": "learn", "alpha": 0.05},
                {"op": "learn", "alpha": 0.01},
            ]
            out = server.serve(reqs)
            assert [r["cached"] for r in out] == [False, True, False]
            assert server.n_computed == 2
            assert out[0]["result"] == out[1]["result"]
            assert out[0]["fingerprint"] == out[1]["fingerprint"]
            # Second batch: everything served from the result cache.
            out2 = server.serve(reqs)
            assert all(r["cached"] for r in out2)
            assert server.n_computed == 2
            assert [r["result"] for r in out2] == [r["result"] for r in out]

    def test_equivalent_spellings_share_fingerprint(self, asia_data):
        with LearningSession(asia_data) as sess:
            name = asia_data.names[3]
            a = BatchRequest.normalise({"op": "blanket", "target": 3}, sess)
            b = BatchRequest.normalise({"op": "blanket", "target": name}, sess)
            assert a == b
            # Explicit defaults normalise to the same request as omissions.
            c = BatchRequest.normalise({"op": "learn"}, sess)
            d = BatchRequest.normalise(
                {"op": "learn", "alpha": sess.alpha, "gs": 1, "test": sess.test}, sess
            )
            assert c.fingerprint(sess.fingerprint) == d.fingerprint(sess.fingerprint)

    def test_rejects_malformed_requests(self, asia_data):
        with LearningSession(asia_data) as sess:
            with pytest.raises(ValueError, match="op"):
                BatchRequest.normalise({"op": "frobnicate"}, sess)
            with pytest.raises(ValueError, match="target"):
                BatchRequest.normalise({"op": "blanket"}, sess)
            with pytest.raises(ValueError, match="unknown request fields"):
                BatchRequest.normalise({"op": "learn", "bogus": 1}, sess)

    def test_bad_request_does_not_abort_the_stream(self, asia_data):
        """One client's malformed request yields an error response; the
        rest of the batch is still served."""
        with LearningSession(asia_data) as sess:
            server = BatchServer(sess)
            manifest = server.new_manifest()
            out = server.serve(
                [
                    {"op": "learn"},
                    {"op": "frobnicate"},
                    {"op": "blanket", "target": "not-a-variable"},
                    {"op": "learn", "alpha": 7.0},
                    {"op": "learn"},
                ],
                manifest=manifest,
            )
        assert "result" in out[0] and out[4]["cached"]
        assert "frobnicate" in out[1]["error"]
        assert "not-a-variable" in out[2]["error"]
        assert "alpha" in out[3]["error"]
        assert server.n_errors == 3
        totals = manifest.totals()
        assert totals["n_errors"] == 3 and totals["n_computed"] == 1

    @pytest.mark.parametrize(
        "req,needle",
        [
            ({"op": "learn", "gs": 0}, "gs must be >= 1"),
            ({"op": "learn", "gs": -4}, "gs must be >= 1"),
            ({"op": "learn", "gs": "sometimes"}, "gs must be a positive int"),
            ({"op": "learn", "gs": None}, "gs must be a positive int"),
            ({"op": "learn", "max_depth": -1}, "max_depth must be >= 0"),
            ({"op": "learn", "max_depth": "deep"}, "max_depth must be a non-negative int"),
            ({"op": "blanket", "target": 10**6}, "out of range"),
            ({"op": "blanket", "target": -1}, "out of range"),
            ({"op": "blanket", "target": 1.5}, "name or index"),
            ({"op": "blanket", "target": 0, "max_conditioning": -2}, "max_conditioning"),
        ],
    )
    def test_invalid_parameters_rejected_at_normalisation(self, asia_data, req, needle):
        """gs=0 / negative depths / bad targets die at intake with a clear
        message — not as a ValueError (or worse, IndexError) deep inside
        learn_skeleton mid-compute."""
        with LearningSession(asia_data) as sess:
            with pytest.raises(ValueError, match=needle):
                BatchRequest.normalise(req, sess)
            server = BatchServer(sess)
            resp = server.handle(req)
            assert needle.split(" must")[0] in resp["error"]
            assert resp["result"] is None and not resp["cached"]
            assert server.n_errors == 1

    def test_valid_boundary_parameters_accepted(self, asia_data):
        with LearningSession(asia_data) as sess:
            for req in (
                {"op": "learn", "gs": 1, "max_depth": 0},
                {"op": "learn", "gs": "auto"},
                {"op": "blanket", "target": 0, "max_conditioning": 0},
                {"op": "blanket", "target": 0, "max_conditioning": None},
            ):
                BatchRequest.normalise(req, sess)  # must not raise

    def test_uniform_response_schema(self, asia_data):
        """Success and error responses expose the same keys: consumers
        branch on the error *value*, never on key presence."""
        keys = {"op", "fingerprint", "cached", "elapsed_s", "result", "error"}
        with LearningSession(asia_data) as sess:
            server = BatchServer(sess)
            out = server.serve(
                [
                    {"op": "learn", "max_depth": 0},
                    {"op": "learn", "max_depth": 0},
                    {"op": "learn", "gs": 0},
                    {"op": "frobnicate"},
                ]
            )
        for resp in out:
            assert set(resp) == keys
            assert (resp["result"] is None) != (resp["error"] is None)
        assert [r["error"] is None for r in out] == [True, True, False, False]

    def test_server_stats_equal_manifest_totals_on_mixed_stream(self, asia_data):
        """The two accounting views (live counters vs manifest rollup) must
        agree exactly on a stream containing errors AND cache hits."""
        with LearningSession(asia_data) as sess:
            server = BatchServer(sess)
            manifest = server.new_manifest()
            server.serve(
                [
                    {"op": "learn", "max_depth": 0},
                    {"op": "learn", "max_depth": 0},  # result-cache hit
                    {"op": "learn", "gs": 0},  # validation error
                    {"op": "blanket", "target": "nope"},  # routing error
                    {"op": "blanket", "target": 0},
                    {"op": "learn", "max_depth": 0},  # hit again
                ],
                manifest=manifest,
            )
            stats = server.stats()
        totals = manifest.totals()
        for key in ("n_requests", "n_computed", "n_result_cache_hits", "n_errors"):
            assert stats[key] == totals[key], key
        assert totals == {
            "n_requests": 6,
            "n_computed": 2,
            "n_result_cache_hits": 2,
            "n_errors": 2,
            "elapsed_s": totals["elapsed_s"],
        }

    def test_manifest_records_stream(self, asia_data, tmp_path):
        with LearningSession(asia_data) as sess:
            server = BatchServer(sess)
            manifest = server.new_manifest()
            server.serve(
                [{"op": "learn"}, {"op": "learn"}, {"op": "blanket", "target": 0}],
                manifest=manifest,
            )
            path = manifest.write(
                tmp_path / "manifest.json", cache_stats=sess.cache_stats().as_dict()
            )
        doc = json.loads(path.read_text())
        assert doc["dataset_fingerprint"] == dataset_fingerprint(sess.dataset)
        assert doc["totals"] == {
            "n_requests": 3,
            "n_computed": 2,
            "n_result_cache_hits": 1,
            "n_errors": 0,
            "elapsed_s": pytest.approx(
                sum(r["elapsed_s"] for r in doc["requests"])
            ),
        }
        assert doc["stats_cache"]["hits"] > 0
        assert [r["cached"] for r in doc["requests"]] == [False, True, False]


class TestFingerprints:
    def test_dataset_fingerprint_is_content_derived(self, asia_data, sprinkler_data):
        assert dataset_fingerprint(asia_data) == dataset_fingerprint(asia_data)
        assert dataset_fingerprint(asia_data) != dataset_fingerprint(sprinkler_data)

    def test_session_closed_rejects_queries(self, asia_data):
        sess = LearningSession(asia_data)
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.learn()


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestBatchCLI:
    def test_batch_end_to_end(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            "\n".join(
                json.dumps(r)
                for r in [
                    {"op": "learn", "alpha": 0.05},
                    {"op": "learn", "alpha": 0.05},
                    {"op": "blanket", "target": 0},
                ]
            )
            + "\n"
        )
        out = tmp_path / "out.jsonl"
        man = tmp_path / "manifest.json"
        rc = main(
            [
                "batch",
                "--network",
                "alarm",
                "--samples",
                "500",
                "--requests",
                str(reqs),
                "--out",
                str(out),
                "--manifest",
                str(man),
            ]
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        assert [r["cached"] for r in lines] == [False, True, False]
        assert lines[0]["result"] == lines[1]["result"]
        doc = json.loads(man.read_text())
        assert doc["totals"]["n_result_cache_hits"] == 1
        assert "result-cache hits" in capsys.readouterr().err

    def test_batch_requests_from_stdin(self, tmp_path, capsys, monkeypatch):
        """``--requests -`` reads the JSONL stream from stdin (pipes)."""
        import io

        stream = "\n".join(
            json.dumps(r)
            for r in [{"op": "learn", "alpha": 0.05}, {"op": "blanket", "target": 0}]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        out = tmp_path / "out.jsonl"
        rc = main(
            [
                "batch",
                "--network",
                "alarm",
                "--samples",
                "500",
                "--requests",
                "-",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 2
        assert [r["op"] for r in lines] == ["learn", "blanket"]
        assert "served 2 requests" in capsys.readouterr().err
