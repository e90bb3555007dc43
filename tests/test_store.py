"""Durable engine store: warm restarts, spill tier, journal, degradation.

The store's contract is *exactness under restart*: a server pointed at an
existing ``--store`` file must answer previously-served streams with
byte-identical payloads and zero recompute, and any damage to the file
must degrade to a cold start with a warning — never a crash, never a
wrong answer.  These tests drive the contract end to end (session, batch
server, engine server, CLI-shaped streams) and unit-test each tier.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3

import numpy as np
import pytest

from repro.datasets.dataset import DiscreteDataset
from repro.engine import BatchServer, EngineServer, EngineStore, LearningSession
from repro.engine.manifest import shutdown_doc
from repro.engine.statscache import _PENDING, SufficientStatsCache
from repro.engine.store import (
    STORE_VERSION,
    ManifestJournal,
    SpillTier,
    StoreDB,
    journal_runs,
    new_run_id,
)


def _make_data(seed: int = 0, n: int = 400, k: int = 6) -> DiscreteDataset:
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, 2, n)]
    for _ in range(k - 1):
        cols.append((cols[-1] + rng.integers(0, 2, n)) % 2)
    return DiscreteDataset.from_rows(
        np.stack(cols, axis=1), names=[f"v{i}" for i in range(k)]
    )


def _mixed_requests() -> list[dict]:
    """Learns, blankets, a repeat and two error shapes — one stream."""
    return [
        {"op": "learn"},
        {"op": "blanket", "target": "v1"},
        {"op": "learn", "alpha": 0.01},
        {"op": "learn"},  # repeat -> result-cache hit
        {"op": "bogus"},  # unknown op -> error response
        {"op": "blanket", "target": "nope"},  # unknown target -> error
    ]


def _payload_bytes(responses: list[dict]) -> list[str]:
    return [json.dumps(r["result"]) for r in responses]


# --------------------------------------------------------------------- #
# StoreDB substrate
# --------------------------------------------------------------------- #
class TestStoreDB:
    def test_creates_schema_and_version(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        assert db.active
        assert db.scalar("SELECT value FROM meta WHERE key='store_version'") == str(
            STORE_VERSION
        )
        tables = {
            row[0]
            for row in db.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert {"meta", "results", "skeletons", "spill", "journal"} <= tables
        db.close()
        assert not db.active

    def test_rows_survive_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        db = StoreDB(path)
        db.execute(
            "INSERT INTO results VALUES (?,?,?,?,?)", ("fp", "ds", "learn", "{}", 0.0)
        )
        db.close()
        db2 = StoreDB(path)
        assert db2.scalar("SELECT COUNT(*) FROM results") == 1
        db2.close()

    def test_garbage_file_degrades_to_cold_start(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_bytes(b"this is not a sqlite database" * 100)
        with pytest.warns(RuntimeWarning, match="unusable"):
            db = StoreDB(path)
        # Fresh DB in place, broken bytes sidestepped — cold, not dead.
        assert db.active
        assert db.sidestepped == str(path) + ".corrupt"
        assert os.path.exists(db.sidestepped)
        assert db.scalar("SELECT COUNT(*) FROM results") == 0
        db.close()

    def test_truncated_db_degrades_to_cold_start(self, tmp_path):
        path = tmp_path / "s.sqlite"
        db = StoreDB(path)
        for i in range(50):
            db.execute(
                "INSERT INTO results VALUES (?,?,?,?,?)",
                (f"fp{i}", "ds", "learn", json.dumps({"i": i, "pad": "x" * 500}), 0.0),
            )
        db.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.warns(RuntimeWarning, match="unusable"):
            db2 = StoreDB(path)
        assert db2.active
        assert db2.scalar("SELECT COUNT(*) FROM results", default=0) == 0
        db2.close()

    def test_version_skew_sidesteps(self, tmp_path):
        path = tmp_path / "s.sqlite"
        db = StoreDB(path)
        db.execute("UPDATE meta SET value='999' WHERE key='store_version'")
        db.close()
        with pytest.warns(RuntimeWarning, match="store version 999"):
            db2 = StoreDB(path)
        assert db2.active
        assert db2.scalar(
            "SELECT value FROM meta WHERE key='store_version'"
        ) == str(STORE_VERSION)
        db2.close()

    def test_runtime_error_disables_not_raises(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        with pytest.warns(RuntimeWarning, match="failed mid-run"):
            rows = db.execute("SELECT * FROM no_such_table")
        assert rows == []
        assert db.n_io_errors == 1
        assert not db.active
        # Every later call is a cheap no-op.
        assert db.execute("SELECT COUNT(*) FROM results") == []
        db.close()


# --------------------------------------------------------------------- #
# EngineStore facade
# --------------------------------------------------------------------- #
class TestEngineStore:
    def test_result_roundtrip_preserves_bytes(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        payload = {"b": 1, "a": [1, 2, {"z": None}], "n": "text"}
        store.put_result("fp1", "ds", "learn", payload)
        got = store.get_result("fp1")
        # Byte-identical JSON, key order included.
        assert json.dumps(got) == json.dumps(payload)
        assert store.result_hits == 1 and store.result_puts == 1
        assert store.get_result("missing") is None
        assert store.result_misses == 1
        store.close()

    def test_skeleton_roundtrip(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        obj = ({"edges": [(0, 1)]}, [frozenset({2})], {"n_tests": 7})
        store.put_skeleton("k1", "ds", "cfg", obj)
        assert store.get_skeleton("k1") == obj
        assert store.get_skeleton("k2") is None
        assert store.skeleton_hits == 1 and store.skeleton_misses == 1
        store.close()

    def test_undecodable_blob_reads_as_miss_and_drops(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        store.db.execute(
            "INSERT INTO skeletons VALUES (?,?,?,?,?)",
            ("bad", "ds", "cfg", b"\x80garbage", 0.0),
        )
        assert store.get_skeleton("bad") is None
        assert store.n_blob_errors == 1
        assert store.counts()["skeletons"] == 0  # dropped, cold for this key only
        store.db.execute(
            "INSERT INTO results VALUES (?,?,?,?,?)",
            ("badjson", "ds", "learn", "{not json", 0.0),
        )
        assert store.get_result("badjson") is None
        assert store.n_blob_errors == 2
        store.close()

    def test_stats_shape(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        store.put_result("fp", "ds", "learn", {"x": 1})
        st = store.stats()
        assert st["active"] and st["version"] == STORE_VERSION
        assert st["rows"]["results"] == 1
        assert st["results"]["puts"] == 1
        assert st["io_errors"] == 0 and st["blob_errors"] == 0
        store.close()

    def test_ensure_coercion(self, tmp_path):
        assert EngineStore.ensure(None) is None
        store = EngineStore.ensure(str(tmp_path / "s.sqlite"))
        assert isinstance(store, EngineStore)
        assert EngineStore.ensure(store) is store
        store.close()


# --------------------------------------------------------------------- #
# spill tier
# --------------------------------------------------------------------- #
class TestSpillTier:
    def test_roundtrip_and_index_reload(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        tier = SpillTier(db, "fp", max_bytes=1 << 20)
        value = np.arange(6)
        assert tier.put((1, 2), value, 48, "table")
        assert tier.has((1, 2)) and not tier.has((9,))
        got = tier.get((1, 2))
        assert got is not None
        v, nbytes, kind = got
        assert list(v) == list(value) and nbytes == 48 and kind == "table"
        # A fresh tier over the same DB sees the same keys (restart warmth).
        tier2 = SpillTier(db, "fp", max_bytes=1 << 20)
        assert tier2.has((1, 2)) and tier2.current_bytes == 48
        db.close()

    def test_budget_evicts_lru(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        tier = SpillTier(db, "fp", max_bytes=200)
        for i in range(5):
            tier.put(("k", i), i, 64, "table")
        assert tier.current_bytes <= 200
        assert not tier.has(("k", 0))  # oldest demoted off the end
        assert tier.has(("k", 4))
        # Oversized entries are refused outright.
        assert not tier.put("big", 0, 10_000, "table")
        db.close()

    def test_damaged_row_reads_as_miss(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        tier = SpillTier(db, "fp", max_bytes=1 << 20)
        tier.put("k", 1, 8, "table")
        db.execute(
            "UPDATE spill SET blob=? WHERE dataset_fp='fp'", (b"\x80broken",)
        )
        assert tier.get("k") is None
        assert not tier.has("k")  # dropped from the index too
        db.close()

    def test_six_field_rows_promote_and_malformed_rows_miss(self, tmp_path):
        # Rows written before the cache dropped superset marginalization
        # carry (value, nbytes, kind, varset, dims, dense); they still
        # promote.  Any other shape reads as a miss and leaves the index.
        db = StoreDB(tmp_path / "s.sqlite")
        rows = {
            "old": (np.arange(6), 48, "table", frozenset({1, 2}), (2, 3), True),
            "short": (np.arange(6), 48),
            "scalar": 7,
            "bad-size": (np.arange(6), "many", "table"),
        }
        for key, fields in rows.items():
            db.execute(
                "INSERT INTO spill(dataset_fp, key, blob, nbytes, last_used)"
                " VALUES (?,?,?,?,?)",
                ("fp", SpillTier.key_text(key), pickle.dumps(fields), 48, 0.0),
            )
        tier = SpillTier(db, "fp", max_bytes=1 << 20)
        value, nbytes, kind = tier.get("old")
        assert list(value) == list(range(6)) and (nbytes, kind) == (48, "table")
        for key in ("short", "scalar", "bad-size"):
            assert tier.get(key) is None
            assert not tier.has(key)
        assert tier.n_blob_errors == 3
        db.close()

    def test_namespaced_by_dataset(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        a = SpillTier(db, "fpA", max_bytes=1 << 20)
        b = SpillTier(db, "fpB", max_bytes=1 << 20)
        a.put("k", "from-a", 8, "table")
        assert not b.has("k")
        assert b.get("k") is None
        db.close()


class TestStatsCacheSpill:
    def test_evictions_demote_and_lookups_promote(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        cache = SufficientStatsCache(max_bytes=256, spill=store.spill_tier("fp"))
        for i in range(10):
            cache.put(("k", i), np.arange(8) + i, 64, "table")
        st = cache.stats()
        assert st.spill_enabled and st.spill_stores > 0
        # The demoted entry comes back bit-identical and counts as a hit.
        entry = cache.get(("k", 0))
        assert entry is not None and list(entry[0]) == list(np.arange(8))
        st = cache.stats()
        assert st.spill_hits == 1 and st.spill_promotes == 1
        assert cache.hits == 1
        doc = st.as_dict()
        assert doc["spill"]["stores"] == st.spill_stores
        store.close()

    def test_session_restarts_over_six_field_rows(self, tmp_path):
        # A store whose spill rows carry the older six-field layout: a
        # restarted session promotes them and answers exactly as before.
        path = str(tmp_path / "s.sqlite")
        data = _make_data(k=6)
        targets = ["v1", "v3", "v4"]
        with LearningSession(data, store=path, cache_bytes=512) as s1:
            want = [s1.markov_blanket(t).blanket for t in targets]
            s1.learn()  # its tables push the blanket tables out to disk
            assert s1.cache_stats().spill_stores > 0
        con = sqlite3.connect(path)
        rows = con.execute("SELECT dataset_fp, key, blob FROM spill").fetchall()
        assert rows
        for dataset_fp, key, blob in rows:
            old = pickle.loads(blob) + (frozenset(), (), True)
            con.execute(
                "UPDATE spill SET blob=? WHERE dataset_fp=? AND key=?",
                (pickle.dumps(old), dataset_fp, key),
            )
        con.commit()
        con.close()
        with LearningSession(data, store=path, cache_bytes=512) as s2:
            got = [s2.markov_blanket(t).blanket for t in targets]
            st = s2.cache_stats()
            blob_errors = s2.store.spill_tier(s2.fingerprint).n_blob_errors
        assert got == want
        assert st.spill_promotes > 0 and blob_errors == 0

    def test_pending_reservations_never_spill(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        cache = SufficientStatsCache(max_bytes=128, spill=store.spill_tier("fp"))
        cache.put("pending", (_PENDING, "slot"), 64, "table")
        cache.put("real-a", 1, 64, "table")
        cache.put("real-b", 2, 64, "table")  # evicts "pending"
        assert cache.get("pending") is None
        assert not store.spill_tier("fp").has("pending")
        store.close()

    def test_reservations_evicted_in_their_round_never_spill(self, tmp_path):
        # One kernel call is one replayed round: every miss reserves its
        # table slot, and the round's own later reservations (15 depth-0
        # tables of 32 bytes against a 256-byte budget) evict first the
        # filled tables of an earlier call, then the round's early
        # reservations before they are filled.  Those evictions drop the
        # slot; only filled tables reach the disk tier.
        from repro.citests.gsquare import GSquareTest

        data = _make_data(n=400, k=6)
        store = EngineStore(tmp_path / "s.sqlite")
        tier = store.spill_tier("fp")
        cache = SufficientStatsCache(max_bytes=256, spill=tier)
        tester = GSquareTest(data, stats_cache=cache)
        tester.test_groups([(0, 1, [(2,), (3,)])])
        items = [(x, y, [()]) for x in range(6) for y in range(x + 1, 6)]
        tester.test_groups(items)
        tables = [("t", x, y) for x, y, _ in items]
        evicted = [k for k in tables if k not in cache._entries]
        assert evicted and cache.spill_stores > 0
        assert not any(tier.has(k) for k in evicted)
        # A later round's eviction of the now-filled tables does spill.
        tester.test_groups([(x, y, [(z,)]) for x, y, _ in items for z in range(6)
                            if z not in (x, y)])
        assert any(tier.has(k) for k in tables if k not in cache._entries)
        store.close()

    def test_no_spill_means_no_spill_block(self):
        cache = SufficientStatsCache(max_bytes=128)
        doc = cache.stats().as_dict()
        assert "spill" not in doc

    def test_workers_drop_the_spill_handle(self, tmp_path):
        store = EngineStore(tmp_path / "s.sqlite")
        cache = SufficientStatsCache(max_bytes=256, spill=store.spill_tier("fp"))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone._spill is None  # SQLite handles never cross a fork/pickle
        store.close()


# --------------------------------------------------------------------- #
# warm restarts: session + batch server
# --------------------------------------------------------------------- #
class TestWarmRestart:
    def test_batch_stream_byte_identical_after_restart(self, tmp_path):
        path = tmp_path / "store.sqlite"
        data = _make_data()
        reqs = _mixed_requests()
        with LearningSession(data, store=str(path)) as s1:
            srv1 = BatchServer(s1)
            cold = srv1.serve(reqs)
            assert srv1.n_store_hits == 0
            assert s1.n_skeleton_learns > 0
        with LearningSession(data, store=str(path)) as s2:
            srv2 = BatchServer(s2)
            warm = srv2.serve(reqs)
            # Byte-identical payloads, every valid request served cached.
            assert _payload_bytes(cold) == _payload_bytes(warm)
            for resp in warm:
                if resp["error"] is None:
                    assert resp["cached"] is True
            assert srv2.n_store_hits > 0
            assert srv2.n_computed == 0
            assert s2.n_skeleton_learns == 0
            store_block = srv2.stats()["store"]
            assert store_block["n_store_result_hits"] == srv2.n_store_hits

    def test_restart_never_relearns_skeleton(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        data = _make_data()
        with LearningSession(data, store=str(path)) as s1:
            first = s1.learn()
        # The warm process must never reach the skeleton learner at all.
        import repro.engine.session as session_mod

        def _boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("skeleton recomputed on warm restart")

        monkeypatch.setattr(session_mod, "learn_skeleton", _boom)
        with LearningSession(data, store=str(path)) as s2:
            second = s2.learn()
            assert s2.n_skeleton_loads == 1 and s2.n_skeleton_learns == 0
            # And the warm skeleton orients to the same graph.
            assert sorted(second.cpdag.directed_edges()) == sorted(
                first.cpdag.directed_edges()
            )
            assert sorted(second.cpdag.undirected_edges()) == sorted(
                first.cpdag.undirected_edges()
            )
            # Orientation parameters still run live off the stored skeleton.
            s2.learn(apply_r4=True)
            assert s2.n_skeleton_loads == 2 and s2.n_skeleton_learns == 0

    def test_skeleton_key_separates_configs(self, tmp_path):
        path = tmp_path / "store.sqlite"
        data = _make_data()
        with LearningSession(data, store=str(path)) as s1:
            s1.learn()
        # Different alpha -> different skeleton fingerprint -> relearn.
        with LearningSession(data, store=str(path)) as s2:
            s2.learn(alpha=0.01)
            assert s2.n_skeleton_learns == 1 and s2.n_skeleton_loads == 0
        # Different dataset -> nothing shared.
        with LearningSession(_make_data(seed=9), store=str(path)) as s3:
            s3.learn()
            assert s3.n_skeleton_learns == 1 and s3.n_skeleton_loads == 0

    def test_corrupt_store_serves_cold_with_warning(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"garbage" * 64)
        data = _make_data()
        with pytest.warns(RuntimeWarning, match="unusable"):
            with LearningSession(data, store=str(path)) as s:
                srv = BatchServer(s)
                responses = srv.serve(_mixed_requests())
        valid = [r for r in responses if r["error"] is None]
        assert len(valid) == 4
        assert s.n_skeleton_learns > 0  # genuinely cold

    def test_session_without_store_unchanged(self):
        data = _make_data()
        with LearningSession(data) as s:
            srv = BatchServer(s)
            srv.serve(_mixed_requests())
            assert s.store is None
            assert "store" not in srv.stats()


# --------------------------------------------------------------------- #
# EngineServer: shared store, eviction revival, restart
# --------------------------------------------------------------------- #
class TestEngineServerStore:
    def test_evicted_session_revives_warm(self, tmp_path):
        """Regression: LRU eviction used to discard the result cache for
        good — with a store, re-touching the dataset must serve the repeat
        request as ``cached: true``."""
        reqs = [{"op": "learn", "dataset": "d1"}]
        with EngineServer(store=str(tmp_path / "s.sqlite"), max_sessions=1) as es:
            es.register("d1", _make_data(seed=0))
            es.register("d2", _make_data(seed=1))
            first = es.serve(reqs)
            assert first[0]["cached"] is False
            es.serve([{"op": "learn", "dataset": "d2"}])  # evicts d1
            assert es.n_evictions >= 1
            again = es.serve(reqs)
            assert again[0]["cached"] is True
            assert json.dumps(again[0]["result"]) == json.dumps(first[0]["result"])

    def test_server_restart_byte_identical(self, tmp_path, monkeypatch):
        path = tmp_path / "s.sqlite"
        reqs = [
            {"op": "learn", "dataset": "d1"},
            {"op": "blanket", "dataset": "d1", "target": "v0"},
            {"op": "learn", "dataset": "d2", "alpha": 0.01},
            {"op": "learn", "dataset": "d1"},
        ]
        with EngineServer(store=str(path)) as es1:
            es1.register("d1", _make_data(seed=0))
            es1.register("d2", _make_data(seed=1))
            cold = es1.serve(reqs)
        # Restarted process: no skeleton learner, no compute — store only.
        import repro.engine.session as session_mod

        monkeypatch.setattr(
            session_mod,
            "learn_skeleton",
            lambda *a, **k: pytest.fail("recompute on warm restart"),
        )
        with EngineServer(store=str(path)) as es2:
            es2.register("d1", _make_data(seed=0))
            es2.register("d2", _make_data(seed=1))
            warm = es2.serve(reqs)
            assert _payload_bytes(cold) == _payload_bytes(warm)
            assert all(r["cached"] for r in warm)
            st = es2.stats()
            assert st["store"]["results"]["hits"] > 0
            assert st["store"]["rows"]["results"] >= 3
        # No store -> the block is explicitly None.
        with EngineServer() as es3:
            assert es3.stats()["store"] is None

    def test_manifest_carries_run_id_and_store_path(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with EngineServer(store=str(path)) as es:
            es.register("d1", _make_data())
            es.serve([{"op": "learn", "dataset": "d1"}])
            doc = es.manifest()
            assert doc["run_id"]
            assert doc["engine"]["store"] == str(path)
        with EngineServer() as es2:
            assert es2.manifest()["run_id"] is None


# --------------------------------------------------------------------- #
# manifest journal + replay-orderable timestamps
# --------------------------------------------------------------------- #
class TestJournal:
    def test_rows_appended_per_response_in_order(self, tmp_path):
        path = tmp_path / "s.sqlite"
        data = _make_data()
        with LearningSession(data, store=str(path)) as s:
            srv = BatchServer(s)
            journal = s.store.journal()
            manifest = srv.new_manifest(journal=journal)
            srv.serve(_mixed_requests(), manifest=manifest)
            rows = journal.rows()
        assert len(rows) == len(_mixed_requests())
        assert [r["seq"] for r in rows] == list(range(len(rows)))
        for row in rows:
            assert row["kind"] == "request"
            assert row["dataset_fingerprint"]
            assert isinstance(row["t_wall"], float)
            assert isinstance(row["t_mono"], float)
        # t_mono is the replay order: strictly non-decreasing.
        monos = [r["t_mono"] for r in rows]
        assert monos == sorted(monos)

    def test_crash_mid_stream_leaves_exact_prefix(self, tmp_path):
        path = tmp_path / "s.sqlite"
        data = _make_data()
        reqs = _mixed_requests()
        with LearningSession(data, store=str(path)) as s:
            srv = BatchServer(s)
            journal = s.store.journal()
            manifest = srv.new_manifest(journal=journal)
            it = srv.serve_iter(reqs, manifest=manifest)
            next(it)
            next(it)
            run_id = journal.run_id
            # Abandon the stream (simulated crash): no manifest.write happens.
        store = EngineStore(path)
        rows = store.journal_rows(run_id)
        assert len(rows) == 2  # exactly what was served, nothing buffered
        store.close()

    def test_server_journals_across_sessions_under_one_run(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with EngineServer(store=str(path)) as es:
            es.register("d1", _make_data(seed=0))
            es.register("d2", _make_data(seed=1))
            es.serve(
                [
                    {"op": "learn", "dataset": "d1"},
                    {"op": "learn", "dataset": "d2"},
                    {"op": "learn", "dataset": "nope"},  # unrouted error
                ]
            )
            es.note_shutdown("test-shutdown", signum=None)
            run_id = es.manifest()["run_id"]
        store = EngineStore(path)
        rows = store.journal_rows(run_id)
        kinds = [r["kind"] for r in rows]
        assert kinds.count("request") == 3
        assert kinds[-1] == "shutdown"
        assert rows[-1]["reason"] == "test-shutdown"
        assert "mono_time" in rows[-1] and "unix_time" in rows[-1]
        assert journal_runs(store.db) == [(run_id, 4)]
        store.close()

    def test_resuming_a_run_id_continues_the_sequence(self, tmp_path):
        db = StoreDB(tmp_path / "s.sqlite")
        run = new_run_id()
        j1 = ManifestJournal(db, run)
        assert j1.append({"kind": "request"}) == 0
        assert j1.append({"kind": "request"}) == 1
        j2 = ManifestJournal(db, run)  # restart, same run id
        assert j2.append({"kind": "request"}) == 2
        assert [r["seq"] for r in j2.rows()] == [0, 1, 2]
        db.close()

    def test_run_ids_are_unique(self):
        ids = {new_run_id() for _ in range(100)}
        assert len(ids) == 100


class TestManifestTimestamps:
    def test_rows_carry_wall_and_mono_clocks(self):
        data = _make_data()
        with LearningSession(data) as s:
            srv = BatchServer(s)
            manifest = srv.new_manifest()
            srv.serve([{"op": "learn"}, {"op": "bogus"}], manifest=manifest)
        for row in manifest.requests:
            assert isinstance(row["t_wall"], float)
            assert isinstance(row["t_mono"], float)
        # Totals stay exact with the new fields present.
        totals = manifest.totals()
        assert totals["n_requests"] == 2
        assert totals["n_computed"] + totals["n_result_cache_hits"] + totals[
            "n_errors"
        ] == totals["n_requests"]

    def test_shutdown_doc_carries_both_clocks(self):
        doc = shutdown_doc("signal", signum=2)
        assert isinstance(doc["unix_time"], float)
        assert isinstance(doc["mono_time"], float)


# --------------------------------------------------------------------- #
# counter exactness with the store in the loop
# --------------------------------------------------------------------- #
class TestCounterExactness:
    def test_store_hits_fold_into_manifest_totals(self, tmp_path):
        path = tmp_path / "s.sqlite"
        data = _make_data()
        reqs = _mixed_requests()
        with LearningSession(data, store=str(path)) as s1:
            srv1 = BatchServer(s1)
            srv1.serve(reqs, manifest=srv1.new_manifest())
        with LearningSession(data, store=str(path)) as s2:
            srv2 = BatchServer(s2)
            manifest = srv2.new_manifest()
            srv2.serve(reqs, manifest=manifest)
            totals = manifest.totals()
            # The server-side counters and the manifest agree exactly even
            # though some "cached" responses came from disk.
            assert totals["n_result_cache_hits"] == srv2.n_result_hits
            assert totals["n_computed"] == srv2.n_computed == 0
            assert totals["n_errors"] == srv2.n_errors
            assert srv2.n_store_hits <= srv2.n_result_hits

    def test_sqlite_file_is_really_on_disk(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with LearningSession(_make_data(), store=str(path)) as s:
            BatchServer(s).serve([{"op": "learn"}])
        assert path.exists()
        with sqlite3.connect(path) as conn:
            n = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        assert n == 1
