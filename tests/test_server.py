"""Tests for the multi-dataset engine server (repro.engine.server).

Covers the ISSUE-4 acceptance surface: dataset routing and registration,
the LRU session budget (eviction closes worker pools and unlinks the shm
plane), concurrent dispatch equivalence with the sequential path, the
uniform response schema, and the run manifest spanning live + retired
sessions.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.datasets.shm import attach_dataset, shared_memory_available
from repro.engine import DatasetSource, EngineServer, dataset_fingerprint, merge_totals

RESPONSE_KEYS = {"op", "dataset", "fingerprint", "cached", "elapsed_s", "result", "error"}


def _uniform(resp: dict) -> bool:
    """Every server response has the same keys, one of result/error None."""
    return set(resp) == RESPONSE_KEYS and (resp["result"] is None) != (resp["error"] is None)


@pytest.fixture()
def server(asia_data, sprinkler_data):
    srv = EngineServer(alpha=0.05, max_sessions=4)
    srv.register("asia", asia_data)
    srv.register("sprinkler", sprinkler_data)
    yield srv
    srv.close()


# --------------------------------------------------------------------- #
# dataset sources
# --------------------------------------------------------------------- #
class TestDatasetSource:
    def test_string_specs(self):
        src = DatasetSource.from_spec("csv:/tmp/x.csv")
        assert (src.kind, src.path) == ("csv", "/tmp/x.csv")
        src = DatasetSource.from_spec("network:alarm", samples=700, scale=0.5)
        assert (src.kind, src.name, src.samples, src.scale) == ("network", "alarm", 700, 0.5)

    def test_mapping_specs(self):
        src = DatasetSource.from_spec({"kind": "bif", "path": "n.bif", "samples": 100, "seed": 3})
        assert (src.kind, src.path, src.samples, src.seed) == ("bif", "n.bif", 100, 3)

    @pytest.mark.parametrize(
        "spec",
        [
            "justaname",
            "frobnicate:x",
            {"kind": "csv"},  # missing path
            {"kind": "network"},  # missing name
            {"kind": "csv", "path": "x", "bogus": 1},
            {"kind": "memory"},  # memory never crosses the protocol
            42,
            None,
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            DatasetSource.from_spec(spec)

    def test_csv_source_loads(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n1,0\n0,0\n1,1\n")
        data = DatasetSource.from_spec(f"csv:{path}").load()
        assert data.names == ("a", "b")
        assert data.n_samples == 4

    def test_bif_source_is_deterministic(self, tmp_path, sprinkler_net):
        from repro.datasets.bif import write_bif

        path = tmp_path / "net.bif"
        path.write_text(write_bif(sprinkler_net))
        src = DatasetSource.from_spec({"kind": "bif", "path": str(path), "samples": 200, "seed": 5})
        assert dataset_fingerprint(src.load()) == dataset_fingerprint(src.load())

    def test_describe_never_carries_data(self, asia_data):
        desc = DatasetSource.memory(asia_data, "x").describe()
        assert desc["kind"] == "memory"
        assert desc["n_variables"] == asia_data.n_variables
        assert "dataset" not in desc and "values" not in desc


# --------------------------------------------------------------------- #
# registration & routing
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_register_is_idempotent_but_conflicts_raise(self, server):
        assert server.register("net", "network:alarm") is True
        assert server.register("net", "network:alarm") is False  # same source
        with pytest.raises(ValueError, match="different source"):
            server.register("net", "network:insurance")

    def test_bad_dataset_ids_rejected(self, server, asia_data):
        with pytest.raises(ValueError, match="dataset id"):
            server.register("", asia_data)
        with pytest.raises(ValueError, match="dataset id"):
            server.register(7, asia_data)

    def test_unknown_dataset_is_error_response_not_crash(self, server):
        resp = server.handle({"op": "learn", "dataset": "nope"})
        assert _uniform(resp)
        assert "unknown dataset 'nope'" in resp["error"]
        assert resp["dataset"] == "nope" and resp["fingerprint"] is None

    @pytest.mark.parametrize(
        "tag,needle",
        [
            (7, "'dataset' must be a string"),
            (["a"], "'dataset' must be a string"),
            (None, "no default dataset"),
        ],
    )
    def test_malformed_dataset_tags(self, server, tag, needle):
        raw = {"op": "learn"}
        if tag is not None:
            raw["dataset"] = tag
        resp = server.handle(raw)
        assert _uniform(resp)
        assert needle in resp["error"]

    def test_default_dataset_routes_untagged_requests(self, asia_data):
        with EngineServer(default_dataset="asia") as srv:
            srv.register("asia", asia_data)
            tagged = srv.handle({"op": "learn", "dataset": "asia"})
            untagged = srv.handle({"op": "learn"})
        assert untagged["fingerprint"] == tagged["fingerprint"]
        assert untagged["cached"] and untagged["result"] == tagged["result"]

    def test_register_op_in_stream(self, server, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n" + "\n".join("0,1,0" for _ in range(4)) + "\n")
        out = server.serve(
            [
                {"op": "register", "dataset": "d", "source": {"kind": "csv", "path": str(path)}},
                {"op": "register", "dataset": "d", "source": {"kind": "csv", "path": str(path)}},
                {"op": "register", "dataset": "d", "source": "network:alarm"},
                {"op": "register", "dataset": "d", "source": "csv:missing", "bogus": 1},
            ]
        )
        assert all(_uniform(r) for r in out)
        assert out[0]["result"]["already"] is False
        assert out[1]["result"]["already"] is True
        assert "different source" in out[2]["error"]
        assert "unknown register fields" in out[3]["error"]

    def test_in_stream_register_inherits_server_source_defaults(self):
        """A protocol register op must resolve omitted samples/seed/scale
        against the same defaults as the --register flags, so both routes
        materialise (and fingerprint) identical datasets."""
        with EngineServer(default_samples=300, default_scale=0.4) as srv:
            srv.register("flag", "network:insurance")
            srv.handle(
                {"op": "register", "dataset": "stream",
                 "source": {"kind": "network", "name": "insurance"}}
            )
            a = srv.handle({"op": "learn", "dataset": "flag", "max_depth": 0})
            b = srv.handle({"op": "learn", "dataset": "stream", "max_depth": 0})
            stats = srv.stats()
        assert a["fingerprint"] == b["fingerprint"]
        assert b["cached"], "identical sources must alias one session"
        assert stats["sessions"]["spinups"] == 1

    def test_source_load_failure_is_error_response(self, server, tmp_path):
        server.register("ghost", f"csv:{tmp_path / 'missing.csv'}")
        resp = server.handle({"op": "learn", "dataset": "ghost"})
        assert _uniform(resp) and "missing.csv" in resp["error"]

    def test_identical_content_shares_one_session(self, asia_data):
        with EngineServer() as srv:
            srv.register("a", asia_data)
            srv.register("b", asia_data)  # same bytes, different id
            r1 = srv.handle({"op": "learn", "dataset": "a"})
            r2 = srv.handle({"op": "learn", "dataset": "b"})
            stats = srv.stats()
        assert r1["fingerprint"] == r2["fingerprint"]
        assert r2["cached"], "byte-identical data must share the result cache"
        assert stats["sessions"]["spinups"] == 1
        assert stats["datasets"]["a"]["fingerprint"] == stats["datasets"]["b"]["fingerprint"]


# --------------------------------------------------------------------- #
# exactness: routing never changes answers
# --------------------------------------------------------------------- #
class TestExactness:
    def test_server_matches_single_session_batchserver(self, asia_data, sprinkler_data):
        from repro.engine import BatchServer, LearningSession

        reqs = [
            {"op": "learn", "alpha": 0.05},
            {"op": "learn", "alpha": 0.01},
            {"op": "blanket", "target": 2},
            {"op": "learn", "alpha": 0.05},
        ]
        with EngineServer(alpha=0.05) as srv:
            srv.register("asia", asia_data)
            srv.register("sprinkler", sprinkler_data)
            via_server = {
                ds: srv.serve([dict(r, dataset=ds) for r in reqs])
                for ds in ("asia", "sprinkler")
            }
        for ds, data in (("asia", asia_data), ("sprinkler", sprinkler_data)):
            with LearningSession(data, alpha=0.05) as sess:
                direct = BatchServer(sess).serve(reqs)
            for a, b in zip(via_server[ds], direct, strict=True):
                assert a["fingerprint"] == b["fingerprint"]
                assert a["cached"] == b["cached"]
                assert json.dumps(a["result"]) == json.dumps(b["result"])


# --------------------------------------------------------------------- #
# LRU budget & eviction
# --------------------------------------------------------------------- #
class TestEviction:
    def test_eviction_closes_session_and_recreates_on_touch(
        self, asia_data, sprinkler_data
    ):
        with EngineServer(max_sessions=1) as srv:
            srv.register("a", asia_data)
            srv.register("b", sprinkler_data)
            first = srv.handle({"op": "learn", "dataset": "a"})
            slot_a = srv._slots[next(iter(srv._slots))]
            srv.handle({"op": "learn", "dataset": "b"})  # evicts a
            assert slot_a.retired and slot_a.session.closed
            stats = srv.stats()
            assert stats["sessions"]["evictions"] == 1
            assert stats["sessions"]["live"] == 1
            assert stats["datasets"]["a"]["live"] is False
            # Re-touch re-creates from the source; answers are identical
            # (but recomputed: the result cache died with the session).
            again = srv.handle({"op": "learn", "dataset": "a"})
            assert again["fingerprint"] == first["fingerprint"]
            assert json.dumps(again["result"]) == json.dumps(first["result"])
            assert not again["cached"]
            assert srv.stats()["sessions"]["spinups"] == 3

    def test_lru_order_is_touch_order(self, asia_data, sprinkler_data, small_random_data):
        with EngineServer(max_sessions=2) as srv:
            srv.register("a", asia_data)
            srv.register("b", sprinkler_data)
            srv.register("c", small_random_data)
            srv.handle({"op": "learn", "dataset": "a", "max_depth": 0})
            srv.handle({"op": "learn", "dataset": "b", "max_depth": 0})
            srv.handle({"op": "learn", "dataset": "a", "max_depth": 1})  # refresh a
            srv.handle({"op": "learn", "dataset": "c", "max_depth": 0})  # evicts b, not a
            live = srv.datasets()
            assert live["a"]["live"] and live["c"]["live"] and not live["b"]["live"]

    @pytest.mark.skipif(not shared_memory_available(), reason="no usable shared memory")
    def test_eviction_shuts_down_pool_and_unlinks_shm(self, asia_data, sprinkler_data):
        with EngineServer(max_sessions=1, n_jobs=2, use_shm=True) as srv:
            srv.register("a", asia_data)
            srv.register("b", sprinkler_data)
            srv.handle({"op": "learn", "dataset": "a", "max_depth": 1})
            slot_a = srv._slots[next(iter(srv._slots))]
            assert slot_a.session.uses_shm
            handle = slot_a.session._pool._shm_export.handle
            srv.handle({"op": "learn", "dataset": "b", "max_depth": 1})  # evicts a
            assert slot_a.session.closed and slot_a.session._pool is None
            with pytest.raises(FileNotFoundError):
                attach_dataset(handle)

    def test_close_dataset_op(self, server):
        out = server.serve(
            [
                {"op": "learn", "dataset": "asia", "max_depth": 0},
                {"op": "close_dataset", "dataset": "asia"},
                {"op": "close_dataset", "dataset": "asia"},  # already cold: closed=False
                {"op": "close_dataset", "dataset": "nope"},
                {"op": "learn", "dataset": "asia", "max_depth": 0},  # re-creates
                {"op": "close_dataset", "dataset": "asia", "unregister": True},
                {"op": "learn", "dataset": "asia", "max_depth": 0},
            ]
        )
        assert all(_uniform(r) for r in out)
        assert out[1]["result"]["closed"] is True
        assert out[2]["result"]["closed"] is False
        assert "unknown dataset" in out[3]["error"]
        assert out[4]["error"] is None and not out[4]["cached"]
        assert out[5]["result"]["unregistered"] is True
        assert "unknown dataset" in out[6]["error"]

    def test_close_closes_everything(self, asia_data):
        srv = EngineServer()
        srv.register("a", asia_data)
        srv.handle({"op": "learn", "dataset": "a", "max_depth": 0})
        slot = srv._slots[next(iter(srv._slots))]
        srv.close()
        assert slot.session.closed
        with pytest.raises(RuntimeError, match="closed"):
            srv.handle({"op": "stats"})


# --------------------------------------------------------------------- #
# concurrent dispatch
# --------------------------------------------------------------------- #
class TestConcurrentServe:
    def _mixed_stream(self) -> list[dict]:
        reqs = []
        for alpha in (0.05, 0.01):
            for ds in ("asia", "sprinkler"):
                reqs.append({"op": "learn", "dataset": ds, "alpha": alpha})
        reqs.append({"op": "learn", "dataset": "asia", "alpha": 0.05})  # repeat: hit
        reqs.append({"op": "learn", "dataset": "asia", "gs": -1})  # error mid-stream
        reqs.append({"op": "blanket", "dataset": "sprinkler", "target": 1})
        return reqs

    def test_threaded_serve_matches_sequential(self, asia_data, sprinkler_data):
        reqs = self._mixed_stream()
        outs = []
        for threads in (1, 3):
            with EngineServer(alpha=0.05) as srv:
                srv.register("asia", asia_data)
                srv.register("sprinkler", sprinkler_data)
                outs.append(srv.serve(reqs, threads=threads))
        for seq, conc in zip(*outs, strict=True):
            assert (seq["op"], seq["dataset"], seq["fingerprint"], seq["cached"]) == (
                conc["op"], conc["dataset"], conc["fingerprint"], conc["cached"]
            )
            assert json.dumps(seq["result"]) == json.dumps(conc["result"])
            assert (seq["error"] is None) == (conc["error"] is None)

    def test_requests_for_different_datasets_overlap(self, asia_data, sprinkler_data):
        """Two lanes must actually interleave: each lane records the other
        running inside its own request window at least once."""
        overlap = threading.Event()
        active: set[str] = set()
        lock = threading.Lock()

        class SpyServer(EngineServer):
            def _handle_query(self, raw):
                ds = raw.get("dataset")
                with lock:
                    active.add(ds)
                    if len(active) > 1:
                        overlap.set()
                try:
                    return super()._handle_query(raw)
                finally:
                    with lock:
                        active.discard(ds)

        with SpyServer() as srv:
            srv.register("asia", asia_data)
            srv.register("sprinkler", sprinkler_data)
            reqs = [
                {"op": "learn", "dataset": ds, "alpha": a}
                for a in (0.05, 0.01, 0.02)
                for ds in ("asia", "sprinkler")
            ]
            srv.serve(reqs, threads=2)
        assert overlap.is_set(), "lanes never ran concurrently"

    def test_admin_ops_are_barriers(self, server):
        reqs = [
            {"op": "learn", "dataset": "asia", "max_depth": 0},
            {"op": "learn", "dataset": "sprinkler", "max_depth": 0},
            {"op": "stats"},
            {"op": "learn", "dataset": "asia", "max_depth": 0},
        ]
        out = server.serve(reqs, threads=2)
        # Both lanes completed before the stats snapshot was taken.
        assert out[2]["result"]["totals"]["n_requests"] == 2
        assert out[3]["cached"]

    def test_malformed_entries_in_threaded_stream(self, server):
        out = server.serve(
            [
                {"op": "learn", "dataset": "asia", "max_depth": 0},
                "not an object",
                {"op": "learn", "dataset": [1], "max_depth": 0},
            ],
            threads=2,
        )
        assert all(_uniform(r) for r in out)
        assert out[0]["error"] is None
        assert "JSON object" in out[1]["error"]
        assert "'dataset' must be a string" in out[2]["error"]


# --------------------------------------------------------------------- #
# streaming dispatch (serve_iter)
# --------------------------------------------------------------------- #
class TestStreaming:
    """ISSUE-5 tentpole: the dispatcher is a lazy, windowed generator."""

    def _mixed_stream(self, tmp_path) -> list:
        """Admin ops, in-session errors, unrouted errors, parse failures,
        aliased ids and cache hits — every response class in one stream."""
        from repro.engine.server import ParseFailure

        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "".join("0,1\n1,0\n" for _ in range(20)))
        return [
            {"op": "learn", "dataset": "asia", "max_depth": 1},
            {"op": "register", "dataset": "d", "source": f"csv:{path}"},  # barrier
            {"op": "learn", "dataset": "d", "max_depth": 0},
            {"op": "learn", "dataset": "asia", "max_depth": 1},  # hit
            {"op": "learn", "dataset": "sprinkler", "gs": -3},  # in-session error
            ParseFailure("invalid JSON: boom"),
            {"op": "learn", "dataset": "ghost"},  # unrouted error
            {"op": "stats"},  # barrier
            {"op": "blanket", "dataset": "sprinkler", "target": 0},
            {"op": "learn", "dataset": "asia", "max_depth": 1},  # hit
        ]

    @pytest.mark.parametrize("threads,window", [(1, 4), (3, 2), (3, 64)])
    def test_serve_iter_matches_serve_bit_identical(
        self, asia_data, sprinkler_data, tmp_path, threads, window
    ):
        reqs = self._mixed_stream(tmp_path)
        outs = []
        for mode in ("sequential", "streamed"):
            with EngineServer(alpha=0.05) as srv:
                srv.register("asia", asia_data)
                srv.register("sprinkler", sprinkler_data)
                if mode == "sequential":
                    outs.append([srv.handle(r) for r in reqs])
                else:
                    outs.append(
                        list(srv.serve_iter(reqs, threads=threads, window=window))
                    )
        def strip_timing(obj):
            """Timing is the one legitimately nondeterministic field —
            it appears inside `stats` results too (elapsed totals)."""
            if isinstance(obj, dict):
                return {
                    k: strip_timing(v) for k, v in obj.items() if k != "elapsed_s"
                }
            if isinstance(obj, list):
                return [strip_timing(v) for v in obj]
            return obj

        for seq, streamed in zip(*outs, strict=True):
            assert _uniform(streamed)
            for key in ("op", "dataset", "fingerprint", "cached"):
                assert seq[key] == streamed[key]
            assert json.dumps(strip_timing(seq["result"]), sort_keys=True) == json.dumps(
                strip_timing(streamed["result"]), sort_keys=True
            )
            assert (seq["error"] is None) == (streamed["error"] is None)

    def test_window_bounds_intake(self, server):
        """The dispatcher must pull at most `window` requests ahead of the
        consumer — never the whole stream."""
        pulled = [0]

        def producer():
            for _ in range(100):
                pulled[0] += 1
                yield {"op": "learn", "dataset": "asia", "max_depth": 0}

        window = 5
        it = server.serve_iter(producer(), threads=2, window=window)
        first = next(it)
        assert first["error"] is None
        # Allow the one request the consumer already took plus the window.
        assert pulled[0] <= window + 1
        rest = list(it)
        assert len(rest) == 99
        assert server.n_peak_inflight <= window
        assert server.stats()["dispatch"]["peak_inflight"] <= window

    def test_lockstep_producer_never_deadlocks(self, server):
        """A producer that waits for response i before sending i+1 is the
        shape that deadlocked the materialising dispatcher."""
        consumed = threading.Event()
        consumed.set()

        def producer():
            for i in range(8):
                assert consumed.wait(30), f"dispatcher stalled at request {i}"
                consumed.clear()
                yield {"op": "learn", "dataset": ("asia", "sprinkler")[i % 2],
                       "max_depth": 0}

        n = 0
        for resp in server.serve_iter(producer(), threads=4, window=64):
            assert resp["error"] is None
            n += 1
            consumed.set()
        assert n == 8
        assert server.n_peak_inflight <= 1  # lockstep: one in flight, ever

    def test_aliased_ids_share_a_lane(self, asia_data):
        """Regression (ISSUE-5): lanes are keyed by resolved content
        fingerprint, so ids naming byte-identical data — which share a
        session and result cache — interleave deterministically."""
        with EngineServer() as srv:
            srv.register("a", asia_data)
            srv.register("b", asia_data)
            key_a = srv._lane_key({"op": "learn", "dataset": "a"})
            key_b = srv._lane_key({"op": "learn", "dataset": "b"})
            assert key_a == key_b

    def test_aliased_ids_cache_accounting_is_sequential(self, asia_data):
        """With aliased ids racing in separate lanes the `cached` flags
        were nondeterministic; one shared lane makes them exactly the
        sequential run's, every time."""
        reqs = [
            {"op": "learn", "dataset": "ab"[i % 2], "alpha": a, "max_depth": 1}
            for a in (0.05, 0.01)
            for i in range(4)
        ]

        def run(threads):
            with EngineServer() as srv:
                srv.register("a", asia_data)
                srv.register("b", asia_data)
                return [r["cached"] for r in srv.serve(reqs, threads=threads)]

        sequential = run(1)
        for _ in range(3):  # would flake under the old repr(tag) lanes
            assert run(3) == sequential

    def test_parse_failure_is_ordered_error_response(self, server):
        from repro.engine.server import ParseFailure

        out = server.serve(
            [
                {"op": "learn", "dataset": "asia", "max_depth": 0},
                ParseFailure("invalid JSON: line 2"),
                {"op": "learn", "dataset": "asia", "max_depth": 0},
            ],
            threads=2,
        )
        assert all(_uniform(r) for r in out)
        assert out[1]["error"] == "invalid JSON: line 2"
        assert out[0]["error"] is None and out[2]["cached"]

    def test_broken_request_iterator_propagates(self, server):
        def producer():
            yield {"op": "learn", "dataset": "asia", "max_depth": 0}
            raise RuntimeError("producer exploded")

        it = server.serve_iter(producer(), threads=2)
        assert next(it)["error"] is None
        with pytest.raises(RuntimeError, match="producer exploded"):
            next(it)

    def test_note_shutdown_lands_in_manifest(self, server):
        server.handle({"op": "learn", "dataset": "asia", "max_depth": 0})
        assert server.manifest()["shutdown"] is None
        server.note_shutdown("signal", signum=2)
        doc = server.manifest()["shutdown"]
        assert doc["reason"] == "signal" and doc["signum"] == 2 and doc["drained"]


# --------------------------------------------------------------------- #
# manifest spanning sessions
# --------------------------------------------------------------------- #
class TestServerManifest:
    def test_totals_are_exact_sum_of_parts(self, server, tmp_path):
        server.serve(
            [
                {"op": "learn", "dataset": "asia", "max_depth": 0},
                {"op": "learn", "dataset": "asia", "max_depth": 0},  # hit
                {"op": "learn", "dataset": "sprinkler", "gs": 0},  # error (in-session)
                {"op": "learn", "dataset": "sprinkler", "max_depth": 0},
                {"op": "learn", "dataset": "nope"},  # unrouted error
                {"op": "close_dataset", "dataset": "asia"},  # retires a manifest
                {"op": "stats"},
            ]
        )
        doc = server.manifest()
        parts = [s["totals"] for s in doc["sessions"]] + [doc["unrouted"]["totals"]]
        assert doc["totals"] == merge_totals(parts)
        assert doc["totals"]["n_requests"] == 5  # admin ops tracked separately
        assert doc["totals"]["n_errors"] == 2
        assert doc["totals"]["n_result_cache_hits"] == 1
        lives = {s["dataset_ids"][0]: s["live"] for s in doc["sessions"]}
        assert lives == {"asia": False, "sprinkler": True}
        path = tmp_path / "m.json"
        server.write_manifest(path)
        assert json.loads(path.read_text())["totals"] == doc["totals"]

    def test_evicted_sessions_stay_in_manifest(self, asia_data, sprinkler_data):
        with EngineServer(max_sessions=1) as srv:
            srv.register("a", asia_data)
            srv.register("b", sprinkler_data)
            srv.handle({"op": "learn", "dataset": "a", "max_depth": 0})
            srv.handle({"op": "learn", "dataset": "b", "max_depth": 0})
            doc = srv.manifest()
        evicted = [s for s in doc["sessions"] if s["evicted"]]
        assert len(evicted) == 1 and evicted[0]["dataset_ids"] == ["a"]
        assert doc["totals"]["n_requests"] == 2

    def test_unrouted_errors_carry_into_manifest(self, server):
        server.handle(np.int64(3))  # not a mapping
        server.handle({"op": "learn", "dataset": "ghost-town"})
        doc = server.manifest()
        assert doc["unrouted"]["totals"]["n_errors"] == 2
        assert doc["totals"]["n_errors"] == 2

    def test_stats_totals_equal_manifest_totals(self, asia_data, sprinkler_data):
        # stats() merges the per-session running totals directly instead
        # of building the run document; the payload must not change by a
        # byte across computed, cached, error, unrouted and evicted rows.
        with EngineServer(max_sessions=1) as srv:
            srv.register("a", asia_data)
            srv.register("b", sprinkler_data)
            assert json.dumps(srv.stats()["totals"]) == json.dumps(srv.manifest()["totals"])
            srv.serve(
                [
                    {"op": "learn", "dataset": "a", "max_depth": 0},
                    {"op": "learn", "dataset": "a", "max_depth": 0},  # cached
                    {"op": "learn", "dataset": "a", "gs": 0},  # in-session error
                    {"op": "learn", "dataset": "b", "max_depth": 0},  # evicts "a"
                    {"op": "learn", "dataset": "ghost"},  # unrouted error
                    {"op": "learn", "dataset": "a", "max_depth": 1},  # evicts "b"
                ]
            )
            doc = srv.manifest()
            totals = srv.stats()["totals"]
        assert sum(s["evicted"] for s in doc["sessions"]) == 2
        assert json.dumps(totals) == json.dumps(doc["totals"])
        assert totals["n_requests"] == 6
        assert totals["n_errors"] == 2
        assert totals["n_result_cache_hits"] == 1

    def test_running_totals_match_a_rescan_of_the_rows(self):
        from repro.engine.manifest import RunManifest

        man = RunManifest("fp")
        empty = man.totals()
        assert empty["elapsed_s"] == 0 and type(empty["elapsed_s"]) is int
        for i in range(50):
            man.add_request(
                "learn", f"f{i}", i % 3 == 0, 0.1 * i + 1e-9, error="x" if i % 7 == 0 else None
            )
        rows = man.requests
        cached = sum(1 for r in rows if r["cached"])
        errors = sum(1 for r in rows if "error" in r)
        rescan = {
            "n_requests": len(rows),
            "n_computed": len(rows) - cached - errors,
            "n_result_cache_hits": cached,
            "n_errors": errors,
            "elapsed_s": sum(r["elapsed_s"] for r in rows),
        }
        assert json.dumps(man.totals()) == json.dumps(rescan)
        assert RunManifest("fp", requests=list(rows)).totals() == rescan
