"""Tests for the multi-process serve plane (ISSUE 10).

Covers the tentpole surface end to end: the consistent-hash placement
layer (:class:`~repro.engine.routing.HashRing`), cross-worker request
forwarding and admin broadcast, merged run manifests whose totals are
the exact sum of the per-worker parts on mixed error/admin/alias
streams, per-worker store shards with warm restarts, the fd-passing
router on a TCP listener, and payload equivalence of ``serve
--processes 2`` against the in-process ``--threads`` dispatcher and a
sequential oracle on the committed golden trace.

Every socket-driving test runs under a hard wall-clock timeout — the
failure mode a broken drain or a lost fd produces *is* a hang.
"""

from __future__ import annotations

import os
import socket
from pathlib import Path

import pytest
from _timeouts import hard_timeout

from repro.cli import main
from repro.engine import (
    EngineClient,
    EngineServer,
    HashRing,
    ProcessPlane,
    load_trace,
    merge_totals,
)
from repro.engine.routing import lane_label, request_dataset_id

PLANE_TIMEOUT_S = 300.0
GOLDEN_TRACE = Path(__file__).resolve().parents[1] / (
    "benchmarks/traces/workload_500.jsonl"
)
SHM_DIR = "/dev/shm"


def _shm_entries() -> set[str] | None:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return None


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _drive(address, requests, *, window: int = 32) -> list[dict]:
    """Pipeline ``requests`` through one connection, responses in order."""
    responses: list[dict] = []
    with EngineClient(address) as client:
        pending = 0
        for req in requests:
            client.send(req)
            pending += 1
            if pending >= window:
                responses.append(client.recv())
                pending -= 1
        for _ in range(pending):
            responses.append(client.recv())
    return responses


def _worker_parts(merged: dict) -> list[dict]:
    return [
        w["manifest"]["totals"]
        for w in merged["workers"]
        if w["manifest"] is not None
    ]


# --------------------------------------------------------------------- #
# HashRing placement
# --------------------------------------------------------------------- #
class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(range(4))
        keys = [f"fp-{i:04x}" for i in range(256)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_every_worker_owns_a_fair_share(self):
        ring = HashRing(4)
        counts = {w: 0 for w in ring.workers}
        for i in range(4000):
            counts[ring.owner(f"key-{i}")] += 1
        # 64 replicas per worker keeps the spread tame: nobody starves,
        # nobody owns the ring.
        assert min(counts.values()) > 400
        assert max(counts.values()) < 2000

    def test_single_worker_owns_everything(self):
        ring = HashRing(1)
        assert {ring.owner(f"k{i}") for i in range(50)} == {0}

    def test_without_moves_only_the_removed_workers_keys(self):
        ring = HashRing(4)
        smaller = ring.without(2)
        assert smaller.workers == (0, 1, 3)
        moved = stayed = 0
        for i in range(2000):
            key = f"key-{i}"
            old = ring.owner(key)
            if old == 2:
                moved += 1
                assert smaller.owner(key) != 2
            else:
                stayed += 1
                assert smaller.owner(key) == old
        assert moved > 0 and stayed > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            HashRing(0)
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(["a", "a"])
        with pytest.raises(ValueError, match="replicas"):
            HashRing(2, replicas=0)
        with pytest.raises(ValueError, match="not on the ring"):
            HashRing(2).without(7)
        assert len(HashRing(3)) == 3


class TestRoutingHelpers:
    def test_request_dataset_id(self):
        assert request_dataset_id({"dataset": "a"}) == "a"
        assert request_dataset_id({}, "dflt") == "dflt"
        assert request_dataset_id({}) is None
        assert request_dataset_id({"dataset": 7}) is None
        assert request_dataset_id("not a mapping", "dflt") is None

    def test_lane_label(self):
        assert lane_label(None) == "malformed"
        assert lane_label(("unresolved", "x")) == "unresolved:x"
        assert lane_label("abc123") == "abc123"


# --------------------------------------------------------------------- #
# plane fixtures
# --------------------------------------------------------------------- #
def _plane_kwargs(**extra) -> dict:
    kwargs = dict(
        server_kwargs=dict(alpha=0.05, n_jobs=1, max_sessions=8),
        threads=2,
        window=32,
    )
    kwargs.update(extra)
    return kwargs


@pytest.fixture(scope="module")
def duo_datasets(asia_data, small_random_data):
    """Two tenants whose fingerprints land on *different* workers of a
    2-ring — guaranteed by construction below, not by luck."""
    from repro.engine import dataset_fingerprint

    ring = HashRing(2)
    fps = {
        "a": dataset_fingerprint(asia_data),
        "b": dataset_fingerprint(small_random_data),
    }
    owners = {ds: ring.owner(fp) for ds, fp in fps.items()}
    if owners["a"] == owners["b"]:
        # Perturb tenant b until it lands on the other worker; the
        # datasets module guarantees any slice re-fingerprints.
        from repro.datasets.sampling import forward_sample
        from repro.networks.generators import random_network

        for bump in range(1, 64):
            net = random_network(8, 10, rng=100 + bump, arity_range=(2, 3))
            candidate = forward_sample(net, 500, rng=bump)
            if ring.owner(dataset_fingerprint(candidate)) != owners["a"]:
                return {"a": asia_data, "b": candidate}
        pytest.fail("could not construct a cross-worker tenant pair")
    return {"a": asia_data, "b": small_random_data}


# --------------------------------------------------------------------- #
# cross-worker forwarding + merged manifests on a mixed stream
# --------------------------------------------------------------------- #
class TestPlaneMixedStream:
    def test_merged_totals_are_exact_sum_of_worker_parts(
        self, duo_datasets, tmp_path
    ):
        """Mixed queries / errors / admin ops / aliases across 2 workers:
        every request is accounted exactly once in the merged manifest."""
        with hard_timeout(PLANE_TIMEOUT_S, "mixed-stream plane"):
            shm_before = _shm_entries()
            plane = ProcessPlane(
                f"unix:{tmp_path}/front.sock",
                processes=2,
                registrations=list(duo_datasets.items()),
                **_plane_kwargs(),
            )
            plane.start()
            requests = [
                {"op": "blanket", "dataset": "a", "target": 0, "alpha": 0.05},
                {"op": "blanket", "dataset": "b", "target": 0, "alpha": 0.05},
                # Repeat: a result-cache hit at whichever worker owns "a".
                {"op": "blanket", "dataset": "a", "target": 0, "alpha": 0.05},
                # Errors: unknown dataset (unrouted at the front worker),
                # bad op, bad params at the owner.
                {"op": "blanket", "dataset": "nope", "target": 0},
                {"op": "frobnicate", "dataset": "a"},
                {"op": "blanket", "dataset": "b", "target": 0, "alpha": 7.0},
                # Admin: stats barrier, then alias "a" under a second id —
                # byte-identical source, so same fingerprint, same worker,
                # and the repeat below hits the owner's result cache.
                {"op": "stats"},
                {"op": "blanket", "dataset": "a", "target": 1, "alpha": 0.05},
            ]
            responses = _drive(f"unix:{plane.address}", requests)
            plane.shutdown()
            merged = plane.manifest()

            assert [r.get("error") is not None for r in responses] == [
                False, False, False, True, True, True, False, False,
            ]
            assert responses[2]["cached"] is True
            assert responses[0]["fingerprint"] == responses[2]["fingerprint"]

            parts = _worker_parts(merged)
            assert len(parts) == 2
            assert merged["totals"] == merge_totals(parts)
            # 7 query requests (stats is admin: no manifest row), each
            # accounted exactly once across the two workers.
            assert merged["totals"]["n_requests"] == 7
            assert merged["totals"]["n_errors"] == 3
            # Both workers actually served something — the pair was
            # constructed to split across the ring.
            assert all(p["n_requests"] > 0 for p in parts)
        if shm_before is not None:
            leaked = _shm_entries() - shm_before
            assert not leaked, f"leaked shm blocks: {sorted(leaked)}"

    def test_alias_lands_on_same_worker_and_result_cache(
        self, duo_datasets, tmp_path
    ):
        """Two ids naming byte-identical data resolve to one fingerprint,
        one owner, one result cache — across process boundaries."""
        with hard_timeout(PLANE_TIMEOUT_S, "alias plane"):
            data = duo_datasets["a"]
            plane = ProcessPlane(
                f"unix:{tmp_path}/front.sock",
                processes=2,
                registrations=[("a", data), ("alias", data)],
                **_plane_kwargs(),
            )
            plane.start()
            responses = _drive(
                f"unix:{plane.address}",
                [
                    {"op": "blanket", "dataset": "a", "target": 0, "alpha": 0.05},
                    {"op": "blanket", "dataset": "alias", "target": 0, "alpha": 0.05},
                ],
            )
            plane.shutdown()
            merged = plane.manifest()
        first, second = responses
        assert first["error"] is None and second["error"] is None
        assert first["fingerprint"] == second["fingerprint"]
        assert second["cached"] is True
        # One worker owns the fingerprint: both rows in one shard.
        assert sorted(p["n_requests"] for p in _worker_parts(merged)) == [0, 2]
        assert merged["totals"] == merge_totals(_worker_parts(merged))

    def test_in_stream_register_broadcasts_to_every_worker(
        self, duo_datasets, tmp_path
    ):
        """A register admin op through one connection (one front worker)
        must make the dataset routable from *any* worker afterwards."""
        with hard_timeout(PLANE_TIMEOUT_S, "register broadcast"):
            plane = ProcessPlane(
                f"unix:{tmp_path}/front.sock",
                processes=2,
                registrations=[("a", duo_datasets["a"])],
                **_plane_kwargs(),
            )
            plane.start()
            reg = {
                "op": "register",
                "dataset": "late",
                "source": {"kind": "network", "name": "alarm", "samples": 301},
            }
            query = {"op": "blanket", "dataset": "late", "target": 0, "alpha": 0.05}
            # Register over connection 1, query over connections 2 and 3:
            # whichever front worker picks those up must already know it.
            r_reg = _drive(f"unix:{plane.address}", [reg])[0]
            r_q1 = _drive(f"unix:{plane.address}", [query])[0]
            r_q2 = _drive(f"unix:{plane.address}", [query])[0]
            plane.shutdown()
            merged = plane.manifest()
        assert r_reg["error"] is None and r_reg["result"]["registered"] is True
        assert r_q1["error"] is None
        assert r_q2["error"] is None and r_q2["cached"] is True
        assert merged["totals"]["n_requests"] == 2  # admin ops add no rows
        assert merged["totals"] == merge_totals(_worker_parts(merged))


# --------------------------------------------------------------------- #
# store shards + warm restart
# --------------------------------------------------------------------- #
class TestStoreShards:
    def test_per_worker_shards_and_warm_restart_payloads(
        self, duo_datasets, tmp_path
    ):
        store = str(tmp_path / "run.db")
        requests = [
            {"op": "blanket", "dataset": "a", "target": 0, "alpha": 0.05},
            {"op": "blanket", "dataset": "b", "target": 0, "alpha": 0.05},
            {"op": "blanket", "dataset": "a", "target": 1, "alpha": 0.01},
        ]

        def run() -> tuple[list[dict], dict]:
            plane = ProcessPlane(
                f"unix:{tmp_path}/front.sock",
                processes=2,
                registrations=list(duo_datasets.items()),
                store=store,
                **_plane_kwargs(),
            )
            plane.start()
            responses = _drive(f"unix:{plane.address}", requests)
            plane.shutdown()
            return responses, plane.manifest()

        with hard_timeout(PLANE_TIMEOUT_S, "warm-restart plane"):
            cold, cold_merged = run()
            assert os.path.exists(f"{store}.w0")
            assert os.path.exists(f"{store}.w1")
            warm, warm_merged = run()

        assert all(r["error"] is None for r in cold)
        # Byte-identical payloads across the restart, served from the
        # per-worker store shards without recomputing.
        assert _strip_timing([
            {k: r[k] for k in ("op", "dataset", "fingerprint", "result", "error")}
            for r in cold
        ]) == _strip_timing([
            {k: r[k] for k in ("op", "dataset", "fingerprint", "result", "error")}
            for r in warm
        ])
        assert all(r["cached"] for r in warm)
        assert warm_merged["totals"]["n_result_cache_hits"] == 3
        assert cold_merged["totals"] == merge_totals(_worker_parts(cold_merged))
        assert warm_merged["totals"] == merge_totals(_worker_parts(warm_merged))


# --------------------------------------------------------------------- #
# the router
# --------------------------------------------------------------------- #
class TestRouterModes:
    def test_tcp_connections_share_sessions(self, duo_datasets):
        with hard_timeout(PLANE_TIMEOUT_S, "tcp router"):
            plane = ProcessPlane(
                "127.0.0.1:0",
                processes=2,
                registrations=list(duo_datasets.items()),
                **_plane_kwargs(),
            )
            plane.start()
            # Separate connections: the router hands them to different
            # workers round-robin; fingerprint routing must make that
            # invisible.
            r1 = _drive(plane.address, [
                {"op": "blanket", "dataset": "a", "target": 0, "alpha": 0.05},
            ])[0]
            r2 = _drive(plane.address, [
                {"op": "blanket", "dataset": "a", "target": 0, "alpha": 0.05},
            ])[0]
            plane.shutdown()
            merged = plane.manifest()
        assert r1["error"] is None
        assert r2["error"] is None and r2["cached"] is True
        assert _strip_timing({k: r1[k] for k in ("result", "fingerprint")}) == (
            _strip_timing({k: r2[k] for k in ("result", "fingerprint")})
        )
        assert merged["router"]["n_connections"] == 2
        assert merged["totals"]["n_requests"] == 2
        assert merged["totals"]["n_result_cache_hits"] == 1
        assert merged["totals"] == merge_totals(_worker_parts(merged))

    def test_validation(self):
        with pytest.raises(ValueError, match="processes"):
            ProcessPlane("127.0.0.1:0", processes=0)

    def test_double_start_raises(self, duo_datasets):
        with hard_timeout(PLANE_TIMEOUT_S, "double start"):
            plane = ProcessPlane(
                "127.0.0.1:0",
                processes=1,
                registrations=[("a", duo_datasets["a"])],
                **_plane_kwargs(),
            )
            plane.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    plane.start()
            finally:
                plane.shutdown()

    def test_cli_processes_requires_listen(self):
        with pytest.raises(SystemExit, match="--listen"):
            main([
                "serve", "--register", "a=network:alarm",
                "--processes", "2", "--requests", "/dev/null",
            ])


# --------------------------------------------------------------------- #
# golden-trace equivalence: --processes 2 vs --threads vs sequential
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden_tenants(tmp_path_factory):
    """The golden trace's tenants materialised as CSV files, so the
    byte-identical sources register on the plane (across forks) and on
    the in-process oracles alike."""
    from repro.datasets.io import write_csv
    from repro.datasets.sampling import forward_sample
    from repro.networks.generators import random_network

    trace = load_trace(GOLDEN_TRACE)
    spec = trace.spec
    out = tmp_path_factory.mktemp("golden-tenants")
    registrations = []
    for i, ds_id in enumerate(spec.datasets):
        # The exact recipe `fastbns workload replay` uses for
        # unregistered tenants, with a smaller sample count for speed.
        n_vars = max(8, spec.n_targets)
        net = random_network(
            n_vars,
            n_vars + 2,
            rng=spec.seed * 1009 + i,
            arity_range=(2, 3),
            max_parents=3,
        )
        data = forward_sample(net, 400, rng=spec.seed * 1013 + i)
        path = out / f"{ds_id}.csv"
        write_csv(data, str(path))
        registrations.append((ds_id, f"csv:{path}"))
    return trace, registrations


class TestGoldenTraceEquivalence:
    def test_plane_matches_threads_and_sequential_oracles(
        self, golden_tenants, tmp_path
    ):
        """ISSUE 10 acceptance: `serve --processes 2` answers the
        committed golden trace payload-identically to the in-process
        `--threads` dispatcher and to a sequential oracle.  Per-worker
        `stats` payloads legitimately differ (counters are per process),
        so admin responses are compared on shape, queries on bytes."""
        trace, registrations = golden_tenants
        requests = [rec.request for rec in trace.records]
        with hard_timeout(PLANE_TIMEOUT_S, "golden-trace equivalence"):
            plane = ProcessPlane(
                f"unix:{tmp_path}/front.sock",
                processes=2,
                registrations=registrations,
                **_plane_kwargs(),
            )
            plane.start()
            plane_responses = _drive(f"unix:{plane.address}", requests)
            plane.shutdown()
            merged = plane.manifest()

            def oracle(threads: int) -> list[dict]:
                srv = EngineServer(alpha=0.05, n_jobs=1, max_sessions=8)
                try:
                    for ds_id, spec_str in registrations:
                        srv.register(ds_id, spec_str)
                    return list(
                        srv.serve_iter(iter(requests), threads=threads, window=32)
                    )
                finally:
                    srv.close()

            threaded = oracle(2)
            sequential = oracle(1)

        assert len(plane_responses) == len(requests) == len(trace)
        n_queries = 0
        for req, got, thr, seq in zip(
            requests, plane_responses, threaded, sequential, strict=True
        ):
            if req.get("op") == "stats":
                # Admin: per-process counters differ by design; the
                # response must still be a well-formed stats success.
                assert got["error"] is None
                assert {"datasets", "sessions", "totals"} <= set(got["result"])
                continue
            n_queries += 1
            assert _strip_timing(got) == _strip_timing(thr)
            assert _strip_timing(got) == _strip_timing(seq)
        assert n_queries > 400  # the committed trace is ~95% queries

        parts = _worker_parts(merged)
        assert merged["totals"] == merge_totals(parts)
        assert merged["totals"]["n_requests"] == n_queries
        assert all(p["n_requests"] > 0 for p in parts)
