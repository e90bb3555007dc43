"""Tests for the socket transport layer (repro.engine.transport/client).

Covers the ISSUE-5 transport surface: TCP and Unix-socket round trips
speaking the exact ``fastbns serve`` JSONL protocol, per-connection
response ordering under pipelining, concurrent-client equivalence with
the in-process dispatcher, graceful drain (in-flight served, clean EOF,
manifest accounting), line framing, and address parsing.  Every
blocking call carries a timeout so a reintroduced deadlock fails fast
instead of hanging the suite.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from _timeouts import hard_timeout

from repro.engine import EngineClient, EngineServer, EngineTransport, LineStream
from repro.engine.transport import parse_address

TIMEOUT = 30.0


def _payload(resp: dict) -> str:
    """Everything a client consumes, minus timing."""
    return json.dumps(
        {k: resp[k] for k in ("op", "dataset", "fingerprint", "cached", "result", "error")},
        sort_keys=True,
    )


@pytest.fixture()
def engine(asia_data, sprinkler_data):
    srv = EngineServer(alpha=0.05)
    srv.register("asia", asia_data)
    srv.register("sprinkler", sprinkler_data)
    yield srv
    srv.close()


@pytest.fixture()
def transport(engine):
    t = EngineTransport(engine, "127.0.0.1:0", threads=2, window=8)
    t.start()
    yield t
    t.shutdown(timeout=TIMEOUT)


class TestParseAddress:
    def test_tcp(self):
        assert parse_address("127.0.0.1:7878") == ("tcp", ("127.0.0.1", 7878))
        assert parse_address(("localhost", 9)) == ("tcp", ("localhost", 9))

    def test_unix(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    @pytest.mark.parametrize("bad", ["", "nocolon", "host:notaport", "unix:", 7, None])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestLineStream:
    """Framing over a real socket pair; drain and EOF end the stream."""

    @staticmethod
    def _stream(draining=None):
        import socket

        reader, writer = socket.socketpair()
        return LineStream(reader, draining or threading.Event()), reader, writer

    def test_line_split_over_many_sends(self):
        import socket

        stream, reader, writer = self._stream()
        line = b"x" * (1 << 20)

        def feed():
            for i in range(0, len(line), 4096):
                writer.sendall(line[i:i + 4096])
            writer.sendall(b"\ntail\n")
            writer.shutdown(socket.SHUT_WR)

        with hard_timeout(TIMEOUT, "split line"):
            sender = threading.Thread(target=feed, daemon=True)
            sender.start()
            got = list(stream.lines())
            sender.join()
        reader.close()
        writer.close()
        assert got == [line.decode(), "tail"]

    def test_several_lines_in_one_send(self):
        import socket

        stream, reader, writer = self._stream()
        writer.sendall(b'a\n{"op": "stats"}\n\nccc\n')
        writer.shutdown(socket.SHUT_WR)
        with hard_timeout(TIMEOUT, "one send"):
            got = list(stream.lines())
        reader.close()
        writer.close()
        assert got == ["a", '{"op": "stats"}', "", "ccc"]

    def test_partial_trailing_line_dropped_on_drain(self):
        draining = threading.Event()
        stream, reader, writer = self._stream(draining)
        writer.sendall(b"one\ntwo\npart")
        with hard_timeout(TIMEOUT, "drain"):
            lines = stream.lines()
            assert next(lines) == "one"
            draining.set()
            # Complete lines already received are still served.
            assert list(lines) == ["two"]
        reader.close()
        writer.close()


class TestRoundTrip:
    def test_lockstep_learn_blanket_admin(self, transport):
        with EngineClient(transport.describe(), timeout=TIMEOUT) as client:
            learn = client.learn("asia", max_depth=1)
            assert learn["error"] is None and learn["dataset"] == "asia"
            again = client.learn("asia", max_depth=1)
            assert again["cached"] and again["result"] == learn["result"]
            blanket = client.blanket(0, dataset="sprinkler")
            assert blanket["error"] is None and "blanket" in blanket["result"]
            stats = client.stats()
            assert stats["result"]["sessions"]["live"] == 2

    def test_matches_in_process_dispatch(self, transport, asia_data, sprinkler_data):
        reqs = [
            {"op": "learn", "dataset": ds, "alpha": a, "max_depth": 1}
            for a in (0.05, 0.01)
            for ds in ("asia", "sprinkler")
        ] + [
            {"op": "learn", "dataset": "asia", "alpha": 0.05, "max_depth": 1},  # hit
            {"op": "learn", "dataset": "asia", "gs": 0},  # error
        ]
        with EngineClient(transport.describe(), timeout=TIMEOUT) as client:
            for r in reqs:
                client.send(r)
            over_wire = client.drain()
        with EngineServer(alpha=0.05) as reference:
            reference.register("asia", asia_data)
            reference.register("sprinkler", sprinkler_data)
            direct = reference.serve(reqs)
        assert [_payload(a) for a in over_wire] == [_payload(b) for b in direct]

    def test_parse_error_keeps_stream_alive(self, transport):
        with EngineClient(transport.describe(), timeout=TIMEOUT) as client:
            client._writer.write('{"op": "learn", "dataset": "asia", "max_depth": 0}\n')
            client._writer.write("this is not json\n")
            client._writer.write('{"op": "learn", "dataset": "asia", "max_depth": 0}\n')
            client._writer.flush()
            client._pending = 3
            first, bad, third = client.drain()
        assert first["error"] is None
        assert "invalid JSON" in bad["error"]
        assert third["cached"]

    def test_unix_socket_stale_file_is_reclaimed(self, engine, tmp_path):
        """Review fix (ISSUE-5): a SIGKILLed server leaves its socket
        file behind; the next bind must reclaim it instead of failing
        with EADDRINUSE — but never delete a live listener's socket or
        a regular file."""
        import socket as socket_mod

        path = tmp_path / "stale.sock"
        leftover = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()  # bound but never listening: stale
        t = EngineTransport(engine, f"unix:{path}", threads=1, window=2)
        t.start()
        try:
            with pytest.raises(OSError, match="live listener"):
                EngineTransport(engine, f"unix:{path}")
        finally:
            t.shutdown(timeout=TIMEOUT)
        regular = tmp_path / "regular.txt"
        regular.write_text("not a socket")
        with pytest.raises(OSError):
            EngineTransport(engine, f"unix:{regular}")
        assert regular.exists(), "a regular file must never be reclaimed"

    def test_unix_socket(self, engine, tmp_path):
        path = tmp_path / "fastbns.sock"
        t = EngineTransport(engine, f"unix:{path}", threads=2, window=4)
        t.start()
        try:
            with EngineClient(f"unix:{path}", timeout=TIMEOUT) as client:
                resp = client.learn("asia", max_depth=0)
                assert resp["error"] is None
        finally:
            t.shutdown(timeout=TIMEOUT)
        assert not path.exists(), "unix socket must be unlinked on shutdown"


class TestConcurrentClients:
    def test_two_clients_interleaved_datasets(self, transport, asia_data, sprinkler_data):
        """Two connections pipelining different datasets: each connection
        sees ordered responses whose payloads equal the sequential
        per-dataset reference (`cached` included — per-session order is
        each client's send order)."""
        per_client = {
            "asia": [
                {"op": "learn", "dataset": "asia", "alpha": a, "max_depth": 1}
                for a in (0.05, 0.01, 0.05)
            ],
            "sprinkler": [
                {"op": "learn", "dataset": "sprinkler", "alpha": a, "max_depth": 1}
                for a in (0.05, 0.01, 0.05)
            ],
        }
        results: dict[str, list] = {}
        errors: list = []

        def run(label: str) -> None:
            try:
                with EngineClient(transport.describe(), timeout=TIMEOUT) as client:
                    for req in per_client[label]:
                        client.send(req)
                    results[label] = client.drain()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(label,)) for label in per_client]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=TIMEOUT)
            assert not w.is_alive(), "client thread hung"
        assert not errors, errors

        for label, data in (("asia", asia_data), ("sprinkler", sprinkler_data)):
            with EngineServer(alpha=0.05) as reference:
                reference.register(label, data)
                direct = reference.serve(per_client[label])
            assert [_payload(a) for a in results[label]] == [
                _payload(b) for b in direct
            ]

    def test_long_connection_keeps_latency_floats_only(self, transport, monkeypatch):
        # A connection keeps one float per response, not the dispatcher's
        # timing record; the summary is the one the records would give.
        from repro.engine import transport as transport_mod
        from repro.engine.workload import summarize_latencies

        sinks, records = [], []
        real_append = transport_mod._LatencySink.append

        def spy(sink, rec):
            if sink not in sinks:
                sinks.append(sink)
            records.append(dict(rec))
            real_append(sink, rec)

        monkeypatch.setattr(transport_mod._LatencySink, "append", spy)
        with EngineClient(transport.describe(), timeout=TIMEOUT) as client:
            for i in range(40):
                client.learn("asia" if i % 2 else "sprinkler", max_depth=i % 3)
        transport.shutdown(timeout=TIMEOUT)
        assert len(sinks) == 1 and len(records) == 40
        assert all(type(v) is float for v in sinks[0].samples)
        want = summarize_latencies([r["t_done"] - r["t_in"] for r in records])
        assert transport.latency_summary() == want

    def test_connection_counters(self, transport):
        with EngineClient(transport.describe(), timeout=TIMEOUT) as c1:
            c1.learn("asia", max_depth=0)
        with EngineClient(transport.describe(), timeout=TIMEOUT) as c2:
            c2.learn("asia", max_depth=0)
        transport.shutdown(timeout=TIMEOUT)
        assert transport.n_connections == 2
        assert transport.n_responses == 2


class TestDrain:
    def test_shutdown_drains_inflight_then_clean_eof(self, engine):
        """Requests already received are served through the drain; the
        client then reads a clean EOF (never a connection reset), and the
        manifest accounts for everything."""
        with hard_timeout(3 * TIMEOUT, "drain test"):
            t = EngineTransport(engine, "127.0.0.1:0", threads=2, window=8)
            t.start()
            client = EngineClient(t.describe(), timeout=TIMEOUT)
            try:
                # Prime synchronously so the drain burst is all cache hits —
                # the test then exercises ordering, not learn latency.
                assert client.learn("asia", max_depth=0)["error"] is None
                for _ in range(5):
                    client.send({"op": "learn", "dataset": "asia", "max_depth": 0})
                # Give the connection time to ingest the burst; the drain
                # must then serve it without us reading a single response.
                time.sleep(0.5)
                t.shutdown(drain=True, timeout=TIMEOUT)
                responses = client.drain()
                assert len(responses) == 5
                assert all(r["cached"] for r in responses)
                with pytest.raises(ConnectionError, match="closed the connection"):
                    client.recv()
            finally:
                client.close()
            doc = engine.manifest()
            assert doc["totals"]["n_requests"] == 6

    def test_shutdown_is_idempotent_and_stops_accepts(self, engine):
        with hard_timeout(3 * TIMEOUT, "idempotent shutdown test"):
            t = EngineTransport(engine, "127.0.0.1:0", threads=1, window=2)
            t.start()
            t.shutdown(timeout=TIMEOUT)
            t.shutdown(timeout=TIMEOUT)  # second call is a no-op
            with pytest.raises(OSError):
                EngineClient(t.describe(), timeout=2.0).learn("asia")
