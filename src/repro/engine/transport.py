"""Socket front end for the multi-dataset engine server.

:class:`EngineTransport` puts :class:`~repro.engine.server.EngineServer`
behind a TCP or Unix-domain socket speaking the exact JSONL protocol of
``fastbns serve``: one request object per line in, one response object
per line out, same order, per connection.  It exists because the stdin
path serves exactly one producer per process — the ROADMAP's heavy
traffic means many concurrent clients against one warm registry of
sessions.

Design
------
* **One acceptor thread, one handler thread per connection.**  Each
  connection runs its own :meth:`EngineServer.serve_iter` generator, so
  a connection gets ordered responses, a bounded in-flight window, and
  concurrent per-session lanes — the streaming dispatch core is the
  multiplexer; the transport only frames bytes.
* **Backpressure end to end.**  The window caps dispatched-but-unwritten
  requests per connection; a client that stops reading stalls its own
  window (the socket send buffer fills, the generator pauses at yield)
  without starving other connections or buffering its stream.
* **Graceful drain.**  :meth:`EngineTransport.shutdown` with
  ``drain=True`` (what the CLI does on SIGINT/SIGTERM) stops accepting,
  half-closes every connection's read side so intake sees EOF, lets
  in-flight lanes finish, flushes their responses, then joins the
  handlers — the run manifest written afterwards accounts for every
  request that made it in.

Exactness is inherited: the transport never inspects payloads, so
responses are byte-identical to the same stream over stdin.

:func:`bind_listener` is the one place a listen address becomes a
listening socket; the process plane's router binds through it too.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from collections.abc import Iterator

from .server import DEFAULT_WINDOW, EngineServer, ParseFailure

__all__ = ["EngineTransport", "LineStream", "bind_listener", "parse_address"]

#: Completion-latency samples kept, per connection and per transport
#: (most recent win).
_LATENCY_SAMPLES = 65536


class _LatencySink:
    """``timings`` sink of one connection: keeps only each response's
    completion latency (``t_done - t_in``) in a bounded deque, not the
    dispatcher's per-response record."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: deque[float] = deque(maxlen=_LATENCY_SAMPLES)

    def append(self, rec: dict) -> None:
        self.samples.append(rec["t_done"] - rec["t_in"])


def parse_address(spec) -> tuple[str, object]:
    """Resolve a listen/connect spec to ``(family, address)``.

    Accepts ``HOST:PORT`` (TCP; an empty host means all interfaces for
    servers and localhost for clients), ``unix:PATH`` (Unix-domain
    socket), or an already-split ``(host, port)`` tuple.  Returns
    ``("tcp", (host, port))`` or ``("unix", path)``.
    """
    if isinstance(spec, tuple):
        host, port = spec
        return "tcp", (str(host), int(port))
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"address must be 'HOST:PORT' or 'unix:PATH', got {spec!r}")
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError("unix address needs a path, e.g. unix:/tmp/fastbns.sock")
        return "unix", path
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise ValueError(
            f"TCP address must look like HOST:PORT (or unix:PATH), got {spec!r}"
        )
    try:
        return "tcp", (host, int(port))
    except ValueError:
        raise ValueError(f"invalid port in address {spec!r}") from None


def _reclaim_stale_unix_socket(path: str) -> None:
    """Unlink a leftover socket file nobody is listening on.

    A SIGKILLed server never reaches shutdown's ``os.unlink``, and the
    stale path would fail the next bind with ``EADDRINUSE`` until an
    operator removes it by hand.  A live server is detected by probing
    with a connect — only an unconnectable socket file is reclaimed;
    regular files are left alone (bind will fail loudly, as it should).
    """
    import stat

    try:
        if not stat.S_ISSOCK(os.stat(path).st_mode):
            return  # not a socket: let bind fail loudly
    except OSError:
        return  # nothing there
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(path)
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return
    finally:
        probe.close()
    raise OSError(f"unix socket {path} already has a live listener")


def bind_listener(kind: str, addr, backlog: int = 128) -> tuple[socket.socket, object]:
    """Bind and listen on a :func:`parse_address` result.

    Returns ``(listener, address)``: a unix listener reports its path
    (a stale socket file is reclaimed first); a TCP listener is bound
    with ``SO_REUSEADDR`` and reports its resolved ``(host, port)``, so
    port 0 reads back as the ephemeral port the kernel picked.
    """
    if kind == "unix":
        _reclaim_stale_unix_socket(addr)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind(addr)
        listener.listen(backlog)
    except OSError:
        listener.close()
        raise
    address = addr if kind == "unix" else listener.getsockname()[:2]
    return listener, address


class LineStream:
    """Drainable line framing over a socket.

    ``socket.makefile`` cannot be mixed with timeouts, and a blocking
    ``readline`` cannot observe a shutdown request — so intake frames
    lines itself: recv with a short poll timeout, split on newlines, and
    between complete lines check the transport's draining event.  On
    drain the stream ends at the next line boundary (complete lines
    already received are still served; a partial trailing line is
    dropped — it was never fully sent).  The newline search resumes where
    the previous one stopped, so a line split over many receives is
    framed in time linear in its length.
    """

    POLL_S = 0.2

    def __init__(self, sock: socket.socket, draining: threading.Event) -> None:
        self._sock = sock
        self._draining = draining
        self._buf = bytearray()
        sock.settimeout(self.POLL_S)

    def lines(self) -> Iterator[str]:
        searched = 0  # leading bytes of _buf known to hold no newline
        while True:
            newline = self._buf.find(b"\n", searched)
            if newline >= 0:
                line = self._buf[:newline].decode("utf-8", errors="replace")
                del self._buf[: newline + 1]
                searched = 0
                yield line
                continue
            searched = len(self._buf)
            if self._draining.is_set():
                return
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:  # client half-closed: natural end of stream
                return
            self._buf += chunk


class _Connection:
    """One client socket: frames lines into a serve_iter stream."""

    def __init__(self, transport: "EngineTransport", sock: socket.socket) -> None:
        self.transport = transport
        self.sock = sock
        self.thread: threading.Thread | None = None
        self.n_responses = 0

    def _requests(self, stream: LineStream) -> Iterator[object]:
        for line in stream.lines():
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                yield ParseFailure(f"invalid JSON: {exc}")

    def run(self) -> None:
        t = self.transport
        stream = LineStream(self.sock, t._draining_conns)
        latencies = _LatencySink()
        gen = t.engine.serve_iter(
            self._requests(stream), threads=t.threads, window=t.window, timings=latencies
        )
        try:
            for resp in gen:
                self._send((json.dumps(resp) + "\n").encode("utf-8"))
                self.n_responses += 1
        except OSError:
            # Client went away mid-stream (reset, broken pipe).  Closing
            # the generator drains dispatched lanes so the manifest still
            # accounts for them; the responses have nowhere to go.
            pass
        finally:
            gen.close()
            self._close_cleanly()
            t._note_latencies(latencies.samples)
            t._connection_done(self)

    #: How long a drain waits for a client that stopped reading before
    #: the connection is dropped (its responses have nowhere to go).
    DRAIN_SEND_GRACE_S = 5.0

    def _send(self, data: bytes) -> None:
        """Blocking send despite the poll timeout on the socket.

        The 0.2 s socket timeout exists for the *reader*; a send that
        trips it just means the client is reading slowly (its receive
        buffer is the final backpressure stage), so retry rather than
        drop the connection — until a shutdown is in progress, at which
        point a client that will not read gets a bounded grace period
        instead of stalling the drain forever.
        """
        view = memoryview(data)
        deadline = None
        while view:
            try:
                sent = self.sock.send(view)
            except socket.timeout:
                if self.transport._stopping.is_set():
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.DRAIN_SEND_GRACE_S
                    elif now >= deadline:
                        raise OSError(
                            "client stopped reading during drain"
                        ) from None
                continue
            view = view[sent:]

    def _close_cleanly(self) -> None:
        """FIN then drain stragglers so the client sees EOF, never RST.

        Closing a socket with unread received bytes sends RST, which
        would turn a graceful drain into a connection error on the
        client.  Half-close the write side (the client's reader gets a
        clean EOF after the last response), then discard whatever the
        client was still sending until it closes or a short deadline
        passes.
        """
        try:
            self.sock.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                try:
                    if not self.sock.recv(65536):
                        break
                except socket.timeout:
                    continue
                except OSError:
                    break
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Tear the connection down without draining."""
        try:
            self.sock.close()
        except OSError:
            pass


class EngineTransport:
    """Serve an :class:`EngineServer` over TCP or a Unix-domain socket.

    Parameters
    ----------
    engine:
        The (already configured/registered) server.  The transport does
        not own it — closing the engine is the caller's job, *after*
        :meth:`shutdown`, so drained manifests see live sessions.
    listen:
        ``"HOST:PORT"`` (port 0 picks an ephemeral port — read
        :attr:`address` back), ``"unix:PATH"``, or a ``(host, port)``
        tuple.  ``None`` builds an **adopt-only** transport: no listener
        and no accept thread — connections arrive exclusively through
        :meth:`adopt` (the process plane's fd-passing mode, where the
        router accepts and workers serve).
    threads / window:
        Per-connection dispatch parallelism and in-flight window,
        passed straight to :meth:`EngineServer.serve_iter`.
    """

    def __init__(
        self,
        engine: EngineServer,
        listen=None,
        *,
        threads: int = 1,
        window: int = DEFAULT_WINDOW,
        backlog: int = 128,
    ) -> None:
        self.engine = engine
        self.threads = max(1, int(threads))
        self.window = max(1, int(window))
        self._listener: socket.socket | None = None
        self.address: object = None
        if listen is None:
            self.kind = "adopted"
        else:
            self.kind, addr = parse_address(listen)
            self._listener, self.address = bind_listener(self.kind, addr, backlog)
        self._unix_path = self.address if self.kind == "unix" else None
        self._started = False
        self._lock = threading.Lock()
        self._connections: set[_Connection] = set()
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._draining_conns = threading.Event()
        self._drained = threading.Event()
        self.n_connections = 0
        self.n_responses = 0
        # Server-side completion latencies (t_done - t_in, seconds) over
        # all finished connections — bounded, most recent samples win.
        self._latencies_s: deque[float] = deque(maxlen=_LATENCY_SAMPLES)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        if self.kind == "adopted":
            return "adopted"
        if self.kind == "unix":
            return f"unix:{self.address}"
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "EngineTransport":
        """Begin accepting connections on a background thread.

        An adopt-only transport (``listen=None``) has nothing to accept;
        ``start`` just arms it for :meth:`adopt`.
        """
        if self._started:
            raise RuntimeError("transport already started")
        self._started = True
        if self._listener is not None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="engine-transport-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def adopt(self, sock: socket.socket) -> None:
        """Serve a connection accepted elsewhere (fd-passed by a router).

        The socket gets the same handler thread, framing, drain and
        accounting as an accepted one — adoption changes who called
        ``accept()``, nothing else.  Raises ``RuntimeError`` (and closes
        the socket) once shutdown has begun, so a racing router cannot
        strand a client on a dying worker silently.
        """
        if not self._spawn_connection(sock):
            sock.close()
            raise RuntimeError("transport is shutting down")

    def _accept_loop(self) -> None:
        # A blocking accept() is not reliably woken by close() from
        # another thread; poll with a short timeout instead so shutdown
        # is observed within one tick.
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # shutdown() won the race and already closed it
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown()
            if not self._spawn_connection(sock):
                sock.close()
                break

    def _spawn_connection(self, sock: socket.socket) -> bool:
        """Register ``sock`` and start its handler thread.

        The one path every connection takes, accepted or adopted.
        Returns ``False`` (without closing the socket) when the
        transport is already stopping.
        """
        sock.setblocking(True)
        conn = _Connection(self, sock)
        with self._lock:
            if self._stopping.is_set():
                return False
            self._connections.add(conn)
            self.n_connections += 1
        conn.thread = threading.Thread(
            target=conn.run,
            name="engine-transport-conn",
            daemon=True,
        )
        conn.thread.start()
        return True

    def _connection_done(self, conn: _Connection) -> None:
        with self._lock:
            self._connections.discard(conn)
            self.n_responses += conn.n_responses

    def _note_latencies(self, samples: deque[float]) -> None:
        with self._lock:
            self._latencies_s.extend(samples)

    def latency_summary(self) -> dict:
        """p50/p95/p99/max/mean (ms) of server-side completion latency
        (intake to worker finish) over finished connections."""
        from .workload import summarize_latencies

        with self._lock:
            samples = list(self._latencies_s)
        return summarize_latencies(samples)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` completes (signal-interruptible)."""
        deadline = None if timeout is None else (time.monotonic() + timeout)
        while True:
            # Short waits keep the main thread responsive to signals.
            if self._drained.wait(0.2):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting and wind down; idempotent.

        ``drain=True`` ends every connection's intake at its next line
        boundary (complete lines already received are still served),
        waits for in-flight lanes to finish and their responses to
        flush, then half-closes so clients read a clean EOF.  With
        ``drain=False`` connections are torn down immediately
        (dispatched requests still complete inside their generators'
        close, but responses are dropped).
        """
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._connections)
        if drain:
            self._draining_conns.set()
        else:
            for conn in conns:
                conn.kill()
        for conn in conns:
            if conn.thread is not None:
                conn.thread.join(timeout=timeout)
                if conn.thread.is_alive():
                    # Grace expired (client neither reading nor closing):
                    # tear the socket down so the handler unblocks and
                    # its accounting still lands.
                    conn.kill()
                    conn.thread.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            self._unix_path = None
        self._drained.set()

    def __enter__(self) -> "EngineTransport":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineTransport({self.describe()}, threads={self.threads}, "
            f"window={self.window}, connections={len(self._connections)})"
        )
