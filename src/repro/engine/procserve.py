"""Multi-process serve plane: fingerprint-sharded workers behind a router.

One :class:`~repro.engine.server.EngineServer` process serves every
connection under a single GIL — JSON parsing, response assembly and lane
dispatch all contend even though the heavy CI kernels run in process
pools, which caps the socket bench near 2x two lockstep engines.  The
process plane (``fastbns serve --processes N``) escapes that ceiling:

* the **router** (this process) owns the listen socket (TCP or unix)
  and a small accept loop; each accepted connection's fd is passed
  round-robin to a live serve worker over a Unix ``SOCK_SEQPACKET``
  socketpair (:func:`socket.send_fds`);
* each **serve worker** is a forked process running its own
  :class:`EngineServer` + :meth:`serve_iter
  <repro.engine.server.EngineServer.serve_iter>` (its own GIL), an
  adopt-only front :class:`~repro.engine.transport.EngineTransport` for
  client connections, and an internal Unix-socket transport peers
  forward through;
* **placement** is by resolved dataset *content fingerprint* on a
  consistent-hash ring (:class:`~repro.engine.routing.HashRing`): every
  session lives in exactly one worker, and ids aliasing byte-identical
  data land on the same worker — the single-process lane-determinism
  guarantee survives the process split.  A front worker holding a
  connection forwards non-local requests to the owner over the same
  JSONL protocol (lockstep per lane, which per-lane serialisation
  already required);
* each worker gets its **own store shard** (``<path>.w<K>`` — the
  store's SQLite layer is deliberately single-process) and journals
  under run id ``<base>.w<K>``; the router merges the per-worker
  :class:`~repro.engine.manifest.RunManifest` documents with
  :func:`~repro.engine.manifest.merge_totals`, so run totals are the
  exact sum of the parts;
* **drain** mirrors the single-process path: SIGINT/SIGTERM stop the
  accept loop, every worker drains its client connections at line
  boundaries (internal sockets stay up so in-flight forwards finish),
  the router collects per-worker manifests over the internal sockets
  (the ``manifest`` admin op — stream framed, no message-size limits),
  then workers exit; the CLI writes the merged manifest and exits
  ``128+signum``;
* a worker that **dies** (crash, SIGKILL) is respawned under the same
  run id and store shard: the journal's write-through rows let the
  successor fold the predecessor's served requests back into the merged
  totals (:func:`~repro.engine.manifest.recovered_manifest_doc`), while
  requests in flight on the dead worker surface as clean error
  responses at the forwarding front worker — accounted exactly once,
  in its unrouted manifest.

Workers ignore SIGINT/SIGTERM (the router orchestrates shutdown); EOF on
the control socket means the router died, and a worker then drains and
exits on its own.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

from .client import EngineClient
from .manifest import (
    MANIFEST_VERSION,
    merge_totals,
    recovered_manifest_doc,
    shutdown_doc,
)
from .routing import HashRing
from .server import DEFAULT_WINDOW, EngineServer
from .store.journal import new_run_id
from .transport import EngineTransport, bind_listener, parse_address

__all__ = ["ProcessPlane", "WorkerForwarder"]

#: recv buffer for control messages (JSON, small).
_CTL_BUF = 1 << 16
#: fds per control message (exactly one for "conn").
_CTL_MAXFDS = 4


class WorkerForwarder:
    """Per-worker request forwarding over the internal socket plane.

    Implements the :attr:`EngineServer.forwarder
    <repro.engine.server.EngineServer.forwarder>` interface: placement
    via the shared :class:`~repro.engine.routing.HashRing`, lockstep
    forwarding of non-local query lanes to their owner worker, and
    best-effort broadcast of successful ``register``/``close_dataset``
    ops (marked ``relay`` so peers never echo them back).

    Connections are cached per ``(owner, lane fingerprint)`` for queries
    — the front dispatcher serialises each lane, so a lane's client is
    never used concurrently — and per peer for admin broadcasts.  The
    pop/reinsert pattern around each use makes that invariant explicit:
    a client is out of the cache while a request is in flight.
    """

    def __init__(
        self,
        index: int,
        ring: HashRing,
        internal_paths: list[str],
        *,
        notify=None,
        timeout: float | None = None,
    ) -> None:
        self.index = int(index)
        self.ring = ring
        self._paths = list(internal_paths)
        self._notify = notify
        self._timeout = timeout
        self._lock = threading.Lock()
        self._lane_clients: dict[tuple[int, str], EngineClient] = {}
        self._admin_clients: dict[int, EngineClient] = {}
        self.n_forwarded = 0
        self.n_forward_errors = 0
        self.n_broadcast_errors = 0

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def owner(self, fingerprint: str) -> int:
        return self.ring.owner(fingerprint)

    def is_local(self, fingerprint: str) -> bool:
        return self.owner(fingerprint) == self.index

    # ------------------------------------------------------------------ #
    # query forwarding
    # ------------------------------------------------------------------ #
    def _connect(self, peer: int) -> EngineClient:
        return EngineClient(f"unix:{self._paths[peer]}", timeout=self._timeout)

    def forward(self, fingerprint: str, raw) -> dict:
        """Ship one query to its owner; the owner's response comes back
        verbatim (it is accounted in the *owner's* manifest).  Raises
        :class:`OSError` when the peer is unreachable — the caller turns
        that into a clean unrouted error response."""
        peer = self.owner(fingerprint)
        key = (peer, fingerprint)
        with self._lock:
            client = self._lane_clients.pop(key, None)
        try:
            if client is None:
                client = self._connect(peer)
            response = client.request(dict(raw))
        except (OSError, ValueError) as exc:
            if client is not None:
                client.close()
            with self._lock:
                self.n_forward_errors += 1
            raise OSError(f"worker {peer}: {exc}") from exc
        with self._lock:
            self._lane_clients[key] = client
            self.n_forwarded += 1
        return response

    # ------------------------------------------------------------------ #
    # admin broadcast
    # ------------------------------------------------------------------ #
    def _broadcast(self, raw) -> None:
        """Replay a successful admin op on every peer (best effort).

        Failures only bump a counter: a peer that is down gets the
        registration replayed by the router when it respawns, and a
        request routed to a stale peer fails cleanly at forward time.
        """
        doc = {**dict(raw), "relay": True}
        for peer in self.ring.workers:
            if peer == self.index:
                continue
            with self._lock:
                client = self._admin_clients.pop(peer, None)
            try:
                if client is None:
                    client = self._connect(peer)
                client.request(doc)
            except (OSError, ValueError):
                if client is not None:
                    client.close()
                client = None
                with self._lock:
                    self.n_broadcast_errors += 1
                continue
            with self._lock:
                self._admin_clients[peer] = client

    def on_register(self, raw) -> None:
        self._broadcast(raw)
        if self._notify is not None:
            self._notify(
                {
                    "kind": "registered",
                    "dataset": dict(raw).get("dataset"),
                    "spec": dict(raw).get("source"),
                }
            )

    def on_close(self, raw) -> None:
        self._broadcast(raw)
        if self._notify is not None:
            d = dict(raw)
            self._notify(
                {
                    "kind": "closed",
                    "dataset": d.get("dataset"),
                    "unregister": bool(d.get("unregister", False)),
                }
            )

    def close(self) -> None:
        with self._lock:
            clients = list(self._lane_clients.values()) + list(
                self._admin_clients.values()
            )
            self._lane_clients.clear()
            self._admin_clients.clear()
        for client in clients:
            client.close()


# --------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------- #
@dataclass
class _WorkerConfig:
    """Everything a forked serve worker needs (inherited by fork, so
    in-memory registrations — e.g. test datasets — work too)."""

    index: int
    n_workers: int
    internal_paths: list[str]
    registrations: list[tuple[str, object]]
    server_kwargs: dict
    threads: int
    window: int
    store_base: str | None
    run_base: str
    replicas: int


def _worker_main(cfg: _WorkerConfig, control: socket.socket) -> int:
    """Body of one serve worker (runs in the forked child; never returns
    to the caller — the fork site wraps it in ``os._exit``)."""
    # The router orchestrates shutdown over the control socket; a signal
    # delivered to the process group (Ctrl-C) must not double-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    store = None
    run_id = f"{cfg.run_base}.w{cfg.index}"
    if cfg.store_base is not None:
        store = f"{cfg.store_base}.w{cfg.index}"
    server = EngineServer(**cfg.server_kwargs, store=store, run_id=run_id)
    if server.store is not None:
        # Respawn under the same run id: the predecessor's journalled
        # rows become a synthetic retired doc so merged totals still
        # count everything it served.  (A fresh spawn finds no rows.)
        recovered = recovered_manifest_doc(server.store.journal_rows(run_id))
        if recovered is not None:
            server.manifest_extras.append(recovered)
    for ds_id, spec in cfg.registrations:
        server.register(ds_id, spec)

    send_lock = threading.Lock()

    def notify(doc: dict) -> None:
        payload = json.dumps(doc).encode("utf-8")
        with send_lock:
            try:
                control.send(payload)
            except OSError:
                pass  # router gone; the control-EOF path will wind down

    server.forwarder = WorkerForwarder(
        cfg.index,
        HashRing(cfg.n_workers, replicas=cfg.replicas),
        cfg.internal_paths,
        notify=notify,
    )
    internal = EngineTransport(
        server, f"unix:{cfg.internal_paths[cfg.index]}", threads=1
    )
    internal.start()
    front = EngineTransport(server, None, threads=cfg.threads, window=cfg.window)
    front.start()
    notify({"kind": "ready", "worker": cfg.index, "pid": os.getpid()})

    def wind_down(*, drain_front: bool) -> None:
        front.shutdown(drain=drain_front)
        server.forwarder.close()
        internal.shutdown(drain=True)
        server.close()

    while True:
        try:
            msg, fds, _flags, _addr = socket.recv_fds(control, _CTL_BUF, _CTL_MAXFDS)
        except OSError:
            msg, fds = b"", []
        if not msg:
            # Router died (EOF/error): self-drain so in-flight clients
            # still get their responses, then exit.
            wind_down(drain_front=True)
            return 0
        try:
            doc = json.loads(msg)
        except ValueError:
            for fd in fds:
                os.close(fd)
            continue
        kind = doc.get("kind")
        if kind == "conn" and fds:
            sock = socket.socket(fileno=fds[0])
            for fd in fds[1:]:
                os.close(fd)
            try:
                front.adopt(sock)
            except RuntimeError:
                pass  # already draining; adopt() closed the socket
        elif kind == "register":
            try:
                server.register(doc["dataset"], doc["spec"])
            except (KeyError, ValueError, TypeError) as exc:
                notify(
                    {
                        "kind": "register-failed",
                        "worker": cfg.index,
                        "dataset": doc.get("dataset"),
                        "message": str(exc),
                    }
                )
        elif kind == "drain":
            # Phase one of the drain protocol: stop serving clients at
            # line boundaries.  The internal transport stays up — peers
            # may still be finishing forwards, and the router collects
            # manifests through it — until "exit".
            front.shutdown(drain=True)
            notify(
                {
                    "kind": "drained",
                    "worker": cfg.index,
                    "n_responses": front.n_responses,
                    "n_connections": front.n_connections,
                }
            )
        elif kind == "exit":
            wind_down(drain_front=False)
            return 0


# --------------------------------------------------------------------- #
# router
# --------------------------------------------------------------------- #
@dataclass
class _Worker:
    """Router-side record of one serve worker process."""

    index: int
    pid: int = 0
    control: socket.socket | None = None
    reader: threading.Thread | None = None
    ready: threading.Event = field(default_factory=threading.Event)
    drained: threading.Event = field(default_factory=threading.Event)
    drain_doc: dict = field(default_factory=dict)
    respawns: int = 0
    alive: bool = True


class ProcessPlane:
    """``N`` fingerprint-sharded serve workers behind one router.

    Parameters
    ----------
    listen:
        Client-facing address (``HOST:PORT`` or ``unix:PATH``; port 0
        picks an ephemeral port — read :meth:`describe` back).
    processes:
        Number of serve workers.
    server_kwargs:
        Keyword arguments for each worker's :class:`EngineServer`
        (everything except ``store``/``run_id``, which the plane shards
        per worker).
    registrations:
        ``(dataset id, source spec)`` pairs applied to every worker at
        spawn (and replayed to respawned workers, together with sources
        registered in-stream later).
    threads / window:
        Per-connection dispatch parallelism inside each worker.
    store:
        Optional base store path; worker ``K`` persists to
        ``<store>.w<K>`` (the store is single-process by design).
        Without a store a killed worker's in-flight accounting cannot
        be recovered — the merged manifest's ``respawns`` counters say
        when that caveat applies.
    max_respawns:
        Per-worker cap on automatic respawns — a worker that keeps
        dying is eventually left down (its fingerprints then fail fast
        at forward time) instead of fork-looping.
    """

    #: Seconds a drain waits per worker before escalating to SIGTERM.
    DRAIN_TIMEOUT_S = 60.0

    def __init__(
        self,
        listen,
        *,
        processes: int,
        server_kwargs: dict | None = None,
        registrations=(),
        threads: int = 1,
        window: int = DEFAULT_WINDOW,
        store: str | None = None,
        replicas: int = 64,
        max_respawns: int = 5,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.kind, self._addr = parse_address(listen)
        self.processes = int(processes)
        self.threads = max(1, int(threads))
        self.window = max(1, int(window))
        self.replicas = int(replicas)
        self.max_respawns = int(max_respawns)
        self.store_base = store
        self.run_id = new_run_id()
        self._server_kwargs = dict(server_kwargs or {})
        self._dir = tempfile.mkdtemp(prefix="fastbns-plane-")
        self._internal_paths = [
            os.path.join(self._dir, f"w{k}.sock") for k in range(self.processes)
        ]
        self._lock = threading.Lock()
        # Registration replay list for respawned workers: spawn-time
        # pairs plus everything workers report registered in-stream.
        self._registrations: dict[str, object] = dict(registrations)
        self._workers = [_Worker(index=k) for k in range(self.processes)]
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._started = False
        self._shutdown_doc: dict | None = None
        self._collected: list[dict | None] | None = None
        self._created = time.time()
        self.address: object = None
        self.n_connections = 0
        self.n_respawns = 0
        self.n_responses = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.address}"
        host, port = self.address
        return f"{host}:{port}"

    def worker_pid(self, index: int) -> int:
        """Current pid of worker ``index`` (changes after a respawn).

        Fault drills use this to aim a SIGKILL at the worker owning a
        given fingerprint; production code never needs it.
        """
        return self._workers[index].pid

    def start(self, *, ready_timeout: float = 60.0) -> "ProcessPlane":
        if self._started:
            raise RuntimeError("plane already started")
        self._started = True
        # Pre-import the full serving stack before any fork: initial
        # workers get warm modules for free, and respawn forks (taken
        # from a now-threaded router) never touch the import machinery.
        from ..core import learn as _learn  # noqa: F401
        from ..parallel import adaptive as _adaptive  # noqa: F401
        from ..parallel import backends as _backends  # noqa: F401
        from ..parallel import ci_level as _ci_level  # noqa: F401

        self._listener, self.address = bind_listener(self.kind, self._addr)

        for worker in self._workers:
            self._spawn(worker)
        deadline = time.monotonic() + ready_timeout
        for worker in self._workers:
            if not worker.ready.wait(max(0.0, deadline - time.monotonic())):
                self.shutdown(drain=False)
                raise RuntimeError(f"serve worker {worker.index} never became ready")

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="plane-router-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="plane-router-monitor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def _worker_config(self, index: int) -> _WorkerConfig:
        with self._lock:
            registrations = list(self._registrations.items())
        return _WorkerConfig(
            index=index,
            n_workers=self.processes,
            internal_paths=self._internal_paths,
            registrations=registrations,
            server_kwargs=dict(self._server_kwargs),
            threads=self.threads,
            window=self.window,
            store_base=self.store_base,
            run_base=self.run_id,
            replicas=self.replicas,
        )

    def _spawn(self, worker: _Worker) -> None:
        """Fork one serve worker and wire its control channel.

        ``SOCK_SEQPACKET`` keeps message boundaries, which
        ``send_fds``/``recv_fds`` need — on a byte stream two coalesced
        messages could mis-deliver an fd.
        """
        cfg = self._worker_config(worker.index)
        parent_sock, child_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        # Snapshot before fork: fds the child must close so it cannot
        # keep the router's sockets alive past the router's exit.
        inherited = [self._listener] + [
            w.control for w in self._workers if w.control is not None
        ]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                parent_sock.close()
                for sock in inherited:
                    if sock is not None:
                        try:
                            sock.close()
                        except OSError:
                            pass
                code = _worker_main(cfg, child_sock)
            except BaseException as exc:
                traceback.print_exc()
                print(
                    f"plane: worker {cfg.index} died in startup/serve: {exc!r}",
                    file=sys.stderr,
                )
            finally:
                # Never run the router's atexit hooks / finalizers in
                # the child.
                os._exit(code)
        child_sock.close()
        worker.pid = pid
        worker.control = parent_sock
        worker.ready = threading.Event()
        worker.drained = threading.Event()
        worker.drain_doc = {}
        worker.alive = True
        worker.reader = threading.Thread(
            target=self._reader,
            args=(worker,),
            name=f"plane-router-reader-{worker.index}",
            daemon=True,
        )
        worker.reader.start()

    # ------------------------------------------------------------------ #
    # router threads
    # ------------------------------------------------------------------ #
    def _reader(self, worker: _Worker) -> None:
        """Drain one worker's control notifications until EOF."""
        sock = worker.control
        while True:
            try:
                data = sock.recv(_CTL_BUF)
            except OSError:
                return
            if not data:
                return
            try:
                doc = json.loads(data)
            except ValueError:
                continue
            kind = doc.get("kind")
            if kind == "ready":
                worker.ready.set()
            elif kind == "drained":
                worker.drain_doc = doc
                worker.drained.set()
            elif kind == "registered":
                ds_id, spec = doc.get("dataset"), doc.get("spec")
                if isinstance(ds_id, str) and spec is not None:
                    with self._lock:
                        self._registrations[ds_id] = spec
            elif kind == "closed":
                if doc.get("unregister") and isinstance(doc.get("dataset"), str):
                    with self._lock:
                        self._registrations.pop(doc["dataset"], None)
            elif kind == "register-failed":
                print(
                    f"plane: worker {doc.get('worker')} failed to register "
                    f"{doc.get('dataset')!r}: {doc.get('message')}",
                    file=sys.stderr,
                )

    def _accept_loop(self) -> None:
        """Accept and hand each connection to a live worker."""
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # shutdown won the race
        rr = 0
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown()
            delivered = False
            for attempt in range(self.processes):
                worker = self._workers[(rr + attempt) % self.processes]
                if not worker.alive or not worker.ready.is_set():
                    continue
                try:
                    socket.send_fds(
                        worker.control, [b'{"kind": "conn"}'], [sock.fileno()]
                    )
                except OSError:
                    continue
                rr = (rr + attempt + 1) % self.processes
                delivered = True
                break
            # send_fds dup'd the descriptor into the worker; the router's
            # copy closes either way.  An undeliverable connection (all
            # workers down) reads as immediate EOF at the client.
            sock.close()
            if delivered:
                self.n_connections += 1

    def _monitor(self) -> None:
        """Reap dead workers and respawn them under the same identity."""
        while not self._stopping.is_set():
            time.sleep(0.2)
            for worker in self._workers:
                if not worker.alive or self._stopping.is_set():
                    continue
                try:
                    pid, _status = os.waitpid(worker.pid, os.WNOHANG)
                except (ChildProcessError, OSError):
                    pid = worker.pid  # already reaped elsewhere: treat as dead
                if pid == 0:
                    continue
                if worker.respawns >= self.max_respawns:
                    worker.alive = False
                    print(
                        f"plane: worker {worker.index} died and exhausted "
                        f"{self.max_respawns} respawns; leaving it down",
                        file=sys.stderr,
                    )
                    continue
                worker.respawns += 1
                self.n_respawns += 1
                try:
                    worker.control.close()
                except OSError:
                    pass
                self._spawn(worker)
                worker.ready.wait(60.0)

    # ------------------------------------------------------------------ #
    # control-channel helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _send_ctl(worker: _Worker, doc: dict) -> bool:
        try:
            worker.control.send(json.dumps(doc).encode("utf-8"))
            return True
        except OSError:
            return False

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` completes (signal-interruptible)."""
        deadline = None if timeout is None else (time.monotonic() + timeout)
        while True:
            if self._drained.wait(0.2):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    def note_shutdown(
        self, reason: str, *, drained: bool = True, signum: int | None = None
    ) -> None:
        """Record how the run ended; surfaces in the merged manifest."""
        self._shutdown_doc = shutdown_doc(reason, drained=drained, signum=signum)

    # ------------------------------------------------------------------ #
    # manifest merge
    # ------------------------------------------------------------------ #
    def _collect_manifests(self) -> list[dict | None]:
        """One run document per worker, fetched over the internal plane.

        The ``manifest`` admin op rides the stream protocol (framed
        lines, no SEQPACKET message-size cliff) and is a dispatch
        barrier, so by the time it answers every request the worker
        accepted is accounted.
        """
        docs: list[dict | None] = []
        for worker in self._workers:
            doc = None
            if worker.alive:
                try:
                    with EngineClient(
                        f"unix:{self._internal_paths[worker.index]}", timeout=60.0
                    ) as client:
                        resp = client.request({"op": "manifest"})
                    doc = resp["result"] if resp.get("error") is None else None
                except (OSError, ValueError, KeyError):
                    doc = None  # worker died mid-collection; counted below
            docs.append(doc)
        return docs

    def manifest(self) -> dict:
        """The merged run document spanning every worker.

        Totals are the exact sum of the per-worker manifest totals
        (:func:`~repro.engine.manifest.merge_totals`) — which already
        fold in journal-recovered predecessors and each worker's
        unrouted (including forward-failure) rows.
        """
        docs = self._collected
        if docs is None:
            docs = self._collect_manifests()
        workers_out = []
        for worker, doc in zip(self._workers, docs):
            workers_out.append(
                {
                    "worker": worker.index,
                    "run_id": f"{self.run_id}.w{worker.index}",
                    "store": (
                        None
                        if self.store_base is None
                        else f"{self.store_base}.w{worker.index}"
                    ),
                    "alive": worker.alive,
                    "respawns": worker.respawns,
                    "n_responses": worker.drain_doc.get("n_responses"),
                    "manifest": doc,
                }
            )
        totals = merge_totals(
            [d["manifest"]["totals"] for d in workers_out if d["manifest"] is not None]
        )
        return {
            "manifest_version": MANIFEST_VERSION,
            "created_unix": self._created,
            "run_id": self.run_id,
            "processes": self.processes,
            "router": {
                "listen": self.describe(),
                "n_connections": self.n_connections,
                "n_respawns": self.n_respawns,
                "shutdown": dict(self._shutdown_doc) if self._shutdown_doc else None,
            },
            "totals": totals,
            "workers": workers_out,
        }

    def write_manifest(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(json.dumps(self.manifest(), indent=2) + "\n")

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting, drain workers, merge manifests; idempotent.

        The two-phase drain: (1) every worker ends its client
        connections at line boundaries — internal listeners stay up so
        in-flight cross-worker forwards complete; (2) the router
        collects per-worker manifests over the internal sockets, then
        sends ``exit`` and reaps.  ``drain=False`` skips phase one.
        """
        if self._drained.is_set():
            return
        timeout = self.DRAIN_TIMEOUT_S if timeout is None else timeout
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10.0)

        live = [w for w in self._workers if w.alive]
        if drain:
            for worker in live:
                self._send_ctl(worker, {"kind": "drain"})
            deadline = time.monotonic() + timeout
            for worker in live:
                worker.drained.wait(max(0.0, deadline - time.monotonic()))
            self.n_responses = sum(
                int(w.drain_doc.get("n_responses") or 0) for w in self._workers
            )
            self._collected = self._collect_manifests()
        else:
            self._collected = [None] * self.processes

        for worker in live:
            self._send_ctl(worker, {"kind": "exit"})
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            if worker.pid:
                self._reap(worker, deadline)
            if worker.control is not None:
                try:
                    worker.control.close()
                except OSError:
                    pass

        if self.kind == "unix":
            try:
                os.unlink(self._addr)
            except OSError:
                pass
        for path in self._internal_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        try:
            os.rmdir(self._dir)
        except OSError:
            pass
        self._drained.set()

    @staticmethod
    def _reap(worker: _Worker, deadline: float) -> None:
        """Wait a worker out, escalating SIGTERM -> SIGKILL past the
        deadline (workers ignore SIGTERM by design, so the escalation
        path ends in SIGKILL — a drained worker never needs either)."""
        term_sent = False
        while True:
            try:
                pid, _status = os.waitpid(worker.pid, os.WNOHANG)
            except (ChildProcessError, OSError):
                return  # already reaped
            if pid != 0:
                return
            now = time.monotonic()
            if now >= deadline + 5.0:
                sig = signal.SIGKILL
            elif now >= deadline:
                sig = signal.SIGTERM if not term_sent else None
                term_sent = True
            else:
                sig = None
            if sig is not None:
                try:
                    os.kill(worker.pid, sig)
                except OSError:
                    return
            time.sleep(0.05)

    def __enter__(self) -> "ProcessPlane":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "drained" if self._drained.is_set() else (
            "started" if self._started else "new"
        )
        return (
            f"ProcessPlane(processes={self.processes}, "
            f"{state}, respawns={self.n_respawns})"
        )
