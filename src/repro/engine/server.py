"""Multi-dataset engine server: many sessions behind one request stream.

The ROADMAP's north star is heavy traffic from many users, which means
many *datasets* in flight at once — yet everything below this module
manages exactly one: a :class:`~repro.engine.session.LearningSession` owns
one dataset, a :class:`~repro.engine.batch.BatchServer` serves one
session.  :class:`EngineServer` is the missing layer:

* a **registry of dataset sources** (:class:`DatasetSource`: CSV / BIF /
  benchmark network / in-memory), keyed by a client-chosen ``dataset`` id;
* an **LRU-bounded registry of live sessions keyed by dataset content
  fingerprint** — sessions are created on first touch, reused across ids
  that name byte-identical data, and evicted (pool shut down, shm plane
  unlinked, manifest retired) when the session budget is exceeded;
* a **thread-based dispatcher** that runs requests for *different*
  datasets concurrently while serialising per-session access (each
  session owns a process pool and a non-thread-safe tester map);
* a **run manifest spanning all sessions** — one
  :class:`~repro.engine.manifest.RunManifest` per session (live or
  retired) plus an unrouted-error log, with run totals that are the exact
  sum of the parts (:func:`~repro.engine.manifest.merge_totals`).

Protocol
--------
Requests are JSON objects (JSONL over the ``fastbns serve`` CLI).  Query
ops are the :class:`~repro.engine.batch.BatchServer` ones plus a
``dataset`` routing tag::

    {"op": "learn",   "dataset": "icu",  "alpha": 0.01, "gs": "auto"}
    {"op": "blanket", "dataset": "genes", "target": "TP53"}

Admin ops manage the registry in-stream::

    {"op": "register", "dataset": "icu", "source": {"kind": "csv", "path": "icu.csv"}}
    {"op": "close_dataset", "dataset": "icu"}
    {"op": "stats"}

Every response — success, error, admin — carries the same keys
(``op, dataset, fingerprint, cached, elapsed_s, result, error``) with
exactly one of ``result``/``error`` non-``None``; a malformed request
(unknown dataset, bad parameter, unparseable line) yields an ``error``
response and never tears down the stream.

Exactness: routing changes *where* a request runs, never its answer —
responses are byte-identical to a single-dataset ``BatchServer`` over the
same data, which is itself bit-identical to ``learn_structure``
(conf_ipps_JiangWM22's exactness guarantees, preserved through every
serving layer).  Concurrency preserves per-*session* request order (one
dispatch lane per resolved dataset content fingerprint, so ids naming
byte-identical data — which share one session and result cache — also
share one lane); cross-session ordering is unspecified, and admin ops
act as stream barriers.

Streaming: :meth:`EngineServer.serve_iter` is the dispatch core — a
generator that pulls requests lazily under a bounded in-flight window
and yields responses incrementally in input order.  A producer that
pipes requests and waits on each response before sending the next makes
progress (peak buffered requests is the window, never the stream
length), which is what lets the socket transport
(:mod:`repro.engine.transport`) multiplex long-lived connections over
one server.  :meth:`EngineServer.serve` is simply
``list(serve_iter(...))``.

Fairness: with ``threads > 1`` ready lanes are picked by a
deficit-round-robin scheduler
(:class:`~repro.engine.routing.LaneScheduler`) instead of
greedily draining whichever lane got a thread first.  Every lane carries
a weight (default 1.0, configurable per dataset id via ``lane_weights``
/ :meth:`EngineServer.set_lane_weight`); each scheduler visit grants a
lane ``weight`` units of credit and one unit buys one request, so over
any contended interval a backlogged lane's service rate is proportional
to its weight and a zipf-hot dataset cannot starve cold tenants: a
ready lane is served at least once per ring rotation.  Per-lane
serialisation (and therefore sequential-equivalent ordering and cache
accounting) is preserved — a lane is never served by two workers at
once.  Per-lane service counters surface through
:meth:`EngineServer.lane_stats` (configured weights are in
``stats()["dispatch"]["lane_weights"]``).
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping

from ..datasets.dataset import DiscreteDataset
from .batch import BatchServer, ParseFailure
from .fingerprint import dataset_fingerprint
from .manifest import MANIFEST_VERSION, RunManifest, merge_totals, shutdown_doc
from .routing import LaneScheduler, Pending, lane_label, request_dataset_id
from .session import LearningSession
from .statscache import DEFAULT_BUDGET_BYTES
from .store import EngineStore

__all__ = [
    "DatasetSource",
    "EngineServer",
    "ParseFailure",
    "QUERY_OPS",
    "ADMIN_OPS",
    "DEFAULT_WINDOW",
]

QUERY_OPS = ("learn", "blanket")
ADMIN_OPS = ("register", "close_dataset", "stats", "manifest")

# The scheduling/placement primitives grew out of this module and moved
# to repro.engine.routing so the multi-process plane shares them; the
# private names remain importable from here.
_LaneScheduler = LaneScheduler
_Pending = Pending

#: Default bound on dispatched-but-not-yet-yielded requests in
#: :meth:`EngineServer.serve_iter` — deep enough to keep every lane busy,
#: small enough that a pathological producer cannot buffer a whole stream.
DEFAULT_WINDOW = 64


# --------------------------------------------------------------------- #
# dataset sources
# --------------------------------------------------------------------- #
@dataclass(frozen=True, eq=False)
class DatasetSource:
    """A recipe for (re)materialising one dataset.

    Sessions are disposable under the server's LRU budget, so what the
    registry keeps is not data but a deterministic *source*: evicting a
    session and re-touching its id reloads byte-identical data (CSV/BIF
    files are read as-is; BIF and benchmark sampling is seeded), hence the
    same content fingerprint and the same answers.
    """

    kind: str  # "csv" | "bif" | "network" | "memory"
    path: str | None = None
    name: str | None = None
    samples: int = 5000
    seed: int = 0
    scale: float | None = None
    dataset: DiscreteDataset | None = None  # kind == "memory" only

    def __post_init__(self) -> None:
        if self.kind not in ("csv", "bif", "network", "memory"):
            raise ValueError(f"source kind must be csv/bif/network/memory, got {self.kind!r}")
        if self.kind in ("csv", "bif") and not self.path:
            raise ValueError(f"{self.kind} source needs a 'path'")
        if self.kind == "network" and not self.name:
            raise ValueError("network source needs a 'name'")
        if self.kind == "memory" and self.dataset is None:
            raise ValueError("memory source needs a dataset")
        if int(self.samples) < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        samples: int = 5000,
        seed: int = 0,
        scale: float | None = None,
    ) -> "DatasetSource":
        """Build a source from a protocol spec.

        Accepts the JSONL mapping form (``{"kind": "csv", "path": ...}``,
        with per-kind fields) or the compact CLI string form
        (``csv:PATH`` / ``bif:PATH`` / ``network:NAME``, taking
        ``samples``/``seed``/``scale`` from the keyword defaults).
        In-memory sources never cross the protocol — register those
        through :meth:`EngineServer.register` directly.
        """
        if isinstance(spec, DatasetSource):
            return spec
        if isinstance(spec, str):
            kind, sep, value = spec.partition(":")
            if not sep or not value:
                raise ValueError(
                    f"source string must look like 'csv:PATH', 'bif:PATH' or "
                    f"'network:NAME', got {spec!r}"
                )
            if kind in ("csv", "bif"):
                return cls(kind=kind, path=value, samples=samples, seed=seed)
            if kind == "network":
                return cls(kind="network", name=value, samples=samples, scale=scale)
            raise ValueError(f"unknown source kind {kind!r} in {spec!r}")
        if isinstance(spec, Mapping):
            d = dict(spec)
            kind = d.pop("kind", None)
            if kind == "memory":
                raise ValueError(
                    "memory sources cannot be registered over the protocol; "
                    "use EngineServer.register() with a DiscreteDataset"
                )
            fields = {
                "path": d.pop("path", None),
                "name": d.pop("name", None),
                "samples": d.pop("samples", samples),
                "seed": d.pop("seed", seed),
                "scale": d.pop("scale", scale),
            }
            if d:
                raise ValueError(f"unknown source fields: {sorted(d)}")
            return cls(kind=kind if isinstance(kind, str) else str(kind), **fields)
        raise ValueError(
            f"source spec must be a mapping or a 'kind:value' string, got {type(spec).__name__}"
        )

    @classmethod
    def memory(cls, dataset: DiscreteDataset, label: str = "<memory>") -> "DatasetSource":
        """Wrap an already-loaded dataset (tests, embedding applications)."""
        return cls(kind="memory", name=label, dataset=dataset)

    def load(self) -> DiscreteDataset:
        if self.kind == "memory":
            return self.dataset
        if self.kind == "csv":
            from ..datasets.io import read_codes_csv

            return read_codes_csv(self.path)
        if self.kind == "bif":
            from ..datasets.bif import load_bif
            from ..datasets.sampling import forward_sample

            return forward_sample(load_bif(self.path), self.samples, rng=self.seed)
        from ..bench.workloads import make_workload

        return make_workload(self.name, self.samples, scale=self.scale).dataset

    def describe(self) -> dict:
        """JSON-able summary (never the data itself)."""
        out: dict = {"kind": self.kind}
        if self.kind in ("csv", "bif"):
            out["path"] = self.path
        if self.kind == "bif":
            out["samples"] = self.samples
            out["seed"] = self.seed
        if self.kind == "network":
            out["name"] = self.name
            out["samples"] = self.samples
            out["scale"] = self.scale
        if self.kind == "memory":
            out["name"] = self.name
            out["n_variables"] = self.dataset.n_variables
            out["n_samples"] = self.dataset.n_samples
        return out

    def same_as(self, other: "DatasetSource") -> bool:
        """Idempotence check for repeated ``register`` ops."""
        if self.kind == "memory" or other.kind == "memory":
            return self.dataset is other.dataset
        return self.describe() == other.describe()


class _SessionSlot:
    """One live session plus everything serialised behind its lock."""

    __slots__ = ("fingerprint", "session", "server", "manifest", "lock", "ids", "retired")

    def __init__(self, session: LearningSession, dataset_id: str, journal=None) -> None:
        self.fingerprint = session.fingerprint
        self.session = session
        self.server = BatchServer(session)
        self.manifest = self.server.new_manifest(journal=journal)
        self.lock = threading.Lock()
        self.ids = {dataset_id}
        self.retired = False


# --------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------- #
class EngineServer:
    """Serve learn/blanket streams across many datasets from one process.

    Parameters mirror :class:`LearningSession` (every session the server
    spins up is configured identically — the engine configuration is part
    of each response's fingerprint lineage), plus:

    max_sessions:
        LRU budget of *live* sessions.  Creating a session past the budget
        evicts the least-recently-touched one: its worker pool is shut
        down (unlinking the shm plane), its manifest is retired into the
        run document, and its id re-creates a fresh session on next touch.
    default_dataset:
        Optional id to route requests that carry no ``dataset`` tag —
        ``fastbns batch`` registers its one source under it, so untagged
        single-dataset streams run unchanged.
    default_samples, default_seed, default_scale:
        Defaults applied to source specs that omit them — both the CLI's
        ``--register`` flags and in-stream ``register`` ops resolve
        against the *same* defaults, so the two registration routes
        materialise identical datasets for identical specs.
    lane_weights:
        Optional ``dataset id -> weight`` mapping for the weighted-fair
        dispatcher (see :meth:`set_lane_weight`): a lane's service rate
        under contention is proportional to its weight.  Unlisted ids
        weigh 1.0.
    store:
        Optional durable :class:`~repro.engine.store.EngineStore` (or a
        path, which the server then owns and closes).  One store is
        shared by every session the server spins up: evicted sessions'
        results and skeletons persist, so re-touching their dataset
        revives them warm, and a restarted server over the same path
        answers previously-served streams byte-identically.  All
        manifests (per-session and unrouted) journal their rows into the
        store under one run id.
    run_id:
        Optional explicit journal run id.  Default is a fresh id per
        server; the process plane passes ``<base>.w<K>`` so a respawned
        worker resumes its predecessor's journal sequence and the
        cross-worker merge stays exact.

    The :attr:`forwarder` attribute (default ``None``) plugs the
    multi-process plane in: when set, query requests whose resolved
    dataset fingerprint the forwarder declares non-local are shipped to
    the owning peer worker instead of served here, and successful
    ``register``/``close_dataset`` admin ops are broadcast so every
    worker's registry stays consistent.  The object must provide
    ``is_local(fingerprint) -> bool``, ``forward(fingerprint, raw) ->
    response dict`` (raising :class:`OSError` on peer failure),
    ``on_register(raw)`` and ``on_close(raw)``.  Forwarded requests are
    accounted in the *owner's* manifest only; forward failures land in
    this server's unrouted manifest — so merged totals still count every
    request exactly once.
    """

    def __init__(
        self,
        *,
        test: str = "g2",
        alpha: float = 0.05,
        dof_adjust: str = "structural",
        n_jobs: int = 1,
        backend: str = "process",
        cache_bytes: int = DEFAULT_BUDGET_BYTES,
        use_shm: bool | None = None,
        max_sessions: int = 4,
        default_dataset: str | None = None,
        default_samples: int = 5000,
        default_seed: int = 0,
        default_scale: float | None = None,
        store: EngineStore | str | None = None,
        lane_weights: Mapping[str, float] | None = None,
        run_id: str | None = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self._owns_store = store is not None and not isinstance(store, EngineStore)
        self.store = EngineStore.ensure(store)
        self._run_id = run_id
        self._journal = (
            self.store.journal(run_id=run_id) if self.store is not None else None
        )
        self._session_kwargs = dict(
            test=test,
            alpha=alpha,
            dof_adjust=dof_adjust,
            n_jobs=int(n_jobs),
            backend=backend,
            cache_bytes=int(cache_bytes),
            use_shm=use_shm,
        )
        self.max_sessions = int(max_sessions)
        self.default_dataset = default_dataset
        self.default_samples = int(default_samples)
        self.default_seed = int(default_seed)
        self.default_scale = default_scale
        self._sources: dict[str, DatasetSource] = {}
        self._id_fp: dict[str, str] = {}
        # Datasets loaded by resolve_fingerprint() before any session
        # exists, keyed by fingerprint: the local path consumes them on
        # first _slot_for (no double load), the forwarding path discards
        # them (the owner worker holds the session).
        self._preloaded: dict[str, DiscreteDataset] = {}
        self._slots: "OrderedDict[str, _SessionSlot]" = OrderedDict()
        self._creation_locks: dict[str, threading.Lock] = {}
        self._registry = threading.Lock()
        self._misc = threading.Lock()
        # Errors that never reached a session (unknown dataset, bad admin
        # request, unparseable line) still belong to the run's audit trail.
        self._unrouted = RunManifest(
            dataset_fingerprint="", engine={"role": "unrouted"}, journal=self._journal
        )
        self._retired_docs: list[dict] = []
        self._created = time.time()
        self._shutdown_doc: dict | None = None
        self.n_requests = 0
        self.n_admin = 0
        self.n_spinups = 0
        self.n_evictions = 0
        self.n_peak_inflight = 0
        self._lane_weights: dict[str, float] = {}
        self._lane_stats: dict[str, dict] = {}
        #: Multi-process plane hook; see the class docstring.
        self.forwarder = None
        #: Extra retired-manifest docs folded into :meth:`manifest` (and
        #: therefore its totals).  The process plane appends a
        #: journal-recovered doc here when a respawned worker inherits a
        #: crashed predecessor's rows.
        self.manifest_extras: list[dict] = []
        if lane_weights:
            for ds_id, weight in lane_weights.items():
                self.set_lane_weight(ds_id, weight)
        self._closed = False
        if int(n_jobs) > 1 and backend == "process":
            # Dispatcher threads fork worker pools lazily; pre-importing
            # the parallel stack keeps those forks from ever happening
            # mid-import of another lane's lazy module load.
            from ..core import learn as _learn  # noqa: F401
            from ..parallel import adaptive as _adaptive  # noqa: F401
            from ..parallel import backends as _backends  # noqa: F401
            from ..parallel import ci_level as _ci_level  # noqa: F401

    # ------------------------------------------------------------------ #
    # registry
    # ------------------------------------------------------------------ #
    def register(self, dataset_id: str, source) -> bool:
        """Register ``dataset_id`` -> source; returns ``True`` when new.

        ``source`` may be a :class:`DatasetSource`, a protocol spec
        (mapping or ``kind:value`` string), or a bare
        :class:`DiscreteDataset` (wrapped as an in-memory source).
        Re-registering the same source is idempotent; a *different* source
        under a taken id raises — ids are append-only within a run so
        response fingerprints stay attributable.
        """
        if not isinstance(dataset_id, str) or not dataset_id:
            raise ValueError(f"dataset id must be a non-empty string, got {dataset_id!r}")
        if isinstance(source, DiscreteDataset):
            source = DatasetSource.memory(source, label=dataset_id)
        else:
            source = DatasetSource.from_spec(
                source,
                samples=self.default_samples,
                seed=self.default_seed,
                scale=self.default_scale,
            )
        with self._registry:
            existing = self._sources.get(dataset_id)
            if existing is not None:
                if existing.same_as(source):
                    return False
                raise ValueError(
                    f"dataset {dataset_id!r} is already registered with a different source"
                )
            self._sources[dataset_id] = source
            self._creation_locks.setdefault(dataset_id, threading.Lock())
        return True

    def datasets(self) -> dict[str, dict]:
        """Registered ids -> {source, fingerprint (if loaded), live}."""
        with self._registry:
            return {
                ds_id: {
                    "source": src.describe(),
                    "fingerprint": self._id_fp.get(ds_id),
                    "live": self._id_fp.get(ds_id) in self._slots,
                }
                for ds_id, src in self._sources.items()
            }

    def _slot_for(self, dataset_id: str) -> _SessionSlot:
        """Resolve an id to its live session slot, creating on first touch."""
        with self._registry:
            source = self._sources.get(dataset_id)
            if source is None:
                known = ", ".join(sorted(self._sources)) or "none registered"
                raise KeyError(f"unknown dataset {dataset_id!r} (known: {known})")
            fp = self._id_fp.get(dataset_id)
            slot = self._slots.get(fp) if fp is not None else None
            if slot is not None:
                self._slots.move_to_end(fp)
                # Replace, don't mutate: manifest() iterates ids under the
                # slot lock, not the registry lock.
                slot.ids = slot.ids | {dataset_id}
                return slot
            creation = self._creation_locks[dataset_id]
        with creation:
            # Another dispatcher lane may have built it while we waited.
            with self._registry:
                fp = self._id_fp.get(dataset_id)
                slot = self._slots.get(fp) if fp is not None else None
                if slot is not None:
                    self._slots.move_to_end(fp)
                    slot.ids = slot.ids | {dataset_id}
                    return slot
            with self._registry:
                fp_hint = self._id_fp.get(dataset_id)
                data = (
                    self._preloaded.pop(fp_hint, None) if fp_hint is not None else None
                )
            if data is None:
                data = source.load()
            session = LearningSession(data, store=self.store, **self._session_kwargs)
            victims: list[_SessionSlot] = []
            with self._registry:
                fp = session.fingerprint
                slot = self._slots.get(fp)
                if slot is not None:
                    # A different id already serves byte-identical data:
                    # share its session (and result cache) instead.
                    session.close()
                    self._slots.move_to_end(fp)
                    slot.ids = slot.ids | {dataset_id}
                    self._id_fp[dataset_id] = fp
                    return slot
                slot = _SessionSlot(session, dataset_id, journal=self._journal)
                self._slots[fp] = slot
                self._id_fp[dataset_id] = fp
                self.n_spinups += 1
                while len(self._slots) > self.max_sessions:
                    victim_fp = next(iter(self._slots))
                    if victim_fp == fp:  # never evict the slot just built
                        break
                    victims.append(self._slots.pop(victim_fp))
                    self.n_evictions += 1
            for victim in victims:
                self._retire(victim, evicted=True)
            return slot

    def _retire(self, slot: _SessionSlot, *, evicted: bool) -> None:
        """Close a slot's session and fold its manifest into the run doc.

        Waits for the slot's in-flight request (if any) under its lock, so
        eviction never yanks a pool out from under a running learn.
        """
        with slot.lock:
            slot.retired = True
            cache_doc = slot.session.cache_stats().as_dict()
            workers = slot.session.worker_cache_stats()
            if workers:
                cache_doc["workers"] = workers
            doc = slot.manifest.to_dict(cache_stats=cache_doc)
            doc["dataset_ids"] = sorted(slot.ids)
            doc["live"] = False
            doc["evicted"] = evicted
            slot.session.close()
        with self._misc:
            self._retired_docs.append(doc)

    def resolve_fingerprint(self, dataset_id: str) -> str:
        """Resolve an id to its dataset content fingerprint.

        Unlike :meth:`_slot_for` this never spins up a session: on first
        touch the source is loaded, fingerprinted, and the dataset
        stashed for the local serving path to consume (so a subsequent
        ``_slot_for`` does not load twice) — which is what lets the lane
        keyer and the process router place a request without paying for
        a worker pool it may never use.  Raises ``KeyError`` for an
        unknown id and whatever the source raises when it cannot load.
        """
        with self._registry:
            fp = self._id_fp.get(dataset_id)
            if fp is not None:
                return fp
            source = self._sources.get(dataset_id)
            if source is None:
                known = ", ".join(sorted(self._sources)) or "none registered"
                raise KeyError(f"unknown dataset {dataset_id!r} (known: {known})")
            creation = self._creation_locks[dataset_id]
        with creation:
            with self._registry:
                fp = self._id_fp.get(dataset_id)
                if fp is not None:
                    return fp
            data = source.load()
            fp = dataset_fingerprint(data)
            with self._registry:
                self._id_fp[dataset_id] = fp
                if fp not in self._slots:
                    self._preloaded.setdefault(fp, data)
            return fp

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def handle(self, raw) -> dict:
        """Serve one request (query or admin); never raises on bad input."""
        if self._closed:
            raise RuntimeError("server is closed")
        with self._misc:
            self.n_requests += 1
        if isinstance(raw, ParseFailure):
            return self.reject(raw.message)
        if not isinstance(raw, Mapping):
            return self.reject(f"request must be a JSON object, got {type(raw).__name__}")
        op = raw.get("op")
        if op in ADMIN_OPS:
            with self._misc:
                self.n_admin += 1
            handler = {
                "register": self._op_register,
                "close_dataset": self._op_close_dataset,
                "stats": self._op_stats,
                "manifest": self._op_manifest,
            }[op]
            return handler(raw)
        return self._handle_query(raw)

    def _handle_query(self, raw: Mapping) -> dict:
        t0 = time.perf_counter()
        payload = dict(raw)
        dataset_id = payload.pop("dataset", self.default_dataset)
        op = payload.get("op")
        if dataset_id is None:
            return self.reject(
                "request carries no 'dataset' tag and the server has no default dataset",
                op=op,
                t0=t0,
            )
        if not isinstance(dataset_id, str):
            return self.reject(
                f"'dataset' must be a string id, got {dataset_id!r}", op=op, t0=t0
            )
        forwarder = self.forwarder
        if forwarder is not None:
            try:
                fp = self.resolve_fingerprint(dataset_id)
            except (KeyError, ValueError, OSError) as exc:
                message = (
                    exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
                )
                return self.reject(message, op=op, dataset=dataset_id, t0=t0)
            if not forwarder.is_local(fp):
                with self._registry:
                    # The owner worker holds the session; drop the
                    # resolve-time stash so a pure router/front worker
                    # never pins remote datasets in memory.
                    self._preloaded.pop(fp, None)
                try:
                    return forwarder.forward(fp, raw)
                except OSError as exc:
                    # The failure is accounted *here* (unrouted): the
                    # owner never journalled a row for it, so merged
                    # totals still count the request exactly once.
                    return self.reject(
                        f"peer worker unavailable: {exc}",
                        op=op,
                        dataset=dataset_id,
                        t0=t0,
                    )
        while True:
            try:
                slot = self._slot_for(dataset_id)
            except (KeyError, ValueError, OSError) as exc:
                # KeyError's str() quotes its message; unwrap for JSON.
                message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
                return self.reject(message, op=op, dataset=dataset_id, t0=t0)
            with slot.lock:
                if slot.retired:
                    continue  # evicted while we waited: re-resolve
                resp = slot.server.handle(payload)
                slot.manifest.add_request(
                    resp["op"],
                    resp["fingerprint"],
                    resp["cached"],
                    resp["elapsed_s"],
                    error=resp["error"],
                )
            resp["dataset"] = dataset_id
            return resp

    def reject(
        self,
        message: str,
        *,
        op: str | None = None,
        dataset: str | None = None,
        t0: float | None = None,
    ) -> dict:
        """Uniform error response for requests that reach no session.

        Public because stream framers sit above the server: the CLI calls
        this for lines that fail JSON parsing, so even those show up in
        the run manifest instead of vanishing.
        """
        elapsed = 0.0 if t0 is None else time.perf_counter() - t0
        known_op = op if op in QUERY_OPS + ADMIN_OPS else None
        with self._misc:
            self._unrouted.add_request(known_op, None, False, elapsed, error=message)
        return {
            "op": known_op,
            "dataset": dataset if isinstance(dataset, str) else None,
            "fingerprint": None,
            "cached": False,
            "elapsed_s": elapsed,
            "result": None,
            "error": message,
        }

    def _admin_ok(self, op: str, dataset: str | None, result: dict, t0: float) -> dict:
        return {
            "op": op,
            "dataset": dataset,
            "fingerprint": None,
            "cached": False,
            "elapsed_s": time.perf_counter() - t0,
            "result": result,
            "error": None,
        }

    def _op_register(self, raw: Mapping) -> dict:
        t0 = time.perf_counter()
        d = dict(raw)
        d.pop("op")
        dataset_id = d.pop("dataset", None)
        spec = d.pop("source", None)
        # Internal marker set by peer-worker broadcasts: a relayed
        # register is applied locally but never re-broadcast, which is
        # what keeps the process plane's fan-out from echoing forever.
        relay = bool(d.pop("relay", False))
        if d:
            return self.reject(
                f"unknown register fields: {sorted(d)}", op="register", t0=t0
            )
        try:
            # The raw spec goes through register() so in-stream ops resolve
            # against the same default_samples/seed/scale as --register.
            created = self.register(dataset_id, spec)
        except (ValueError, TypeError) as exc:
            return self.reject(
                str(exc),
                op="register",
                dataset=dataset_id if isinstance(dataset_id, str) else None,
                t0=t0,
            )
        if self.forwarder is not None and not relay:
            # Broadcast only after local success: validation is
            # deterministic, so peers accept exactly what we accepted.
            self.forwarder.on_register(raw)
        with self._registry:
            described = self._sources[dataset_id].describe()
        return self._admin_ok(
            "register",
            dataset_id,
            {"registered": True, "already": not created, "source": described},
            t0,
        )

    def _op_close_dataset(self, raw: Mapping) -> dict:
        t0 = time.perf_counter()
        d = dict(raw)
        d.pop("op")
        dataset_id = d.pop("dataset", None)
        unregister = bool(d.pop("unregister", False))
        relay = bool(d.pop("relay", False))
        if d:
            return self.reject(
                f"unknown close_dataset fields: {sorted(d)}", op="close_dataset", t0=t0
            )
        if not isinstance(dataset_id, str):
            return self.reject(
                f"close_dataset needs a string 'dataset' id, got {dataset_id!r}",
                op="close_dataset",
                t0=t0,
            )
        with self._registry:
            if dataset_id not in self._sources:
                known = ", ".join(sorted(self._sources)) or "none registered"
                message = f"unknown dataset {dataset_id!r} (known: {known})"
                slot = None
            else:
                message = None
                fp = self._id_fp.get(dataset_id)
                slot = self._slots.pop(fp, None) if fp is not None else None
                if fp is not None:
                    self._preloaded.pop(fp, None)
                if unregister:
                    self._sources.pop(dataset_id)
                    self._id_fp.pop(dataset_id, None)
        if message is not None:
            return self.reject(message, op="close_dataset", dataset=dataset_id, t0=t0)
        if slot is not None:
            self._retire(slot, evicted=False)
        if self.forwarder is not None and not relay:
            self.forwarder.on_close(raw)
        return self._admin_ok(
            "close_dataset",
            dataset_id,
            {
                "closed": slot is not None,
                "unregistered": unregister,
                "fingerprint": slot.fingerprint if slot is not None else None,
            },
            t0,
        )

    def _op_stats(self, raw: Mapping) -> dict:
        t0 = time.perf_counter()
        d = dict(raw)
        d.pop("op")
        if d:
            return self.reject(f"unknown stats fields: {sorted(d)}", op="stats", t0=t0)
        return self._admin_ok("stats", None, self.stats(), t0)

    def _op_manifest(self, raw: Mapping) -> dict:
        """Admin op returning the full run document as a response.

        The process plane's manifest-collection path: the router asks
        each worker's internal socket for its document and merges them —
        over the stream protocol (no message-size limits), behind the
        admin barrier (every dispatched request is accounted first).
        """
        t0 = time.perf_counter()
        d = dict(raw)
        d.pop("op")
        if d:
            return self.reject(
                f"unknown manifest fields: {sorted(d)}", op="manifest", t0=t0
            )
        return self._admin_ok("manifest", None, self.manifest(), t0)

    # ------------------------------------------------------------------ #
    # streams
    # ------------------------------------------------------------------ #
    def _lane_key(self, raw) -> object:
        """Resolve a request to its dispatch lane.

        Lanes are keyed by the *content fingerprint* of the dataset the
        request will run on, not its raw ``dataset`` tag: two registered
        ids naming byte-identical data share one session and one result
        cache, so they must also share one lane — otherwise their
        interleaving (and therefore ``cached`` accounting) is
        nondeterministic versus the sequential run.  Resolving an id seen
        for the first time loads its source (exactly what first touch
        costs on the sequential path); an id that cannot resolve —
        unknown, broken source — gets a per-id lane so its error
        responses stay ordered without blocking healthy lanes.
        """
        dataset_id = request_dataset_id(raw, self.default_dataset)
        if dataset_id is None:
            return None  # malformed / ParseFailure: shared error lane
        try:
            # Fingerprint only — no session spin-up at intake; the first
            # query on the lane creates the session (or a forwarder
            # ships it to the owning worker, which creates it there).
            return self.resolve_fingerprint(dataset_id)
        except (KeyError, ValueError, OSError):
            return ("unresolved", dataset_id)

    @staticmethod
    def _is_admin(raw) -> bool:
        return isinstance(raw, Mapping) and raw.get("op") in ADMIN_OPS

    # ------------------------------------------------------------------ #
    # weighted-fair lanes
    # ------------------------------------------------------------------ #
    def set_lane_weight(self, dataset_id: str, weight: float) -> None:
        """Weight the dispatch lane of requests routed via ``dataset_id``.

        Weights are relative: under contention a backlogged lane's
        service rate is proportional to its weight (default 1.0 for ids
        never configured).  When several ids alias one dataset
        fingerprint — and therefore one lane — the lane serves at the
        strongest weight among them.  Takes effect for requests
        dispatched after the call; never changes any response payload,
        only the order concurrent lanes are served in.
        """
        if not isinstance(dataset_id, str) or not dataset_id:
            raise ValueError(f"dataset id must be a non-empty string, got {dataset_id!r}")
        w = float(weight)
        if not math.isfinite(w) or w <= 0:
            raise ValueError(f"lane weight must be a positive finite number, got {weight!r}")
        with self._registry:
            self._lane_weights[dataset_id] = w

    def _request_weight(self, raw) -> float:
        dataset_id = request_dataset_id(raw, self.default_dataset)
        if dataset_id is None:
            return 1.0
        with self._registry:
            return self._lane_weights.get(dataset_id, 1.0)

    # Shared with the process plane; see repro.engine.routing.
    _lane_label = staticmethod(lane_label)

    def _note_lane_served(self, pending: "_Pending") -> None:
        with self._misc:
            rec = self._lane_stats.setdefault(
                pending.lane, {"n_served": 0, "wait_s": 0.0, "busy_s": 0.0}
            )
            rec["n_served"] += 1
            rec["wait_s"] += max(0.0, pending.t_start - pending.t_in)
            rec["busy_s"] += max(0.0, pending.t_done - pending.t_start)

    def serve_iter(
        self,
        requests: Iterable,
        *,
        threads: int = 1,
        window: int = DEFAULT_WINDOW,
        timings: list | None = None,
    ) -> Iterator[dict]:
        """Serve a request stream incrementally; responses in input order.

        The streaming dispatch core.  An intake thread pulls from
        ``requests`` lazily — never more than ``window`` requests are
        dispatched but not yet yielded, so memory is bounded by the
        window (not the stream length) and a lockstep producer that
        waits on response *i* before sending request *i+1* always makes
        progress.  ``threads > 1`` runs that many persistent workers
        picking (lane, request) pairs from the weighted-fair
        :class:`_LaneScheduler` — one lane per resolved dataset content
        fingerprint: per-session request order (and result-cache
        behaviour) matches the sequential run exactly, different
        sessions overlap, and no backlogged lane can monopolise the
        workers past its weight share.  Admin ops are stream barriers —
        everything dispatched before them completes first.

        Responses are byte-identical to the sequential ``threads=1``
        run over the same stream whenever no session is evicted mid
        stream; under LRU eviction pressure a repeat may be recomputed
        (``cached=False``) where the sequential run would have hit, with
        payloads identical either way.

        ``timings``, when given, is a caller-owned list (or any object
        with ``append``) that receives one record per yielded response
        (same order as the responses):
        ``{"lane", "t_in", "t_start", "t_done", "t_yield"}`` with
        ``time.monotonic()`` stamps at intake, worker pick, completion
        and yield.  The wire schema is untouched — this is the latency
        harness's side channel (:mod:`repro.engine.workload`).

        ``threads <= 1`` degenerates to a strict request-by-request
        loop: no intake thread, no reordering, peak in-flight of one.
        """
        if threads <= 1:
            for raw in requests:
                t_in = time.monotonic()
                resp = self.handle(raw)
                if timings is not None:
                    t_done = time.monotonic()
                    if self._is_admin(raw):
                        label = "admin"
                    elif isinstance(raw, Mapping) and isinstance(
                        raw.get("dataset", self.default_dataset), str
                    ):
                        label = raw.get("dataset", self.default_dataset)
                    else:
                        label = "malformed"
                    timings.append(
                        {
                            "lane": label,
                            "t_in": t_in,
                            "t_start": t_in,
                            "t_done": t_done,
                            "t_yield": t_done,
                        }
                    )
                yield resp
            return

        window = max(1, int(window))
        order_q: "queue.Queue" = queue.Queue()
        permits = threading.BoundedSemaphore(window)
        stop = threading.Event()
        # Held by intake while it executes an admin op inline: the
        # consumer's cleanup takes it after setting `stop`, so a close
        # can never return while a registry mutation is mid-flight (the
        # caller may write the manifest immediately after).
        admin_guard = threading.Lock()
        sched = _LaneScheduler()
        live_lock = threading.Lock()
        live = [0]  # dispatched-but-not-yet-yielded, guarded by live_lock
        _END, _FAIL = object(), object()

        def worker() -> None:
            while True:
                item = sched.take()
                if item is None:
                    return
                key, pending = item
                pending.t_start = time.monotonic()
                try:
                    pending.response = self.handle(pending.raw)
                except BaseException as exc:  # surfaced at yield, in order
                    pending.exc = exc
                finally:
                    pending.t_done = time.monotonic()
                    pending.done.set()
                    self._note_lane_served(pending)
                    sched.release(key)

        workers = [
            threading.Thread(target=worker, name=f"engine-serve-worker-{i}", daemon=True)
            for i in range(threads)
        ]
        for w in workers:
            w.start()

        def dispatch(pending: "_Pending") -> None:
            key = self._lane_key(pending.raw)
            pending.lane = self._lane_label(key)
            sched.push(key, pending, weight=self._request_weight(pending.raw))

        def intake() -> None:
            inflight: list[_Pending] = []
            n_inflight = 0
            try:
                for raw in requests:
                    # The permit is taken *before* the item counts as
                    # buffered, so dispatched-but-unyielded requests
                    # never exceed the window.
                    permits.acquire()
                    if stop.is_set():
                        permits.release()
                        return
                    with live_lock:
                        live[0] += 1
                        n_inflight = max(n_inflight, live[0])
                    pending = _Pending(raw)
                    pending.t_in = time.monotonic()
                    if self._is_admin(raw):
                        # Barrier: every prior request completes
                        # (not necessarily yields) before the op.
                        for prior in inflight:
                            prior.done.wait()
                        inflight.clear()
                        with admin_guard:
                            # Re-check under the guard: once the
                            # consumer observed `stop` and took the
                            # guard, no new mutation may start.
                            if stop.is_set():
                                permits.release()
                                return
                            pending.lane = "admin"
                            pending.t_start = time.monotonic()
                            try:
                                pending.response = self.handle(raw)
                            except BaseException as exc:
                                pending.exc = exc
                        pending.t_done = time.monotonic()
                        pending.done.set()
                        self._note_lane_served(pending)
                    else:
                        dispatch(pending)
                        inflight.append(pending)
                        if len(inflight) > window:
                            # Completed prefixes leave the barrier set
                            # as the consumer drains them.
                            inflight = [
                                p for p in inflight if not p.done.is_set()
                            ]
                    order_q.put(pending)
            except BaseException as exc:  # broken request iterator
                order_q.put((_FAIL, exc))
                return
            finally:
                with self._misc:
                    self.n_peak_inflight = max(self.n_peak_inflight, n_inflight)
            order_q.put(_END)

        intake_thread = threading.Thread(
            target=intake, name="engine-serve-intake", daemon=True
        )
        intake_thread.start()
        try:
            while True:
                item = order_q.get()
                if item is _END:
                    return
                if isinstance(item, tuple) and item[0] is _FAIL:
                    raise item[1]
                item.done.wait()
                with live_lock:
                    live[0] -= 1
                permits.release()
                if item.exc is not None:
                    raise item.exc
                if timings is not None:
                    timings.append(
                        {
                            "lane": item.lane,
                            "t_in": item.t_in,
                            "t_start": item.t_start,
                            "t_done": item.t_done,
                            "t_yield": time.monotonic(),
                        }
                    )
                yield item.response
        finally:
            # Early exit (consumer gone, error, interrupt) and normal
            # completion share one wind-down: stop intake, free it if it
            # is blocked on a permit, wait out any admin mutation it is
            # executing, then close the scheduler — workers drain every
            # dispatched request (the manifest accounts for all of them)
            # and exit.  A dispatch racing the close lands in `push`'s
            # closed check, which intake surfaces as a no-op exit.
            stop.set()
            try:
                permits.release()
            except ValueError:
                pass
            with admin_guard:
                pass
            sched.close()
            for w in workers:
                w.join()

    def serve(
        self,
        requests: Iterable,
        *,
        threads: int = 1,
        window: int = DEFAULT_WINDOW,
        timings: list | None = None,
    ) -> list[dict]:
        """Serve a whole request stream; responses in input order.

        Materialising convenience over :meth:`serve_iter` (identical
        responses — the streaming path is the only dispatcher).
        """
        return list(
            self.serve_iter(requests, threads=threads, window=window, timings=timings)
        )

    # ------------------------------------------------------------------ #
    # introspection & manifest
    # ------------------------------------------------------------------ #
    def lane_stats(self) -> dict[str, dict]:
        """Per-lane dispatch counters accumulated across streamed serves.

        ``lane label -> {n_served, wait_s, busy_s}`` where the label is
        the resolved dataset fingerprint (or ``unresolved:<id>`` /
        ``malformed``), ``wait_s`` sums queue time (intake to worker
        pick) and ``busy_s`` sums service time.  Kept out of
        :meth:`stats` — and therefore out of the in-stream ``stats``
        admin op — because the wall-clock sums are nondeterministic,
        and protocol responses must stay byte-identical to the
        sequential run's.
        """
        with self._misc:
            return {label: dict(rec) for label, rec in self._lane_stats.items()}

    def stats(self) -> dict:
        """JSON-able snapshot of the whole server."""
        totals = self._run_totals()
        with self._registry:
            live = {fp: slot for fp, slot in self._slots.items()}
        per_session = {}
        for fp, slot in live.items():
            with slot.lock:
                if not slot.retired:
                    per_session[fp] = {
                        "dataset_ids": sorted(slot.ids),
                        **slot.server.stats(),
                    }
        with self._misc:
            counters = {
                "n_requests": self.n_requests,
                "n_admin": self.n_admin,
            }
        with self._registry:
            lane_weights = dict(self._lane_weights)
        return {
            **counters,
            "sessions": {
                "live": len(per_session),
                "budget": self.max_sessions,
                "spinups": self.n_spinups,
                "evictions": self.n_evictions,
            },
            "dispatch": {
                "peak_inflight": self.n_peak_inflight,
                "lane_weights": lane_weights,
            },
            "datasets": self.datasets(),
            "totals": totals,
            "per_session": per_session,
            "store": None if self.store is None else self.store.stats(),
        }

    def _run_totals(self) -> dict:
        """``manifest()["totals"]`` without building the run document: the
        same per-session running totals, merged in the same order (live
        sessions, retired, extras, unrouted), so the floats are equal."""
        with self._registry:
            live = list(self._slots.values())
        parts = []
        for slot in live:
            with slot.lock:
                if not slot.retired:
                    parts.append(slot.manifest.totals())
        with self._misc:
            parts.extend(doc["totals"] for doc in self._retired_docs)
            parts.extend(doc["totals"] for doc in self.manifest_extras)
            parts.append(self._unrouted.totals())
        return merge_totals(parts)

    def manifest(self) -> dict:
        """The run document spanning every session, live and retired."""
        with self._registry:
            live = list(self._slots.values())
        session_docs = []
        for slot in live:
            with slot.lock:
                if slot.retired:
                    continue
                cache_doc = slot.session.cache_stats().as_dict()
                workers = slot.session.worker_cache_stats()
                if workers:
                    cache_doc["workers"] = workers
                doc = slot.manifest.to_dict(cache_stats=cache_doc)
                doc["dataset_ids"] = sorted(slot.ids)
                doc["live"] = True
                doc["evicted"] = False
            session_docs.append(doc)
        with self._misc:
            session_docs.extend(self._retired_docs)
            session_docs.extend(self.manifest_extras)
            unrouted = self._unrouted.to_dict()
            shutdown = dict(self._shutdown_doc) if self._shutdown_doc else None
        totals = merge_totals(
            [doc["totals"] for doc in session_docs] + [unrouted["totals"]]
        )
        engine = dict(self._session_kwargs)
        if self.store is not None:
            engine["store"] = self.store.path
        return {
            "manifest_version": MANIFEST_VERSION,
            "created_unix": self._created,
            "engine": engine,
            "run_id": self._run_id if self._journal is None else self._journal.run_id,
            "totals": totals,
            "sessions": session_docs,
            "unrouted": unrouted,
            "shutdown": shutdown,
        }

    def note_shutdown(
        self, reason: str, *, drained: bool = True, signum: int | None = None
    ) -> None:
        """Record how the run ended; surfaces as ``manifest()["shutdown"]``.

        Called by the CLI/transport when a signal (or broken pipe) stops
        intake: the manifest then distinguishes a run that drained its
        in-flight lanes from one that was cut off, which is what makes
        an interrupted run's audit trail trustworthy.
        """
        with self._misc:
            self._shutdown_doc = shutdown_doc(reason, drained=drained, signum=signum)
            if self._journal is not None:
                self._journal.append({"kind": "shutdown", **self._shutdown_doc})

    def write_manifest(self, path) -> None:
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.manifest(), indent=2) + "\n")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every live session (pools down, shm unlinked); idempotent."""
        with self._registry:
            slots = list(self._slots.values())
            self._slots.clear()
        for slot in slots:
            self._retire(slot, evicted=False)
        if self._owns_store and self.store is not None:
            self.store.close()
        self._closed = True

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._registry:
            return (
                f"EngineServer(datasets={len(self._sources)}, "
                f"live_sessions={len(self._slots)}/{self.max_sessions}, "
                f"n_jobs={self._session_kwargs['n_jobs']})"
            )
