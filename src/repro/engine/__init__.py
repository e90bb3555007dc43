"""repro.engine — persistent learning sessions and batched query serving.

The paper's algorithms (and the seed reproduction) treat every learn or
blanket call as a cold start: fresh contingency tables, fresh worker pool.
This subsystem makes runs first-class, reusable objects:

* :class:`SufficientStatsCache` — byte-budgeted LRU of contingency tables
  keyed by variable tuples, with exact hit/miss/byte counters (see
  :mod:`.statscache`);
* :class:`LearningSession` — one dataset + one cache + one long-lived
  worker pool serving ``learn`` / ``relearn`` / ``markov_blanket`` calls;
* :class:`BatchServer` — request-level layer that fingerprints, dedupes
  and serves streams of requests (the ``fastbns batch`` CLI);
* :class:`EngineServer` — multi-dataset layer above both: an LRU-bounded
  registry of sessions keyed by dataset fingerprint, created on first
  touch from registered :class:`DatasetSource`\\ s, with a thread-based
  dispatcher that overlaps different datasets while serialising
  per-session access (the ``fastbns serve`` CLI; see :mod:`.server`);
* :class:`RunManifest` — auditable per-run artifact (one per session,
  merged across sessions by the server's run document);
* :class:`EngineStore` — durable content-addressed persistence behind
  one SQLite file: request-fingerprint result cache, skeleton blobs, a
  disk spill tier under the stats cache, and a per-response manifest
  journal, giving warm restarts with byte-identical payloads
  (``fastbns batch/serve --store PATH``; see :mod:`.store`);
* :class:`EngineTransport` / :class:`EngineClient` — a threaded TCP /
  Unix-socket front end speaking the same JSONL protocol, one streaming
  dispatcher (:meth:`EngineServer.serve_iter <.server.EngineServer.serve_iter>`)
  per connection with ordered responses, a bounded in-flight window and
  graceful drain on shutdown (the ``fastbns serve --listen`` CLI; see
  :mod:`.transport`), plus the matching line-protocol client;
* :mod:`.routing` — the shared routing/placement layer: the weighted
  deficit-round-robin :class:`LaneScheduler` both serve planes dispatch
  through, and the consistent-hash :class:`HashRing` that places dataset
  content fingerprints on worker processes;
* :class:`ProcessPlane` — the multi-process serve plane (``fastbns serve
  --processes N``): a router process passes accepted connection fds to
  ``N`` forked serve workers (or lets the kernel balance accepts via
  ``SO_REUSEPORT``), each worker owning the sessions for its ring shard,
  its own store shard and manifest-journal run id, with cross-worker
  request forwarding, worker respawn, and a merged run manifest whose
  totals are the exact sum of the per-worker parts (see
  :mod:`.procserve`);
* :mod:`.workload` — deterministic seeded trace generation (zipf tenant
  skew, bursty/poisson arrivals, mixed op profiles, error injection), a
  JSONL golden-trace format, and the replay/latency harness reporting
  p50/p95/p99 SLOs (the ``fastbns workload`` CLI);
* :mod:`.faults` — named fault-injection sites and process-fault helpers
  so the fault drills in ``tests/test_faults.py`` exercise production
  error paths, not mocks.

Resource lifecycle: a session is a context manager, and *everything* it
owns rides its ``close()`` — the worker pool shuts down, and with it the
shared-memory dataset plane the pool exported for its workers
(:mod:`repro.datasets.shm`; the blocks are unlinked exactly once, with a
finalizer backstop for crashed runs).  Sessions on platforms without
usable shared memory, or constructed with ``use_shm=False``, ship the
dataset to workers by pickling instead; results are bit-identical either
way, so the fallback is purely a memory/start-up trade.  ``gs="auto"`` on
:meth:`LearningSession.learn <.session.LearningSession.learn>` (and in
batch requests) engages the adaptive group scheduler
(:mod:`repro.parallel.adaptive`) on the parallel path.
"""

from .batch import BatchRequest, BatchServer
from .client import EngineClient
from .faults import FaultInjector, injector
from .fingerprint import dataset_fingerprint, request_fingerprint
from .manifest import (
    RunManifest,
    merge_totals,
    recovered_manifest_doc,
    shutdown_doc,
)
from .procserve import ProcessPlane, WorkerForwarder
from .routing import HashRing, LaneScheduler
from .server import DatasetSource, EngineServer, ParseFailure
from .session import LearningSession
from .statscache import CachedTableBuilder, CacheStats, SufficientStatsCache
from .store import EngineStore
from .transport import EngineTransport, LineStream
from .workload import (
    Trace,
    WorkloadReport,
    WorkloadSpec,
    generate_trace,
    load_trace,
    replay,
    replay_client,
    summarize_latencies,
    verify_trace,
)

__all__ = [
    "SufficientStatsCache",
    "CachedTableBuilder",
    "CacheStats",
    "LearningSession",
    "BatchServer",
    "BatchRequest",
    "EngineServer",
    "EngineStore",
    "EngineTransport",
    "EngineClient",
    "LineStream",
    "DatasetSource",
    "ParseFailure",
    "ProcessPlane",
    "WorkerForwarder",
    "HashRing",
    "LaneScheduler",
    "RunManifest",
    "merge_totals",
    "recovered_manifest_doc",
    "shutdown_doc",
    "dataset_fingerprint",
    "request_fingerprint",
    "WorkloadSpec",
    "Trace",
    "WorkloadReport",
    "generate_trace",
    "load_trace",
    "verify_trace",
    "replay",
    "replay_client",
    "summarize_latencies",
    "FaultInjector",
    "injector",
]
