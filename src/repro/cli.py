"""Command-line interface.

Six sub-commands::

    fastbns learn       # learn a structure from a CSV file or a benchmark
    fastbns blanket     # discover one variable's Markov blanket
    fastbns batch       # `serve` over ONE dataset given by --csv/--bif/--network
    fastbns serve       # multi-dataset JSONL server (EngineServer)
    fastbns workload    # record/replay seeded traffic traces, report SLOs
    fastbns experiment  # regenerate a paper table/figure

Examples
--------
Learn from a benchmark network's sampled data and print the CPDAG::

    python -m repro learn --network alarm --samples 5000 --gs 4

Learn from a CSV of integer-coded categories::

    python -m repro learn --csv data.csv --alpha 0.01

Serve a stream of requests against one dataset (shared statistics cache,
long-lived workers, duplicate requests answered from the result cache),
writing one JSON result per request plus a per-run manifest.  ``batch``
is ``serve`` with its one source registered as the default dataset, so
requests need no ``dataset`` tag and the run summary goes to stderr::

    python -m repro batch --network alarm --requests reqs.jsonl \\
        --out results.jsonl --manifest manifest.json --jobs 4

where ``reqs.jsonl`` holds one request object per line, e.g.::

    {"op": "learn", "alpha": 0.05, "gs": 2}
    {"op": "learn", "alpha": 0.01}
    {"op": "blanket", "target": "HRBP", "algorithm": "iamb"}

``--requests -`` reads the stream from stdin instead, so the server
composes with shell pipes::

    generate_requests | python -m repro batch --network alarm \\
        --requests - --out results.jsonl

Serve *many* datasets from one long-running process — sessions are
created on first touch from registered sources, kept under an LRU budget,
and requests for different datasets run concurrently (``--threads``)::

    python -m repro serve --register icu=csv:icu.csv \\
        --register bench=network:alarm --threads 2 --jobs 4 \\
        --requests - --out results.jsonl --manifest manifest.json

where each request names its dataset (admin ops ``register`` /
``close_dataset`` / ``stats`` manage the registry in-stream)::

    {"op": "learn", "dataset": "icu", "alpha": 0.01}
    {"op": "blanket", "dataset": "bench", "target": "HRBP"}
    {"op": "register", "dataset": "b2", "source": {"kind": "bif", "path": "net.bif"}}
    {"op": "stats"}

Dispatch streams: responses are emitted per input line at every thread
count, with at most ``--window`` requests in flight — a producer that
pipes requests and waits on each response before sending the next always
makes progress.  ``--listen`` serves the same protocol over a socket to
many concurrent clients (one ordered response stream per connection)::

    python -m repro serve --register icu=csv:icu.csv \\
        --listen 127.0.0.1:7878 --threads 4 --jobs 2 --manifest manifest.json

SIGINT/SIGTERM stop intake, drain in-flight work, still write the
manifest, and exit 130/143.

``--processes N`` escapes the single-process GIL entirely: a router
process passes accepted connections to N forked serve workers, sessions
are sharded over the workers by dataset content fingerprint, per-worker
stores land next to ``--store`` as ``PATH.wK``, and ``--manifest``
merges every worker's run document with exact totals::

    python -m repro serve --register icu=csv:icu.csv \\
        --listen 127.0.0.1:7878 --processes 4 --threads 2 \\
        --store run.db --manifest manifest.json

Drive the server with realistic seeded traffic and read back latency
SLOs — record a golden trace, then replay it (in-process here; add
``--connect HOST:PORT`` to replay against a running ``serve --listen``)::

    python -m repro workload record --n-requests 500 --seed 42 \\
        --out trace.jsonl
    python -m repro workload replay --trace trace.jsonl --threads 4 \\
        --report report.json

``workload run`` generates and replays in one step, and ``workload
verify`` checks a committed trace still matches its embedded spec
byte-for-byte.  Unregistered trace datasets are materialised as seeded
synthetic networks, so both commands work with no flags at all.

Regenerate Table III (quick mode)::

    python -m repro experiment table3
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def _gs_argument(value: str):
    """``--gs`` parser: a positive int or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        gs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--gs expects an integer or 'auto', got {value!r}"
        ) from None
    if gs < 1:
        raise argparse.ArgumentTypeError("--gs must be >= 1")
    return gs


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    """The one-dataset source flags of ``learn``, ``blanket`` and ``batch``."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="CSV file of integer category codes (header = names)")
    src.add_argument("--bif", help="BIF network file; data is forward-sampled from it")
    src.add_argument("--network", help="benchmark network name (see `experiment table2`)")
    p.add_argument("--samples", type=int, default=5000, help="sample count for --network/--bif")
    p.add_argument("--seed", type=int, default=0, help="sampling seed for --bif (--network datasets are seeded by the catalog)")
    p.add_argument("--scale", type=float, default=None, help="scale factor for --network")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    """The session settings of every serving command (see :func:`_server_kwargs`)."""
    p.add_argument("--test", default="g2", choices=("g2", "chi2", "mi"))
    p.add_argument("--alpha", type=float, default=0.05, help="default significance level")
    p.add_argument("--jobs", type=int, default=1, help="worker count per session (1 = sequential)")
    p.add_argument("--backend", default="process", choices=("process", "thread"))
    p.add_argument(
        "--no-shm",
        action="store_true",
        help="ship datasets to process workers by pickling instead of the "
        "zero-copy shared-memory plane (results are identical)",
    )
    p.add_argument(
        "--cache-mb", type=int, default=64, help="per-session stats-cache LRU budget in MiB"
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="durable SQLite store shared by every session: results, skeletons, "
        "stats spill and the manifest journal persist, so evicted sessions "
        "revive warm and a rerun over the same path answers previously-served "
        "requests byte-identically without recomputing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastbns",
        description="Fast-BNS: fast parallel Bayesian network structure learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a CPDAG from data")
    _add_source_flags(learn)
    learn.add_argument(
        "--method",
        default="fast-bns",
        choices=("fast-bns", "pc-stable", "pc-stable-naive"),
    )
    learn.add_argument("--test", default="g2", choices=("g2", "chi2", "mi"))
    learn.add_argument("--alpha", type=float, default=0.05)
    learn.add_argument(
        "--gs",
        type=_gs_argument,
        default=1,
        help="CI-test group size, or 'auto' for the adaptive scheduler",
    )
    learn.add_argument("--jobs", type=int, default=1, help="worker count (1 = sequential)")
    learn.add_argument(
        "--parallelism", default="ci", choices=("ci", "edge", "sample"), help="granularity"
    )
    learn.add_argument("--backend", default="process", choices=("process", "thread"))
    learn.add_argument(
        "--no-shm",
        action="store_true",
        help="ship the dataset to process workers by pickling instead of the "
        "zero-copy shared-memory plane (results are identical)",
    )
    learn.add_argument("--max-depth", type=int, default=None)
    learn.add_argument("--quiet", action="store_true", help="print only summary counts")

    batch = sub.add_parser(
        "batch",
        help="serve a JSONL stream of learn/blanket requests over one dataset "
        "(`serve` with the source as its default dataset)",
    )
    _add_source_flags(batch)
    batch.add_argument(
        "--requests",
        required=True,
        help="JSONL file, one request object per line ('-' reads stdin, "
        "so the server composes with pipes)",
    )
    batch.add_argument("--out", required=True, help="output JSONL file, one result per line")
    batch.add_argument("--manifest", default=None, help="optional per-run manifest JSON path")
    _add_engine_flags(batch)
    # The serve settings batch has no flags for: one sequential lane.
    batch.set_defaults(threads=1, window=64, max_sessions=4, lane_weight=[])

    serve = sub.add_parser(
        "serve",
        help="multi-dataset JSONL server over an LRU-bounded session registry",
    )
    serve.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="ID=KIND:VALUE",
        help="pre-register a dataset source (KIND one of csv/bif/network, e.g. "
        "icu=csv:icu.csv or bench=network:alarm); repeatable — when exactly one "
        "is given it becomes the default dataset for untagged requests; more "
        "sources can be registered in-stream via the 'register' op",
    )
    serve.add_argument(
        "--requests", default="-", help="JSONL request file ('-' streams stdin)"
    )
    serve.add_argument(
        "--out",
        default="-",
        help="JSONL response file ('-' streams stdout; the run summary always "
        "goes to stderr so pipes stay clean)",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT|unix:PATH",
        help="serve the JSONL protocol over a socket instead of "
        "--requests/--out (port 0 picks an ephemeral port, printed on "
        "stderr); each connection gets ordered responses and its own "
        "dispatch window; SIGINT/SIGTERM drain in-flight work, write the "
        "manifest and exit",
    )
    serve.add_argument(
        "--manifest", default=None, help="optional run-manifest JSON path (spans all sessions)"
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="multi-process serve plane (requires --listen): a router process "
        "plus N serve workers, each with its own engine and GIL; sessions are "
        "sharded over the workers by dataset content fingerprint (consistent "
        "hashing, so aliased ids stay on one worker), --store shards per "
        "worker as PATH.wK, and --manifest merges every worker's run "
        "document with exact totals",
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=1,
        help="dispatcher threads: >1 overlaps requests for different datasets "
        "(per-dataset order is preserved; responses stream in input order)",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=64,
        help="max requests dispatched but not yet answered (per connection "
        "with --listen); bounds memory and gives pipes backpressure",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=4, help="LRU budget of live sessions"
    )
    serve.add_argument(
        "--samples", type=int, default=5000, help="default sample count for bif/network sources"
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="default sampling seed for --register bif sources"
    )
    _add_engine_flags(serve)
    serve.add_argument(
        "--lane-weight",
        action="append",
        default=[],
        metavar="ID=WEIGHT",
        help="weighted-fair dispatch share for a dataset's lane (default 1.0); "
        "repeatable — with --threads > 1 a weight-2 lane is served ~2x as "
        "often as a weight-1 lane under contention, so cold tenants cannot "
        "be starved by a hot dataset",
    )

    wl = sub.add_parser(
        "workload",
        help="seeded traffic traces: record, replay with latency SLOs, verify",
    )
    wlsub = wl.add_subparsers(dest="workload_command", required=True)

    def add_shape(p):
        p.add_argument("--n-requests", type=int, default=500, help="trace length")
        p.add_argument(
            "--datasets",
            default="d0,d1,d2,d3",
            help="comma-separated tenant ids in popularity order (first is zipf-hottest)",
        )
        p.add_argument("--seed", type=int, default=0, help="generator seed")
        p.add_argument("--zipf", type=float, default=1.1, help="zipf skew exponent")
        p.add_argument(
            "--arrival", default="poisson", choices=("poisson", "bursty", "uniform")
        )
        p.add_argument("--rate", type=float, default=200.0, help="mean arrivals/s")
        p.add_argument("--burst", type=int, default=16, help="burst size (bursty arrivals)")
        p.add_argument(
            "--mix",
            action="append",
            default=[],
            metavar="OP=WEIGHT",
            help="op-mix weight (learn/relearn/blanket/admin); repeatable, "
            "unmentioned ops keep their default weight",
        )
        p.add_argument(
            "--error-rate", type=float, default=0.0, help="probability of an injected bad request"
        )
        p.add_argument("--max-depth", type=int, default=1, help="learn conditioning depth")
        p.add_argument(
            "--n-targets", type=int, default=8, help="blanket target index bound"
        )

    def add_serving(p):
        p.add_argument(
            "--register",
            action="append",
            default=[],
            metavar="ID=KIND:VALUE",
            help="dataset source per trace tenant (same syntax as serve); "
            "unregistered tenants get seeded synthetic networks",
        )
        p.add_argument("--threads", type=int, default=2, help="dispatcher threads")
        p.add_argument("--window", type=int, default=64, help="in-flight window")
        _add_engine_flags(p)
        p.add_argument("--max-sessions", type=int, default=8)
        p.add_argument(
            "--samples",
            type=int,
            default=500,
            help="sample count for auto-materialised synthetic tenants",
        )
        p.add_argument(
            "--lane-weight",
            action="append",
            default=[],
            metavar="ID=WEIGHT",
            help="weighted-fair dispatch share per tenant lane",
        )
        p.add_argument(
            "--pace",
            action="store_true",
            help="honour the trace's arrival schedule (open loop) instead of "
            "feeding as fast as the window admits",
        )
        p.add_argument(
            "--connect",
            default=None,
            metavar="HOST:PORT|unix:PATH",
            help="replay against a running `serve --listen` over a socket "
            "instead of an in-process server",
        )
        p.add_argument(
            "--report", default=None, metavar="PATH", help="write the full report JSON here"
        )

    wrec = wlsub.add_parser("record", help="generate a seeded trace file")
    add_shape(wrec)
    wrec.add_argument("--out", required=True, help="trace JSONL path")

    wver = wlsub.add_parser(
        "verify", help="check a trace still matches its embedded spec byte-for-byte"
    )
    wver.add_argument("--trace", required=True, help="trace JSONL path")

    wrep = wlsub.add_parser("replay", help="replay a trace file, report latency SLOs")
    wrep.add_argument("--trace", required=True, help="trace JSONL path")
    add_serving(wrep)

    wrun = wlsub.add_parser("run", help="generate and replay in one step")
    add_shape(wrun)
    add_serving(wrun)
    wrun.add_argument("--out", default=None, help="also save the generated trace here")

    mb = sub.add_parser("blanket", help="discover one variable's Markov blanket")
    _add_source_flags(mb)
    mb.add_argument("--target", required=True, help="target variable (name or index)")
    mb.add_argument("--algorithm", default="iamb", choices=("iamb", "grow-shrink"))
    mb.add_argument("--alpha", type=float, default=0.01)
    mb.add_argument("--max-conditioning", type=int, default=3)

    exp = sub.add_parser("experiment", help="regenerate a paper table or figure")
    exp.add_argument(
        "name",
        choices=("table1", "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5", "all"),
    )
    exp.add_argument("--samples", type=int, default=5000)

    an = sub.add_parser(
        "analyze",
        help="run the project linter + lock-order detector over source trees",
        description=(
            "Static analysis gate: the REPRO00x invariant pack plus the "
            "inter-procedural lock-order graph (LOCK001 cycles, LOCK002 "
            "blocking-under-lock). Exit 0 means zero unsuppressed findings."
        ),
    )
    an.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to analyze (default: src)"
    )
    an.add_argument("--format", choices=("human", "json"), default="human", dest="fmt")
    an.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all), e.g. REPRO006,LOCK001",
    )
    an.add_argument(
        "--no-lockgraph",
        action="store_true",
        help="skip the project-level lock-order rules (module rules only)",
    )
    an.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _source(args: argparse.Namespace):
    """The :class:`~repro.engine.server.DatasetSource` named by the
    --csv/--bif/--network flags.

    The CLI and the serve registry share one implementation of source
    semantics — a ``fastbns learn --bif x`` and a registered bif source
    materialise identical datasets for identical parameters.
    """
    from .engine.server import DatasetSource

    if args.csv:
        return DatasetSource(kind="csv", path=args.csv)
    if args.bif:
        return DatasetSource(kind="bif", path=args.bif, samples=args.samples, seed=args.seed)
    return DatasetSource(
        kind="network", name=args.network, samples=args.samples, scale=args.scale
    )


def _server_kwargs(args: argparse.Namespace, **extra) -> dict:
    """:class:`~repro.engine.server.EngineServer` settings from the
    serving flags (:func:`_add_engine_flags`, ``--max-sessions``,
    ``--lane-weight``), plus ``extra``."""
    return dict(
        test=args.test,
        alpha=args.alpha,
        n_jobs=args.jobs,
        backend=args.backend,
        cache_bytes=args.cache_mb << 20,
        use_shm=False if args.no_shm else None,
        max_sessions=args.max_sessions,
        store=args.store,
        lane_weights=_parse_lane_weights(args.lane_weight),
        **extra,
    )


def _cmd_learn(args: argparse.Namespace) -> int:
    from .core.learn import learn_structure

    data = _source(args).load()
    result = learn_structure(
        data,
        method=args.method,
        test=args.test,
        alpha=args.alpha,
        gs=args.gs,
        n_jobs=args.jobs,
        parallelism=args.parallelism,
        backend=args.backend,
        max_depth=args.max_depth,
        use_shm=False if args.no_shm else None,
    )
    print(
        f"skeleton: {result.skeleton.n_edges} edges | "
        f"CPDAG: {result.cpdag.n_directed} directed + {result.cpdag.n_undirected} undirected | "
        f"CI tests: {result.n_ci_tests} | "
        f"time: {result.elapsed['total']:.3f}s "
        f"(skeleton {result.elapsed['skeleton']:.3f}s)"
    )
    if not args.quiet:
        print("directed edges:")
        for u, v in sorted(result.cpdag.directed_edges()):
            print(f"  {result.names[u]} -> {result.names[v]}")
        print("undirected edges:")
        for u, v in sorted(result.cpdag.undirected_edges()):
            print(f"  {result.names[u]} -- {result.names[v]}")
    return 0


class _InterruptGuard:
    """Convert SIGINT/SIGTERM into one KeyboardInterrupt, recording which.

    The serving commands use this to stop intake cleanly: the first
    signal interrupts the stream loop (in-flight lanes drain as the
    dispatch generator closes), the manifest and summary are still
    written, and the process exits with the conventional ``128 + signum``
    (130 for SIGINT, 143 for SIGTERM).  Repeat signals during the drain
    are absorbed so they cannot corrupt the manifest write.  Outside the
    main thread (or where the signal module is restricted) installation
    degrades to a no-op and a plain KeyboardInterrupt still maps to 130.
    """

    def __init__(self) -> None:
        self.signum: int | None = None
        self._saved: dict = {}
        self._absorbing = False

    def __enter__(self) -> "_InterruptGuard":
        import signal

        def handler(signum, frame):
            first = self.signum is None
            self.signum = signum
            if first and not self._absorbing:
                raise KeyboardInterrupt

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._saved[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # not the main thread
                pass
        return self

    def absorb(self) -> None:
        """Stop raising on signals; record them only.

        Called once serving has ended and the manifest/summary epilogue
        begins — from here on even a *first* signal must not interrupt
        the manifest write, so the epilogue runs inside the guard with
        the handler demoted to a recorder.
        """
        self._absorbing = True

    def __exit__(self, *exc) -> None:
        import signal

        for sig, old in self._saved.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass

    @property
    def exit_code(self) -> int:
        import signal

        return 128 + int(self.signum if self.signum is not None else signal.SIGINT)


def _iter_jsonl(fh):
    """Frame a JSONL stream lazily; bad lines keep their response slot.

    Yields parsed objects, or :class:`~repro.engine.server.ParseFailure`
    stand-ins that the server turns into ordered error responses — one
    unparseable line never tears down the stream.
    """
    import json

    from .engine.server import ParseFailure

    for line in fh:
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            yield ParseFailure(f"invalid JSON: {exc}")


def _quiet_stdout_teardown() -> None:
    """After a broken stdout pipe, stop the interpreter-exit flush from
    tracebacking: point the fd at /dev/null before Python flushes it."""
    import os

    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError:
        pass


#: The id ``fastbns batch`` registers its one source under; ``batch``
#: responses carry it as ``dataset``.
BATCH_DATASET = "batch"


def _cmd_batch(args: argparse.Namespace) -> int:
    """``fastbns batch``: ``serve`` with one source as the default dataset."""
    from .engine.server import EngineServer

    with EngineServer(**_server_kwargs(args, default_dataset=BATCH_DATASET)) as server:
        server.register(BATCH_DATASET, _source(args))
        # Load now: a source that cannot load fails the command, not
        # every request line.
        server.resolve_fingerprint(BATCH_DATASET)
        return _serve_stream(args, server)


def _serve_summary(server, n_served: int, *, interrupted: bool) -> None:
    stats = server.stats()
    totals = stats["totals"]
    # n_served counts emitted response lines directly — a failed admin
    # op shows up in both n_admin and the unrouted error totals, so
    # summing counters would double-count it.
    # The summary goes to stderr: stdout may BE the response stream.
    print(
        ("interrupted after " if interrupted else "served ")
        + f"{n_served} requests "
        f"({totals['n_computed']} computed, "
        f"{totals['n_result_cache_hits']} result-cache hits, "
        f"{totals['n_errors']} errors, {stats['n_admin']} admin) "
        f"across {len(stats['datasets'])} dataset(s) | "
        f"sessions: {stats['sessions']['live']} live / "
        f"budget {stats['sessions']['budget']}, "
        f"{stats['sessions']['spinups']} spin-ups, "
        f"{stats['sessions']['evictions']} evictions",
        file=sys.stderr,
    )


def _serve_stream(args: argparse.Namespace, server) -> int:
    """``fastbns serve`` (and ``batch``) over --requests/--out: one streaming dispatcher.

    Responses are emitted (and flushed) per input line at every thread
    count — the dispatcher's in-flight window, not the stream length,
    bounds buffering, so a producer that pipes requests and waits on
    responses composes with the server instead of deadlocking it.
    """
    import json

    n_served = 0
    interrupted = broken_pipe = False
    in_fh = out_fh = None
    with _InterruptGuard() as guard:
        try:
            # Both opens live inside the try: a bad --out path must not
            # leak the already-opened requests file.
            in_fh = (
                sys.stdin
                if args.requests == "-"
                else open(args.requests, encoding="utf-8")
            )
            out_fh = (
                sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
            )
            responses = server.serve_iter(
                _iter_jsonl(in_fh), threads=args.threads, window=args.window
            )
            try:
                for resp in responses:
                    out_fh.write(json.dumps(resp) + "\n")
                    out_fh.flush()
                    n_served += 1
            except KeyboardInterrupt:
                # Signal: stop intake; closing the generator drains the
                # dispatched lanes so the manifest accounts for them.
                interrupted = True
                responses.close()
                server.note_shutdown("signal", signum=guard.signum)
            except BrokenPipeError:
                # Consumer hung up on our stdout: stop serving, but the
                # manifest and stderr summary still land.
                broken_pipe = True
                responses.close()
                server.note_shutdown("broken-pipe")
        finally:
            if in_fh not in (None, sys.stdin):
                in_fh.close()
            if out_fh not in (None, sys.stdout):
                out_fh.close()
            elif broken_pipe:
                _quiet_stdout_teardown()
        # Epilogue still under the guard, with signals demoted to
        # recorders: a late (or repeat) Ctrl-C must not truncate the
        # manifest mid-write.
        guard.absorb()
        if args.manifest:
            server.write_manifest(args.manifest)
        _serve_summary(server, n_served, interrupted=interrupted)
    return guard.exit_code if interrupted else 0


def _serve_listen(args: argparse.Namespace, server) -> int:
    """``fastbns serve --listen``: the JSONL protocol over a socket.

    Accepts until SIGINT/SIGTERM, then drains: per-connection intake
    stops at the next line boundary, in-flight lanes finish, responses
    flush, clients read EOF — and the manifest is written as usual.
    """
    from .engine.transport import EngineTransport

    interrupted = False
    transport = EngineTransport(
        server, args.listen, threads=args.threads, window=args.window
    )
    with _InterruptGuard() as guard:
        try:
            transport.start()
            print(f"listening on {transport.describe()}", file=sys.stderr, flush=True)
            transport.wait()
        except KeyboardInterrupt:
            interrupted = True
            server.note_shutdown("signal", signum=guard.signum, drained=True)
        finally:
            # The drain and the manifest run with signals demoted to
            # recorders — a repeat Ctrl-C must not cut either short.
            guard.absorb()
            transport.shutdown(drain=True)
        if args.manifest:
            server.write_manifest(args.manifest)
        _serve_summary(server, transport.n_responses, interrupted=interrupted)
    return guard.exit_code if interrupted else 0


def _serve_processes(args: argparse.Namespace, registrations, default) -> int:
    """``fastbns serve --listen --processes N``: the multi-process plane.

    Mirrors :func:`_serve_listen`'s contract — same listening banner,
    same signal semantics (drain, manifest, ``128 + signum``) — but the
    engine work happens in N forked serve workers sharded by dataset
    content fingerprint, with the run manifest merged across workers.
    """
    from .engine.procserve import ProcessPlane

    interrupted = False
    server_kwargs = _server_kwargs(
        args, default_dataset=default, default_samples=args.samples, default_seed=args.seed
    )
    # The plane shards the store per worker; it is not a server setting here.
    store = server_kwargs.pop("store")
    plane = ProcessPlane(
        args.listen,
        processes=args.processes,
        server_kwargs=server_kwargs,
        registrations=registrations,
        threads=args.threads,
        window=args.window,
        store=store,
    )
    with _InterruptGuard() as guard:
        try:
            plane.start()
            print(f"listening on {plane.describe()}", file=sys.stderr, flush=True)
            plane.wait()
        except KeyboardInterrupt:
            interrupted = True
            plane.note_shutdown("signal", signum=guard.signum, drained=True)
        finally:
            # Same epilogue discipline as _serve_listen: signals demoted
            # to recorders while workers drain and the manifest lands.
            guard.absorb()
            plane.shutdown(drain=True)
        merged = plane.manifest()
        if args.manifest:
            plane.write_manifest(args.manifest)
        totals = merged["totals"]
        print(
            ("interrupted after " if interrupted else "served ")
            + f"{plane.n_responses} requests "
            f"({totals['n_computed']} computed, "
            f"{totals['n_result_cache_hits']} result-cache hits, "
            f"{totals['n_errors']} errors) "
            f"across {plane.processes} worker process(es) | "
            f"router: {plane.n_connections} connections, "
            f"{plane.n_respawns} respawns",
            file=sys.stderr,
        )
    return guard.exit_code if interrupted else 0


def _parse_registrations(entries) -> list[tuple[str, str]]:
    registrations: list[tuple[str, str]] = []
    for entry in entries:
        ds_id, sep, spec = entry.partition("=")
        if not sep or not ds_id or not spec:
            raise SystemExit(f"--register expects ID=KIND:VALUE, got {entry!r}")
        registrations.append((ds_id, spec))
    return registrations


def _parse_lane_weights(entries) -> dict[str, float]:
    weights: dict[str, float] = {}
    for entry in entries:
        ds_id, sep, value = entry.partition("=")
        try:
            weights[ds_id] = float(value)
        except ValueError:
            sep = ""
        if not sep or not ds_id:
            raise SystemExit(f"--lane-weight expects ID=WEIGHT, got {entry!r}")
    return weights


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine.server import EngineServer

    registrations = _parse_registrations(args.register)
    default = registrations[0][0] if len(registrations) == 1 else None

    if args.processes:
        if args.processes < 1:
            raise SystemExit(f"--processes must be >= 1, got {args.processes}")
        if not args.listen:
            raise SystemExit(
                "--processes requires --listen (the multi-process plane "
                "serves sockets; use --threads for --requests/--out streams)"
            )
        return _serve_processes(args, registrations, default)

    server = EngineServer(
        **_server_kwargs(
            args, default_dataset=default, default_samples=args.samples, default_seed=args.seed
        )
    )
    with server:
        for ds_id, spec in registrations:
            server.register(ds_id, spec)
        if args.listen:
            return _serve_listen(args, server)
        return _serve_stream(args, server)


def _workload_spec(args: argparse.Namespace):
    """Build a WorkloadSpec from the shared trace-shape flags."""
    from .engine.workload import WorkloadSpec

    kwargs = {}
    if args.mix:
        mix = dict(WorkloadSpec().mix)
        for entry in args.mix:
            op, sep, value = entry.partition("=")
            try:
                mix[op] = float(value)
            except ValueError:
                sep = ""
            if not sep or not op:
                raise SystemExit(f"--mix expects OP=WEIGHT, got {entry!r}")
        kwargs["mix"] = tuple(mix.items())
    datasets = tuple(d.strip() for d in args.datasets.split(",") if d.strip())
    return WorkloadSpec(
        n_requests=args.n_requests,
        datasets=datasets,
        seed=args.seed,
        zipf_s=args.zipf,
        arrival=args.arrival,
        rate=args.rate,
        burst=args.burst,
        error_rate=args.error_rate,
        max_depth=args.max_depth,
        n_targets=args.n_targets,
        **kwargs,
    )


def _workload_register(server, spec, registrations, samples: int) -> None:
    """Register trace tenants: explicit sources win, the rest get seeded
    synthetic networks sized to cover every blanket target index."""
    explicit = dict(registrations)
    from .datasets.sampling import forward_sample
    from .networks.generators import random_network

    for i, ds_id in enumerate(spec.datasets):
        if ds_id in explicit:
            server.register(ds_id, explicit.pop(ds_id))
            continue
        n_vars = max(8, spec.n_targets)
        net = random_network(
            n_vars,
            n_vars + 2,
            rng=spec.seed * 1009 + i,
            arity_range=(2, 3),
            max_parents=3,
        )
        server.register(ds_id, forward_sample(net, samples, rng=spec.seed * 1013 + i))
    for ds_id, src in explicit.items():  # extra --register entries still land
        server.register(ds_id, src)


def _workload_summary(report, header: str) -> None:
    lat = report.latency()
    print(
        f"{header}: {report.n_requests} requests in {report.wall_s:.3f}s "
        f"({report.requests_per_s:.0f} req/s), {report.n_cached} cached, "
        f"{report.n_errors} errors",
        file=sys.stderr,
    )
    print(
        f"latency ms: p50 {lat['p50_ms']:.2f} | p95 {lat['p95_ms']:.2f} | "
        f"p99 {lat['p99_ms']:.2f} | max {lat['max_ms']:.2f}",
        file=sys.stderr,
    )
    for tenant, t in report.per_tenant().items():
        print(
            f"  {tenant}: n {t['n']}, p50 {t['p50_ms']:.2f}, "
            f"p95 {t['p95_ms']:.2f}, p99 {t['p99_ms']:.2f}",
            file=sys.stderr,
        )


def _workload_replay(args: argparse.Namespace, trace) -> int:
    import json

    from .engine.workload import replay, replay_client

    if args.connect:
        from .engine.client import EngineClient

        with EngineClient(args.connect) as client:
            report = replay_client(client, trace, pace=args.pace)
    else:
        from .engine.server import EngineServer

        with EngineServer(**_server_kwargs(args)) as server:
            _workload_register(
                server, trace.spec, _parse_registrations(args.register), args.samples
            )
            report = replay(
                server, trace, threads=args.threads, window=args.window, pace=args.pace
            )
    _workload_summary(report, "replay" if args.connect is None else f"replay via {args.connect}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if report.n_requests != len(trace) else 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .engine.workload import generate_trace, load_trace, verify_trace

    if args.workload_command == "record":
        trace = generate_trace(_workload_spec(args))
        trace.save(args.out)
        print(f"recorded {len(trace)} requests to {args.out}", file=sys.stderr)
        return 0
    if args.workload_command == "verify":
        fresh, message = verify_trace(args.trace)
        print(message, file=sys.stderr)
        return 0 if fresh else 1
    if args.workload_command == "replay":
        return _workload_replay(args, load_trace(args.trace))
    if args.workload_command == "run":
        trace = generate_trace(_workload_spec(args))
        if args.out:
            trace.save(args.out)
        return _workload_replay(args, trace)
    raise AssertionError("unreachable")


def _cmd_blanket(args: argparse.Namespace) -> int:
    from .engine import LearningSession

    # --network keeps the generating network around for the ground-truth
    # comparison; --csv/--bif have no ground truth, so those lines are
    # simply omitted.  All three sources share _source semantics with
    # `learn`/`batch` (same files, same seeds).
    network = None
    if args.network:
        from .bench.workloads import make_workload

        wl = make_workload(args.network, args.samples, scale=args.scale)
        data, network, label = wl.dataset, wl.network, wl.label
    else:
        data = _source(args).load()
        label = args.csv or args.bif
    try:
        target = int(args.target)
    except ValueError:
        target = data.index_of(args.target)
    if not 0 <= target < data.n_variables:
        raise SystemExit(
            f"target index {target} out of range for {data.n_variables} variables"
        )
    with LearningSession(data, alpha=args.alpha) as sess:
        result = sess.markov_blanket(
            target, algorithm=args.algorithm, max_conditioning=args.max_conditioning
        )
        cache = sess.cache_stats()
    found = sorted(data.names[v] for v in result.blanket)
    print(f"target: {data.names[target]} ({label}, m={data.n_samples})")
    print(f"blanket ({args.algorithm}, {result.n_tests} CI tests): {', '.join(found) or '-'}")
    if network is not None:
        from .core.markov_blanket import true_markov_blanket

        truth = true_markov_blanket(data.n_variables, network.edges(), target)
        expected = sorted(data.names[v] for v in truth)
        print(f"true blanket: {', '.join(expected) or '-'}")
        overlap = len(result.blanket & truth)
        print(f"overlap: {overlap}/{len(truth)}")
    print(f"stats cache: {cache.hits} hits / {cache.misses} misses")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .bench import experiments as ex

    runners = {
        "table1": lambda: ex.experiment_table1(n_samples=args.samples),
        "table2": ex.experiment_table2,
        "table3": lambda: ex.experiment_table3(n_samples=args.samples),
        "table4": lambda: ex.experiment_table4(n_samples=args.samples),
        "fig2": lambda: ex.experiment_fig2(n_samples=args.samples),
        "fig3": ex.experiment_fig3,
        "fig4": ex.experiment_fig4,
        "fig5": lambda: ex.experiment_fig5(n_samples=args.samples),
    }
    names = list(runners) if args.name == "all" else [args.name]
    for name in names:
        out = runners[name]()
        print(f"== {out.title} ==")
        print(out.text)
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.engine import Analyzer, all_rules
    from .analysis.findings import format_findings

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id}  [{rule.severity}]  {rule.title}")
        return 0
    select = [r for r in args.select.split(",") if r.strip()] if args.select else None
    try:
        analyzer = Analyzer(select=select, lockgraph=not args.no_lockgraph)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = analyzer.run(args.paths)
    print(format_findings(findings, args.fmt))
    if args.fmt == "json":
        print(
            f"analyzed {analyzer.n_files} file(s): {len(findings)} finding(s), "
            f"{analyzer.n_suppressed} suppressed",
            file=sys.stderr,
        )
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "learn":
        return _cmd_learn(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "blanket":
        return _cmd_blanket(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
