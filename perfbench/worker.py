"""One measuring process of the benchmark (started by ``run.py``).

Set-up is timed from the first line of this file, before ``repro`` is
imported, to the first timed request.  Modes:

``--setup-only``
    set up, report ``setup_s`` and exit (``run.py`` repeats set-up in
    several processes and reports the median);
default
    set up, run the timed closed loop for ``--seconds`` (whole rounds),
    read the serving process's peak RSS, then check every response
    against the workload's oracle and report the end-to-end metrics;
``--trace``
    the per-layer ledger: one fixed pass untraced, the same pass again
    under the span recorder, the uncached reference learns, and the
    layer metrics derived from the spans and the engine's counters.

The result is one JSON object on the last line of standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from measure import count_failures, highest_supported_percentile, peak_rss_mb  # noqa: E402
from spans import SpanRecorder, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    TraceReplay,
    cache_counters,
    outcome,
)

WORK_DIR = Path(".perfbench")
#: Spans that only route a request to the layers below them: their self
#: time is glue no layer claimed, so it counts as unattributed.
ENCLOSING = ("server.handle", "batch.handle", "session.learn", "session.blanket")


def timed_loop(workload, seconds: float):
    """Closed loop over whole rounds until ``seconds`` of round time passed."""
    requests, responses, latencies = [], [], []
    wall = 0.0
    for batch in workload.rounds():
        t_round = time.perf_counter()
        for req in batch:
            t0 = time.perf_counter()
            resp = workload.send(req)
            latencies.append(time.perf_counter() - t0)
            requests.append(req)
            responses.append(resp)
        wall += time.perf_counter() - t_round
        if wall >= seconds:
            break
        workload.between_rounds()
    return requests, responses, latencies, wall


def one_pass(send, requests):
    responses, latencies = [], []
    t_start = time.perf_counter()
    for req in requests:
        t0 = time.perf_counter()
        responses.append(send(req))
        latencies.append(time.perf_counter() - t0)
    return responses, latencies, time.perf_counter() - t_start


def end_to_end(workload, seconds: float) -> dict:
    from repro.engine.workload import percentile

    workload.setup()
    setup_s = time.perf_counter() - T_START
    requests, responses, latencies, wall = timed_loop(workload, seconds)
    rss = peak_rss_mb(workload.serving_pid())
    got, want = workload.verify(requests, responses)
    failed = count_failures(requests, got, want, workload.expects_error)
    ms = [v * 1000.0 for v in latencies]
    return {
        "attempted": len(requests),
        "failed": failed,
        "metrics": {
            "requests_per_s": (len(requests) - failed) / wall,
            "p50_ms": percentile(ms, 50),
            "p90_ms": percentile(ms, 90),
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        },
        "samples": len(ms),
        "tail_supported_q": highest_supported_percentile(len(ms)),
        "timed_s": wall,
    }


def layer_metrics(
    layers: dict,
    n: int,
    wall_traced: float,
    wall_untraced: float,
    hits: int,
    misses: int,
    extra: dict,
) -> dict:
    """Per-layer figures from span summaries and the pass's stats-cache
    counters; times are per request of the pass.  ``extra`` holds the
    figures measured outside the spans."""

    def rec(name):
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0})

    cit, scan = rec("citests"), rec("statscache.superset_scan")
    spin = rec("session.spinup")
    attributed = sum(r["self_s"] for name, r in layers.items() if name not in ENCLOSING)
    out = {
        "citests.tests": cit["n"],
        "citests.calls": cit["calls"],
        "citests.tests_per_call": cit["n"] / cit["calls"] if cit["calls"] else 0.0,
        "citests.busy_s": cit["self_s"] / n,
        "core.skeleton_s": rec("core.skeleton")["self_s"] / n,
        "core.orient_s": rec("core.orient")["self_s"] / n,
        "core.blanket_s": rec("core.blanket")["self_s"] / n,
        "core.redundant_tests": rec("core.skeleton")["n"],
        "statscache.hits": hits,
        "statscache.misses": misses,
        "statscache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "statscache.superset_scans": scan["calls"],
        "statscache.marginal_builds": scan["n"],
        "statscache.superset_useful_ratio": scan["n"] / scan["calls"] if scan["calls"] else 0.0,
        "statscache.superset_scan_s": scan["self_s"] / n,
        "statscache.lookup_s": rec("statscache.lookup")["self_s"] / n,
        "session.spinup_s": spin["self_s"] / spin["calls"] if spin["calls"] else 0.0,
        "session.self_s": (rec("session.learn")["self_s"] + rec("session.blanket")["self_s"]) / n,
        "batch.self_s": rec("batch.handle")["self_s"] / n,
        "server.self_s": rec("server.handle")["self_s"] / n,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.unattributed_frac": 1.0 - attributed / wall_traced,
    }
    out.update(extra)
    return out


def ledger_in_process(workload) -> dict:
    workload.setup()
    workload.close()
    server_a = workload.fresh_server()
    requests = workload.ledger_requests(server_a)
    resp_a, lat_a, wall_a = one_pass(server_a.handle, requests)
    stats_ms = server_a.handle({"op": "stats"})["elapsed_s"] * 1000.0
    server_a.close()

    server_b = workload.fresh_server()
    workload.ledger_requests(server_b)
    recorder = SpanRecorder()
    recorder.install()
    try:
        resp_b, _, wall_b = one_pass(server_b.handle, requests)
    finally:
        recorder.uninstall()
    counters = cache_counters(server_b.manifest())
    server_b.close()

    ref_times: list[float] = []
    want = workload.expected(requests, timings=ref_times)
    cold_tax, learn_structure_s = workload.reference(lat_a, ref_times)
    failed = sum(
        count_failures(requests, [outcome(r) for r in resp], want, workload.expects_error)
        for resp in (resp_a, resp_b)
    )
    n_queries = len(requests)
    hits = sum(bool(r["cached"]) for r in resp_b)
    layers = summarize(recorder.threads())
    metrics = layer_metrics(
        layers,
        len(requests),
        wall_b,
        wall_a,
        counters["hits"],
        counters["misses"],
        {
            "core.learn_structure_s": learn_structure_s,
            "batch.result_hits": hits,
            "batch.result_hit_ratio": hits / n_queries,
            "server.stats_ms": stats_ms,
            "transport.overhead_ms": 0.0,
            "engine.cold_tax": cold_tax,
        },
    )
    return {"attempted": 2 * len(requests), "failed": failed, "metrics": metrics}


def ledger_trace_replay(seed: int, work: Path) -> dict:
    spans_path = work / "spans.json"
    results = []
    for spans_out in (None, spans_path):
        replay = TraceReplay(seed, work / ("traced" if spans_out else "plain"), spans_out)
        try:
            replay.setup()
            batch = next(replay.rounds())
            t0 = time.perf_counter()
            responses, latencies, wall = one_pass(replay.send, batch)
            t1 = time.perf_counter()
            stats = replay.send({"op": "stats"})["result"]
            replay.between_rounds()
            replay.stop()
            got, want = replay.verify(batch, responses)
        finally:
            replay.close()
        failed = count_failures(batch, got, want, replay.expects_error)
        results.append((responses, latencies, wall, (t0, t1), stats, failed))
    (resp_a, lat_a, wall_a, _, _, failed_a) = results[0]
    (_, _, wall_b, window, stats_b, failed_b) = results[1]
    threads = json.loads(spans_path.read_text())
    spans_path.unlink()
    layers = summarize(threads, window=window)
    sessions = stats_b["per_session"].values()
    n = len(resp_a)
    queries = [r for r in resp_a if r["op"] in ("learn", "blanket") and r["error"] is None]
    hits = sum(s["n_result_cache_hits"] for s in sessions)
    metrics = layer_metrics(
        layers,
        n,
        wall_b,
        wall_a,
        sum(s["stats_cache"]["hits"] for s in sessions),
        sum(s["stats_cache"]["misses"] for s in sessions),
        {
            "core.learn_structure_s": 0.0,
            "batch.result_hits": hits,
            "batch.result_hit_ratio": hits / len(queries),
            "server.stats_ms": 1000.0
            * median([r["elapsed_s"] for r in resp_a if r["op"] == "stats"]),
            "transport.overhead_ms": 1000.0
            * median([lat - r["elapsed_s"] for lat, r in zip(lat_a, resp_a, strict=True)]),
            "engine.cold_tax": 0.0,
        },
    )
    return {"attempted": 2 * n, "failed": failed_a + failed_b, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = WORK_DIR / f"run-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    try:
        if args.trace and cls is TraceReplay:
            result = ledger_trace_replay(args.seed, work)
        else:
            workload = cls(args.seed, work) if cls is TraceReplay else cls(args.seed)
            try:
                if args.setup_only:
                    workload.setup()
                    result = {"setup_s": time.perf_counter() - T_START}
                elif args.trace:
                    result = ledger_in_process(workload)
                else:
                    result = end_to_end(workload, args.seconds)
            finally:
                workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from repro.citests.native import native_kind
    import numpy

    result["host"] = {"numpy": numpy.__version__, "native_backend": native_kind()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
