"""The benchmark's two workloads and their correctness oracles.

Every workload is a closed loop: one client, one request in flight, the
next request sent only after the previous response arrived.  Requests use
the protocol defaults (``gs=1``, ``n_jobs=1``).  A workload yields its
requests in *rounds*; the timed loop stops at a round boundary once the
run's seconds are spent, and :meth:`between_rounds` runs untimed.

``repro`` is imported inside :meth:`setup`, never at module import, so a
run's set-up time includes the package import.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path

ALARM_SAMPLES = 2000
#: Rows of cold-learn's warm-up sample: it only has to run every code path
#: once (lazy imports, kernel set-up), so it is small to keep set-up short.
WARMUP_SAMPLES = 500
#: The committed golden trace; trace-replay takes its spec from the header.
GOLDEN_TRACE = Path(__file__).resolve().parents[1] / "benchmarks/traces/workload_500.jsonl"

#: (n_variables, n_samples) of trace tenants d0..d3; each covers the
#: golden spec's 8 blanket targets.  Tenants are the golden-trace bench's
#: fixed synthetic networks and samples (network seed 4200 + i, sample
#: seed 4300 + i): their content sets the cost of every computed request,
#: so the workload seed varies the traces instead.
TENANT_SHAPES = ((16, 900), (10, 400), (9, 400), (8, 400))


@functools.cache
def golden_spec():
    """The spec in the golden trace's header."""
    from repro.engine.workload import load_trace

    return load_trace(GOLDEN_TRACE).spec


def _sample_seed(seed: int, index: int) -> int:
    """Distinct, reproducible sampling seed per (workload seed, index)."""
    return seed * 1_000_003 + index


def learn_payload(result, names) -> dict:
    """The ``learn`` result payload the serving layer builds for ``result``."""
    return {
        "n_variables": len(names),
        "skeleton_edges": result.skeleton.n_edges,
        "directed": sorted([names[u], names[v]] for u, v in result.cpdag.directed_edges()),
        "undirected": sorted([names[u], names[v]] for u, v in result.cpdag.undirected_edges()),
        "n_ci_tests": result.n_ci_tests,
    }


def outcome(resp: dict) -> dict:
    """What the in-process oracles compare: the answer or the error."""
    return {"error": resp["error"], "result": resp["result"]}


def strip_timing(obj):
    """Drop every ``elapsed_s`` key, recursively (stats payloads nest them)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def never_errors(_request: dict) -> bool:
    return False


def injected_error(request: dict) -> bool:
    """True for the trace generator's deliberately bad requests."""
    return (
        request.get("gs") == 0
        or str(request.get("dataset", "")).endswith("::missing")
        or (request.get("op") == "blanket" and "target" not in request)
    )


def cache_counters(manifest: dict) -> dict:
    """Stats-cache counters summed over every session of a run document."""
    out = {"hits": 0, "misses": 0}
    for doc in manifest["sessions"]:
        for key in out:
            out[key] += doc["stats_cache"][key]
    return out


class ColdLearn:
    """First-touch ``learn`` on a fresh alarm sample per request, served by
    an in-process EngineServer."""

    name = "cold-learn"
    expects_error = staticmethod(never_errors)
    #: Datasets in the traced run's fixed ledger pass.
    LEDGER_REQUESTS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server = None

    def setup(self) -> None:
        from repro.engine import EngineServer
        from repro.networks import get_network

        self.net = get_network("alarm")
        self.data: dict[str, object] = {}
        self.server = EngineServer()
        # Warm-up: one cold learn on a small sample outside the timed set.
        self.server.register("warmup", self._sample(0, WARMUP_SAMPLES))
        self.server.handle({"op": "learn", "dataset": "warmup"})

    def _sample(self, index: int, rows: int = ALARM_SAMPLES):
        from repro.datasets import forward_sample

        return forward_sample(self.net, rows, rng=_sample_seed(self.seed, index))

    def fresh_server(self):
        from repro.engine import EngineServer

        return EngineServer()

    def rounds(self, server=None) -> Iterator[list[dict]]:
        server = server or self.server
        for i in itertools.count(1):
            ds_id = f"c{i}"
            # Each server gets its own dataset object, so nothing a first
            # serve memoizes on the data can warm a second one.
            data = self._sample(i)
            self.data.setdefault(ds_id, data)
            server.register(ds_id, data)
            yield [{"op": "learn", "dataset": ds_id}]

    def ledger_requests(self, server) -> list[dict]:
        rounds = self.rounds(server)
        return [req for _ in range(self.LEDGER_REQUESTS) for req in next(rounds)]

    def expected(self, requests: list[dict], timings: list[float] | None = None) -> list[dict]:
        from repro.core.learn import learn_structure

        out = []
        for req in requests:
            data = self.data[req["dataset"]]
            t0 = time.perf_counter()
            result = learn_structure(data)
            if timings is not None:
                timings.append(time.perf_counter() - t0)
            out.append({"error": None, "result": learn_payload(result, data.names)})
        return out

    def reference(self, served: list[float], uncached: list[float]):
        """``(cold tax, uncached learn seconds)`` over the ledger's datasets."""
        return sum(served) / sum(uncached), statistics.median(uncached)

    def send(self, request: dict) -> dict:
        return self.server.handle(request)

    def between_rounds(self) -> None:
        pass

    def verify(self, requests: list[dict], responses: list[dict]):
        """Served outcomes and the uncached oracle's, request by request."""
        return [outcome(r) for r in responses], self.expected(requests)

    def serving_pid(self) -> str:
        return "self"

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


class TraceReplay:
    """Golden-spec traces sent to ``fastbns serve --listen`` in a child.

    Round ``r`` replays the whole trace generated from the golden spec at
    seed ``_sample_seed(r, seed)`` — round 0 at the workload seed itself,
    so seed 42 starts with the committed golden trace — and a run
    averages over as many traces as it has rounds.  Between rounds every
    tenant is closed, so each round starts from cold sessions.  Every line
    sent on the connection (warm-up, resets and probes included) is
    logged, and the oracle replays the log through an in-process server
    built from the same CSVs.
    """

    name = "trace-replay"
    expects_error = staticmethod(injected_error)

    def __init__(self, seed: int, work_dir: Path, spans_out: Path | None = None) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.spans_out = spans_out
        self.child = None
        self.client = None
        self.log: list[tuple[dict, dict]] = []

    @staticmethod
    def spec(seed: int):
        """The committed golden trace's spec, re-seeded."""
        return dataclasses.replace(golden_spec(), seed=seed)

    def setup(self) -> None:
        from repro.datasets.io import write_csv
        from repro.datasets.sampling import forward_sample
        from repro.engine.client import EngineClient
        from repro.networks.generators import random_network

        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.registrations = []
        for i, (n_vars, n_samples) in enumerate(TENANT_SHAPES):
            net = random_network(
                n_vars, n_vars + 4, rng=4200 + i, arity_range=(2, 3), max_parents=3
            )
            path = os.path.relpath(self.work_dir / f"d{i}.csv")
            write_csv(forward_sample(net, n_samples, rng=4300 + i), path)
            self.registrations.append((f"d{i}", f"csv:{path}"))
        sock = os.path.relpath(self.work_dir / "serve.sock")
        serve = ["serve", "--listen", f"unix:{sock}", "--max-sessions", "8"]
        for ds_id, src in self.registrations:
            serve += ["--register", f"{ds_id}={src}"]
        if self.spans_out is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            here = Path(__file__).resolve().parent
            argv = [sys.executable, str(here / "serve_traced.py"), str(self.spans_out), *serve]
        stderr_path = self.work_dir / "serve.log"
        with open(stderr_path, "wb") as err:
            self.child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + 60
        while b"listening on" not in stderr_path.read_bytes():
            if self.child.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {stderr_path.read_text()}")
            time.sleep(0.01)
        self.client = EngineClient(f"unix:{sock}", timeout=60)
        for req in next(self.rounds()):  # warm-up: round 0, then reset
            self.send(req)
        self.between_rounds()

    def rounds(self) -> Iterator[list[dict]]:
        from repro.engine.workload import generate_trace

        for r in itertools.count():
            trace = generate_trace(self.spec(_sample_seed(r, self.seed)))
            yield [rec.request for rec in trace.records]

    def send(self, request: dict) -> dict:
        resp = self.client.request(request)
        self.log.append((request, resp))
        return resp

    def between_rounds(self) -> None:
        for ds_id, _ in self.registrations:
            resp = self.send({"op": "close_dataset", "dataset": ds_id})
            if resp["error"] is not None:
                raise RuntimeError(f"reset failed: {resp['error']}")

    def serving_pid(self) -> int:
        return self.child.pid

    def oracle(self) -> list[dict]:
        """Sequential in-process answers to every logged request."""
        from repro.engine import EngineServer

        with EngineServer(max_sessions=8) as server:
            for ds_id, src in self.registrations:
                server.register(ds_id, src)
            return [server.handle(req) for req, _ in self.log]

    def verify(self, requests: list[dict], responses: list[dict]):
        """Timed responses and their oracle twins, timings stripped.

        ``requests``/``responses`` are a contiguous-in-log subsequence
        (the timed rounds); their oracle twins are found by identity.
        """
        expected = self.oracle()
        index = {id(resp): i for i, (_, resp) in enumerate(self.log)}
        got = [strip_timing(r) for r in responses]
        want = [strip_timing(expected[index[id(r)]]) for r in responses]
        return got, want

    def stop(self) -> int | None:
        """Close the connection, drain the server child and wait for it."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.child is None:
            return None
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
        try:
            code = self.child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.child.kill()
            code = self.child.wait()
        self.child = None
        return code

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ColdLearn, TraceReplay)}
