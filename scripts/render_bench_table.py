#!/usr/bin/env python3
"""Render the README performance table from BENCH_*.json artefacts.

The benchmarks under ``benchmarks/`` persist machine-readable
``benchmarks/results/BENCH_<name>.json`` perf artefacts (see
``benchmarks/results/README.md``).  This script is the *only* writer of
the markdown table between the ``BENCH_TABLE_START``/``END`` markers in
the top-level README — hand-edited numbers drift from the artefacts and
then lie; generated numbers cannot.

Usage::

    python scripts/render_bench_table.py            # rewrite README table
    python scripts/render_bench_table.py --check    # exit 1 when stale (CI)

Unknown artefacts degrade gracefully: a bench without a bespoke
summariser still gets a row with its headline fields, so adding a new
perf bench never requires touching this script first.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"
README = REPO / "README.md"
START = "<!-- BENCH_TABLE_START -->"
END = "<!-- BENCH_TABLE_END -->"


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def _row_engine_throughput(doc: dict) -> tuple[str, str]:
    return (
        f"warm vs cold serving ({doc['network']}, {doc['n_requests']} requests)",
        f"{_fmt(doc['speedup'], 0)}× warm speedup, "
        f"{doc['stats_cache_hit_rate']:.0%} stats-cache hit rate",
    )


def _row_cold_tax(doc: dict) -> tuple[str, str]:
    return (
        f"cold skeleton learn with vs without a fresh stats cache "
        f"({doc['network']}-{doc['n_samples']}, gs={doc['gs']}, "
        f"{len(doc['seeds'])} seeds x {doc['pairs_per_seed']} pairs)",
        f"{_fmt(doc['median_ratio'], 3)}× cold tax (pair IQR "
        f"{_fmt(doc['ratio_q1'], 3)}–{_fmt(doc['ratio_q3'], 3)}, "
        f"gate {_fmt(doc['max_ratio_gate'])}×)",
    )


def _row_kernel_batching(doc: dict) -> tuple[str, str]:
    per_gs = ", ".join(
        f"gs={gs}: {_fmt(doc['group_sizes'][gs]['speedup'])}×"
        for gs in sorted(doc["group_sizes"], key=int)
    )
    return (
        f"batched group kernel vs looped ({doc['network']})",
        per_gs,
    )


def _row_shared_memory(doc: dict) -> tuple[str, str]:
    saved = doc.get("copies_saved_per_worker")
    mem_txt = "n/a" if saved is None else f"{saved:.2f} dataset copies less private memory/worker"
    return (
        f"shm plane vs pickled workers ({doc['network']}, n_jobs={doc['n_jobs']}, "
        f"{doc['start_method']})",
        f"{mem_txt}, {_fmt(doc['start_speedup'])}× pool start",
    )


def _row_server(doc: dict) -> tuple[str, str]:
    return (
        f"multi-dataset server vs per-dataset loop "
        f"({' + '.join(doc['networks'])}, {doc['n_requests']} requests, "
        f"n_jobs={doc['n_jobs']})",
        f"{_fmt(doc['speedup'], 1)}× serving speedup, "
        f"{doc['result_cache_hits']} result-cache hits",
    )


def _row_store(doc: dict) -> tuple[str, str]:
    return (
        f"warm restart vs cold start over a durable store "
        f"({doc['network']}, {doc['n_requests']} requests)",
        f"{_fmt(doc['speedup'], 0)}× restart speedup, "
        f"{doc['store_result_hits']} store hits, "
        f"{doc['warm_skeleton_learns']} skeleton relearns",
    )


def _row_transport(doc: dict) -> tuple[str, str]:
    return (
        f"shared socket server vs per-client engines "
        f"({' + '.join(doc['networks'])}, {doc['n_clients']} clients, "
        f"{doc['n_requests']} requests)",
        f"{_fmt(doc['speedup'], 1)}× serving speedup, "
        f"{_fmt(doc['requests_per_s'], 1)} req/s over TCP",
    )


def _latency_cols(doc: dict) -> str:
    """p50/p95/p99 columns for any artefact carrying a ``latency`` block."""
    lat = doc.get("latency")
    if not isinstance(lat, dict):
        return ""
    return (
        f"p50/p95/p99 {_fmt(lat['p50_ms'], 1)}/"
        f"{_fmt(lat['p95_ms'], 1)}/{_fmt(lat['p99_ms'], 1)} ms"
    )


def _row_workload(doc: dict) -> tuple[str, str]:
    return (
        f"golden-trace replay ({doc['n_requests']} requests, "
        f"{len(doc['per_tenant'])} zipf tenants, threads={doc['threads']})",
        f"{_fmt(doc['requests_per_s'], 0)} req/s, {_latency_cols(doc)}",
    )


def _row_serve_processes(doc: dict) -> tuple[str, str]:
    return (
        f"process plane vs lockstep engines "
        f"({' + '.join(doc['networks'])}, {doc['processes']} workers, "
        f"{doc['n_clients']} clients)",
        f"{_fmt(doc['speedup'], 1)}× serving speedup "
        f"(gate {_fmt(doc['min_speedup_gate'], 1)}× on "
        f"{doc['cpu_count']} cpu), paced replay {_latency_cols(doc)}",
    )


def _row_workload_fairness(doc: dict) -> tuple[str, str]:
    return (
        f"weighted-fair lanes ({doc['n_hot_requests']} hot + "
        f"{doc['n_cold_requests']} cold requests, cold weight "
        f"{_fmt(doc['cold_weight'], 0)}, threads={doc['threads']})",
        f"cold p99 {_fmt(doc['cold_p99_ratio'])}× solo (bound 3×), "
        f"cold under load {_latency_cols(doc)}",
    )


_SUMMARISERS = {
    "cold_tax": _row_cold_tax,
    "engine_throughput": _row_engine_throughput,
    "kernel_batching": _row_kernel_batching,
    "server": _row_server,
    "shared_memory": _row_shared_memory,
    "serve_processes": _row_serve_processes,
    "store": _row_store,
    "transport": _row_transport,
    "workload": _row_workload,
    "workload_fairness": _row_workload_fairness,
}

_GENERIC_FIELDS = ("speedup", "best_speedup", "ops_per_s", "requests_per_s")


def _row_generic(doc: dict) -> tuple[str, str]:
    parts = [f"{k}={_fmt(doc[k])}" for k in _GENERIC_FIELDS if k in doc]
    lat = _latency_cols(doc)
    if lat:
        parts.append(lat)
    return (doc.get("bench", "?"), ", ".join(parts) or "see JSON artefact")


def render_table() -> str:
    docs = []
    for path in sorted(RESULTS.glob("BENCH_*.json")):
        try:
            docs.append(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"unreadable artefact {path}: {exc}") from exc
    if not docs:
        return "_No `BENCH_*.json` artefacts yet — run `python -m pytest benchmarks/`._"
    lines = [
        "| benchmark | headline (this host) |",
        "| --- | --- |",
    ]
    for doc in docs:
        summarise = _SUMMARISERS.get(doc.get("bench"), _row_generic)
        what, headline = summarise(doc)
        lines.append(f"| {what} | {headline} |")
    pythons = sorted({d.get("python", "?") for d in docs})
    machines = sorted({d.get("machine", "?") for d in docs})
    lines.append("")
    lines.append(
        f"_Rendered from {len(docs)} artefact(s); "
        f"Python {'/'.join(pythons)} on {'/'.join(machines)}._"
    )
    return "\n".join(lines)


def splice(readme_text: str, table: str) -> str:
    try:
        head, rest = readme_text.split(START, 1)
        _, tail = rest.split(END, 1)
    except ValueError:
        raise SystemExit(f"README is missing the {START} / {END} markers") from None
    return f"{head}{START}\n{table}\n{END}{tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the README table matches the artefacts; exit 1 when stale",
    )
    args = parser.parse_args(argv)
    current = README.read_text()
    updated = splice(current, render_table())
    if args.check:
        if updated != current:
            print(
                "README perf table is stale; regenerate with "
                "`python scripts/render_bench_table.py`",
                file=sys.stderr,
            )
            return 1
        print("README perf table is up to date")
        return 0
    if updated != current:
        README.write_text(updated)
        print(f"updated {README.relative_to(REPO)}")
    else:
        print("README perf table already up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
