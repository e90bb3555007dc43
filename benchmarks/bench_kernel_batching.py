"""Arena-backed fused multi-group CI kernel vs the looped per-set oracle.

The fused kernel (:meth:`repro.citests.tablebase.ContingencyTableTest.
test_groups`) evaluates *many* edge groups per call: cell codes for every
(set, group) row are offset-stacked into one arena-backed matrix, counted
with one ``bincount`` per cache-sized wave, reduced with one stacked
elementwise pass per table shape and finished with one ``gammaincc`` per
wave — where the looped path pays one ``bincount``, one reduction and one
``gammaincc`` per conditioning set.  All large scratch comes from a
reusable :class:`~repro.citests.arena.KernelArena`, so a warm worker
grows no scratch buffer per group evaluation (each wave's histogram is
still a fresh allocation).

This bench extracts the real multi-set group workload of a Fast-BNS
skeleton run on a Table II network (single-set groups are excluded — both
paths treat them identically, so they only dilute the kernel comparison),
then re-evaluates that exact group stream through both paths and asserts:

* results are **bit-identical** — every statistic/dof/p-value equal, no
  tolerance — and full learns produce identical skeletons and sepsets;
* the pure-Python fused path is >= 3x faster than the looped oracle at a
  group size >= 8 (the gain grows with gs: more per-set dispatch amortized
  per kernel call), and is never slower at any measured gs;
* the arena performs **zero growth events** across warm rounds — the
  steady-state "no scratch growth" claim as a measured artefact, with
  per-path ``tracemalloc`` numbers in the JSON payload.

The optional native path (auto-detected C backend, ``REPRO_NATIVE=0``
disables) is timed and reported separately when present; it is never part
of the speedup gate, which measures the pure-Python arena+fusion kernel.

Measurement protocol: each round builds a fresh tester per path.  The
fused paths keep one :class:`~repro.citests.arena.KernelArena` across
rounds — mirroring how a worker holds it for a whole learning run — and
the looped path keeps nothing, re-deriving its endpoint codes once per
group as the baselines do.  One untimed warmup round, then
best-of-``ROUNDS`` with the paths interleaved so scheduler noise hits
them evenly.

Emits ``BENCH_kernel_batching.json`` with per-gs ops/sec, speedups, the
native timings and the steady-state allocation profile.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from repro.bench.tables import render_table
from repro.bench.workloads import make_workload
from repro.citests.arena import KernelArena
from repro.citests.gsquare import GSquareTest
from repro.citests.native import native_available
from repro.core.skeleton import learn_skeleton

NETWORK = "alarm"  # Table II network, quick-mode scale 1.0
N_SAMPLES = 2000
GROUP_SIZES = (4, 8, 16)
#: Groups per ``test_groups`` call — the adaptive scheduler's steady-state
#: dispatch size.  Above the cache-blocked wave cap the chunk size barely
#: matters (waves are split internally); 64 matches production dispatch.
CHUNK = 64
ROUNDS = 7  # best-of-N per path: absorbs scheduler noise on shared CI runners
TARGET_SPEEDUP = 3.0
#: The >=3x gate applies at gs >= 8 (ISSUE acceptance); gs=4 groups carry
#: too little per-call work to amortize the fused plan stage that far.
TARGET_GROUP_SIZES = (8, 16)
#: Per-gs floor: "never meaningfully slower".  Slightly below 1.0 so a
#: noisy-neighbor stall on a sub-second measurement cannot flip the gate.
NO_REGRESSION_FLOOR = 0.9
#: ``tracemalloc`` block-size threshold for the "large allocation" count
#: (64 KiB — well above result objects, well below any kernel buffer).
LARGE_BLOCK_BYTES = 64 * 1024


class _GroupRecorder:
    """Tester proxy that records every ``test_group`` work item."""

    def __init__(self, inner):
        self.inner = inner
        self.groups: list[tuple[int, int, list[tuple[int, ...]]]] = []
        self.alpha = inner.alpha
        self.counters = inner.counters
        self.dataset = inner.dataset

    def test(self, x, y, s):
        return self.inner.test(x, y, s)

    def test_group(self, x, y, sets):
        self.groups.append((x, y, [tuple(s) for s in sets]))
        return self.inner.test_group(x, y, sets)


def _collect_groups(dataset, gs):
    recorder = _GroupRecorder(GSquareTest(dataset))
    graph, sepsets, _ = learn_skeleton(
        recorder, dataset.n_variables, gs=gs, group_endpoints=True
    )
    multi = [g for g in recorder.groups if len(g[2]) >= 2]
    return multi, graph, sepsets


class _LoopedPath:
    """Per-round looped oracle (one endpoint encode per group)."""

    name = "looped"

    def __init__(self, dataset, groups):
        self.dataset = dataset
        self.groups = groups

    def run(self):
        tester = GSquareTest(self.dataset, batch_groups=False)
        groups = self.groups
        t0 = time.perf_counter()
        out = [tester.test_group(x, y, sets) for x, y, sets in groups]
        return time.perf_counter() - t0, out


class _FusedPath:
    """Per-round fused kernel over a shared arena."""

    def __init__(self, dataset, groups, native):
        self.name = "native" if native else "fused"
        self.dataset = dataset
        self.groups = groups
        self.native = native
        self.arena = KernelArena()

    def run(self):
        tester = GSquareTest(self.dataset, arena=self.arena)
        tester.use_native = self.native
        groups = self.groups
        t0 = time.perf_counter()
        out = []
        for i in range(0, len(groups), CHUNK):
            out.extend(tester.test_groups(groups[i : i + CHUNK]))
        return time.perf_counter() - t0, out


def _steady_state_allocs(path):
    """Trace one warm pass: net/peak bytes and net-new large blocks.

    The path's arena and memos are already warm (warmup + timed rounds ran
    first), so everything the trace sees is steady-state per-pass churn —
    the allocations the arena exists to eliminate.  Traced outside the
    timed rounds: tracing itself slows execution.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        path.run()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    # Each ``Snapshot.traces`` entry is one live block: the delta counts
    # large buffers that survived the pass (arena-backed paths add none —
    # their big scratch was allocated before tracing began).
    def _large(snapshot):
        return sum(1 for t in snapshot.traces if t.size >= LARGE_BLOCK_BYTES)

    return {
        "net_kib": (current - base) / 1024.0,
        "peak_kib": (peak - base) / 1024.0,
        "large_blocks_delta": _large(after) - _large(before),
    }


def _assert_identical(got, oracle):
    """Exact equality, no tolerance, on every field of every result."""
    assert len(got) == len(oracle)
    for group_g, group_o in zip(got, oracle, strict=True):
        for g, o in zip(group_g, group_o, strict=True):
            assert g.statistic == o.statistic
            assert g.dof == o.dof
            assert g.p_value == o.p_value
            assert g.independent == o.independent


def test_kernel_batching(record, record_json):
    wl = make_workload(NETWORK, N_SAMPLES)
    dataset = wl.dataset
    has_native = native_available()

    rows = []
    payload = {
        "network": wl.label,
        "n_samples": N_SAMPLES,
        "chunk": CHUNK,
        "rounds": ROUNDS,
        "native_backend": has_native,
        "target_speedup": TARGET_SPEEDUP,
        "target_group_sizes": list(TARGET_GROUP_SIZES),
        "group_sizes": {},
    }
    speedups = {}
    for gs in GROUP_SIZES:
        groups, graph, sepsets = _collect_groups(dataset, gs)
        n_tests = sum(len(g[2]) for g in groups)

        paths = [
            _LoopedPath(dataset, groups),
            _FusedPath(dataset, groups, native=False),
        ]
        if has_native:
            paths.append(_FusedPath(dataset, groups, native=True))

        # One untimed warmup pass per path (arena growth ramp, memo fills),
        # then best-of-ROUNDS with the paths interleaved per round.
        results = {}
        for path in paths:
            _, results[path.name] = path.run()
        fused_arena = paths[1].arena
        grows_warm = fused_arena.n_grows
        best = dict.fromkeys(results, float("inf"))
        for _ in range(ROUNDS):
            for path in paths:
                elapsed, out = path.run()
                best[path.name] = min(best[path.name], elapsed)
                _assert_identical(out, results[path.name])

        # Zero large allocations steady-state: every warm round reuses the
        # arena buffers grown during warmup — no further growth events.
        assert fused_arena.n_grows == grows_warm, (
            f"arena grew during warm rounds at gs={gs}: "
            f"{grows_warm} -> {fused_arena.n_grows}"
        )

        # Bit-identical results: fused (and native, when present) vs the
        # looped per-set oracle — exact equality, no tolerance.
        _assert_identical(results["fused"], results["looped"])
        if has_native:
            _assert_identical(results["native"], results["looped"])

        # Bit-identical learns: the full skeleton phase agrees both ways.
        for batch in (True, False):
            tester = GSquareTest(dataset, batch_groups=batch)
            g2, s2, _ = learn_skeleton(
                tester, dataset.n_variables, gs=gs, group_endpoints=True
            )
            assert set(g2.edges()) == set(graph.edges())
            assert s2.as_dict() == sepsets.as_dict()

        allocs = {path.name: _steady_state_allocs(path) for path in paths}

        t_looped = best["looped"]
        t_fused = best["fused"]
        speedup = t_looped / t_fused
        speedups[gs] = speedup
        assert speedup >= NO_REGRESSION_FLOOR, (
            f"fused kernel slower at gs={gs}: {speedup:.2f}x"
        )
        native_speedup = t_looped / best["native"] if has_native else None
        rows.append(
            [
                gs,
                len(groups),
                n_tests,
                f"{n_tests / t_looped:,.0f}",
                f"{n_tests / t_fused:,.0f}",
                f"{speedup:.2f}x",
                f"{native_speedup:.2f}x" if native_speedup else "—",
            ]
        )
        payload["group_sizes"][str(gs)] = {
            "n_groups": len(groups),
            "n_tests": n_tests,
            "looped_s": t_looped,
            "batched_s": t_fused,
            "looped_tests_per_s": n_tests / t_looped,
            "batched_tests_per_s": n_tests / t_fused,
            "speedup": speedup,
            "native_s": best.get("native"),
            "native_speedup": native_speedup,
            "arena": fused_arena.stats(),
            "steady_state_allocs": allocs,
        }

    best = max(speedups[gs] for gs in TARGET_GROUP_SIZES)
    payload["best_speedup"] = best
    assert best >= TARGET_SPEEDUP, (
        f"fused group kernel only {best:.2f}x faster than the looped "
        f"per-set oracle at gs >= 8 (target {TARGET_SPEEDUP}x)"
    )

    text = render_table(
        ["gs", "groups", "tests", "looped tests/s", "fused tests/s", "speedup", "native"],
        rows,
        title=(
            f"Fused multi-group kernel vs looped per-set oracle — {wl.label}, "
            f"m={N_SAMPLES} (bit-identical results)"
        ),
    )
    record("kernel_batching", text)
    record_json("kernel_batching", payload)
