"""Tests of the benchmark's own helpers (no timing, no server processes)."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from measure import count_failures, highest_supported_percentile, samples_beyond
from spans import SpanRecorder, self_times, summarize
from run import unattributed_tolerance
from worker import layer_metrics
from workloads import TraceReplay, injected_error, strip_timing

REPO = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=-1, n=0):
    return [name, float(start), float(end), parent, n]


class TestSelfTime:
    def test_nested_spans_subtract_direct_children_only(self):
        spans = [
            _span("server", 0, 10),
            _span("batch", 1, 4, parent=0),
            _span("citests", 2, 3, parent=1),
            _span("batch", 5, 9, parent=0),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_self_times_partition_the_root(self):
        spans = [
            _span("server", 0, 8),
            _span("a", 1, 7, parent=0),
            _span("b", 2, 3, parent=1),
            _span("b", 4, 6, parent=1),
        ]
        assert sum(self_times(spans)) == pytest.approx(8.0)

    def test_summarize_merges_threads_and_filters_by_window(self):
        t1 = [_span("x", 0, 4, n=2), _span("y", 1, 2, parent=0, n=5)]
        t2 = [_span("x", 10, 11, n=1)]
        layers = summarize([t1, t2])
        assert layers["x"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0, "n": 3}
        assert layers["y"]["self_s"] == 1.0
        windowed = summarize([t1, t2], window=(5.0, 20.0))
        assert set(windowed) == {"x"} and windowed["x"]["calls"] == 1

    def test_recorder_nests_wrapped_calls_and_counts(self):
        rec = SpanRecorder()
        inner = rec.wrap("inner", lambda k: k * 2, count=lambda args, out: out)
        outer = rec.wrap("outer", lambda k: inner(k) + inner(k))
        assert outer(3) == 12
        (spans,) = rec.threads()
        assert [s[0] for s in spans] == ["outer", "inner", "inner"]
        assert [s[3] for s in spans] == [-1, 0, 0]
        assert [s[4] for s in spans] == [0, 6, 6]
        own = self_times(spans)
        assert own[0] == pytest.approx(spans[0][2] - spans[0][1] - own[1] - own[2])

    def test_install_patches_every_binding_and_uninstall_restores(self, monkeypatch):
        home = types.ModuleType("repro_perfbench_probe")
        user = types.ModuleType("repro_perfbench_probe_user")

        def entry(x):
            return x + 1

        class Layer:
            def method(self, x):
                return entry(x)

        home.entry, home.Layer, user.entry = entry, Layer, entry
        monkeypatch.setitem(sys.modules, home.__name__, home)
        monkeypatch.setitem(sys.modules, user.__name__, user)
        rec = SpanRecorder()
        rec.install(
            [
                ("fn", home.__name__, "entry", None),
                ("meth", home.__name__, "Layer.method", None),
            ]
        )
        try:
            assert home.entry is not entry and user.entry is home.entry
            assert Layer().method(1) == 2 and user.entry(1) == 2
        finally:
            rec.uninstall()
        assert home.entry is entry and user.entry is entry
        assert Layer.__dict__["method"].__name__ == "method"
        (spans,) = rec.threads()
        assert [s[0] for s in spans] == ["meth", "fn"]


class TestPercentiles:
    def test_tail_needs_ten_samples_beyond(self):
        from repro.engine.workload import percentile

        values = list(range(1, 101))
        assert percentile(values, 90) == 90
        assert sum(v > 90 for v in values) == samples_beyond(100, 90) == 10
        assert highest_supported_percentile(100) == 90.0
        assert highest_supported_percentile(99) == 75.0
        assert highest_supported_percentile(512) == 95.0
        assert highest_supported_percentile(20) is None


class TestFailureCounting:
    def test_injected_errors_succeed_only_with_their_error(self):
        requests = [
            {"op": "learn", "dataset": "d0", "gs": 0},  # injected, errors: ok
            {"op": "learn", "dataset": "d1::missing"},  # injected, answered: fail
            {"op": "blanket", "dataset": "d0"},  # injected, errors: ok
            {"op": "learn", "dataset": "d0"},  # normal, errors: fail
            {"op": "blanket", "dataset": "d0", "target": 1},  # normal, mismatch: fail
            {"op": "stats"},  # normal, matches: ok
        ]
        responses = [
            {"error": "gs must be >= 1", "result": None},
            {"error": None, "result": {}},
            {"error": "blanket request needs a 'target'", "result": None},
            {"error": "boom", "result": None},
            {"error": None, "result": {"blanket": ["a"]}},
            {"error": None, "result": {"n": 1}},
        ]
        expected = [
            None,
            None,
            None,
            {"error": None, "result": {}},
            {"error": None, "result": {"blanket": ["b"]}},
            {"error": None, "result": {"n": 1}},
        ]
        assert [injected_error(r) for r in requests] == [True, True, True, False, False, False]
        assert count_failures(requests, responses, expected, injected_error) == 3

    def test_missing_responses_fail(self):
        requests = [{"op": "stats"}] * 3
        responses = [{"error": None, "result": 1}]
        assert count_failures(requests, responses, [None] * 3, injected_error) == 2

    def test_strip_timing_is_recursive(self):
        doc = {"elapsed_s": 1, "result": {"a": [{"elapsed_s": 2, "b": 3}]}}
        assert strip_timing(doc) == {"result": {"a": [{"b": 3}]}}


class TestInputs:
    def test_seed_42_regenerates_the_golden_trace(self):
        from repro.engine.workload import generate_trace

        golden = REPO / "benchmarks" / "traces" / "workload_500.jsonl"
        assert generate_trace(TraceReplay.spec(42)).dumps() == golden.read_text()
        first = next(TraceReplay(42, REPO / "unused").rounds())
        assert first == [rec.request for rec in generate_trace(TraceReplay.spec(42)).records]


class TestCoverage:
    @staticmethod
    def _layers(**self_s):
        return {
            name.replace("_", "."): {"calls": 1, "total_s": s, "self_s": s, "n": 0}
            for name, s in self_s.items()
        }

    def test_enclosing_self_time_is_unattributed(self):
        layers = self._layers(server_handle=0.5, session_learn=0.2, citests=3.0, core_skeleton=1.0)
        metrics = layer_metrics(layers, 1, 5.0, 4.0, 0, 0, {})
        assert metrics["trace.unattributed_frac"] == pytest.approx(1.0 - 4.0 / 5.0)
        assert metrics["trace.overhead_frac"] == pytest.approx(0.25)

    def test_tolerance_comes_from_the_workload_why(self):
        assert unattributed_tolerance("cold-learn") == 0.05
        assert unattributed_tolerance("trace-replay") is None
