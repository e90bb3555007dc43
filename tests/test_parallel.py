"""Parallel-backend tests: every granularity/backend combination must equal
the sequential result exactly."""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.citests.gsquare import GSquareTest
from repro.core.learn import learn_structure
from repro.core.skeleton import learn_skeleton
from repro.core.trace import TraceRecorder
from repro.datasets.sampling import forward_sample
from repro.datasets.shm import shared_memory_available
from repro.networks.catalog import get_network
from repro.parallel import WorkerPool, backends, run_parallel_skeleton
from repro.parallel.sample_level import (
    SampleSlicedG2Test,
    parallel_contingency,
    sample_level_skeleton,
)


@pytest.fixture(scope="module")
def sequential_asia(asia_data_module):
    return learn_structure(asia_data_module)


@pytest.fixture(scope="module")
def asia_data_module():
    from repro.datasets.sampling import forward_sample
    from repro.networks.classic import asia

    return forward_sample(asia(), 4000, rng=7)


class TestEquivalence:
    @pytest.mark.parametrize("parallelism", ["ci", "edge", "sample"])
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_matches_sequential(self, asia_data_module, sequential_asia, parallelism, backend):
        res = learn_structure(
            asia_data_module, n_jobs=2, parallelism=parallelism, backend=backend
        )
        assert sorted(res.skeleton.edges()) == sorted(sequential_asia.skeleton.edges())
        assert res.sepsets == sequential_asia.sepsets
        assert res.cpdag == sequential_asia.cpdag

    def test_ci_level_with_gs(self, asia_data_module, sequential_asia):
        res = learn_structure(asia_data_module, n_jobs=2, parallelism="ci", gs=4)
        assert sorted(res.skeleton.edges()) == sorted(sequential_asia.skeleton.edges())
        seq_gs = learn_structure(asia_data_module, gs=4)
        assert res.n_ci_tests == seq_gs.n_ci_tests

    def test_ci_level_test_count_matches_sequential(self, asia_data_module, sequential_asia):
        res = learn_structure(asia_data_module, n_jobs=3, parallelism="ci")
        assert res.n_ci_tests == sequential_asia.n_ci_tests

    def test_sample_level_test_count(self, asia_data_module, sequential_asia):
        res = learn_structure(asia_data_module, n_jobs=2, parallelism="sample", backend="thread")
        assert res.n_ci_tests == sequential_asia.n_ci_tests

    def test_single_worker_pool(self, asia_data_module, sequential_asia):
        res = learn_structure(asia_data_module, n_jobs=1, parallelism="ci")
        # n_jobs=1 uses the sequential engine (dispatch shortcut)
        assert res.cpdag == sequential_asia.cpdag


class TestWorkerPool:
    def test_invalid_backend(self, asia_data_module):
        with pytest.raises(ValueError):
            WorkerPool(asia_data_module, 2, backend="gpu")

    def test_invalid_jobs(self, asia_data_module):
        with pytest.raises(ValueError):
            WorkerPool(asia_data_module, 0)

    def test_thread_pool_group_eval(self, asia_data_module):
        with WorkerPool(asia_data_module, 2, backend="thread") as pool:
            verdicts = pool.eval_groups([(0, 1, ((), (2,)))])
            assert len(verdicts) == 1
            assert len(verdicts[0]) == 2
            assert all(isinstance(v, bool) for v in verdicts[0])

    def test_thread_pool_edge_eval(self, asia_data_module):
        with WorkerPool(asia_data_module, 2, backend="thread") as pool:
            results = pool.eval_edges([(0, 1, (2, 3), (4,), 1)])
            n_exec, accepting = results[0]
            assert 1 <= n_exec <= 3
            assert accepting is None or isinstance(accepting, tuple)


class TestTraceRecording:
    def test_ci_level_records_trace(self, asia_data_module):
        rec = TraceRecorder()
        res = learn_structure(asia_data_module, n_jobs=2, parallelism="ci", recorder=rec)
        assert rec.n_tests == res.n_ci_tests

    def test_edge_level_rejects_recorder(self, asia_data_module):
        with pytest.raises(ValueError, match="trace"):
            learn_structure(
                asia_data_module, n_jobs=2, parallelism="edge", recorder=TraceRecorder()
            )

    def test_sample_level_rejects_recorder(self, asia_data_module):
        with pytest.raises(ValueError, match="trace"):
            learn_structure(
                asia_data_module, n_jobs=2, parallelism="sample", recorder=TraceRecorder()
            )


class TestSampleLevelInternals:
    def test_wrong_node_count_rejected(self, asia_data_module):
        with pytest.raises(ValueError):
            sample_level_skeleton(asia_data_module, 3, n_jobs=2, backend="thread")

    def test_invalid_backend(self, asia_data_module):
        with pytest.raises(ValueError):
            sample_level_skeleton(
                asia_data_module, asia_data_module.n_variables, n_jobs=2, backend="fpga"
            )

    def test_run_parallel_skeleton_dispatch_error(self, asia_data_module):
        with pytest.raises(ValueError):
            run_parallel_skeleton(asia_data_module, parallelism="warp", n_jobs=2)


@pytest.fixture(scope="module")
def alarm_2000():
    return forward_sample(get_network("alarm"), 2000, rng=1)


def _stats_fields(stats) -> dict:
    """Every ``SkeletonStats`` field, per-depth ones included, except the
    wall-clock timings."""
    out = dataclasses.asdict(stats)
    out.pop("elapsed_s")
    for depth in out["depths"]:
        depth.pop("elapsed_s")
    return out


class TestSampleLevelIsSequentialEngine:
    """Sample-level runs the sequential engine at gs=1 over a sample-sliced
    tester, so its statistics and counters are the sequential learn's."""

    @pytest.mark.parametrize("backend", ["process", "thread"])
    @pytest.mark.parametrize("group_endpoints", [True, False])
    @pytest.mark.parametrize("network", ["asia", "alarm"])
    def test_stats_equal_sequential_gs1(
        self, asia_data_module, alarm_2000, network, group_endpoints, backend
    ):
        data = asia_data_module if network == "asia" else alarm_2000
        seq = learn_skeleton(
            GSquareTest(data), data.n_variables, gs=1, group_endpoints=group_endpoints
        )
        got = sample_level_skeleton(
            data, data.n_variables, n_jobs=2, backend=backend, group_endpoints=group_endpoints
        )
        assert sorted(got[0].edges()) == sorted(seq[0].edges())
        assert got[1] == seq[1]
        assert got[2].counters is not None
        assert _stats_fields(got[2]) == _stats_fields(seq[2])

    def test_parallel_contingency_counts_every_sample(self, asia_data_module):
        data = asia_data_module
        with WorkerPool(data, 3, backend="thread") as workers:
            counts, nz = parallel_contingency(workers, data, 0, 1, (2, 3))
        x, y, z1, z2 = (data.column(v).astype(np.int64) for v in (0, 1, 2, 3))
        expected = np.zeros((4, 2, 2), dtype=np.int64)
        np.add.at(expected, (2 * z1 + z2, x, y), 1)
        assert nz == 4
        np.testing.assert_array_equal(counts, expected)

    def test_sliced_tester_matches_gsquare(self):
        from repro.networks.classic import asia

        # 20 rows: the last set's 128-cell table exceeds 4·m and is built
        # by the inherited (compressed) path, the others are sliced.
        data = forward_sample(asia(), 20, rng=3)
        sets = [(), (2,), (2, 3), (2, 3, 4, 5), (2, 3, 4, 5, 6)]
        with WorkerPool(data, 2, backend="thread") as workers:
            sliced = SampleSlicedG2Test(data, workers).test_group(0, 1, sets)
        for got, ref in zip(sliced, GSquareTest(data).test_group(0, 1, sets), strict=True):
            assert (got.statistic, got.dof, got.p_value) == (ref.statistic, ref.dof, ref.p_value)


def _probe_worker_tester() -> tuple[bool, bool, bool]:
    """(batch_groups, holds a private column matrix, holds endpoint codes)
    of this worker."""
    tester = backends._WORKER_TESTER
    return tester.batch_groups, tester._cols is not None, tester._xy_slot is not None


class TestBaselineWorkers:
    """``batch_groups=False`` workers run the looped baseline kernel,
    like the sequential pc-stable baseline."""

    def test_process_workers_get_looped_testers(self, alarm_2000):
        data = alarm_2000.with_layout("sample-major")
        with WorkerPool(data, 2, batch_groups=False) as pool:
            pool.eval_groups([(u, u + 1, ((), (u + 2,))) for u in range(8)])
            # Warming touches the values a looped kernel reads and builds
            # no column matrix it never reads.
            assert pool.warm_up()
            probes = {pool._executor.submit(_probe_worker_tester).result() for _ in range(4)}
        assert probes == {(False, False, False)}

    def test_fast_bns_workers_keep_fused_kernel(self, asia_data_module):
        with WorkerPool(asia_data_module, 2) as pool:
            assert pool._executor.submit(_probe_worker_tester).result()[0] is True

    @pytest.mark.parametrize("batch_groups", [True, False])
    def test_mutual_information_workers_warm_up(self, batch_groups):
        # The MI wrapper answers warm-up for its inner G^2 tester.
        from repro.networks.classic import asia

        data = forward_sample(asia(), 500, rng=1)
        with WorkerPool(data, 2, test="mi", batch_groups=batch_groups) as pool:
            footprints = pool.warm_up()
        want = int(data.values.sum(dtype=np.int64))
        assert footprints and all(f["checksum"] == want for f in footprints)

    def test_sequential_baseline_is_looped(self, asia_data_module, monkeypatch):
        import repro.core.learn as learn_mod

        make_tester, built = learn_mod.make_tester, []

        def recording_make_tester(*args, **kwargs):
            built.append(make_tester(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(learn_mod, "make_tester", recording_make_tester)
        learn_structure(asia_data_module, method="pc-stable")
        assert [(t.batch_groups, t._xy_slot) for t in built] == [(False, None)]


def _counters(res) -> tuple:
    st = res.stats
    return (
        st.n_tests,
        st.n_groups,
        [(d.depth, d.n_edges_start, d.n_tests, d.n_groups, d.n_edges_removed) for d in st.depths],
    )


@pytest.fixture(scope="module")
def grid_reference(asia_data_module):
    """Per (method, parallelism): the n_jobs=1 run, and the pickled fork
    run whose counters every other transport must match."""
    out = {}
    for method in ("fast-bns", "pc-stable"):
        seq = learn_structure(asia_data_module, method=method)
        for parallelism in ("ci", "edge", "sample"):
            ref = learn_structure(
                asia_data_module, method=method, n_jobs=2, parallelism=parallelism,
                use_shm=False,
            )
            out[method, parallelism] = (seq, ref)
    return out


class TestTransportParity:
    """Dataset transport (shm plane or pickled, fork or spawn) never
    changes a result bit, for Fast-BNS and for the sample-major pc-stable
    baseline, whose workers attach the plane in its own layout."""

    @pytest.mark.parametrize("method", ["fast-bns", "pc-stable"])
    @pytest.mark.parametrize("parallelism", ["ci", "edge", "sample"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("use_shm", [True, False])
    def test_parity_grid(
        self, asia_data_module, grid_reference, monkeypatch, method, parallelism,
        start_method, use_shm,
    ):
        if use_shm and not shared_memory_available():
            pytest.skip("platform provides no usable shared memory")
        # The pools always ask for "fork"; route that to the arm's start
        # method so both contexts run through the public entry point.
        real_get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: real_get_context(start_method)
        )
        res = learn_structure(
            asia_data_module, method=method, n_jobs=2, parallelism=parallelism, use_shm=use_shm
        )
        seq, ref = grid_reference[method, parallelism]
        for other in (seq, ref):
            assert sorted(res.skeleton.edges()) == sorted(other.skeleton.edges())
            assert res.sepsets == other.sepsets
            assert res.cpdag == other.cpdag
            assert res.n_ci_tests == other.n_ci_tests
        assert _counters(res) == _counters(ref)
