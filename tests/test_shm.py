"""Shared-memory dataset plane: lifecycle, transport parity, leak-freedom.

The contract under test (see :mod:`repro.datasets.shm`):

* an export holds the dataset's own values — same dtype, same layout —
  and an attach serves them zero-copy and read-only;
* process workers over variable-major ``uint8`` data run the fused kernel
  on the attached block itself;
* the creator — and only the creator — unlinks: on pool shutdown, on
  session exit, after a worker crash, and via the finalizer backstop when
  an export is dropped without ``close()``;
* shm and pickled workers give the same verdicts under ``fork`` and
  ``spawn`` (the learn-level parity grid is in ``test_parallel.py``).
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro.citests.gsquare import GSquareTest
from repro.datasets.dataset import DiscreteDataset
from repro.datasets.shm import attach_dataset, export_dataset, shared_memory_available
from repro.engine import LearningSession
from repro.parallel.backends import WorkerPool

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="platform provides no usable shared memory"
)


@pytest.fixture(scope="module")
def small_data() -> DiscreteDataset:
    rng = np.random.default_rng(3)
    return DiscreteDataset.from_rows(rng.integers(0, 3, size=(1500, 7)))


def _attach_should_fail(handle) -> bool:
    try:
        attach_dataset(handle)
    except FileNotFoundError:
        return True
    return False


def _worker_dataset_view() -> tuple[str, bool]:
    """Probe run inside a pool worker: its dataset's layout, and whether
    the dataset is an attached shared-memory block."""
    from repro.parallel import backends

    ds = backends._WORKER_TESTER.dataset
    return ds.layout, getattr(ds, "_shm_holder", None) is not None


class TestExportAttach:
    def test_round_trip_values(self, small_data):
        with export_dataset(small_data) as export:
            attached = attach_dataset(export.handle)
            assert attached.n_variables == small_data.n_variables
            assert attached.n_samples == small_data.n_samples
            assert attached.names == small_data.names
            assert attached.layout == small_data.layout
            assert attached.values.dtype == small_data.values.dtype  # no widening
            np.testing.assert_array_equal(attached.values, small_data.values)
            np.testing.assert_array_equal(attached.arities, small_data.arities)
            # Endpoint codes derived from the attached block equal local ones.
            def xy_codes(ds):
                return ds.column(5).astype(np.int64) * ds.arity(6) + ds.column(6)

            np.testing.assert_array_equal(xy_codes(attached), xy_codes(small_data))
            del attached
            gc.collect()

    def test_attached_views_are_read_only(self, small_data):
        with export_dataset(small_data) as export:
            attached = attach_dataset(export.handle)
            with pytest.raises(ValueError):
                attached.values[0, 0] = 1
            with pytest.raises(ValueError):
                attached.column(0)[0] = 1
            del attached
            gc.collect()

    def test_handle_is_tiny_and_descriptive(self, small_data):
        with export_dataset(small_data) as export:
            h = export.handle
            assert h.nbytes == small_data.values.nbytes
            assert h.layout == "variable-major"
            assert np.dtype(h.dtype) == np.uint8
            assert len(pickle.dumps(h)) < 2048

    def test_repr_names_block_and_state(self, small_data):
        export = export_dataset(small_data)
        text = repr(export)
        assert export.handle.values_block in text
        assert f"{small_data.values.nbytes} shared bytes" in text
        export.close()
        assert "closed" in repr(export)

    def test_sample_major_export_keeps_layout(self, small_data):
        rotated = small_data.with_layout("sample-major")
        with export_dataset(rotated) as export:
            attached = attach_dataset(export.handle)
            assert attached.layout == "sample-major"
            assert attached.values.shape == rotated.values.shape
            assert not attached.column(2).flags.c_contiguous  # still strided
            np.testing.assert_array_equal(attached.column(2), small_data.column(2))
            del attached
            gc.collect()

    def test_kernel_reads_attached_block_in_place(self, small_data):
        with export_dataset(small_data) as export:
            attached = attach_dataset(export.handle)
            remote = GSquareTest(attached)
            local = GSquareTest(small_data)
            groups = [(0, 1, [(), (2,), (3,), (2, 3)]), (4, 5, [(6,), (0, 6)])]
            for a, b in zip(
                [r for res in local.test_groups(groups) for r in res],
                [r for res in remote.test_groups(groups) for r in res],
                strict=True,
            ):
                assert (a.statistic, a.dof, a.p_value, a.independent) == (
                    b.statistic, b.dof, b.p_value, b.independent
                )
            assert remote._columns() is attached.values
            del attached, remote
            gc.collect()


class TestUnlinkDiscipline:
    def test_export_close_unlinks(self, small_data):
        export = export_dataset(small_data)
        handle = export.handle
        export.close()
        assert export.closed
        export.close()  # idempotent
        assert _attach_should_fail(handle)

    def test_finalizer_backstop_unlinks_dropped_exports(self, small_data):
        export = export_dataset(small_data)
        handle = export.handle
        del export
        gc.collect()
        assert _attach_should_fail(handle)

    def test_pool_shutdown_unlinks(self, small_data):
        pool = WorkerPool(small_data, 2, use_shm=True)
        handle = pool._shm_export.handle
        assert pool.eval_groups([(0, 1, ((), (2,)))])
        pool.shutdown()
        assert not pool.uses_shm
        assert _attach_should_fail(handle)

    def test_pool_shutdown_unlinks_after_worker_crash(self, small_data):
        import os
        from concurrent.futures.process import BrokenProcessPool

        pool = WorkerPool(small_data, 2, use_shm=True)
        handle = pool._shm_export.handle
        with pytest.raises(BrokenProcessPool):
            pool._executor.submit(os._exit, 13).result()
        pool.shutdown()
        assert _attach_should_fail(handle)

    def test_session_exit_unlinks(self, small_data):
        with LearningSession(small_data, n_jobs=2) as session:
            session.learn(max_depth=1)
            assert session.uses_shm
            handle = session._pool._shm_export.handle
        assert _attach_should_fail(handle)


class TestWorkersReadInPlace:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_kernel_columns_are_the_attached_block(self, small_data, start_method):
        jobs = [(0, 1, ((), (2,), (3, 4))), (2, 5, ((0,), (1,), (0, 1)))]
        with WorkerPool(small_data, 2, use_shm=True, start_method=start_method) as pool:
            pool.eval_groups(jobs)
            warm = pool.warm_up()
            assert warm and all(w["reads_shared_block"] for w in warm)

    def test_pickled_workers_read_no_shared_block(self, small_data):
        with WorkerPool(small_data, 2, use_shm=False) as pool:
            warm = pool.warm_up()
            assert warm and not any(w["reads_shared_block"] for w in warm)

    def test_sample_major_baseline_pool_keeps_its_layout(self, small_data):
        rotated = small_data.with_layout("sample-major")
        with WorkerPool(rotated, 2, use_shm=True, batch_groups=False) as pool:
            assert pool.uses_shm
            assert pool._executor.submit(_worker_dataset_view).result() == (
                "sample-major",
                True,
            )
            assert pool.eval_groups([(0, 1, ((), (2,)))])


class TestTransportParity:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_attach_parity_across_start_methods(self, small_data, start_method):
        jobs = [(0, 1, ((), (2,), (3, 4))), (2, 5, ((0,), (1,), (0, 1)))]
        with WorkerPool(small_data, 2, use_shm=False) as pickled:
            expected = pickled.eval_groups(jobs)
            assert not pickled.uses_shm
        with WorkerPool(small_data, 2, use_shm=True, start_method=start_method) as pool:
            assert pool.uses_shm
            assert pool.eval_groups(jobs) == expected

    def test_parity_with_worker_caches(self, small_data):
        jobs = [(0, 1, ((2,), (3,), (2, 3)))]
        with WorkerPool(small_data, 2, use_shm=False, cache_bytes=1 << 20) as pickled:
            expected = pickled.eval_groups(jobs)
        with WorkerPool(small_data, 2, use_shm=True, cache_bytes=1 << 20) as pool:
            assert pool.eval_groups(jobs) == expected
            assert pool.cache_stats()  # workers answered over the plane

    def test_learn_structure_parity(self, small_data):
        from repro.core.learn import learn_structure

        seq = learn_structure(small_data)
        shm = learn_structure(small_data, n_jobs=2, parallelism="ci")
        pickled = learn_structure(small_data, n_jobs=2, parallelism="ci", use_shm=False)
        for res in (shm, pickled):
            assert sorted(res.skeleton.edges()) == sorted(seq.skeleton.edges())
            assert res.sepsets == seq.sepsets
            assert res.cpdag == seq.cpdag


class TestValidation:
    def test_thread_backend_rejects_use_shm(self, small_data):
        with pytest.raises(ValueError, match="thread"):
            WorkerPool(small_data, 2, backend="thread", use_shm=True)


class TestSampleLevelTransport:
    def test_use_shm_false_is_honoured(self, small_data, monkeypatch):
        from repro.datasets import shm as shm_mod
        from repro.parallel.sample_level import sample_level_skeleton

        g2, s2, _ = sample_level_skeleton(
            small_data, small_data.n_variables, n_jobs=2, max_depth=0, use_shm=True
        )

        def forbidden(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("use_shm=False must not export the plane")

        monkeypatch.setattr(shm_mod, "export_dataset", forbidden)
        g, s, _ = sample_level_skeleton(
            small_data, small_data.n_variables, n_jobs=2, max_depth=0, use_shm=False
        )
        assert sorted(g.edges()) == sorted(g2.edges())
        assert s == s2

    def test_use_shm_true_rejects_thread_backend(self, small_data):
        from repro.parallel.sample_level import sample_level_skeleton

        with pytest.raises(ValueError, match="thread"):
            sample_level_skeleton(
                small_data, small_data.n_variables, n_jobs=2, backend="thread", use_shm=True
            )

    def test_raw_export_keeps_original_dtype(self, small_data):
        assert small_data.values.dtype == np.uint8  # smallest sufficient
        with export_dataset(small_data) as export:
            assert export.handle.nbytes == small_data.values.nbytes  # no widening
            attached = attach_dataset(export.handle)
            assert attached.values.dtype == small_data.values.dtype
            np.testing.assert_array_equal(attached.values, small_data.values)
            del attached


class TestCapacityGuard:
    def test_undersized_shm_falls_back_instead_of_sigbus(self, small_data, monkeypatch):
        import os

        from repro.datasets import shm as shm_mod

        class TinyFS:
            f_bavail = 1
            f_frsize = 4096

        monkeypatch.setattr(os, "statvfs", lambda path: TinyFS())
        # auto mode: clean fallback to the pickled path
        assert shm_mod.try_export_dataset(small_data, None) is None
        # explicit use_shm=True: a catchable error, not a SIGBUS later
        with pytest.raises(OSError, match="free"):
            shm_mod.try_export_dataset(small_data, True)

    def test_pool_auto_mode_survives_undersized_shm(self, small_data, monkeypatch):
        import os

        class TinyFS:
            f_bavail = 1
            f_frsize = 4096

        monkeypatch.setattr(os, "statvfs", lambda path: TinyFS())
        with WorkerPool(small_data, 2) as pool:
            assert not pool.uses_shm
            assert pool.eval_groups([(0, 1, ((),))])
