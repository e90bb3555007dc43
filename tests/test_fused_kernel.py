"""Arena-backed multi-group fused kernel: buffers, dtype tiers, native path.

Covers the megagroup engine introduced with the kernel arena:

* :class:`repro.citests.arena.KernelArena` — view reuse, geometric growth,
  prewarm sizing, pickle severing, and the per-thread arena testers use
  when built without one;
* cross-group fusion (``test_groups``) — bit-identical to the looped
  per-set oracle, including counters, cache statistics, duplicate edges
  and depth-0 sets;
* arity-driven dtype narrowing — ``code_dtype``/``_cell_dtype`` boundary
  behaviour at 255/256 and 65535/65536, every tier exercised end-to-end;
* the ``_INT64_CODE_LIMIT`` overflow fallback composed with a batched
  group (compressed-Z + pairwise-unique inside ``test_group``);
* the optional native backend — parity with the NumPy kernel and the
  ``REPRO_NATIVE=0`` kill switch;
* the conditioning-row memo — reuse across calls, FIFO bound.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.citests.arena import KernelArena, thread_arena
from repro.citests.chisquare import ChiSquareTest
from repro.citests.contingency import code_dtype, encode_columns, fused_cell_counts
from repro.citests.gsquare import GSquareTest
from repro.citests.native import native_available
from repro.citests.tablebase import _cell_dtype
from repro.datasets.dataset import DiscreteDataset
from repro.engine.statscache import SufficientStatsCache

TESTERS = [GSquareTest, ChiSquareTest]


def _random_dataset(rng, n_vars=8, arity_hi=4, m=120):
    arities = [int(rng.integers(2, arity_hi + 1)) for _ in range(n_vars)]
    rows = np.column_stack([rng.integers(0, a, m) for a in arities])
    return DiscreteDataset.from_rows(rows, arities=arities)


def _random_groups(rng, n_vars, n_groups=10, max_depth=3):
    groups = []
    for _ in range(n_groups):
        x, y = (int(v) for v in rng.choice(n_vars, size=2, replace=False))
        pool = [v for v in range(n_vars) if v not in (x, y)]
        sets, seen = [], set()
        for _ in range(int(rng.integers(2, 6))):
            depth = int(rng.integers(0, max_depth + 1))
            s = tuple(sorted(int(v) for v in rng.choice(pool, depth, replace=False)))
            if s not in seen:
                seen.add(s)
                sets.append(s)
        groups.append((x, y, sets))
    # Cross-group duplicate: the first edge again, endpoints swapped.
    x0, y0, s0 = groups[0]
    groups.append((y0, x0, list(s0)))
    return groups


def _run_looped(cls, ds, groups, cache):
    kw = {"stats_cache": SufficientStatsCache()} if cache else {}
    t = cls(ds, batch_groups=False, **kw)
    out = []
    for x, y, sets in groups:
        out.extend(t.test_group(x, y, sets))
    return t, out


def _run_fused(cls, ds, groups, cache, native, chunk=4):
    kw = {"stats_cache": SufficientStatsCache()} if cache else {}
    t = cls(ds, batch_groups=True, **kw)
    t.use_native = native
    out = []
    for i in range(0, len(groups), chunk):
        for res in t.test_groups(groups[i : i + chunk]):
            out.extend(res)
    return t, out


def _assert_identical(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got, strict=True):
        assert (a.x, a.y, a.s) == (b.x, b.y, b.s)
        assert a.statistic == b.statistic  # bitwise: no tolerance
        assert a.dof == b.dof
        assert a.p_value == b.p_value
        assert a.independent == b.independent


# ---------------------------------------------------------------------- #
# arena
# ---------------------------------------------------------------------- #
class TestKernelArena:
    def test_take_shape_dtype_contiguity(self):
        arena = KernelArena()
        view = arena.take("cells", (7, 13), np.int32)
        assert view.shape == (7, 13)
        assert view.dtype == np.int32
        assert view.flags["C_CONTIGUOUS"]

    def test_steady_state_reuses_backing_buffer(self):
        arena = KernelArena()
        first = arena.take("cells", (64, 64), np.int64)
        grows = arena.n_grows
        for _ in range(32):
            again = arena.take("cells", (64, 64), np.int64)
            assert np.shares_memory(first, again)
        # Same-or-smaller takes of a warm slot never allocate.
        arena.take("cells", (8, 8), np.int64)
        assert arena.n_grows == grows

    def test_growth_is_geometric(self):
        arena = KernelArena()
        arena.take("cells", (2048,), np.int64)
        buf_small = arena._buffers[("cells", np.dtype(np.int64).str)]
        arena.take("cells", (2049,), np.int64)
        buf_big = arena._buffers[("cells", np.dtype(np.int64).str)]
        assert buf_big.size >= 2 * buf_small.size

    def test_slots_keyed_by_dtype(self):
        arena = KernelArena()
        a = arena.take("cells", (32,), np.int32)
        b = arena.take("cells", (32,), np.int64)
        assert not np.shares_memory(a, b)

    def test_prewarm_presizes_and_ignores_garbage(self):
        arena = KernelArena()
        arena.prewarm({"cells": (4096, "<i8"), "bad": "nonsense", 3: None})
        grows = arena.n_grows
        assert grows == 1
        arena.take("cells", (4096,), np.int64)  # fits: no growth
        assert arena.n_grows == grows
        arena.prewarm(None)  # no-op
        assert arena.n_grows == grows

    def test_pickle_severs_buffers(self):
        arena = KernelArena()
        arena.take("cells", (4096,), np.int64)
        clone = pickle.loads(pickle.dumps(arena))
        assert clone.stats()["n_slots"] == 0
        assert clone.stats()["nbytes"] == 0
        # ...but stays usable (regrows locally).
        view = clone.take("cells", (16,), np.int32)
        assert view.shape == (16,)

    def test_release_frees_but_keeps_arena_usable(self):
        arena = KernelArena()
        arena.take("cells", (4096,), np.float64)
        assert arena.nbytes() > 0
        arena.release()
        assert arena.nbytes() == 0
        assert arena.take("cells", (4,), np.float64).shape == (4,)

    def test_fused_tester_reaches_allocation_steady_state(self, asia_data):
        rng = np.random.default_rng(5)
        groups = _random_groups(rng, asia_data.n_variables, n_groups=6)
        t = GSquareTest(asia_data, batch_groups=True)
        t.use_native = False
        t.test_groups(groups)
        warm_grows = t.arena.n_grows
        for _ in range(3):
            t.test_groups(groups)
        assert t.arena.n_grows == warm_grows  # zero large allocations


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (a fresh thread arena); return its value."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    return out[0]


class TestThreadArena:
    def test_sessions_on_one_thread_share_its_arena(self, asia_data):
        from repro.engine import LearningSession

        def run():
            with LearningSession(asia_data) as s1, LearningSession(asia_data) as s2:
                s1.learn()
                s2.learn()
                return s1.tester().arena, s2.tester().arena, thread_arena()

        a1, a2, own = _in_thread(run)
        assert a1 is a2 is own
        assert own.n_takes > 0

    def test_one_tester_two_threads_two_arenas(self, asia_data):
        rng = np.random.default_rng(3)
        groups = _random_groups(rng, asia_data.n_variables, n_groups=4)
        tester = GSquareTest(asia_data)

        def run():
            tester.test_groups(groups)
            return tester.arena, thread_arena().n_takes

        first, takes1 = _in_thread(run)
        second, takes2 = _in_thread(run)
        assert first is not second
        assert takes1 > 0 and takes2 > 0

    def test_concurrent_calls_on_one_tester_match_sequential(self, asia_data):
        # More threads than cores, forced frequent switches: each call
        # takes its own thread's scratch, so interleaved kernels never
        # overwrite one another's buffers.
        rng = np.random.default_rng(9)
        groups = _random_groups(rng, asia_data.n_variables, n_groups=12)
        tester = GSquareTest(asia_data)
        want = _in_thread(lambda: tester.test_groups(groups))
        got: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: got.extend(tester.test_groups(groups) for _ in range(5))
                )
                for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 20
        for results in got:
            for ref, group in zip(want, results, strict=True):
                _assert_identical(ref, group)

    def test_explicit_arena_wins(self, asia_data):
        arena = KernelArena()
        assert GSquareTest(asia_data, arena=arena).arena is arena

    def test_arena_bytes_flat_in_live_sessions(self):
        from repro.datasets.sampling import forward_sample
        from repro.engine import LearningSession
        from repro.networks.catalog import get_network

        data = forward_sample(get_network("alarm"), 1000, rng=2)

        def run():
            sizes = []
            sessions = []
            try:
                for _ in range(4):
                    sessions.append(LearningSession(data))
                    sessions[-1].learn()
                    arenas = {id(s.tester().arena): s.tester().arena for s in sessions}
                    sizes.append(sum(a.nbytes() for a in arenas.values()))
            finally:
                for sess in sessions:
                    sess.close()
            return sizes

        sizes = _in_thread(run)
        assert sizes[0] > 0
        assert sizes == [sizes[0]] * 4


# ---------------------------------------------------------------------- #
# cross-group fusion vs the looped oracle
# ---------------------------------------------------------------------- #
class TestMultiGroupFusion:
    @pytest.mark.parametrize("cls", TESTERS)
    @pytest.mark.parametrize("cache", [False, True])
    def test_bitwise_identical_to_looped(self, cls, cache):
        rng = np.random.default_rng(11)
        ds = _random_dataset(rng)
        groups = _random_groups(rng, ds.n_variables)
        t_ref, ref = _run_looped(cls, ds, groups, cache)
        t_got, got = _run_fused(cls, ds, groups, cache, native=False)
        _assert_identical(ref, got)
        assert vars(t_ref.counters) == vars(t_got.counters)
        if cache:
            ref_stats = vars(t_ref._builder.cache.stats)
            got_stats = vars(t_got._builder.cache.stats)
            assert ref_stats == got_stats

    @pytest.mark.parametrize("chunk", [1, 3, 100])
    def test_chunking_is_invisible(self, chunk):
        rng = np.random.default_rng(12)
        ds = _random_dataset(rng)
        groups = _random_groups(rng, ds.n_variables)
        _, ref = _run_looped(GSquareTest, ds, groups, cache=False)
        _, got = _run_fused(GSquareTest, ds, groups, False, False, chunk=chunk)
        _assert_identical(ref, got)

    def test_conditioning_row_memo_reused_across_calls(self):
        rng = np.random.default_rng(13)
        ds = _random_dataset(rng)
        groups = _random_groups(rng, ds.n_variables)
        t = GSquareTest(ds, batch_groups=True)
        t.use_native = False
        first = [r for res in t.test_groups(groups) for r in res]
        assert len(t._z_rows) > 0
        memo_ids = {s: id(row) for s, row in t._z_rows.items()}
        second = [r for res in t.test_groups(groups) for r in res]
        _assert_identical(first, second)
        # Served from the memo: the rows were not rebuilt.
        assert {s: id(row) for s, row in t._z_rows.items()} == memo_ids

    def test_memo_is_fifo_bounded(self):
        rng = np.random.default_rng(14)
        ds = _random_dataset(rng, n_vars=10, m=40)
        t = GSquareTest(ds, batch_groups=True)
        t.use_native = False
        t._z_rows_cap = 4
        groups = _random_groups(rng, ds.n_variables, n_groups=14)
        t.test_groups(groups)
        assert len(t._z_rows) <= 4
        assert len(t._z_scaled) <= 4


# ---------------------------------------------------------------------- #
# dtype narrowing
# ---------------------------------------------------------------------- #
class TestDtypeTiers:
    @pytest.mark.parametrize(
        "n_configs, expect",
        [
            (255, np.uint8),
            (256, np.uint16),
            (65535, np.uint16),
            (65536, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
        ],
    )
    def test_code_dtype_boundaries(self, n_configs, expect):
        assert code_dtype(n_configs) == np.dtype(expect)

    @pytest.mark.parametrize(
        "limit, narrow, expect",
        [
            (255, True, np.uint8),
            (256, True, np.uint16),
            (65535, True, np.uint16),
            (65536, True, np.int32),
            (255, False, np.int32),  # native kernels dispatch on i32/i64
            (2**31, False, np.int64),
        ],
    )
    def test_cell_dtype_tiers(self, limit, narrow, expect):
        assert _cell_dtype(limit, narrow) == np.dtype(expect)

    @pytest.mark.parametrize(
        "arities",
        [
            [5, 51],  # 255  -> uint8
            [4, 64],  # 256  -> uint16
            [255, 257],  # 65535 -> uint16
            [256, 256],  # 65536 -> int32
        ],
    )
    def test_encode_columns_auto_matches_int64(self, arities):
        rng = np.random.default_rng(21)
        cols = [rng.integers(0, a, 200) for a in arities]
        want, n_want = encode_columns(cols, arities)
        got, n_got = encode_columns(cols, arities, dtype="auto")
        assert n_got == n_want
        assert got.dtype == code_dtype(n_want)
        assert np.array_equal(got.astype(np.int64), want)

    def test_single_column_auto_is_a_view(self):
        col = np.arange(100, dtype=np.uint8) % 7
        codes, n = encode_columns([col], [7], dtype="auto")
        assert n == 7
        assert codes.dtype == np.uint8
        assert codes is col  # no copy when already the target dtype

    def test_single_column_default_copy_only_when_widening(self):
        col64 = (np.arange(50) % 3).astype(np.int64)
        codes, _ = encode_columns([col64], [3])
        assert codes is col64
        col8 = (np.arange(50) % 3).astype(np.uint8)
        widened, _ = encode_columns([col8], [3])
        assert widened.dtype == np.int64
        assert np.array_equal(widened, col64)

    def _tier_workload(self, tier):
        # Dataset/group mixes whose fused-wave histograms land in the
        # requested tier: binary toys stay under 256 cells, the alarm-ish
        # mix under 65536, and many deep arity-4 sets in one call push a
        # single wave past 65536 cells.
        rng = np.random.default_rng(31)
        if tier == "uint8":
            ds = _random_dataset(rng, n_vars=5, arity_hi=2, m=60)
            groups = _random_groups(rng, 5, n_groups=4, max_depth=1)
        elif tier == "uint16":
            ds = _random_dataset(rng, n_vars=8, arity_hi=4, m=60)
            groups = _random_groups(rng, 8, n_groups=8, max_depth=3)
        else:  # int32: one wave > 65535 cells
            # m keeps nz=256 under the dense limit (4 * m) so the deep
            # sets stay on the fused path instead of compressed-Z.
            arities = [4] * 8
            rows = np.column_stack([rng.integers(0, 4, 300) for _ in arities])
            ds = DiscreteDataset.from_rows(rows, arities=arities)
            groups = []
            for x in range(4):
                y = x + 4
                pool = [v for v in range(8) if v not in (x, y)]
                sets = [
                    tuple(sorted(pool[i] for i in idx))
                    for idx in [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)]
                ]
                groups.append((x, y, sets))
        return ds, groups

    @pytest.mark.parametrize("tier", ["uint8", "uint16", "int32"])
    def test_every_tier_bitwise_identical(self, tier, monkeypatch):
        ds, groups = self._tier_workload(tier)
        seen = set()
        import repro.citests.tablebase as tb

        real = tb._cell_dtype

        def spy(limit, narrow):
            dt = real(limit, narrow)
            seen.add(dt.name)
            return dt

        monkeypatch.setattr(tb, "_cell_dtype", spy)
        _, ref = _run_looped(GSquareTest, ds, groups, cache=False)
        _, got = _run_fused(GSquareTest, ds, groups, cache=False, native=False)
        _assert_identical(ref, got)
        assert tier in seen, f"workload never produced a {tier} wave: {seen}"


# ---------------------------------------------------------------------- #
# int64 overflow fallback inside a batched group
# ---------------------------------------------------------------------- #
class TestOverflowFallbackInBatchedGroup:
    def test_overflowing_depth_matches_looped(self):
        # prod(arities) over the deep set exceeds int64: encode_columns
        # falls back to pairwise-unique relabelling, and the fused planner
        # routes the set through the compressed-Z looped path — composed
        # here inside one batched group next to dense shallow sets.
        rng = np.random.default_rng(41)
        n_vars = 44
        arities = [3] * n_vars
        rows = np.column_stack([rng.integers(0, 3, 60) for _ in range(n_vars)])
        ds = DiscreteDataset.from_rows(rows, arities=arities)
        deep = tuple(range(2, 44))  # 3**42 > 2**63
        assert 3**42 > 2**63
        sets = [(), (2,), deep, (2, 3)]
        for cls in TESTERS:
            t_ref = cls(ds, batch_groups=False)
            ref = t_ref.test_group(0, 1, sets)
            t_got = cls(ds, batch_groups=True)
            t_got.use_native = False
            got = t_got.test_group(0, 1, sets)
            _assert_identical(ref, got)
            assert vars(t_ref.counters) == vars(t_got.counters)


# ---------------------------------------------------------------------- #
# native path
# ---------------------------------------------------------------------- #
class TestNativePath:
    def test_kill_switch(self):
        env = dict(os.environ, REPRO_NATIVE="0")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.citests.native import native_available, native_kind;"
                "print(native_available(), native_kind())",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            check=True,
        )
        assert out.stdout.split() == ["False", "None"]

    @pytest.mark.skipif(not native_available(), reason="no native backend")
    def test_fused_counts_parity_with_numpy(self):
        rng = np.random.default_rng(51)
        n, m = 13, 300
        scales = rng.integers(2, 10, n).astype(np.int64)
        sizes = rng.integers(1, 9, n) * scales
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        total = int(sizes.sum())
        z2d = np.stack(
            [rng.integers(0, sizes[r] // scales[r], m) for r in range(n)]
        ).astype(np.int32)
        xy_mat = rng.integers(0, 2, (4, m)).astype(np.int32)
        row_group = rng.integers(0, 4, n).astype(np.int64)
        # Clamp endpoint codes below each row's scale.
        for r in range(n):
            np.minimum(xy_mat[row_group[r]], scales[r] - 1, out=xy_mat[row_group[r]])
        ref = fused_cell_counts(
            z2d.copy(), xy_mat, row_group, scales, offsets, total, use_native=False
        )
        got = fused_cell_counts(
            z2d.copy(), xy_mat, row_group, scales, offsets, total, use_native=True
        )
        assert got.dtype == ref.dtype or got.sum() == ref.sum()
        assert np.array_equal(np.asarray(got), np.asarray(ref))

    @pytest.mark.skipif(not native_available(), reason="no native backend")
    @pytest.mark.parametrize("cls", TESTERS)
    def test_tester_native_bitwise_identical(self, cls):
        rng = np.random.default_rng(52)
        ds = _random_dataset(rng)
        groups = _random_groups(rng, ds.n_variables)
        t_ref, ref = _run_fused(cls, ds, groups, cache=False, native=False)
        t_got, got = _run_fused(cls, ds, groups, cache=False, native=True)
        _assert_identical(ref, got)
        assert vars(t_ref.counters) == vars(t_got.counters)
