"""Batched group kernel vs the looped per-set reference oracle.

The contract of :mod:`repro.citests.tablebase` is that ``test_group`` under
``batch_groups=True`` (offset-stacked bincount, stacked statistic
reductions, one ``gammaincc`` per group) is **bit-identical** to the looped
per-set path — same statistics, dofs, p-values, decisions and work-counter
accounting — across testers, storage layouts, depths, caches, duplicate
sets and compressed-Z fallbacks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citests.chisquare import ChiSquareTest
from repro.citests.contingency import ci_counts, column_counts
from repro.citests.gsquare import GSquareTest
from repro.citests.mutual_info import MutualInformationTest
from repro.citests.native import native_available
from repro.datasets.dataset import DiscreteDataset
from repro.engine.statscache import SufficientStatsCache

TESTERS = [GSquareTest, ChiSquareTest, MutualInformationTest]


def _make_tester(cls, dataset, *, batch, cache=False, **kw):
    if cls is MutualInformationTest:
        kw.pop("compress_threshold", None)
    if cache:
        kw["stats_cache"] = SufficientStatsCache()
    return cls(dataset, batch_groups=batch, **kw)


def _assert_results_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert (g.x, g.y, g.s) == (w.x, w.y, w.s)
        assert g.statistic == w.statistic  # bitwise: no tolerance
        assert g.dof == w.dof
        assert g.p_value == w.p_value
        assert g.independent == w.independent


def _assert_counters_identical(got, want):
    assert got.n_tests == want.n_tests
    assert got.data_accesses == want.data_accesses
    assert got.table_cells == want.table_cells
    assert got.log_ops == want.log_ops
    assert got.per_depth_tests == want.per_depth_tests
    assert got.cache_hits == want.cache_hits
    assert got.cache_misses == want.cache_misses


GROUPS = [
    # (x, y, sets) over the 8-variable asia_data — one group per shape of
    # interest: depth-0+1 mix, uniform depth 1, uniform depth 2 (unequal
    # arity products exercise the padded stack), duplicates, depth 3.
    (0, 1, [(), (2,)]),
    (2, 3, [(0,), (1,), (4,), (5,)]),
    (0, 5, [(1, 2), (3, 4), (6, 7), (2, 6)]),
    (4, 6, [(1,), (1,), (3,), (1,)]),
    (1, 7, [(0, 2, 3), (2, 4, 5), (0, 3, 6)]),
]


#: Mixed endpoint shapes and depths over the variables of ``mixed_data``:
#: one fused call spans several ``(rx, ry)`` shapes and ``nz`` values.
MIXED_ARITIES = [2, 3, 4, 2, 5, 3, 2, 4]
MIXED_ITEMS = [
    (0, 1, [(), (2,), (3, 4), (2, 5)]),
    (1, 2, [(0,), (4,), (5, 6, 7)]),
    (4, 7, [(), (1,), (0, 2), (3,)]),
    (2, 5, [(1, 7), (0,), ()]),
    (6, 3, [(4, 7), (1, 2, 5)]),
]


@pytest.fixture(scope="module")
def mixed_data():
    rng = np.random.default_rng(11)
    rows = np.column_stack([rng.integers(0, a, 300) for a in MIXED_ARITIES])
    return DiscreteDataset.from_rows(rows, arities=MIXED_ARITIES)


class TestBatchedMatchesLooped:
    @pytest.mark.parametrize("cls", [GSquareTest, ChiSquareTest])
    @pytest.mark.parametrize("dof_adjust", ["structural", "slices"])
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("wave_cells", [None, 200])
    def test_mixed_shape_waves(self, mixed_data, monkeypatch, cls, dof_adjust, cache, wave_cells):
        # One call, many table shapes: without a cap every dense set shares
        # one wave (one scoring pass over mixed (rx, ry, nz) tables); a
        # small cap splits the call into several waves.
        import repro.citests.tablebase as tb

        if wave_cells is not None:
            monkeypatch.setattr(tb, "_MAX_WAVE_CELLS", wave_cells)
        shapes = []
        build_wave = tb.ContingencyTableTest._build_wave

        def spy(self, plan, wave):
            g = plan.grp[wave]
            shapes.append(
                set(zip(plan.rx[g].tolist(), plan.ry[g].tolist(), plan.nz[wave].tolist(), strict=True))
            )
            return build_wave(self, plan, wave)

        monkeypatch.setattr(tb.ContingencyTableTest, "_build_wave", spy)
        fused = _make_tester(cls, mixed_data, batch=True, cache=cache, dof_adjust=dof_adjust)
        looped = _make_tester(cls, mixed_data, batch=False, cache=cache, dof_adjust=dof_adjust)
        for prefix in (None, 1):
            got = fused.test_groups(MIXED_ITEMS, prefix=prefix)
            want = looped.test_groups(MIXED_ITEMS, prefix=prefix)
            for g, w in zip(got, want, strict=True):
                _assert_results_identical(g, w)
        _assert_counters_identical(fused.counters, looped.counters)
        if wave_cells is None:
            assert len({shape[:2] for shape in shapes[0]}) >= 4
            assert len({shape[2] for shape in shapes[0]}) >= 4
        else:
            assert len(shapes) > 2

    @pytest.mark.parametrize("cls", TESTERS)
    @pytest.mark.parametrize("layout", ["variable-major", "sample-major"])
    @pytest.mark.parametrize("cache", [False, True])
    def test_bitwise_identical_results_and_counters(self, asia_data, cls, layout, cache):
        data = asia_data.with_layout(layout)
        batched = _make_tester(cls, data, batch=True, cache=cache)
        looped = _make_tester(cls, data, batch=False, cache=cache)
        for x, y, sets in GROUPS:
            _assert_results_identical(
                batched.test_group(x, y, sets), looped.test_group(x, y, sets)
            )
        _assert_counters_identical(batched.counters, looped.counters)

    @pytest.mark.parametrize("cache", [False, True])
    def test_compressed_sets_fall_back(self, cache):
        # Tiny m with high-arity Z forces np.unique compression for the
        # deep sets while the shallow ones stay dense: a mixed group.
        rng = np.random.default_rng(5)
        rows = np.column_stack(
            [rng.integers(0, 2, 40), rng.integers(0, 2, 40)]
            + [rng.integers(0, 9, 40) for _ in range(4)]
        )
        data = DiscreteDataset.from_rows(rows, arities=[2, 2, 9, 9, 9, 9])
        sets = [(2,), (2, 3, 4, 5), (3,), (2, 4, 5), (4, 5)]
        batched = _make_tester(GSquareTest, data, batch=True, cache=cache)
        looped = _make_tester(GSquareTest, data, batch=False, cache=cache)
        _assert_results_identical(
            batched.test_group(0, 1, sets), looped.test_group(0, 1, sets)
        )
        _assert_counters_identical(batched.counters, looped.counters)

    def test_cache_warm_after_batched_group(self, asia_data):
        # Every table of a batched pass must land in the cache (bulk
        # insert): replaying the group is all hits, and the cached tables
        # are bit-identical to fresh uncached builds.
        cache = SufficientStatsCache()
        tester = GSquareTest(asia_data, stats_cache=cache)
        sets = [(2,), (3,), (2, 3)]
        tester.test_group(0, 1, sets)
        assert cache.stats().misses == len(sets)
        before = cache.stats().hits
        tester.test_group(0, 1, sets)
        assert cache.stats().hits >= before + len(sets)
        for s in sets:
            counts, nz, *_ = tester._builder.ci_counts(0, 1, s)
            ref, nz_ref, _ = ci_counts(
                asia_data.column(0),
                asia_data.column(1),
                asia_data.columns(s),
                asia_data.arity(0),
                asia_data.arity(1),
                [asia_data.arity(v) for v in s],
            )
            assert nz == nz_ref
            np.testing.assert_array_equal(counts, ref)

    def test_tiny_cache_budget_keeps_counter_parity(self, asia_data):
        # A budget below one table's size means stores are rejected:
        # in-group duplicates/subsets must then be rebuilt (and billed)
        # exactly as the looped path rebuilds them.
        for max_bytes in (0, 64):
            batched = GSquareTest(asia_data, stats_cache=SufficientStatsCache(max_bytes))
            looped = GSquareTest(
                asia_data, stats_cache=SufficientStatsCache(max_bytes), batch_groups=False
            )
            sets = [(2, 3), (2,), (2, 3), (3,)]  # dup + subsets of the first
            _assert_results_identical(
                batched.test_group(0, 1, sets), looped.test_group(0, 1, sets)
            )
            _assert_counters_identical(batched.counters, looped.counters)

    def test_aborted_group_leaves_no_pending_placeholders(self, asia_data, monkeypatch):
        # An exception mid-group must not leave reserved-but-unfilled
        # slots behind: later lookups would trip over the placeholders.
        import repro.citests.tablebase as tb

        cache = SufficientStatsCache()
        tester = GSquareTest(asia_data, stats_cache=cache)

        def boom(*a, **k):
            raise MemoryError("simulated mid-group failure")

        monkeypatch.setattr(tb, "column_counts", boom)
        with pytest.raises(MemoryError):
            tester.test_group(0, 1, [(2,), (3,)])
        monkeypatch.undo()
        from repro.engine.statscache import _PENDING

        assert not any(
            kind == "table" and value[0] is _PENDING
            for value, _nbytes, kind, *_memo in cache._entries.values()
        )
        # The tester keeps working and the cache self-heals.
        replay = tester.test_group(0, 1, [(2,), (3,)])
        fresh = GSquareTest(asia_data).test_group(0, 1, [(2,), (3,)])
        _assert_results_identical(replay, fresh)

    @pytest.mark.parametrize("prefix", [None, 1])
    def test_failed_build_leaves_cache_and_counters_untouched(
        self, asia_data, monkeypatch, prefix
    ):
        # Plan and build make no cache event; only the commit does.  A
        # failure inside a wave build therefore leaves the cache (entries,
        # values, LRU order, counters) and the tester counters as they were.
        import repro.citests.tablebase as tb

        cache = SufficientStatsCache(max_bytes=4_000)
        tester = GSquareTest(asia_data, stats_cache=cache)
        tester.test_groups([(0, 1, [(2,), (3,), (2, 3)]), (4, 5, [(), (6,)])])

        def state():
            entries = [(k, id(e[0]), e[1]) for k, e in cache._entries.items()]
            return entries, cache.stats(), tester.counters.snapshot()

        before = state()
        items = [(0, 1, [(2,), (4,), (2, 3), (3, 6)]), (4, 5, [(6,), (2, 7)])]

        def boom(*a, **k):
            raise MemoryError("simulated wave failure")

        monkeypatch.setattr(tb, "column_counts", boom)
        with pytest.raises(MemoryError):
            tester.test_groups(items, prefix=prefix)
        assert state() == before
        monkeypatch.undo()
        fresh = GSquareTest(asia_data)
        for got, want in zip(
            tester.test_groups(items, prefix=prefix),
            fresh.test_groups(items, prefix=prefix),
            strict=True,
        ):
            _assert_results_identical(got, want)

    def test_cached_tables_do_not_pin_group_stack(self, asia_data):
        # Stored tables must be standalone copies, not views into the
        # whole group's bincount stack (a view would defeat the cache's
        # byte budget).
        cache = SufficientStatsCache()
        tester = GSquareTest(asia_data, stats_cache=cache)
        tester.test_group(0, 1, [(2,), (3,), (4,)])
        for value, nbytes, kind, *_memo in cache._entries.values():
            if kind != "table":
                continue
            counts = value[0]
            assert counts.base is None
            assert nbytes == counts.nbytes

    def test_skeleton_bit_identical(self, asia_data):
        from repro.core.skeleton import learn_skeleton

        runs = {}
        for batch in (True, False):
            tester = GSquareTest(asia_data, batch_groups=batch)
            graph, sepsets, _stats = learn_skeleton(
                tester, asia_data.n_variables, gs=4, group_endpoints=True
            )
            runs[batch] = (set(graph.edges()), sepsets.as_dict())
        assert runs[True] == runs[False]


# ---------------------------------------------------------------------- #
# kernel-level equivalence (tables, not statistics)
# ---------------------------------------------------------------------- #
class TestEndpointSlot:
    """An uncached fused tester keeps the endpoint codes of the last pair
    it encoded; looped and cached testers keep none."""

    def test_repeat_pair_encodes_once(self, asia_data):
        t = GSquareTest(asia_data)
        t.test(0, 1, (2,))
        slot = t._xy_slot
        assert slot[:2] == (0, 1)
        want = asia_data.column(0).astype(np.int64) * asia_data.arity(1) + asia_data.column(1)
        np.testing.assert_array_equal(slot[2], want)
        assert not slot[2].flags.writeable
        t.test(0, 1, (3,))
        t.test_group(0, 1, [(4,)])  # the looped single-set group call
        assert t._xy_slot is slot

    def test_new_pair_replaces_the_slot(self, asia_data):
        t = GSquareTest(asia_data)
        t.test(0, 1, ())
        t.test(2, 3, (0,))
        assert t._xy_slot[:2] == (2, 3)
        t.test(1, 0, ())  # ordered: (1, 0) is another pair
        assert t._xy_slot[:2] == (1, 0)

    @pytest.mark.parametrize("batch, cache", [(False, False), (True, True), (False, True)])
    def test_looped_and_cached_testers_keep_nothing(self, asia_data, batch, cache):
        t = _make_tester(GSquareTest, asia_data, batch=batch, cache=cache)
        for x, y, sets in GROUPS:
            t.test(x, y, sets[0])
            t.test_group(x, y, sets)
            t.test_group(x, y, sets[:1])
        assert t._xy_slot is None

    @pytest.mark.parametrize("layout", ["variable-major", "sample-major"])
    def test_results_and_counters_equal_the_looped_oracle(self, asia_data, layout):
        data = asia_data.with_layout(layout)
        fused, looped = GSquareTest(data), GSquareTest(data, batch_groups=False)
        calls = [(x, y, s) for x, y, sets in GROUPS for s in sets]
        calls += calls[::-1]  # pair repeats, slot hits and replacements
        for x, y, s in calls:
            _assert_results_identical([fused.test(x, y, s)], [looped.test(x, y, s)])
        for x, y, sets in GROUPS:
            _assert_results_identical(
                fused.test_group(x, y, sets[:1]), looped.test_group(x, y, sets[:1])
            )
        _assert_counters_identical(fused.counters, looped.counters)

    def test_columns_copy_for_sample_major_data(self, asia_data):
        data = asia_data.with_layout("sample-major")
        cols = GSquareTest(data)._columns()
        assert cols.dtype == np.uint8 and cols.flags.c_contiguous
        assert not cols.flags.writeable and not np.shares_memory(cols, data.values)
        for i in range(data.n_variables):
            np.testing.assert_array_equal(cols[i], data.column(i))


class TestColumnCounts:
    @pytest.mark.parametrize("native", [False, True])
    def test_rows_match_per_set_tables(self, rng, native):
        if native and not native_available():
            pytest.skip("no native backend")
        m = 200
        arities = [3, 2, 2, 3, 4]  # x, y, z0, z1, z2
        cols = np.stack([rng.integers(0, a, m) for a in arities]).astype(np.uint8)
        x, y = 0, 1
        sets = [(), (2,), (3,), (3, 4)]
        rows, strides, offsets, spans = [], [], [], []
        total = 0
        for s in sets:
            rz = [arities[v] for v in s]
            place = [int(np.prod(rz[j + 1 :], dtype=np.int64)) * 6 for j in range(len(s))]
            rows.append(list(s) + [x, y])
            strides.extend(place + [2, 1])
            offsets.append(total)
            spans.append(int(np.prod(rz, dtype=np.int64)) * 6)
            total += spans[-1]
        ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
        flat = column_counts(
            cols,
            ptr,
            np.concatenate(rows).astype(np.int64),
            np.array(strides, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
            total,
            np.dtype(np.int64),
            use_native=native,
        )
        assert flat.shape == (total,)
        for k, s in enumerate(sets):
            ref, nz_ref, dense = ci_counts(
                cols[x], cols[y], [cols[v] for v in s], 3, 2, [arities[v] for v in s]
            )
            assert dense
            got = flat[offsets[k] : offsets[k] + spans[k]].reshape(nz_ref, 3, 2)
            np.testing.assert_array_equal(got, ref)


# ---------------------------------------------------------------------- #
# property: random datasets and groups, batched == looped bitwise
# ---------------------------------------------------------------------- #
@st.composite
def dataset_and_groups(draw):
    n_vars = draw(st.integers(4, 7))
    arities = [draw(st.integers(2, 4)) for _ in range(n_vars)]
    m = draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, a, m) for a in arities])
    layout = draw(st.sampled_from(["variable-major", "sample-major"]))
    ds = DiscreteDataset.from_rows(rows, arities=arities, layout=layout)
    x = draw(st.integers(0, n_vars - 1))
    y = draw(st.integers(0, n_vars - 1).filter(lambda v: v != x))
    pool = [v for v in range(n_vars) if v not in (x, y)]
    n_sets = draw(st.integers(2, 6))
    sets = []
    for _ in range(n_sets):
        size = draw(st.integers(0, len(pool)))
        sets.append(tuple(sorted(draw(st.permutations(pool))[:size])))
    return ds, x, y, sets


@given(dataset_and_groups(), st.booleans(), st.sampled_from(["g2", "chi2"]))
@settings(max_examples=60, deadline=None)
def test_batched_equals_looped_property(args, use_cache, which):
    ds, x, y, sets = args
    cls = GSquareTest if which == "g2" else ChiSquareTest
    batched = _make_tester(cls, ds, batch=True, cache=use_cache)
    looped = _make_tester(cls, ds, batch=False, cache=use_cache)
    _assert_results_identical(batched.test_group(x, y, sets), looped.test_group(x, y, sets))
    _assert_counters_identical(batched.counters, looped.counters)
