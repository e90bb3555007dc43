"""EdgeTask, WorkPool and SepSetStore tests."""

from __future__ import annotations

from math import comb

import pytest

from repro.core.edges import EdgeTask
from repro.core.sepsets import SepSetStore
from repro.core.workpool import WorkPool


class TestEdgeTask:
    def test_counts(self):
        t = EdgeTask(0, 1, side1=(2, 3, 4), side2=(5, 6), depth=2)
        assert t.c1 == comb(3, 2)
        assert t.c2 == comb(2, 2)
        assert t.total_tests == 4
        assert t.remaining == 4
        assert not t.done

    def test_depth_zero_single_marginal(self):
        t = EdgeTask(0, 1, side1=(2, 3), side2=(4,), depth=0)
        assert t.total_tests == 1
        assert t.conditioning_set(0) == ()

    def test_conditioning_sets_span_both_sides(self):
        t = EdgeTask(0, 1, side1=(2, 3, 4), side2=(5, 6), depth=2)
        sets = [t.conditioning_set(r) for r in range(t.total_tests)]
        assert sets == [(2, 3), (2, 4), (3, 4), (5, 6)]

    def test_conditioning_set_out_of_range(self):
        t = EdgeTask(0, 1, side1=(2, 3), side2=(), depth=1)
        with pytest.raises(ValueError):
            t.conditioning_set(2)

    def test_next_group_advances_nothing(self):
        t = EdgeTask(0, 1, side1=(2, 3, 4), side2=(5, 6), depth=2)
        group = t.next_group(3)
        assert group == [(2, 3), (2, 4), (3, 4)]
        assert t.progress == 0  # caller advances explicitly
        t.advance(3)
        assert t.next_group(5) == [(5, 6)]

    def test_group_crossing_side_boundary(self):
        t = EdgeTask(0, 1, side1=(2, 3, 4), side2=(5, 6), depth=2)
        t.advance(2)
        assert t.next_group(2) == [(3, 4), (5, 6)]

    def test_advance_overflow(self):
        t = EdgeTask(0, 1, side1=(2,), side2=(), depth=1)
        with pytest.raises(ValueError):
            t.advance(2)

    def test_materialised_sets(self):
        t = EdgeTask(0, 1, side1=(2, 3), side2=(4, 5), depth=1)
        assert t.materialised_sets() == [(2,), (3,), (4,), (5,)]

    def test_empty_sides_no_work_at_depth(self):
        t = EdgeTask(0, 1, side1=(), side2=(), depth=1)
        assert t.total_tests == 0
        assert t.done

    def test_endpoint_order_enforced(self):
        with pytest.raises(ValueError):
            EdgeTask(2, 1, side1=(), side2=(), depth=0)
        with pytest.raises(ValueError):
            EdgeTask(1, 1, side1=(), side2=(), depth=0)

    def test_group_size_validation(self):
        t = EdgeTask(0, 1, side1=(2,), side2=(), depth=1)
        with pytest.raises(ValueError):
            t.next_group(0)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_successor_cursor_matches_unranking(self, depth):
        # Windows of varying width, partly committed (the uncommitted tail
        # is reused), fully committed (continued by successor steps) or
        # re-fetched unchanged: every set is the one unranked at its rank.
        t = EdgeTask(0, 1, side1=(2, 3, 4, 5, 6), side2=(7, 8, 9, 10), depth=depth)
        fresh = EdgeTask(0, 1, side1=t.side1, side2=t.side2, depth=depth)
        widths = [3, 1, 8, 2, 5, 5, 1, 13, 4]
        commits = [3, 0, 2, 2, 5, 1, 1, 6, 4]
        for width, done in zip(widths * 3, commits * 3, strict=True):
            if t.done:
                break
            want = [fresh.conditioning_set(r) for r in range(t.progress, t.progress + width)
                    if r < t.total_tests]
            assert t.next_group(width) == want
            t.advance(min(done, t.remaining))
        assert t.next_group(4) == [
            fresh.conditioning_set(r) for r in range(t.progress, min(t.progress + 4, t.total_tests))
        ]

    def test_cursor_skips_unranking(self, monkeypatch):
        # next_group pulls sets from an itertools.combinations cursor: it
        # never unranks, not even when progress jumps out of the window —
        # forward the cursor skips ahead in place, backwards (or across a
        # side) it restarts the side's iterator and skips to the rank.
        import itertools

        import repro.core.combinadic as cb

        t = EdgeTask(0, 1, side1=(2, 3, 4, 5, 6), side2=(7, 8, 9), depth=2)
        fresh = EdgeTask(0, 1, side1=t.side1, side2=t.side2, depth=2)
        calls = []
        real = cb.unrank_combination
        monkeypatch.setattr(
            cb, "unrank_combination", lambda *a: calls.append(a) or real(*a)
        )

        def want(r, k):
            return [fresh.conditioning_set(i) for i in range(r, min(r + k, t.total_tests))]

        calls.clear()
        assert t.next_group(3) == want(0, 3)
        cursor = t._cur
        assert isinstance(cursor, itertools.combinations)
        t.advance(3)
        assert t.next_group(3) == want(3, 3)
        assert t._cur is cursor  # continued, not rebuilt
        t.progress = 8  # forward, past the window: skipped in place
        assert t.next_group(1) == want(8, 1)
        assert t._cur is cursor
        t.progress = 1  # backwards: the side's iterator restarts
        assert t.next_group(2) == want(1, 2)
        assert t._cur is not cursor
        t.progress = 11  # into side 2
        assert t.next_group(5) == want(11, 5)
        assert calls == []


class TestWorkPool:
    def make_task(self, u=0, v=1):
        return EdgeTask(u, v, side1=(2, 3), side2=(), depth=1)

    def test_lifo_order(self):
        pool = WorkPool()
        a, b = self.make_task(0, 1), self.make_task(0, 2)
        pool.push(a)
        pool.push(b)
        assert pool.pop() is b
        assert pool.pop() is a

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            WorkPool().pop()

    def test_pop_many(self):
        pool = WorkPool()
        tasks = [self.make_task(0, i) for i in range(1, 6)]
        for t in tasks:
            pool.push(t)
        got = pool.pop_many(3)
        assert got == tasks[-1:-4:-1]
        assert len(pool) == 2

    def test_pop_many_drains(self):
        pool = WorkPool()
        pool.push(self.make_task())
        assert len(pool.pop_many(10)) == 1
        assert not pool

    def test_pop_many_validates(self):
        with pytest.raises(ValueError):
            WorkPool().pop_many(0)

    def test_statistics(self):
        pool = WorkPool()
        pool.push(self.make_task())
        pool.pop()
        pool.push(self.make_task())
        assert pool.n_pushes == 2
        assert pool.n_pops == 1

    def test_count_cycles(self):
        pool = WorkPool()
        pool.push(self.make_task())
        pool.count_cycles(3)
        assert (pool.n_pushes, pool.n_pops, len(pool), pool.peak_size) == (4, 3, 1, 1)


class TestSepSetStore:
    def test_record_and_get_unordered(self):
        s = SepSetStore()
        s.record(3, 1, (5, 2))
        assert s.get(1, 3) == (2, 5)  # sorted, unordered key
        assert s.get(3, 1) == (2, 5)
        assert s.contains(1, 3)

    def test_missing_pair(self):
        s = SepSetStore()
        assert s.get(0, 1) is None
        assert not s.contains(0, 1)

    def test_separates_with(self):
        s = SepSetStore()
        s.record(0, 1, (4,))
        assert s.separates_with(0, 1, 4)
        assert not s.separates_with(0, 1, 5)
        assert not s.separates_with(0, 2, 4)

    def test_empty_sepset_recorded(self):
        s = SepSetStore()
        s.record(0, 1, ())
        assert s.contains(0, 1)
        assert s.get(0, 1) == ()

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            SepSetStore().record(1, 1, ())

    def test_len_and_equality(self):
        a = SepSetStore()
        b = SepSetStore()
        a.record(0, 1, (2,))
        assert len(a) == 1
        assert a != b
        b.record(1, 0, (2,))
        assert a == b

    def test_overwrite_keeps_latest(self):
        s = SepSetStore()
        s.record(0, 1, (2,))
        s.record(0, 1, (3,))
        assert s.get(0, 1) == (3,)
