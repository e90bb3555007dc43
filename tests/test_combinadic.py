"""Combination unranking tests (vs itertools ground truth), and the
sequential conditioning-set stream that walks consecutive ranks."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from repro.core.combinadic import rank_combination, unrank_combination
from repro.core.edges import EdgeTask


class TestUnrank:
    @pytest.mark.parametrize("p,q", [(5, 2), (6, 3), (8, 1), (7, 0), (4, 4), (10, 4)])
    def test_matches_itertools_everywhere(self, p, q):
        expected = list(combinations(range(p), q))
        got = [unrank_combination(p, q, r) for r in range(comb(p, q))]
        assert got == expected

    def test_rank_zero_is_prefix(self):
        assert unrank_combination(9, 3, 0) == (0, 1, 2)

    def test_last_rank_is_suffix(self):
        assert unrank_combination(9, 3, comb(9, 3) - 1) == (6, 7, 8)

    def test_empty_combination(self):
        assert unrank_combination(5, 0, 0) == ()
        assert unrank_combination(0, 0, 0) == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_combination(5, 2, comb(5, 2))
        with pytest.raises(ValueError):
            unrank_combination(5, 2, -1)
        with pytest.raises(ValueError):
            unrank_combination(-1, 0, 0)

    def test_q_exceeds_p_has_no_ranks(self):
        with pytest.raises(ValueError):
            unrank_combination(3, 5, 0)  # C(3,5) = 0, rank 0 invalid


class TestRank:
    @pytest.mark.parametrize("p,q", [(6, 2), (7, 3), (5, 5)])
    def test_inverse_of_unrank(self, p, q):
        for r in range(comb(p, q)):
            assert rank_combination(p, unrank_combination(p, q, r)) == r

    def test_invalid_combination_rejected(self):
        with pytest.raises(ValueError):
            rank_combination(5, (2, 2))  # not strictly increasing
        with pytest.raises(ValueError):
            rank_combination(5, (1, 7))  # out of range


def _stream(p: int, q: int, start: int, count: int) -> list[tuple[int, ...]]:
    """``count`` consecutive ``q``-combinations of ``range(p)`` from rank
    ``start``, as an edge task's one-sided set stream yields them."""
    t = EdgeTask(p, p + 1, side1=tuple(range(p)), side2=(), depth=q)
    t.advance(start)
    return t.next_group(count) if count else []


class TestIterator:
    """Consecutive ranks come from ``EdgeTask.next_group``'s cursor."""

    @pytest.mark.parametrize("p,q,start,count", [(8, 3, 0, 10), (8, 3, 20, 30), (6, 2, 14, 5)])
    def test_yields_consecutive_ranks(self, p, q, start, count):
        expected = list(combinations(range(p), q))[start : start + count]
        assert _stream(p, q, start, count) == expected

    def test_count_clamped_at_end(self):
        total = comb(5, 2)
        assert len(_stream(5, 2, total - 2, 100)) == 2

    def test_zero_count(self):
        # Nothing left past the last rank.
        assert _stream(5, 2, comb(5, 2), 1) == []

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            _stream(5, 2, comb(5, 2) + 1, 1)

    def test_depth_zero_group(self):
        assert _stream(4, 0, 0, 3) == [()]
