"""Per-edge work items for the skeleton phase.

An :class:`EdgeTask` bundles everything a thread needs to process one edge
at the current depth: the two endpoints, the *snapshot* candidate sets of
both endpoints (PC-stable order independence), the combination counts on
each side and the current progress ``r``.  Conditioning sets are generated
on the fly (paper Sec. IV-C) so the work pool holds no subset lists — the
task *is* the paper's ``(edge, progress)`` pool entry: random access
unranks ``r`` (:meth:`EdgeTask.conditioning_set`), and the sequential
stream :meth:`EdgeTask.next_group` pulls consecutive sets from a C-level
``itertools.combinations`` cursor over the current side.

The global rank ``r`` spans side 1 (subsets of ``adj(G, Vi) \\ {Vj}``) first
and then side 2 (subsets of ``adj(G, Vj) \\ {Vi}``) — the "grouping of edges
with the same endpoints" optimisation: side 2 is reached only if side 1
never accepted independence.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

from .combinadic import unrank_combination

__all__ = ["EdgeTask"]


@dataclass(slots=True)
class EdgeTask:
    """Work-pool entry: one undirected edge and its CI-test progress.

    Attributes
    ----------
    u, v:
        Endpoints, ``u < v``.
    side1, side2:
        Sorted candidate conditioning variables from the depth's adjacency
        snapshot: ``adj(u) \\ {v}`` and ``adj(v) \\ {u}``.
    depth:
        Conditioning-set size ``d`` at this depth.
    progress:
        Global rank of the next CI test to perform (``r`` in the paper).

    The task also keeps a successor cursor for :meth:`next_group`: an
    ``itertools.combinations(side, depth)`` iterator over the current side
    and the global rank of the next set it yields, plus the last window of
    sets the method produced.  A later call whose start lies inside or
    right after that window reuses the window's uncommitted tail and pulls
    the rest from the cursor with ``islice`` — consecutive sets in
    lexicographic order, generated in C, with no unranking.  A start
    outside the window (``progress`` moved by hand) re-positions the
    cursor by a C-level skip: forward from where it stands, or from the
    start of the side.
    """

    u: int
    v: int
    side1: tuple[int, ...]
    side2: tuple[int, ...]
    depth: int
    progress: int = 0
    c1: int = field(init=False)
    c2: int = field(init=False)
    _win_at: int = field(default=-1, init=False, repr=False, compare=False)
    _win: list = field(default_factory=list, init=False, repr=False, compare=False)
    _cur: Iterator[tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _cur_at: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("self-loop edge task")
        if self.u > self.v:
            raise ValueError("EdgeTask endpoints must satisfy u < v")
        if self.depth == 0:
            # Depth 0 needs exactly one marginal test I(u, v | {}) per edge
            # (paper Sec. IV-B: "only one CI test is required"); without this
            # both sides would contribute the same empty set twice.
            self.c1 = 1
            self.c2 = 0
        else:
            self.c1 = comb(len(self.side1), self.depth)
            self.c2 = comb(len(self.side2), self.depth)

    # ------------------------------------------------------------------ #
    @property
    def total_tests(self) -> int:
        """Upper bound ``C(|a1|, d) + C(|a2|, d)`` of CI tests for the edge
        (paper Sec. IV-D)."""
        return self.c1 + self.c2

    @property
    def remaining(self) -> int:
        return self.total_tests - self.progress

    @property
    def done(self) -> bool:
        return self.progress >= self.total_tests

    def conditioning_set(self, r: int) -> tuple[int, ...]:
        """The ``r``-th conditioning set in global (side1-then-side2) order."""
        if not 0 <= r < self.total_tests:
            raise ValueError(f"rank {r} out of range [0, {self.total_tests})")
        if r < self.c1:
            idx = unrank_combination(len(self.side1), self.depth, r)
            return tuple(self.side1[i] for i in idx)
        idx = unrank_combination(len(self.side2), self.depth, r - self.c1)
        return tuple(self.side2[i] for i in idx)

    def next_group(self, gs: int) -> list[tuple[int, ...]]:
        """The next ``gs`` conditioning sets from ``progress`` (fewer when the
        edge is nearly exhausted), pulled from the successor cursor (class
        docstring); a window's uncommitted tail is reused as is."""
        if gs < 1:
            raise ValueError("group size must be >= 1")
        start = self.progress
        count = min(gs, self.c1 + self.c2 - start)
        win = self._win
        at = self._win_at
        if at >= 0 and at <= start <= at + len(win):
            out = win[start - at : start - at + count]
            if len(out) < count:
                out += self._walk(at + len(win), count - len(out))
                self._win_at, self._win = start, out
            return out
        out = self._win = self._walk(start, count)
        self._win_at = start
        return out

    def _walk(self, r: int, count: int) -> list[tuple[int, ...]]:
        """``count`` consecutive sets from global rank ``r``."""
        out: list[tuple[int, ...]] = []
        while count > 0:
            if self._cur_at != r:
                self._seek(r)
            end = self.c1 if r < self.c1 else self.c1 + self.c2
            take = min(count, end - r)
            out += islice(self._cur, take)
            r += take
            count -= take
            # A side's exhausted cursor is dropped: the next rank belongs
            # to the other side.
            self._cur, self._cur_at = (None, -1) if r == end else (self._cur, r)
        return out

    def _seek(self, r: int) -> None:
        """Position the cursor so it yields global rank ``r`` next: skip
        forward when it stands earlier on the same side, else start the
        side's iterator afresh and skip to ``r``."""
        side, base = (self.side1, 0) if r < self.c1 else (self.side2, self.c1)
        at = self._cur_at
        if self._cur is None or (at < self.c1) != (r < self.c1) or at > r:
            self._cur, at = combinations(side, self.depth), base
        if r > at:
            next(islice(self._cur, r - at - 1, None))
        self._cur_at = r

    def advance(self, n: int) -> None:
        self.progress += n
        if self.progress > self.total_tests:
            raise ValueError("progress advanced past the last CI test")

    def materialised_sets(self) -> list[tuple[int, ...]]:
        """All conditioning sets of the edge, fully enumerated.

        Used by the memory-hungry baseline that the on-the-fly optimisation
        replaces (``onthefly=False`` ablation).
        """
        return [self.conditioning_set(r) for r in range(self.total_tests)]
