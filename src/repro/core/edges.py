"""Per-edge work items for the skeleton phase.

An :class:`EdgeTask` bundles everything a thread needs to process one edge
at the current depth: the two endpoints, the *snapshot* candidate sets of
both endpoints (PC-stable order independence), the combination counts on
each side and the current progress ``r``.  Conditioning sets are produced by
unranking ``r`` on demand (paper Sec. IV-C) so the work pool holds no subset
lists — the task *is* the paper's ``(edge, progress)`` pool entry.

The global rank ``r`` spans side 1 (subsets of ``adj(G, Vi) \\ {Vj}``) first
and then side 2 (subsets of ``adj(G, Vj) \\ {Vi}``) — the "grouping of edges
with the same endpoints" optimisation: side 2 is reached only if side 1
never accepted independence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .combinadic import iter_combination_indices, unrank_combination

__all__ = ["EdgeTask"]


@dataclass
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

    The task also keeps a successor cursor: the last window of sets
    :meth:`next_group` produced and the combination indices of its last
    member.  A later call whose start lies inside or right after that
    window reuses the window's uncommitted tail and continues by successor
    steps instead of unranking from ``progress`` again.
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
    _last: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

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
        edge is nearly exhausted).  Uses the successor iterator within each
        side so only the first member of each side segment pays the
        unranking cost — and not even that when the successor cursor (class
        docstring) covers ``progress``."""
        if gs < 1:
            raise ValueError("group size must be >= 1")
        start = self.progress
        count = min(gs, self.total_tests - start)
        win = self._win
        off = start - self._win_at
        if self._win_at >= 0 and 0 <= off <= len(win):
            out = win[off : off + count]
            if len(out) == count:
                return out
            out += self._walk(self._win_at + len(win), count - len(out), self._last)
        else:
            out = self._walk(start, count, None)
        self._win_at, self._win = start, out
        return out

    def _walk(
        self, r: int, count: int, prev: tuple[int, ...] | None
    ) -> list[tuple[int, ...]]:
        """``count`` sets from global rank ``r``; ``prev`` holds the
        combination indices of rank ``r - 1`` when known."""
        out: list[tuple[int, ...]] = []
        for side, base, c in ((self.side1, 0, self.c1), (self.side2, self.c1, self.c2)):
            if count <= 0:
                break
            if r >= base + c:
                continue
            take = min(count, base + c - r)
            idx = prev if r > base else None
            for idx in iter_combination_indices(len(side), self.depth, r - base, take, idx):
                out.append(tuple(side[i] for i in idx))
            self._last = idx  # type: ignore[assignment]
            r += take
            count -= take
        return out

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
