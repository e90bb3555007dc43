"""Lexicographic combination unranking (Buckles & Lybanon, TOMS Alg. 515).

Fast-BNS never materialises the set of conditioning sets of an edge: the
work pool stores only the processing progress ``r``, and the ``r``-th
conditioning set is regenerated on demand (paper Sec. IV-C, "Generating
conditioning sets on-the-fly").  Given ``p`` candidate elements, subset size
``q`` and rank ``r``, :func:`unrank_combination` returns the ``r``-th
``q``-subset of ``range(p)`` in lexicographic order without enumerating the
``C(p, q)`` predecessors.
"""

from __future__ import annotations

from math import comb
from collections.abc import Iterator, Sequence

__all__ = ["unrank_combination", "rank_combination", "iter_combination_indices", "comb"]


def unrank_combination(p: int, q: int, r: int) -> tuple[int, ...]:
    """The ``r``-th (0-based) lexicographic ``q``-combination of ``range(p)``.

    Matches ``tuple(itertools.combinations(range(p), q))[r]`` for every valid
    rank, in O(p) ``comb`` evaluations and O(1) extra memory.
    """
    if q < 0 or p < 0:
        raise ValueError("p and q must be non-negative")
    total = comb(p, q)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range [0, {total}) for C({p}, {q})")
    out: list[int] = []
    x = 0
    rem = r
    for k in range(q, 0, -1):
        # Advance candidate x until the block of combinations starting with x
        # contains the remaining rank.
        while True:
            block = comb(p - 1 - x, k - 1)
            if rem < block:
                out.append(x)
                x += 1
                break
            rem -= block
            x += 1
    return tuple(out)


def rank_combination(p: int, combination: Sequence[int]) -> int:
    """Inverse of :func:`unrank_combination` (used by tests and the work
    pool's progress bookkeeping)."""
    q = len(combination)
    prev = -1
    rank = 0
    remaining = q
    for c in combination:
        if not prev < c < p:
            raise ValueError(f"combination must be strictly increasing within range(p): {combination}")
        for skipped in range(prev + 1, c):
            rank += comb(p - 1 - skipped, remaining - 1)
        prev = c
        remaining -= 1
    return rank


def iter_combination_indices(
    p: int, q: int, start: int, count: int, after: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield ``count`` consecutive combinations starting at rank ``start``.

    The first is unranked (O(p)); successors are generated by the standard
    lexicographic successor step (amortised O(q)), which is how a thread
    walks through its gs-sized group without re-unranking every member.
    ``after`` — the combination at rank ``start - 1``, when the caller
    still holds it — replaces the unranking by one more successor step.
    """
    total = comb(p, q)
    if count <= 0:
        return
    if not 0 <= start < total:
        raise ValueError(f"start {start} out of range [0, {total})")
    count = min(count, total - start)
    if after is None:
        current = list(unrank_combination(p, q, start))
        yield tuple(current)
        count -= 1
    else:
        current = list(after)
    for _ in range(count):
        # Lexicographic successor: find the rightmost element that can grow.
        i = q - 1
        while i >= 0 and current[i] == p - q + i:
            i -= 1
        if i < 0:
            return
        current[i] += 1
        for j in range(i + 1, q):
            current[j] = current[j - 1] + 1
        yield tuple(current)
