"""Dynamic work pool (paper Sec. IV-B).

A LIFO stack of :class:`~repro.core.edges.EdgeTask` items.  At each depth
every current edge is pushed with zero progress; schedulers repeatedly pop
edges, process the next group of ``gs`` CI tests, and push the edge back
unless it finished (independence accepted, or all conditioning sets
exhausted).  The pool therefore *monitors the processing progress of every
edge*, terminating completed edges immediately — the mechanism behind both
the load balancing and the early-termination savings.
"""

from __future__ import annotations

from .edges import EdgeTask

__all__ = ["WorkPool"]


class WorkPool:
    """LIFO pool of edge tasks with progress monitoring."""

    __slots__ = ("_stack", "_pushes", "_pops", "_peak")

    def __init__(self) -> None:
        self._stack: list[EdgeTask] = []
        self._pushes = 0
        self._pops = 0
        self._peak = 0

    def push(self, task: EdgeTask) -> None:
        self._stack.append(task)
        self._pushes += 1
        if len(self._stack) > self._peak:
            self._peak = len(self._stack)

    def pop(self) -> EdgeTask:
        if not self._stack:
            raise IndexError("pop from an empty work pool")
        self._pops += 1
        return self._stack.pop()

    def push_many(self, tasks: list[EdgeTask]) -> None:
        """Push ``tasks`` in order (the last one ends on top)."""
        self._stack += tasks
        self._pushes += len(tasks)
        if len(self._stack) > self._peak:
            self._peak = len(self._stack)

    def pop_many(self, k: int) -> list[EdgeTask]:
        """Pop up to ``k`` tasks (the paper pops one per thread per round),
        top first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        stack = self._stack
        out = stack[: -k - 1 : -1]
        del stack[len(stack) - len(out) :]
        self._pops += len(out)
        return out

    def count_cycles(self, n: int) -> None:
        """Account ``n`` pop/push-back cycles a speculative round ran
        without touching the stack (one per extra group a task committed;
        see :mod:`repro.core.skeleton`)."""
        self._pops += n
        self._pushes += n

    def __len__(self) -> int:
        return len(self._stack)

    def __bool__(self) -> bool:
        return bool(self._stack)

    @property
    def n_pushes(self) -> int:
        return self._pushes

    @property
    def n_pops(self) -> int:
        return self._pops

    @property
    def peak_size(self) -> int:
        """High-water mark of live tasks — together with the live ``len()``
        this is the pool-pressure signal the adaptive group scheduler
        (:mod:`repro.parallel.adaptive`) reads: a pool draining below the
        worker count marks the depth's straggler tail."""
        return self._peak
