"""Reusable kernel buffer pool (the per-worker *arena*).

The fused group kernel (:mod:`repro.citests.tablebase`) touches a handful
of large scratch arrays per megagroup build: the wave histogram, the
stacked cell codes and the narrow column-gather buffer of the NumPy
path, and the per-cell coordinates, marginals and float64 terms of the
scoring pass.  Allocating them per call
dominates small-group workloads (every ``np.empty`` of ``gs * m`` cells is
a page-faulting malloc at typical sample counts) and defeats the cache
locality the kernel exists to exploit.

:class:`KernelArena` keeps one geometrically grown buffer per ``(key,
dtype)`` slot and hands out leading views:

* ``take(key, shape, dtype)`` returns a C-contiguous view of exactly
  ``prod(shape)`` elements; the backing buffer only ever grows (doubling,
  so amortised O(1) growth events) and is reused by every later take of
  the slot — in steady state no *scratch* buffer is allocated per group
  evaluation (``benchmarks/bench_kernel_batching.py`` asserts zero arena
  growth events).  The native path's wave histogram is a slot too (up to
  2 MiB); the NumPy path's is ``np.bincount``'s own output;
* ``prewarm(hint)`` pre-sizes slots from the adaptive scheduler's live
  bucket mix (:meth:`repro.parallel.adaptive.AdaptiveGroupScheduler.
  arena_hint`), so the first groups of a round do not pay the growth
  ramp;
* pickling severs the buffers (like the stats-cache spill tier severs its
  SQLite connection): an arena that rides a tester/pool into a worker
  process arrives empty and regrows locally — buffers are pure scratch,
  so this changes warm-up, never results.

The arena is **not** thread-safe by design: each worker (process worker
or worker thread) owns a private instance, exactly like each owns a
private tester.  Testers built without one use :func:`thread_arena`, the
calling thread's process-wide instance, looked up per kernel call: every
tester and session driven from one thread then shares one set of buffers
sized for the largest wave, instead of each live tester holding its own.
Views handed out by ``take`` are only valid until the next ``take`` of the
same slot — the fused engine consumes every view before requesting the
slot again.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["KernelArena", "thread_arena"]

#: Smallest buffer ever allocated (elements) — avoids pathological growth
#: chains for tiny groups.
_MIN_ELEMS = 1024


class KernelArena:
    """Keyed pool of grow-only scratch buffers (module docstring)."""

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], np.ndarray] = {}
        self.n_takes = 0
        self.n_grows = 0

    # ------------------------------------------------------------------ #
    # core API
    # ------------------------------------------------------------------ #
    def take(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape`` view over the slot's backing buffer.

        Contents are **unspecified** (stale data from earlier takes): the
        caller must overwrite every element it reads back.  The view is
        invalidated by the next ``take``/``prewarm`` of the same slot.
        """
        dt = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        slot = (key, dt.str)
        buf = self._buffers.get(slot)
        if buf is None or buf.size < size:
            self._buffers[slot] = buf = np.empty(
                max(size, _MIN_ELEMS, 0 if buf is None else 2 * buf.size), dtype=dt
            )
            self.n_grows += 1
        self.n_takes += 1
        return buf[:size].reshape(shape)

    def prewarm(self, hint: dict | None) -> None:
        """Pre-size slots from a ``{key: (n_elements, dtype_str)}`` hint.

        Unknown/malformed hints are ignored — sizing is an optimisation,
        never a correctness input.  Growth events are counted like takes'.
        """
        if not hint:
            return
        for key, spec in hint.items():
            try:
                size, dtype = spec
                dt = np.dtype(dtype)
                size = int(size)
            except (TypeError, ValueError):
                continue
            slot = (str(key), dt.str)
            buf = self._buffers.get(slot)
            if buf is None or buf.size < size:
                self._buffers[slot] = np.empty(max(size, _MIN_ELEMS), dtype=dt)
                self.n_grows += 1

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def stats(self) -> dict[str, int]:
        return {
            "n_slots": len(self._buffers),
            "nbytes": self.nbytes(),
            "n_takes": self.n_takes,
            "n_grows": self.n_grows,
        }

    def release(self) -> None:
        """Drop every buffer (memory pressure valve; arena stays usable)."""
        self._buffers.clear()

    def __getstate__(self) -> dict:
        # Scratch never crosses a process boundary: a pickled arena (e.g.
        # riding a tester into a worker) arrives empty and regrows there.
        state = dict(self.__dict__)
        state["_buffers"] = {}
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelArena(n_slots={len(self._buffers)}, nbytes={self.nbytes()}, "
            f"n_takes={self.n_takes}, n_grows={self.n_grows})"
        )


_LOCAL = threading.local()


def thread_arena() -> KernelArena:
    """The calling thread's process-wide arena (created on first use)."""
    try:
        return _LOCAL.arena
    except AttributeError:
        _LOCAL.arena = arena = KernelArena()
        return arena
