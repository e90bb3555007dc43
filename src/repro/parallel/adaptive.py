"""Adaptive CI-test group sizing for the dynamic work pool.

The paper treats the group size ``gs`` as a tuning constant (Fig. 4: too
small pays one scheduling round-trip per CI test, too large wastes tests
past the first accepting conditioning set).  One constant cannot be right
everywhere, though — the profitable group size depends on where in the run
a work item sits:

* **depth** — depth 0 has exactly one marginal test per edge (grouping is
  meaningless); deeper tests cost more per test, so the same latency
  budget buys fewer of them;
* **adjacency size** — hub edges own combinatorially many conditioning
  sets and amortise large groups well, leaf edges exhaust after a few;
* **arity** — high-arity endpoints build larger contingency tables per
  test, shifting the overhead/compute balance;
* **pool pressure** — at the tail of a depth there are fewer live edges
  than workers, and big groups serialise the stragglers.

:class:`AdaptiveGroupScheduler` picks a group size per work item from live
perf counters instead: work items are bucketed by
``(depth, adjacency class, arity class)``, every completed group feeds its
observed waste ratio (tests executed past the first accepting set) and its
worker-seconds share back into the bucket, and the bucket's group size
moves multiplicatively — halved when waste exceeds ``waste_shrink``,
doubled when waste stays under ``waste_grow`` *and* the group's cost still
fits the latency target.  The groups feed the same fused column kernel
(:func:`~repro.citests.contingency.column_counts`) either way, so a
bigger group also means a wider (more efficient) kernel invocation.

**Adaptivity never changes results.**  The CI-level scheduler defers edge
removal to the end of the depth and breaks accepting-set ties by work-item
rank, both of which are group-size independent, so skeletons, separating
sets and p-values are bit-identical to any fixed-``gs`` run (property
covered by ``tests/test_adaptive.py``); only the executed-test count and
the scheduling overhead move.  ``gs="auto"`` anywhere a group size is
accepted (:func:`repro.core.learn.learn_structure`,
:meth:`repro.engine.session.LearningSession.learn`, the CLI) resolves to
this scheduler on the CI-level parallel path and to
:data:`DEFAULT_SEED_GS` on the sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AdaptiveGroupScheduler",
    "BucketState",
    "resolve_gs",
    "resolve_fixed_gs",
    "DEFAULT_SEED_GS",
]

#: Starting group size of every bucket (the paper's Fig. 4 sweet spot for
#: mid-size networks), and what ``gs="auto"`` means for engines that need
#: one fixed value (the sequential skeleton loop).
DEFAULT_SEED_GS = 4


@dataclass
class BucketState:
    """Live counters of one ``(depth, adjacency, arity)`` bucket."""

    gs: int
    ewma_waste: float = 0.0
    ewma_accept: float = 0.0
    ewma_group_s: float = 0.0
    n_groups: int = 0
    n_tests: int = 0
    n_wasted: int = 0

    def as_dict(self) -> dict:
        return {
            "gs": self.gs,
            "ewma_waste": round(self.ewma_waste, 4),
            "ewma_accept": round(self.ewma_accept, 4),
            "ewma_group_s": self.ewma_group_s,
            "n_groups": self.n_groups,
            "n_tests": self.n_tests,
            "n_wasted": self.n_wasted,
        }


class AdaptiveGroupScheduler:
    """Pick per-work-item group sizes from live counters (module docstring).

    Parameters
    ----------
    arities:
        Per-variable category counts; enables the arity dimension of the
        bucketing (omitted: all edges share one arity class).
    min_gs, max_gs:
        Clamp of every bucket's group size.
    seed_gs:
        Initial group size of a fresh bucket.
    waste_shrink, waste_grow:
        EWMA waste-ratio thresholds: above ``waste_shrink`` the bucket
        halves, below ``waste_grow`` (cheap groups only) it doubles.
    target_group_seconds:
        Latency ceiling per group: a bucket stops doubling once its
        estimated per-group worker-seconds share would cross this (keeps
        the dynamic pool's load balancing fine-grained enough).
    ewma:
        Smoothing factor of the waste/latency averages, in ``(0, 1]``;
        higher weights the latest observation more.
    """

    def __init__(
        self,
        arities=None,
        min_gs: int = 1,
        max_gs: int = 32,
        seed_gs: int = DEFAULT_SEED_GS,
        waste_shrink: float = 0.30,
        waste_grow: float = 0.10,
        target_group_seconds: float = 0.02,
        ewma: float = 0.5,
    ) -> None:
        if not 1 <= min_gs <= seed_gs <= max_gs:
            raise ValueError("need 1 <= min_gs <= seed_gs <= max_gs")
        if not 0.0 <= waste_grow < waste_shrink <= 1.0:
            raise ValueError("need 0 <= waste_grow < waste_shrink <= 1")
        if not 0.0 < ewma <= 1.0:
            raise ValueError("ewma must be in (0, 1]")
        self.arities = None if arities is None else tuple(int(a) for a in arities)
        self.min_gs = int(min_gs)
        self.max_gs = int(max_gs)
        self.seed_gs = int(seed_gs)
        self.waste_shrink = float(waste_shrink)
        self.waste_grow = float(waste_grow)
        self.target_group_seconds = float(target_group_seconds)
        self.ewma = float(ewma)
        self.buckets: dict[tuple[int, int, int], BucketState] = {}

    # ------------------------------------------------------------------ #
    # bucketing
    # ------------------------------------------------------------------ #
    def bucket_key(self, task) -> tuple[int, int, int]:
        """``(depth, adjacency class, arity class)`` of a work item.

        Classes are logarithmic (``bit_length``) so the table stays tiny
        while separating leaf edges from hubs and binary variables from
        high-arity ones.
        """
        adj_class = (len(task.side1) + len(task.side2)).bit_length()
        if self.arities is None:
            arity_class = 0
        else:
            arity_class = (self.arities[task.u] * self.arities[task.v]).bit_length()
        return (task.depth, adj_class, arity_class)

    def _bucket(self, task) -> BucketState:
        key = self.bucket_key(task)
        state = self.buckets.get(key)
        if state is None:
            # Depth 0 is one marginal test per edge; grouping buys nothing.
            seed = 1 if task.depth == 0 else min(self.seed_gs, self.max_gs)
            state = BucketState(gs=max(self.min_gs, seed))
            self.buckets[key] = state
        return state

    # ------------------------------------------------------------------ #
    # decisions & feedback
    # ------------------------------------------------------------------ #
    def gs_for(self, task, n_pending: int | None = None, n_workers: int | None = None) -> int:
        """Group size for ``task``'s next scheduling round.

        ``n_pending``/``n_workers`` enable the tail guard: when fewer work
        items remain than workers, smaller groups keep every worker fed
        instead of serialising the stragglers.
        """
        gs = self._bucket(task).gs
        if (
            n_pending is not None
            and n_workers is not None
            and n_pending < n_workers
            and gs > self.min_gs
        ):
            gs = max(self.min_gs, gs // 2)
        return gs

    def observe(self, task, n_sets: int, first_accept: int, elapsed_s: float) -> None:
        """Feed one completed group back into its bucket.

        ``first_accept`` is the index of the first accepting conditioning
        set within the group (``-1``: none accepted); every test after it
        was wasted work the early-termination of a smaller group would
        have skipped.  ``elapsed_s`` is the group's worker-seconds share.
        """
        if n_sets < 1:
            return
        state = self._bucket(task)
        wasted = (n_sets - 1 - first_accept) if first_accept >= 0 else 0
        state.n_groups += 1
        state.n_tests += n_sets
        state.n_wasted += wasted
        a = self.ewma
        state.ewma_waste += a * (wasted / n_sets - state.ewma_waste)
        state.ewma_accept += a * ((1.0 if first_accept >= 0 else 0.0) - state.ewma_accept)
        # Normalise the latency signal to the bucket's nominal group size
        # (a tail-guard or end-of-edge group is smaller than gs).
        per_test_s = elapsed_s / n_sets
        state.ewma_group_s += a * (per_test_s * state.gs - state.ewma_group_s)
        if state.n_groups < 2:
            return
        if state.ewma_waste > self.waste_shrink and state.gs > self.min_gs:
            state.gs = max(self.min_gs, state.gs // 2)
        elif (
            state.ewma_waste < self.waste_grow
            # Waste is only *observable* on acceptance, so a bucket at
            # gs=1 always reports zero waste; frequently-accepting
            # buckets must not grow on that blind spot (a doubled group
            # would turn every acceptance into wasted tail tests).
            and state.ewma_accept < 0.5
            and state.gs < self.max_gs
            and 2.0 * state.ewma_group_s <= self.target_group_seconds
        ):
            state.gs = min(self.max_gs, state.gs * 2)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def arena_hint(self, n_samples: int, chunk_groups: int = 4) -> dict:
        """Kernel-arena prewarm hint derived from the live bucket mix.

        Sizes the fused kernel's per-worker scratch
        (:func:`~repro.citests.tablebase.wave_arena_hint`) for a dispatch
        chunk of ``chunk_groups`` groups at the largest group size any
        bucket currently runs.
        """
        from ..citests.tablebase import wave_arena_hint

        rows = max((s.gs for s in self.buckets.values()), default=self.seed_gs)
        return wave_arena_hint(rows * chunk_groups, n_samples)

    def summary(self) -> dict:
        """Aggregate + per-bucket counters (diagnostics, benches, tests)."""
        n_tests = sum(s.n_tests for s in self.buckets.values())
        n_wasted = sum(s.n_wasted for s in self.buckets.values())
        return {
            "n_buckets": len(self.buckets),
            "n_groups": sum(s.n_groups for s in self.buckets.values()),
            "n_tests": n_tests,
            "n_wasted": n_wasted,
            "waste_ratio": (n_wasted / n_tests) if n_tests else 0.0,
            "buckets": {
                f"d{d}/adj{a}/ar{r}": s.as_dict()
                for (d, a, r), s in sorted(self.buckets.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveGroupScheduler(n_buckets={len(self.buckets)}, "
            f"seed_gs={self.seed_gs}, max_gs={self.max_gs})"
        )


def resolve_gs(gs, arities=None):
    """Normalise a ``gs`` argument into ``int`` or a scheduler.

    ``int`` passes through (validated), ``"auto"`` builds a fresh
    :class:`AdaptiveGroupScheduler`, and an existing scheduler instance is
    used as-is (callers may share one across depths or inspect it after
    the run).
    """
    if isinstance(gs, AdaptiveGroupScheduler):
        return gs
    if isinstance(gs, str):
        if gs == "auto":
            return AdaptiveGroupScheduler(arities=arities)
        raise ValueError(f"gs must be a positive int, 'auto', or a scheduler; got {gs!r}")
    gs = int(gs)
    if gs < 1:
        raise ValueError("gs must be >= 1")
    return gs


def resolve_fixed_gs(gs) -> int:
    """Normalise a ``gs`` argument for engines that need one fixed size.

    The sequential skeleton loop (and any non-CI granularity) consumes no
    live counters, so adaptive spellings resolve to their fixed
    equivalents instead of building a scheduler: ``"auto"`` becomes
    :data:`DEFAULT_SEED_GS`, a scheduler instance contributes its
    ``seed_gs``, ints validate and pass through.
    """
    if isinstance(gs, AdaptiveGroupScheduler):
        return int(gs.seed_gs)
    if isinstance(gs, str):
        if gs == "auto":
            return DEFAULT_SEED_GS
        raise ValueError(f"gs must be a positive int, 'auto', or a scheduler; got {gs!r}")
    gs = int(gs)
    if gs < 1:
        raise ValueError("gs must be >= 1")
    return gs
