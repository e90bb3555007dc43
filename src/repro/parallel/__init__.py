"""Parallel skeleton-phase backends (edge-, sample- and CI-level).

All three granularities of Fig. 1 are implemented and produce output
identical to the sequential engine; they differ only in scheduling, which is
the property under study.  All three run Algorithm 1's one depth loop,
:func:`~repro.core.skeleton.drive_skeleton`, on one worker pool,
:class:`~repro.parallel.backends.WorkerPool`: CI- and edge-level supply
their own per-depth search, and sample-level is a tester under the
sequential engine.  See the individual modules for the faithfulness notes
of each scheme.

Beyond the paper, this package adds the two serving-scale mechanisms of
the zero-copy PR: process workers attach the dataset through the
shared-memory plane (:mod:`repro.datasets.shm`, automatic with pickle
fallback), and the CI-level scheme accepts ``gs="auto"`` — an
:class:`~repro.parallel.adaptive.AdaptiveGroupScheduler` that re-sizes
CI-test groups per work item from live perf counters, feeding the batched
group kernel.  Neither changes any result bit.
"""

from __future__ import annotations

from ..citests.tablebase import wave_arena_hint
from ..core.result import SkeletonStats
from ..core.sepsets import SepSetStore
from ..core.trace import TraceRecorder
from ..datasets.dataset import DiscreteDataset
from ..graphs.undirected import UndirectedGraph
from .adaptive import AdaptiveGroupScheduler, resolve_gs
from .backends import WorkerPool
from .ci_level import ci_level_skeleton
from .edge_level import edge_level_skeleton
from .sample_level import sample_level_skeleton

__all__ = [
    "WorkerPool",
    "AdaptiveGroupScheduler",
    "resolve_gs",
    "ci_level_skeleton",
    "edge_level_skeleton",
    "sample_level_skeleton",
    "run_parallel_skeleton",
]


def run_parallel_skeleton(
    dataset: DiscreteDataset,
    parallelism: str = "ci",
    n_jobs: int = 2,
    backend: str = "process",
    gs: int | str | AdaptiveGroupScheduler = 1,
    group_endpoints: bool = True,
    max_depth: int | None = None,
    alpha: float = 0.05,
    test: str = "g2",
    dof_adjust: str = "structural",
    recorder: TraceRecorder | None = None,
    batch_groups: bool = True,
    use_shm: bool | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Dispatch the skeleton phase to the requested parallel granularity.

    Workers build their own testers; pass the same
    ``test``/``alpha``/``dof_adjust`` the sequential run would use.
    ``batch_groups=False`` is the baseline regime: every worker's tester
    re-derives the endpoint codes per test and runs the looped per-set
    path (mirrors the sequential baselines in
    :func:`repro.core.learn.learn_structure`).
    ``gs`` accepts a fixed size, ``"auto"`` or a scheduler (CI-level only);
    ``use_shm`` is forwarded to the :class:`WorkerPool` dataset transport.
    """
    if parallelism not in ("ci", "edge", "sample"):
        raise ValueError(f"unknown parallelism {parallelism!r}")
    if parallelism == "sample":
        return sample_level_skeleton(
            dataset,
            dataset.n_variables,
            n_jobs=n_jobs,
            backend=backend,
            alpha=alpha,
            dof_adjust=dof_adjust,
            group_endpoints=group_endpoints,
            max_depth=max_depth,
            recorder=recorder,
            use_shm=use_shm,
        )
    arena_hint = None
    if parallelism == "ci":
        # Resolve gs up front so the workers' kernel arenas can be
        # prewarmed for the group sizes this run will actually dispatch
        # (adaptive: live bucket mix; fixed: gs times the chunking factor).
        gs = resolve_gs(
            gs, arities=tuple(int(dataset.arity(i)) for i in range(dataset.n_variables))
        )
        if isinstance(gs, AdaptiveGroupScheduler):
            arena_hint = gs.arena_hint(dataset.n_samples)
        else:
            arena_hint = wave_arena_hint(max(int(gs), 1) * 4, dataset.n_samples)
    with WorkerPool(
        dataset,
        n_jobs,
        backend=backend,
        test=test,
        alpha=alpha,
        dof_adjust=dof_adjust,
        batch_groups=batch_groups,
        use_shm=use_shm,
        arena_hint=arena_hint,
    ) as workers:
        if parallelism == "ci":
            return ci_level_skeleton(
                workers,
                dataset.n_variables,
                gs=gs,
                group_endpoints=group_endpoints,
                max_depth=max_depth,
                recorder=recorder,
                n_samples=dataset.n_samples,
            )
        return edge_level_skeleton(
            workers,
            dataset.n_variables,
            group_endpoints=group_endpoints,
            max_depth=max_depth,
            recorder=recorder,
        )
