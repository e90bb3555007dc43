"""High-level structure-learning front-end.

``learn_structure`` wires together the tester, the skeleton engine (or a
parallel backend), and the orientation phase, and packages everything into a
:class:`~repro.core.result.LearnResult`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from ..citests.base import ConditionalIndependenceTest
from ..citests.chisquare import ChiSquareTest
from ..citests.gsquare import GSquareTest
from ..citests.mutual_info import MutualInformationTest
from ..citests.naive import NaiveGSquareTest
from ..datasets.dataset import DiscreteDataset
from .orientation import orient_skeleton
from .result import LearnResult
from .skeleton import learn_skeleton
from .trace import TraceRecorder

__all__ = ["learn_structure", "make_tester", "METHODS", "TESTS", "PARALLELISMS"]

METHODS = ("fast-bns", "pc-stable", "pc-stable-naive")
TESTS = ("g2", "chi2", "mi")
PARALLELISMS = ("ci", "edge", "sample")


def make_tester(
    dataset: DiscreteDataset,
    test: str | ConditionalIndependenceTest = "g2",
    alpha: float = 0.05,
    dof_adjust: str = "structural",
    stats_cache=None,
    encoded=None,
    arena=None,
    batch_groups: bool = True,
) -> ConditionalIndependenceTest:
    """Instantiate a CI tester by name, or pass an instance through.

    ``stats_cache`` optionally attaches a
    :class:`~repro.engine.statscache.SufficientStatsCache` so the tester
    serves repeated contingency tables from memory (the
    :class:`~repro.engine.session.LearningSession` path); ``encoded``
    optionally shares a :class:`~repro.datasets.encoded.EncodedDataset`
    across testers so column/endpoint encodings are derived once per
    dataset; ``arena`` optionally shares a
    :class:`~repro.citests.arena.KernelArena` so the fused group kernel's
    scratch buffers are reused across a tester family (one per worker
    process); ``batch_groups=False`` keeps the looped per-set reference
    path.  The naive tester ignores all four (its per-sample
    interpretation *is* the point).
    """
    if not isinstance(test, str):
        return test
    if test == "g2":
        return GSquareTest(
            dataset,
            alpha=alpha,
            dof_adjust=dof_adjust,
            stats_cache=stats_cache,
            encoded=encoded,
            arena=arena,
            batch_groups=batch_groups,
        )
    if test == "chi2":
        return ChiSquareTest(
            dataset,
            alpha=alpha,
            dof_adjust=dof_adjust,
            stats_cache=stats_cache,
            encoded=encoded,
            arena=arena,
            batch_groups=batch_groups,
        )
    if test == "mi":
        return MutualInformationTest(
            dataset,
            alpha=alpha,
            dof_adjust=dof_adjust,
            stats_cache=stats_cache,
            encoded=encoded,
            arena=arena,
            batch_groups=batch_groups,
        )
    if test == "g2-naive":
        return NaiveGSquareTest(dataset, alpha=alpha, dof_adjust=dof_adjust)
    raise ValueError(f"unknown test {test!r}; choose from {TESTS + ('g2-naive',)}")


def _coerce_dataset(
    data: DiscreteDataset | np.ndarray,
    arities: Sequence[int] | None,
    layout: str,
) -> DiscreteDataset:
    if isinstance(data, DiscreteDataset):
        return data.with_layout(layout)
    return DiscreteDataset.from_rows(np.asarray(data), arities=arities, layout=layout)


def learn_structure(
    data: DiscreteDataset | np.ndarray,
    arities: Sequence[int] | None = None,
    method: str = "fast-bns",
    test: str | ConditionalIndependenceTest = "g2",
    alpha: float = 0.05,
    gs: int | str = 1,
    n_jobs: int = 1,
    parallelism: str = "ci",
    backend: str = "process",
    max_depth: int | None = None,
    dof_adjust: str = "structural",
    apply_r4: bool = False,
    v_structures: str = "standard",
    recorder: TraceRecorder | None = None,
    use_shm: bool | None = None,
) -> LearnResult:
    """Learn a Bayesian-network CPDAG from complete discrete data.

    Parameters
    ----------
    data:
        A :class:`DiscreteDataset`, or a ``(n_samples, n_variables)`` array
        of category codes (``arities`` then optional).
    method:
        ``"fast-bns"`` — all paper optimisations (endpoint grouping,
        variable-major storage, on-the-fly conditioning sets);
        ``"pc-stable"`` — reference baseline (per-direction work items,
        sample-major storage, materialised conditioning sets);
        ``"pc-stable-naive"`` — the reference decomposition driven by the
        interpreted per-sample tester (pcalg/tetrad speed analog).
    test:
        ``"g2"`` (paper default), ``"chi2"``, ``"mi"``, or a tester object.
    alpha:
        Significance level (0.05 in all paper experiments).
    gs:
        Fast-BNS group size (Sec. IV-B); ignored by the baselines.
        ``"auto"`` turns on adaptive sizing: the CI-level parallel path
        runs an :class:`~repro.parallel.adaptive.AdaptiveGroupScheduler`
        (per-work-item sizes from live perf counters), the sequential
        path resolves to the fixed
        :data:`~repro.parallel.adaptive.DEFAULT_SEED_GS`.  Results are
        bit-identical for every choice.
    n_jobs, parallelism, backend:
        ``n_jobs > 1`` runs the skeleton phase in parallel with the chosen
        granularity: ``"ci"`` (Fast-BNS work pool), ``"edge"`` (static
        edge partition), or ``"sample"`` (per-test sample splitting);
        ``backend`` picks ``"process"`` or ``"thread"`` workers.
    max_depth:
        Optional cap on conditioning-set size.
    apply_r4:
        Also close orientations under Meek rule R4.
    v_structures:
        ``"standard"`` — orient colliders from the recorded separating
        sets (classic PC-stable); ``"conservative"`` / ``"majority"`` —
        re-test every unshielded triple against all separating subsets
        (CPC / MPC of Colombo & Maathuis) at the cost of extra CI tests.
    recorder:
        Optional :class:`TraceRecorder` capturing the execution trace for
        the multi-core simulator.
    use_shm:
        Dataset transport for process workers (see
        :class:`~repro.parallel.backends.WorkerPool`): ``None`` attaches
        them through the zero-copy shared-memory plane when available.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if parallelism not in PARALLELISMS:
        raise ValueError(f"unknown parallelism {parallelism!r}; choose from {PARALLELISMS}")
    if v_structures not in ("standard", "conservative", "majority"):
        raise ValueError(
            f"unknown v_structures rule {v_structures!r}; "
            "choose 'standard', 'conservative' or 'majority'"
        )

    if method == "fast-bns":
        layout = "variable-major"
        group_endpoints = True
        onthefly = True
    else:
        layout = "sample-major"
        group_endpoints = False
        onthefly = False
        gs = 1
    if n_jobs == 1 or parallelism != "ci":
        # Only the CI-level parallel scheduler consumes live counters;
        # everything else runs the documented fixed fallback.  (The CI
        # path resolves "auto" itself, with the pool's arity info.)
        from ..parallel.adaptive import resolve_fixed_gs

        gs = resolve_fixed_gs(gs)

    dataset = _coerce_dataset(data, arities, layout)
    if method == "pc-stable-naive":
        tester = make_tester(dataset, "g2-naive", alpha=alpha, dof_adjust=dof_adjust)
    elif method == "fast-bns":
        tester = make_tester(dataset, test, alpha=alpha, dof_adjust=dof_adjust)
    else:
        # Baselines re-derive encodings per test and evaluate one set at
        # a time, like the reference implementations they stand in for:
        # a memoizing encoding layer or the fused cross-edge kernel would
        # erase part of the contrast under study.
        from ..datasets.encoded import EncodedDataset

        tester = make_tester(
            dataset,
            test,
            alpha=alpha,
            dof_adjust=dof_adjust,
            encoded=EncodedDataset(dataset, memoize=False),
            batch_groups=False,
        )

    t0 = time.perf_counter()
    if n_jobs == 1:
        skeleton, sepsets, stats = learn_skeleton(
            tester,
            dataset.n_variables,
            gs=gs,
            group_endpoints=group_endpoints,
            onthefly=onthefly,
            max_depth=max_depth,
            recorder=recorder,
        )
    else:
        from ..parallel import run_parallel_skeleton

        skeleton, sepsets, stats = run_parallel_skeleton(
            dataset,
            tester,
            parallelism=parallelism,
            n_jobs=n_jobs,
            backend=backend,
            gs=gs,
            group_endpoints=group_endpoints,
            max_depth=max_depth,
            alpha=alpha,
            test=test if isinstance(test, str) else "g2",
            dof_adjust=dof_adjust,
            recorder=recorder,
            memoize_encodings=method == "fast-bns",
            use_shm=use_shm,
        )
    t1 = time.perf_counter()
    if v_structures == "standard":
        cpdag = orient_skeleton(skeleton, sepsets, apply_r4=apply_r4)
    else:
        from .conservative import orient_skeleton_robust

        cpdag, _classification = orient_skeleton_robust(
            tester, skeleton, sepsets, rule=v_structures, apply_r4=apply_r4
        )
    t2 = time.perf_counter()

    return LearnResult(
        cpdag=cpdag,
        skeleton=skeleton,
        sepsets=sepsets,
        stats=stats,
        names=dataset.names,
        elapsed={
            "skeleton": t1 - t0,
            "orientation": t2 - t1,
            "total": t2 - t0,
        },
    )
