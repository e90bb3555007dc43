"""Sample-level parallel skeleton phase (the fine-grained scheme, Sec. IV-A).

Every CI test's contingency-table fill is split across workers: each worker
counts its slice of the samples into a private table and the master merges
the partial tables (the "local contingency table per thread" variant the
paper describes; the atomic-increment variant has no faithful shared-memory
analog in Python, and the paper already concludes the local-table variant
is the better of the two).  The algorithmic order is the sequential gs = 1
Fast-BNS order, so results are identical — only the per-test fork/join
overhead and merge cost differ, which is exactly the scheme's weakness:
thousands of tiny parallel regions.

The scheme is therefore a *tester*, not an engine: :class:`SampleSlicedG2Test`
is a looped :class:`~repro.citests.gsquare.GSquareTest` whose table build
forks the count over a :class:`~repro.parallel.backends.WorkerPool`, and
the skeleton is the sequential :func:`~repro.core.skeleton.learn_skeleton`
at ``gs=1`` over it — same depth loop, statistics and counters.  A looped
tester never evaluates a test past an edge's first accept, so every test is
one fork/join.  Workers count over their own dataset: the attached
shared-memory block or the pickled copy for processes, the caller's arrays
for threads.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..citests.contingency import n_configurations
from ..citests.gsquare import GSquareTest
from ..core.result import SkeletonStats
from ..core.sepsets import SepSetStore
from ..core.skeleton import learn_skeleton
from ..core.trace import TraceRecorder
from ..datasets.dataset import DiscreteDataset
from ..graphs.undirected import UndirectedGraph
from .backends import WorkerPool

__all__ = ["sample_level_skeleton", "parallel_contingency", "SampleSlicedG2Test"]


def parallel_contingency(
    workers: WorkerPool, dataset: DiscreteDataset, x: int, y: int, s: Sequence[int]
) -> tuple[np.ndarray, int] | None:
    """Contingency table of ``I(x, y | s)`` computed by sample slicing.

    Returns ``(counts, nz_structural)`` with ``counts`` shaped
    ``(nz, rx, ry)``, or ``None`` when the dense table would exceed ``4·m``
    cells, too large for slice-private tables (the caller then builds the
    compressed table sequentially; such deep tests are rare).
    """
    m = dataset.n_samples
    rx, ry = dataset.arity(x), dataset.arity(y)
    nz = n_configurations([dataset.arity(v) for v in s])
    table_size = nz * rx * ry
    if table_size > 4 * max(m, 1):
        return None
    bounds = np.linspace(0, m, workers.n_jobs + 1, dtype=np.int64)
    jobs = [
        (x, y, tuple(int(v) for v in s), int(bounds[k]), int(bounds[k + 1]), table_size)
        for k in range(workers.n_jobs)
        if bounds[k] < bounds[k + 1]
    ]
    counts = np.sum(workers.partial_counts(jobs), axis=0).reshape(nz, rx, ry)
    return counts, nz


class SampleSlicedG2Test(GSquareTest):
    """Looped G^2 tester whose table fills are split across ``workers``;
    scoring, dof and counters are the inherited ones."""

    def __init__(
        self,
        dataset: DiscreteDataset,
        workers: WorkerPool,
        alpha: float = 0.05,
        dof_adjust: str = "structural",
    ) -> None:
        # Looped, so no endpoint codes are kept: slices count their own,
        # and a memo would only hold one unread m-length array per pair.
        super().__init__(dataset, alpha=alpha, dof_adjust=dof_adjust, batch_groups=False)
        self.workers = workers

    def _table(self, x, y, s, rx, ry, xy_codes):
        parts = parallel_contingency(self.workers, self.dataset, x, y, s)
        return super()._table(x, y, s, rx, ry, xy_codes) if parts is None else parts


def sample_level_skeleton(
    dataset: DiscreteDataset,
    n_nodes: int,
    n_jobs: int,
    backend: str = "process",
    alpha: float = 0.05,
    dof_adjust: str = "structural",
    group_endpoints: bool = True,
    max_depth: int | None = None,
    recorder: TraceRecorder | None = None,
    use_shm: bool | None = None,
) -> tuple[UndirectedGraph, SepSetStore, SkeletonStats]:
    """Run the skeleton phase with sample-level parallelism (G^2 test).

    ``backend`` and ``use_shm`` follow the
    :class:`~repro.parallel.backends.WorkerPool` contract.
    """
    if recorder is not None:
        raise ValueError("trace recording is not supported by the sample-level backend")
    if n_nodes != dataset.n_variables:
        raise ValueError("n_nodes must equal the dataset's variable count")
    with WorkerPool(dataset, n_jobs, backend=backend, use_shm=use_shm) as workers:
        return learn_skeleton(
            SampleSlicedG2Test(dataset, workers, alpha=alpha, dof_adjust=dof_adjust),
            n_nodes,
            gs=1,
            group_endpoints=group_endpoints,
            onthefly=True,
            max_depth=max_depth,
        )
