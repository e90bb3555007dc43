"""Common CI-test interfaces, result record and instrumentation counters."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import NamedTuple, Protocol, runtime_checkable

__all__ = [
    "CITestResult",
    "CITestCounters",
    "ConditionalIndependenceTest",
    "evaluate_groups",
    "evaluate_prefix",
    "group_prefix",
]


class CITestResult(NamedTuple):
    """Outcome of one CI test ``I(x, y | s)``.

    ``independent`` is the accept/reject decision at the tester's
    significance level: ``p_value > alpha`` accepts the independence
    hypothesis (paper Sec. III-B).

    A ``NamedTuple`` rather than a frozen dataclass: group-batched learns
    materialise one record per test (tens of thousands per skeleton pass),
    and tuple construction is ~3x cheaper than ``object.__setattr__``-based
    frozen-dataclass init while keeping immutability and field names.
    """

    x: int
    y: int
    s: tuple[int, ...]
    statistic: float
    dof: float
    p_value: float
    independent: bool


@dataclass
class CITestCounters:
    """Work counters accumulated by a tester.

    These drive the cost model and the simulated perf counters (Table IV):
    ``data_accesses`` counts per-sample per-variable reads while filling
    contingency tables (``m * (d + 2)`` per test, the quantity in the
    paper's Sec. IV-D cache analysis); ``table_cells`` counts allocated
    contingency cells; ``log_ops`` counts the G^2 log evaluations (the
    FLOPS analog).

    When the tester pulls tables through a
    :class:`~repro.engine.statscache.SufficientStatsCache`, ``cache_hits``
    and ``cache_misses`` split the tests into those answered without
    touching the data (a hit contributes **zero** data accesses — the whole
    point of the cache) and those that paid the full scan.
    """

    n_tests: int = 0
    data_accesses: int = 0
    table_cells: int = 0
    log_ops: int = 0
    per_depth_tests: dict[int, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    def record(
        self,
        depth: int,
        m: int,
        cells: int,
        logs: int,
        xy_reused: bool,
        from_cache: bool | None = None,
    ) -> None:
        """Account one executed test.

        ``from_cache`` is ``None`` when no stats cache is attached, ``True``
        for a test whose table came out of the cache, ``False`` for a
        cache-enabled test that had to build its table from the data (and
        is billed exactly like an uncached test).
        """
        self.n_tests += 1
        if from_cache:
            self.cache_hits += 1
        else:
            if from_cache is not None:
                self.cache_misses += 1
            # A group-evaluated test reuses the already-encoded (x, y)
            # columns, so it touches only the d conditioning columns
            # instead of d + 2; a cache hit touches none.
            cols = depth + (0 if xy_reused else 2)
            self.data_accesses += m * cols
        self.table_cells += cells
        self.log_ops += logs
        self.per_depth_tests[depth] = self.per_depth_tests.get(depth, 0) + 1

    def reset(self) -> None:
        self.n_tests = 0
        self.data_accesses = 0
        self.table_cells = 0
        self.log_ops = 0
        self.per_depth_tests = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def snapshot(self) -> "CITestCounters":
        out = CITestCounters(
            self.n_tests,
            self.data_accesses,
            self.table_cells,
            self.log_ops,
            dict(self.per_depth_tests),
            self.cache_hits,
            self.cache_misses,
        )
        return out


@runtime_checkable
class ConditionalIndependenceTest(Protocol):
    """Protocol every CI tester implements.

    ``test_group`` evaluates several conditioning sets for the *same*
    endpoint pair and is the hook for the paper's group-evaluation
    optimisation (shared X/Y work across a gs-sized group).
    """

    alpha: float
    counters: CITestCounters

    def test(self, x: int, y: int, s: Sequence[int]) -> CITestResult: ...

    def test_group(
        self, x: int, y: int, sets: Sequence[Sequence[int]]
    ) -> list[CITestResult]: ...


def evaluate_groups(
    tester: ConditionalIndependenceTest,
    items: Sequence[tuple[int, int, Sequence[Sequence[int]]]],
) -> list[list[CITestResult]]:
    """Evaluate ``(x, y, sets)`` endpoint groups on any tester.

    Testers exposing ``test_groups`` get every item in one call (the fused
    kernel then builds tables *across* the items' edges); the others (the
    naive baseline, the d-separation oracle) run one ``test_group`` per
    item.  Per-set results are the same either way.
    """
    grouped = getattr(tester, "test_groups", None)
    if grouped is not None:
        return grouped(items)
    return [tester.test_group(x, y, sets) for x, y, sets in items]


def evaluate_prefix(
    tester: ConditionalIndependenceTest,
    items: Sequence[tuple[int, int, Sequence[Sequence[int]]]],
    gs: int,
) -> list[list[CITestResult]]:
    """Evaluate each item's consecutive ``gs``-groups up to its first accept.

    Per item, the returned results cover every group up to and including
    the first one holding an accepting set — exactly what evaluating the
    groups one at a time and stopping at the first accept would return.
    Testers exposing ``test_groups`` evaluate all groups of all items in
    one ``test_groups(items, prefix=gs)`` call and discard the rest
    without a trace; the others run one ``test_group`` per group and stop
    at the first accept.
    """
    grouped = getattr(tester, "test_groups", None)
    if grouped is not None:
        return grouped(items, prefix=gs)
    return [group_prefix(tester.test_group, x, y, sets, gs) for x, y, sets in items]


def group_prefix(
    test_group: Callable[[int, int, Sequence[Sequence[int]]], list[CITestResult]],
    x: int,
    y: int,
    sets: Sequence[Sequence[int]],
    gs: int,
) -> list[CITestResult]:
    """One ``test_group`` call per ``gs``-group of ``sets``, stopping after
    the first group that holds an accepting set (nothing is discarded)."""
    kept: list[CITestResult] = []
    for b in range(0, len(sets), gs):
        res = test_group(x, y, sets[b : b + gs])
        kept.extend(res)
        if any(r.independent for r in res):
            break
    return kept
