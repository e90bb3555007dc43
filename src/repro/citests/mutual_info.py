"""Conditional mutual-information CI test.

The empirical conditional mutual information relates to G^2 by
``G^2 = 2 * m * MI(X; Y | Z)`` (natural log), so the test reuses the G^2
machinery and thresholds either on the chi-squared p-value (default,
statistically calibrated) or on a raw MI threshold (``threshold`` mode,
as used by some gene-network pipelines cited in the paper's related work).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..datasets.dataset import DiscreteDataset
from .base import CITestResult
from .gsquare import GSquareTest

__all__ = ["MutualInformationTest"]


class MutualInformationTest:
    """MI-based CI tester (same interface as :class:`GSquareTest`).

    Parameters
    ----------
    mode:
        ``"pvalue"`` — decide through the G^2 chi-squared p-value;
        ``"threshold"`` — accept independence when the empirical
        MI (in nats) falls below ``mi_threshold``.
    """

    def __init__(
        self,
        dataset: DiscreteDataset,
        alpha: float = 0.05,
        mode: str = "pvalue",
        mi_threshold: float = 0.01,
        dof_adjust: str = "structural",
        stats_cache=None,
        batch_groups: bool = True,
        arena=None,
    ) -> None:
        if mode not in ("pvalue", "threshold"):
            raise ValueError("mode must be 'pvalue' or 'threshold'")
        self._g2 = GSquareTest(
            dataset,
            alpha=alpha,
            dof_adjust=dof_adjust,
            stats_cache=stats_cache,
            batch_groups=batch_groups,
            arena=arena,
        )
        self.dataset = dataset
        self.alpha = float(alpha)
        self.mode = mode
        self.mi_threshold = float(mi_threshold)

    @property
    def counters(self):
        return self._g2.counters

    @property
    def _builder(self):
        """Expose the inner tester's cache builder so cache introspection
        (worker stats probes) sees through the MI wrapper."""
        return self._g2._builder

    @property
    def batch_groups(self) -> bool:
        """The inner G^2 tester's regime (fused or looped)."""
        return self._g2.batch_groups

    def _columns(self):
        """The column matrix the inner G^2 tester's kernel reads (worker
        warm-up touches it through the wrapper)."""
        return self._g2._columns()

    def mutual_information(self, x: int, y: int, s: Sequence[int]) -> float:
        """Empirical conditional mutual information in nats."""
        res = self._g2.test(x, y, s)
        return res.statistic / (2.0 * self.dataset.n_samples)

    def test(self, x: int, y: int, s: Sequence[int]) -> CITestResult:
        return self._decide(self._g2.test(x, y, s))

    def test_group(self, x: int, y: int, sets: Sequence[Sequence[int]]) -> list[CITestResult]:
        return [self._decide(r) for r in self._g2.test_group(x, y, sets)]

    def test_groups(self, items, prefix: int | None = None) -> list[list[CITestResult]]:
        # The kept prefix must follow this tester's decisions, not G^2's.
        decide = None if self.mode == "pvalue" else self._decide
        return self._g2.test_groups(items, prefix=prefix, decide=decide)

    @property
    def arena(self):
        return self._g2.arena

    def _decide(self, res: CITestResult) -> CITestResult:
        if self.mode == "pvalue":
            return res
        mi = res.statistic / (2.0 * self.dataset.n_samples)
        return CITestResult(
            x=res.x,
            y=res.y,
            s=res.s,
            statistic=mi,
            dof=res.dof,
            p_value=res.p_value,
            independent=mi < self.mi_threshold,
        )
