"""Deliberately interpreted G^2 tester — the pcalg/tetrad-speed baseline.

The paper's Table III shows pcalg and tetrad running two to three orders of
magnitude slower than Fast-BNS-seq.  Their gap comes from per-sample
interpreted work in the contingency-table loop (R/Java dispatch per cell
update).  This tester reproduces that regime faithfully *in Python*: one
dictionary update per sample per test, no vectorisation.  Decisions are
bit-identical to :class:`~repro.citests.gsquare.GSquareTest` (same
statistic, dof and threshold), so it plugs into every engine as a slow but
correct baseline.

Never use this for real workloads — that is the point.
"""

from __future__ import annotations

from math import log
from collections.abc import Sequence

from ..datasets.dataset import DiscreteDataset
from .base import CITestCounters, CITestResult
from .contingency import n_configurations
from .tablebase import chi2_sf

__all__ = ["NaiveGSquareTest"]


class NaiveGSquareTest:
    """Per-sample-loop G^2 tester (same interface as ``GSquareTest``)."""

    def __init__(
        self,
        dataset: DiscreteDataset,
        alpha: float = 0.05,
        dof_adjust: str = "structural",
    ) -> None:
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if dof_adjust not in ("structural", "slices"):
            raise ValueError("dof_adjust must be 'structural' or 'slices'")
        self.dataset = dataset
        self.alpha = float(alpha)
        self.dof_adjust = dof_adjust
        self.counters = CITestCounters()

    def test(self, x: int, y: int, s: Sequence[int]) -> CITestResult:
        ds = self.dataset
        m = ds.n_samples
        s = tuple(int(v) for v in s)
        rx, ry = ds.arity(x), ds.arity(y)
        rz = [ds.arity(v) for v in s]
        nz_structural = n_configurations(rz)

        x_col = ds.column(x)
        y_col = ds.column(y)
        z_cols = ds.columns(s)

        # Interpreted contingency fill: one dict update per sample.
        counts: dict[tuple[int, int, int], int] = {}
        for i in range(m):
            z_code = 0
            for j, zc in enumerate(z_cols):
                z_code = z_code * rz[j] + int(zc[i])
            key = (z_code, int(x_col[i]), int(y_col[i]))
            counts[key] = counts.get(key, 0) + 1

        # Interpreted marginals.
        n_xz: dict[tuple[int, int], int] = {}
        n_yz: dict[tuple[int, int], int] = {}
        n_z: dict[int, int] = {}
        for (z_code, xv, yv), c in counts.items():
            n_xz[(z_code, xv)] = n_xz.get((z_code, xv), 0) + c
            n_yz[(z_code, yv)] = n_yz.get((z_code, yv), 0) + c
            n_z[z_code] = n_z.get(z_code, 0) + c

        stat = 0.0
        for (z_code, xv, yv), c in counts.items():
            expected = n_xz[(z_code, xv)] * n_yz[(z_code, yv)] / n_z[z_code]
            stat += c * log(c / expected)
        stat = max(2.0 * stat, 0.0)

        if self.dof_adjust == "structural":
            dof = (rx - 1) * (ry - 1) * float(nz_structural)
        else:
            dof = (rx - 1) * (ry - 1) * float(max(len(n_z), 1))
        p = chi2_sf(stat, dof)
        self.counters.record(
            depth=len(s), m=m, cells=len(counts), logs=len(counts), xy_reused=False
        )
        return CITestResult(
            x=x, y=y, s=s, statistic=stat, dof=dof, p_value=p, independent=p > self.alpha
        )

    def test_group(self, x: int, y: int, sets: Sequence[Sequence[int]]) -> list[CITestResult]:
        return [self.test(x, y, s) for s in sets]
