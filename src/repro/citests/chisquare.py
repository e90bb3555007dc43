"""Pearson chi-squared conditional independence test.

The paper mentions the chi-squared test as one of the statistics usable by
constraint-based learners (Sec. II).  Identical table machinery to
:class:`~repro.citests.gsquare.GSquareTest` — shared through
:class:`~repro.citests.tablebase.ContingencyTableTest`, including the
batched group kernel — only the statistic differs::

    X^2 = sum_{x,y,z} (N_xyz - E_xyz)^2 / E_xyz
"""

from __future__ import annotations

import numpy as np

from .tablebase import ContingencyTableTest

__all__ = ["ChiSquareTest"]


def _x2_elementwise(counts, n_xz, n_yz, n_z, out) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell X^2 terms from each cell's count and marginals.

    Returns ``(terms, mask)``; ``terms`` sums to the statistic over the
    ``E > 0`` cells marked by ``mask``.  Called with broadcast marginals by
    the looped oracle and with gathered per-cell marginals by the fused
    path (see :func:`repro.citests.gsquare._g2_elementwise`), so both are
    bit-identical cell for cell.
    """
    expected = np.multiply(n_xz, n_yz, out=out("exp", np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        expected /= n_z
    mask = np.greater(expected, 0, out=out("mask", np.bool_))
    terms = out("terms", np.float64)
    terms.fill(0.0)
    np.subtract(counts, expected, out=terms, where=mask)
    np.multiply(terms, terms, out=terms)
    np.divide(terms, expected, out=terms, where=mask)
    return terms, mask


class ChiSquareTest(ContingencyTableTest):
    """Pearson X^2 CI tester bound to one dataset (same interface as
    :class:`~repro.citests.gsquare.GSquareTest`)."""

    def _elementwise(self, counts, n_xz, n_yz, n_z, out) -> tuple[np.ndarray, np.ndarray]:
        return _x2_elementwise(counts, n_xz, n_yz, n_z, out)

    def _finalize_stats(self, sums: np.ndarray) -> np.ndarray:
        return np.asarray(sums, dtype=np.float64)
