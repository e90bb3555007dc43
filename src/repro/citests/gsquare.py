"""G^2 (log-likelihood-ratio) conditional independence test.

The paper's experiments use the G^2 statistic (Sec. III-B, Sec. V-A)::

    G^2 = 2 * sum_{x,y,z} N_xyz * log(N_xyz / E_xyz),
    E_xyz = N_{x+z} * N_{+yz} / N_{++z}

G^2 is asymptotically chi-squared with ``(|X|-1)(|Y|-1) * prod_z |Z|``
degrees of freedom; the independence hypothesis is *accepted* when the
p-value exceeds the significance level (alpha = 0.05 in all paper
experiments).

Implementation notes
--------------------
* p-values use ``scipy.special.gammaincc(dof/2, stat/2)`` — the chi-squared
  survival function without ``scipy.stats`` dispatch overhead (thousands of
  tests per depth make per-call overhead visible).
* Cells with ``N = 0`` contribute zero to the sum (the usual convention);
  their expected counts may legitimately be zero too.
* ``dof_adjust="slices"`` ignores empty Z slices when counting degrees of
  freedom (bnlearn-style adjustment); the default ``"structural"`` matches
  the classical definition used by the paper.
* ``test_group`` runs through the batched group kernel — every table of a
  wave from one column pass, one flat scoring pass over the wave's cells,
  one ``gammaincc`` per wave — with the looped per-set path kept as the
  reference oracle (see :mod:`repro.citests.tablebase`).
"""

from __future__ import annotations

import numpy as np

from .tablebase import ContingencyTableTest

__all__ = ["GSquareTest"]


def _g2_elementwise(counts, n_xz, n_yz, n_z, out) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell G^2 terms from each cell's count and marginals.

    Returns ``(terms, mask)``: ``terms`` sums (over a table's cells) to
    ``G^2 / 2`` and ``mask`` marks the ``N > 0`` cells whose logs are
    billed.  The marginals ``N_x+z``, ``N_+yz``, ``N_++z`` are either
    broadcast views of one table's sums (the looped oracle) or one value
    per cell gathered for a whole wave (the fused path); ``out(key,
    dtype)`` gives each cell-shaped destination.  Both paths run these
    ufuncs over the same values, so their terms are bit-identical.
    """
    mask = np.greater(counts, 0, out=out("mask", np.bool_))
    # E_xyz = N_x+z * N_+yz / N_++z ; only needed where N > 0, and there
    # N_x+z, N_+yz, N_++z are all > 0, so the division is safe on the mask.
    expected = np.multiply(n_xz, n_yz, out=out("exp", np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        expected /= n_z
    ratio = out("terms", np.float64)
    ratio.fill(1.0)
    np.divide(counts, expected, out=ratio, where=mask)
    # Tables are sparse (deep sets leave most cells empty), so the
    # transcendental is masked to the occupied cells; the rest keep the
    # 1.0 fill and the multiply below zeroes them: 0 * 1.0 == +0.0.
    np.log(ratio, out=ratio, where=mask)
    ratio *= counts
    return ratio, mask


class GSquareTest(ContingencyTableTest):
    """G^2 CI tester bound to one dataset.

    All construction/caching/batching parameters are documented on
    :class:`~repro.citests.tablebase.ContingencyTableTest`.
    """

    def _elementwise(self, counts, n_xz, n_yz, n_z, out) -> tuple[np.ndarray, np.ndarray]:
        return _g2_elementwise(counts, n_xz, n_yz, n_z, out)

    def _finalize_stats(self, sums: np.ndarray) -> np.ndarray:
        return np.maximum(2.0 * sums, 0.0)

