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
* ``test_group`` runs through the batched group kernel — tables from one
  offset-stacked ``bincount``, statistics over the stacked array, one
  ``gammaincc`` per group — with the looped per-set path kept as the
  reference oracle (see :mod:`repro.citests.tablebase`).
"""

from __future__ import annotations

import numpy as np

from .tablebase import ContingencyTableTest

__all__ = ["GSquareTest"]


def _g2_elementwise(
    counts: np.ndarray, scratch=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell G^2 terms of a ``(..., nz, rx, ry)`` count array.

    Returns ``(terms, mask, n_z)`` where ``terms`` sums (over cells) to
    ``G^2 / 2``, ``mask`` marks the ``N > 0`` cells whose logs are billed,
    and ``n_z`` are the per-slice totals.  Shared by the looped single-table
    path and the fused stack path, so both compute bit-identical values
    cell for cell.

    With ``scratch`` (a :class:`~repro.citests.tablebase._Scratch` over the
    kernel arena) every large intermediate lives in a reused buffer — the
    same ufuncs applied to the same operands, only the destinations differ,
    so the values are bit-identical to the allocating form.  The returned
    arrays are only valid until the next scratch-backed call.
    """
    shape = counts.shape
    if scratch is None:
        n_xz = counts.sum(axis=-1, dtype=np.float64)
        n_yz = counts.sum(axis=-2, dtype=np.float64)
        n_z = n_xz.sum(axis=-1)
        observed = counts.astype(np.float64)
        mask = observed > 0
        expected = n_xz[..., :, None] * n_yz[..., None, :]
        ratio = np.ones_like(observed)
    else:
        n_xz = counts.sum(axis=-1, dtype=np.float64, out=scratch.f64("nxz", shape[:-1]))
        n_yz = counts.sum(
            axis=-2, dtype=np.float64, out=scratch.f64("nyz", shape[:-2] + shape[-1:])
        )
        n_z = n_xz.sum(axis=-1, out=scratch.f64("nz", shape[:-2]))
        # The integer count array serves as ``observed`` directly: the
        # comparison, the division and the final multiply all promote it
        # to float64 element by element — exactly the values the looped
        # branch's materialised float copy feeds them — without the cast
        # pass or the scratch slot.
        observed = counts
        mask = np.greater(counts, 0, out=scratch.bool_("mask", shape))
        expected = np.multiply(
            n_xz[..., :, None], n_yz[..., None, :], out=scratch.f64("exp", shape)
        )
        ratio = scratch.f64("terms", shape)
        ratio.fill(1.0)
    # E_xyz = N_x+z * N_+yz / N_++z ; only needed where N > 0, and there
    # N_x+z, N_+yz, N_++z are all > 0, so the division is safe on the mask.
    with np.errstate(divide="ignore", invalid="ignore"):
        expected /= n_z[..., None, None]
    np.divide(observed, expected, out=ratio, where=mask)
    if scratch is None:
        np.log(ratio, out=ratio)
    else:
        # Fused stacks are sparse (deep sets leave most cells empty), so
        # the transcendental is masked to the occupied cells.  Masked
        # cells keep the 1.0 fill and the multiply below zeroes the term
        # either way — ``0 * 1.0 == 0 * log(1.0) == +0.0`` exactly — so
        # the terms stay bit-identical to the looped oracle's full log.
        np.log(ratio, out=ratio, where=mask)
    ratio *= observed
    return ratio, mask, n_z


def _g2_from_counts(counts: np.ndarray) -> tuple[float, int, int]:
    """G^2 statistic from an ``(nz, rx, ry)`` table.

    Returns ``(statistic, n_log_evaluations, n_nonempty_z_slices)``.
    """
    terms, mask, n_z = _g2_elementwise(counts)
    n_nonempty = int(np.count_nonzero(n_z > 0))
    n_logs = int(np.count_nonzero(mask))
    if n_logs == 0:
        return 0.0, 0, n_nonempty
    stat = 2.0 * float(terms.sum())
    # Numerical noise can push an exactly-zero statistic slightly negative.
    return max(stat, 0.0), n_logs, n_nonempty


class GSquareTest(ContingencyTableTest):
    """G^2 CI tester bound to one dataset.

    All construction/caching/batching parameters are documented on
    :class:`~repro.citests.tablebase.ContingencyTableTest`.
    """

    def _stat_from_counts(self, counts: np.ndarray) -> tuple[float, int, int]:
        return _g2_from_counts(counts)

    def _elementwise(
        self, stack: np.ndarray, scratch=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _g2_elementwise(stack, scratch)

    def _finalize_stats(self, sums: np.ndarray) -> np.ndarray:
        return np.maximum(2.0 * sums, 0.0)

