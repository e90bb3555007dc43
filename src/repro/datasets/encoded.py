"""Shared encoded-dataset layer.

The looped (per-set) CI tests start by re-deriving the same integer
encoding from the raw category columns: the endpoint pair is folded into
per-sample cell codes ``x * ry + y``.  Across a learning run the same
``(x, y)`` pairs are encoded thousands of times — pure re-computation,
because encodings depend only on the data.

:class:`EncodedDataset` memoizes the derived artefacts for one
:class:`~repro.datasets.dataset.DiscreteDataset`:

* ``xy_codes(x, y)`` — the per-sample endpoint cell codes, memoized per
  ordered pair under a bounded LRU (pairs are quadratic in the variable
  count, so the table is capped);
* ``cols_matrix()`` — the narrow variable-major column matrix the fused
  column kernel reads when the dataset's own values are not already
  stored that way.

The fused kernel stores no codes at all: it builds every cell index on
the fly from the columns (:func:`repro.citests.contingency.column_counts`).

One instance is meant to be shared by everything testing against the same
dataset: the sequential engine's testers, every worker thread of a
:class:`~repro.parallel.backends.WorkerPool`, and a
:class:`~repro.engine.session.LearningSession`'s whole tester family.
Process workers build their own instance over the dataset they attach
(:mod:`repro.datasets.shm`).  Encodings are bit-identical to the unshared
path — the memoized arrays hold the same values the testers would have
derived inline — so sharing changes speed and nothing else.

The memoization is deliberately **not** credited in the CI-test work
counters (:class:`~repro.citests.base.CITestCounters`): those model the
paper's abstract per-test data-access machine (Sec. IV-D) and must stay
comparable across PRs and to the paper's Table IV, whereas this layer is a
constant-factor implementation optimisation.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .dataset import DiscreteDataset

__all__ = ["EncodedDataset"]

#: Default cap on memoized endpoint-pair encodings.  Each entry costs
#: ``8 * n_samples`` bytes; 512 pairs over a 10k-sample dataset is ~40 MB,
#: the same order as the default sufficient-statistics cache budget.
DEFAULT_MAX_XY_ENTRIES = 512


class EncodedDataset:
    """Memoized integer encodings over one dataset (see module docstring).

    Parameters
    ----------
    dataset:
        The dataset to encode.  The instance never copies or re-layouts
        the data; it only caches derived arrays.
    max_xy_entries:
        LRU bound on memoized ``(x, y)`` pair encodings.  ``0`` disables
        pair memoization entirely — used by the baseline learners
        (``pc-stable`` and friends), which must keep re-deriving the
        endpoint codes per test the way the reference implementations do.
    """

    def __init__(
        self, dataset: DiscreteDataset, max_xy_entries: int = DEFAULT_MAX_XY_ENTRIES
    ) -> None:
        if max_xy_entries < 0:
            raise ValueError("max_xy_entries must be >= 0")
        self.dataset = dataset
        self.max_xy_entries = int(max_xy_entries)
        self._cols_matrix: np.ndarray | None = None
        self._xy: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()

    # ------------------------------------------------------------------ #
    # memoized encodings
    # ------------------------------------------------------------------ #
    def xy_codes(self, x: int, y: int) -> np.ndarray:
        """Per-sample endpoint cell codes ``x * ry + y`` (read-only).

        Bit-identical to the inline ``column(x).astype(int64) * ry +
        column(y)`` every tester would otherwise compute per group.
        """
        key = (int(x), int(y))
        codes = self._xy.get(key)
        if codes is not None:
            # The instance may be shared across worker threads (thread
            # backend); a concurrent eviction between the get and this
            # recency refresh is harmless — the codes are already in hand.
            try:
                self._xy.move_to_end(key)
            except KeyError:
                pass
            return codes
        ds = self.dataset
        codes = ds.column(key[0]).astype(np.int64) * ds.arity(key[1])
        codes += ds.column(key[1])
        codes.setflags(write=False)
        if self.max_xy_entries > 0:
            self._xy[key] = codes
            while len(self._xy) > self.max_xy_entries:
                try:
                    self._xy.popitem(last=False)
                except KeyError:  # concurrent eviction drained the table
                    break
        return codes

    def cols_matrix(self) -> np.ndarray:
        """All columns stacked as one read-only ``(n_vars, m)`` matrix.

        Stored in the smallest unsigned dtype covering the largest arity
        (the fused column kernel reads 1–2 bytes per sample instead of
        8).  Values equal ``column(i)`` exactly, so any arithmetic over
        gathered rows matches the per-column path bit for bit once cast.
        Built lazily, once.
        """
        mat = self._cols_matrix
        if mat is None:
            ds = self.dataset
            from .dataset import smallest_uint_dtype

            max_arity = max(
                (int(ds.arity(i)) for i in range(ds.n_variables)), default=1
            )
            mat = np.empty((ds.n_variables, ds.n_samples), dtype=smallest_uint_dtype(max_arity - 1))
            for i in range(ds.n_variables):
                mat[i] = ds.column(i)
            mat.setflags(write=False)
            self._cols_matrix = mat
        return mat

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """Size of the pair memo (for tests and diagnostics)."""
        return {"n_xy": len(self._xy), "nbytes": sum(a.nbytes for a in self._xy.values())}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodedDataset(n_variables={self.dataset.n_variables}, "
            f"n_samples={self.dataset.n_samples}, n_xy={len(self._xy)})"
        )
