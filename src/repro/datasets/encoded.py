"""Shared encoded-dataset layer.

The looped (per-set) CI tests start by re-deriving the same integer
encodings from the raw category columns: the endpoint pair is folded into
per-sample cell codes ``x * ry + y`` and each column is widened to int64
before any mixed-radix arithmetic.  Across a learning run the same
``(x, y)`` pairs and the same columns are encoded thousands of times —
pure re-computation, because encodings depend only on the data.

:class:`EncodedDataset` memoizes those artefacts for one
:class:`~repro.datasets.dataset.DiscreteDataset`:

* ``col64(i)`` — the int64-widened (contiguous, read-only) column of
  variable ``i``, computed once per variable;
* ``xy_codes(x, y)`` — the per-sample endpoint cell codes, memoized per
  ordered pair under a bounded LRU (pairs are quadratic in the variable
  count, so the table is capped, unlike the linear ``col64`` cache);
* ``cols_matrix()`` — the narrow variable-major column matrix the fused
  column kernel reads when the dataset's own values are not already
  stored that way.

The fused kernel stores no codes at all: it builds every cell index on
the fly from the columns (:func:`repro.citests.contingency.column_counts`).

One instance is meant to be shared by everything testing against the same
dataset: the sequential engine's testers, every parallel worker (the
:class:`~repro.parallel.backends.WorkerPool` ships one instance per worker
at pool start), and a :class:`~repro.engine.session.LearningSession`'s
whole tester family.  Encodings are bit-identical to the unshared path —
the memoized arrays hold the same values the testers would have derived
inline — so sharing changes speed and nothing else.

The memoization is deliberately **not** credited in the CI-test work
counters (:class:`~repro.citests.base.CITestCounters`): those model the
paper's abstract per-test data-access machine (Sec. IV-D) and must stay
comparable across PRs and to the paper's Table IV, whereas this layer is a
constant-factor implementation optimisation.

Shared-memory lifecycle
-----------------------
For process workers the layer doubles as the repo's **zero-copy dataset
plane** (see :mod:`repro.datasets.shm`): :meth:`EncodedDataset.export_shm`
publishes the widened columns (and memoized pair codes) into
``multiprocessing.shared_memory`` blocks and returns a
:class:`~repro.datasets.shm.ShmExport` whose picklable ``handle`` is all a
worker needs; :meth:`EncodedDataset.attach_shm` maps those blocks
read-only and serves every accessor zero-copy.  The creator owns the
blocks (``ShmExport.close`` unlinks; the
:class:`~repro.parallel.backends.WorkerPool` calls it at shutdown and a
finalizer backstops crashes); attachers only ever ``close()`` their
mapping.  When shared memory is unavailable, callers fall back to shipping
the pickled dataset — attach-served encodings are bit-identical to locally
derived ones, so the fallback changes memory traffic and nothing else.
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
        LRU bound on memoized ``(x, y)`` pair encodings (``0`` disables
        pair memoization entirely; ``col64`` is always memoized).
    memoize:
        ``False`` turns every accessor into a fresh computation — used by
        the baseline learners (``pc-stable`` and friends), which must keep
        re-deriving encodings per test the way the reference
        implementations do: memoizing contiguous widened columns would
        quietly erase part of the storage-layout (cache-friendliness)
        contrast the paper measures.
    """

    def __init__(
        self,
        dataset: DiscreteDataset,
        max_xy_entries: int = DEFAULT_MAX_XY_ENTRIES,
        memoize: bool = True,
    ) -> None:
        if max_xy_entries < 0:
            raise ValueError("max_xy_entries must be >= 0")
        self.dataset = dataset
        self.max_xy_entries = int(max_xy_entries)
        self.memoize = bool(memoize)
        self._col64: dict[int, np.ndarray] = {}
        self._cols_matrix: np.ndarray | None = None
        self._xy: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        #: Attacher-side :class:`~repro.datasets.shm.AttachedBlocks` keeping
        #: the shared mappings alive; ``None`` for ordinary instances.
        self.shm = None

    # ------------------------------------------------------------------ #
    # memoized encodings
    # ------------------------------------------------------------------ #
    def col64(self, i: int) -> np.ndarray:
        """Variable ``i`` widened to a contiguous, read-only int64 array."""
        i = int(i)
        arr = self._col64.get(i)
        if arr is None:
            arr = np.ascontiguousarray(self.dataset.column(i), dtype=np.int64)
            arr.setflags(write=False)
            if self.memoize:
                self._col64[i] = arr
        return arr

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
        ry = self.dataset.arity(key[1])
        codes = self.col64(key[0]) * ry
        codes += self.col64(key[1])
        codes.setflags(write=False)
        if self.memoize and self.max_xy_entries > 0:
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
        8).  Values equal ``column(i)``
        exactly, so any arithmetic over gathered rows matches the widened
        per-column path bit for bit once cast.  Built lazily, memoized
        under ``memoize=True`` like ``col64``.
        """
        mat = getattr(self, "_cols_matrix", None)
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
            if self.memoize:
                self._cols_matrix = mat
        return mat

    def encode_z(self, s, rz) -> tuple[np.ndarray, int]:
        """Mixed-radix codes of the conditioning tuple ``s`` (fresh array).

        Uses the memoized widened columns, so repeated encodings of
        overlapping tuples skip the per-column dtype widening; the codes
        themselves are never memoized.
        """
        from ..citests.contingency import encode_columns

        return encode_columns([self.col64(v) for v in s], list(rz))

    # ------------------------------------------------------------------ #
    # shared-memory dataset plane
    # ------------------------------------------------------------------ #
    def export_shm(self):
        """Publish this layer into shared memory (module docstring).

        Returns a :class:`~repro.datasets.shm.ShmExport`; ship its
        ``handle`` to workers and call ``close()`` when the last worker is
        gone.  A non-memoizing (baseline) layer refuses to export: the
        attach side is a fully warmed memoizing layer, which would erase
        the re-derivation behaviour baselines exist to measure.
        """
        if not self.memoize:
            raise ValueError("cannot export a non-memoizing (baseline) encoding layer")
        from .shm import export_encoded

        return export_encoded(self)

    @classmethod
    def attach_shm(cls, handle) -> "EncodedDataset":
        """Attach an exported plane zero-copy (module docstring).

        The returned instance's dataset values *are* the shared columns
        plane; ``col64`` is pre-warmed for every variable and ``xy_codes``
        for every pair the exporter had memoized.  ``instance.shm`` holds
        the mappings — see :meth:`detach_shm`.
        """
        from .shm import attach_encoded

        return attach_encoded(handle)

    def detach_shm(self) -> None:
        """Drop cached views and close this attacher's mappings.

        Safe on ordinary instances (no-op).  After detaching the instance
        must not be used — its dataset's values vanish with the mapping.
        """
        if self.shm is None:
            return
        self._col64.clear()
        self._cols_matrix = None
        self._xy.clear()
        shm, self.shm = self.shm, None
        shm.close()

    def memoized_pairs(self) -> list[tuple[int, int]]:
        """Keys of the currently memoized endpoint-pair encodings (in
        recency order, coldest first — the exporter's pair plane order)."""
        return list(self._xy.keys())

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """Sizes of the memoization tables (for tests and diagnostics)."""
        return {
            "n_col64": len(self._col64),
            "n_xy": len(self._xy),
            "nbytes": sum(a.nbytes for a in self._col64.values())
            + sum(a.nbytes for a in self._xy.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodedDataset(n_variables={self.dataset.n_variables}, "
            f"n_samples={self.dataset.n_samples}, "
            f"n_col64={len(self._col64)}, n_xy={len(self._xy)})"
        )
