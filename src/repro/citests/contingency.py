"""Vectorised contingency-table construction.

Generating the contingency table is the dominant step of every CI test
(Sec. IV-A of the paper): for ``I(X, Y | Z1..Zd)`` each of the ``m`` samples
selects one cell of an ``(n_z_configs, |X|, |Y|)`` table.  The C++ original
walks the samples in a tight loop; the NumPy equivalent encodes the cell
index of every sample with mixed-radix arithmetic and counts with a single
``np.bincount`` — one pass over each participating column, which is where
the storage-layout (cache-friendliness) effect shows up.

When the structural number of Z configurations greatly exceeds the sample
count, Z codes are first compressed through ``np.unique`` so the dense table
stays bounded by ``m * |X| * |Y|`` cells regardless of depth.

Group kernel (the offset-stacked bincount trick)
------------------------------------------------
Fast-BNS groups the ``gs`` conditioning sets of one edge so the X/Y work is
shared across the group (Sec. IV-B).  :func:`group_ci_counts` takes that
one step further: instead of one ``bincount`` per conditioning set, every
set ``k`` of the group gets the *offset* ``k * (nz_max * rx * ry)`` added to
its per-sample cell codes, the offset code arrays are concatenated, and one
single ``np.bincount`` over ``gs * m`` codes produces all ``gs`` contingency
tables at once as a ``(gs, nz_max, rx, ry)`` stack.  The per-set tables are
bit-identical to what per-set :func:`ci_counts` calls would build (integer
counts over disjoint code ranges), while the per-call NumPy dispatch and the
X/Y cell codes are paid once per group instead of once per set.

Batching requires every set of the group to be *dense* (its structural
``prod(rz)`` at most ``compress_threshold * m``, so no ``np.unique``
compression kicks in): compressed sets have data-dependent first-axis sizes
that cannot share a fixed per-set stride.  Callers (the CI testers) route
compressed-Z sets through the looped per-set path, which also survives as
the reference oracle for the batched kernel.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "code_dtype",
    "encode_columns",
    "contingency_table",
    "ci_counts",
    "group_ci_counts",
    "fused_cell_counts",
    "offset_vector",
    "marginal_tables",
    "n_configurations",
]

#: Mixed-radix codes are built in int64; beyond this bound ``codes * arity``
#: could wrap, so :func:`encode_columns` switches to pairwise ``np.unique``
#: compression (labels stay bounded by the sample count).
_INT64_CODE_LIMIT = np.iinfo(np.int64).max

#: Arity-driven narrowing tiers: the smallest dtype whose ``iinfo.max``
#: covers the configuration count carries the codes.  Tier boundaries sit
#: at 255/256 and 65535/65536 (``n_configs`` itself must fit, keeping one
#: spare value so ``codes * arity`` sub-products never saturate the type).
_DTYPE_TIERS = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.int32))


def code_dtype(n_configs: int) -> np.dtype:
    """Smallest supported code dtype able to hold ``n_configs``.

    ``uint8`` up to 255, ``uint16`` up to 65535, ``int32`` up to
    ``2**31 - 1``, ``int64`` beyond — the narrowing that halves (or
    quarters) the kernel's memory traffic for typical Table II arities.
    """
    for dt in _DTYPE_TIERS:
        if n_configs <= np.iinfo(dt).max:
            return dt
    return np.dtype(np.int64)


def n_configurations(arities: Sequence[int]) -> int:
    """Product of arities (number of joint configurations), 1 for empty."""
    out = 1
    for a in arities:
        out *= int(a)
    return out


def encode_columns(
    columns: Sequence[np.ndarray],
    arities: Sequence[int],
    dtype=None,
) -> tuple[np.ndarray, int]:
    """Mixed-radix encoding of parallel columns (first column most
    significant).

    Returns ``(codes, n_configs)``.  An empty column list encodes every
    sample as configuration ``0``.

    ``dtype`` selects the code dtype: ``None`` keeps the historical int64
    (every existing caller's bit-exact contract), ``"auto"`` narrows to
    :func:`code_dtype` of the configuration count (``uint8``/``uint16``/
    ``int32``/``int64`` by ``prod(arities)``), and a concrete dtype is
    used as given (the caller guarantees it fits).  All mixed-radix
    sub-products are bounded by ``n_configs - 1``, so narrowing never
    changes a code value, only its width.

    In the single-column case the encoding *is* the column: it is returned
    as ``astype(dtype, copy=False)`` — a **view of (or the very same)
    input array** when the dtype already matches, since no accumulation
    follows that would mutate it.  Multi-column encodings always copy
    (the first column becomes the accumulator).

    When ``prod(arities)`` does not fit in int64 the mixed-radix value
    itself would silently wrap, so the encoding falls back to pairwise
    ``np.unique`` compression: whenever the next ``codes * arity`` step
    could overflow, the codes so far are first relabelled to their dense
    rank (bounded by the sample count).  The result is then an *injective
    configuration labelling* — equal codes iff equal configurations, and
    label order still follows the mixed-radix (lexicographic) order —
    rather than the mixed-radix value, which is exactly the property every
    consumer (``np.unique`` compression, ``bincount`` grouping) relies on.
    ``n_configs`` is returned as an exact Python int in either case (and
    the fallback always carries int64 codes: ranks are data-dependent).
    """
    if len(columns) != len(arities):
        raise ValueError("columns and arities must have equal length")
    n_configs = n_configurations(arities)
    if dtype is None:
        target = np.dtype(np.int64)
    elif isinstance(dtype, str) and dtype == "auto":
        target = code_dtype(n_configs)
    else:
        target = np.dtype(dtype)
    if not columns:
        return np.zeros(0, dtype=target), 1
    if len(columns) == 1:
        # No accumulation follows: the column is the encoding.  Returning
        # a view (read-only when the input is) instead of a copy is safe
        # because no consumer mutates single-column codes.
        return columns[0].astype(target, copy=False), n_configs
    codes = columns[0].astype(target, copy=True)
    n_labels = int(arities[0])  # exclusive upper bound on the codes so far
    limit = int(np.iinfo(target).max)
    for i in range(1, len(columns)):
        a = int(arities[i])
        if a > 1 and n_labels > limit // a:
            # codes * a could wrap: compress the labels first.  Ranks are
            # < n_samples + 1, so the next products fit comfortably.
            # (Unreachable under "auto"/explicit dtypes, which are chosen
            # so n_configs fits; the int64 fallback keeps int64 codes.)
            _, inverse = np.unique(codes, return_inverse=True)
            codes = inverse.astype(np.int64, copy=False)
            target = np.dtype(np.int64)
            limit = _INT64_CODE_LIMIT
            n_labels = int(codes.max()) + 1 if codes.size else 1
        codes *= a
        # ``casting="unsafe"`` lets narrowed accumulators add wider source
        # columns in one ufunc call; every sub-product is bounded by
        # ``n_configs - 1`` (which fits ``target`` by construction), so the
        # down-cast never changes a value.
        np.add(codes, columns[i], out=codes, casting="unsafe")
        n_labels *= a
    return codes, n_configs


def contingency_table(
    x_col: np.ndarray,
    y_col: np.ndarray,
    z_cols: Sequence[np.ndarray],
    rx: int,
    ry: int,
    rz: Sequence[int],
    compress_threshold: int = 4,
) -> tuple[np.ndarray, int]:
    """Counts ``N[z, x, y]`` plus the *structural* number of Z configurations.

    The returned array's first axis may be smaller than the structural
    ``prod(rz)`` when compression kicked in (empty slices dropped); the
    structural count is returned separately because the classical G^2
    degrees of freedom depend on it.

    ``compress_threshold``: compress Z codes whenever the structural config
    count exceeds ``compress_threshold * m``.
    """
    m = x_col.shape[0]
    nz_structural = n_configurations(rz)
    if z_cols:
        z_codes, _ = encode_columns(list(z_cols), list(rz))
        if nz_structural > compress_threshold * max(m, 1):
            # Dense axis would be mostly empty slices: compress.
            _, z_codes = np.unique(z_codes, return_inverse=True)
            nz_dense = int(z_codes.max()) + 1 if m else 0
        else:
            nz_dense = nz_structural
    else:
        z_codes = None
        nz_dense = 1

    if z_codes is None:
        cell = x_col.astype(np.int64) * ry + y_col
    else:
        cell = (z_codes * rx + x_col) * ry + y_col
    counts = np.bincount(cell, minlength=nz_dense * rx * ry).reshape(nz_dense, rx, ry)
    return counts, nz_structural


def ci_counts(
    x_col: np.ndarray,
    y_col: np.ndarray,
    z_cols: Sequence[np.ndarray],
    rx: int,
    ry: int,
    rz: Sequence[int],
    compress_threshold: int = 4,
    xy_codes: np.ndarray | None = None,
    z_codes: np.ndarray | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Counts ``N[z, x, y]`` for one CI test, with optional precomputed codes.

    This is the single table-construction entry point shared by the CI
    testers and the :mod:`repro.engine` sufficient-statistics cache: both
    paths produce byte-identical tables because they run this exact code.

    ``xy_codes`` (``x * ry + y`` per sample) and ``z_codes`` (mixed-radix
    encoding of the conditioning columns, *pre-compression*) may be supplied
    to skip re-encoding — the group-evaluation and encoding-cache reuse
    hooks.

    Returns ``(counts, nz_structural, dense)`` where ``dense`` reports
    whether the first axis covers every structural Z configuration (i.e.
    compression did **not** kick in).
    """
    m = x_col.shape[0]
    nz_structural = n_configurations(rz)
    if xy_codes is None:
        xy_codes = x_col.astype(np.int64) * ry + y_col
    if rz:
        if z_codes is None:
            z_codes, _ = encode_columns(list(z_cols), list(rz))
        if nz_structural > compress_threshold * max(m, 1):
            _, z_codes = np.unique(z_codes, return_inverse=True)
            nz_dense = int(z_codes.max()) + 1 if m else 0
            dense = False
        else:
            nz_dense = nz_structural
            dense = True
        cell = z_codes * (rx * ry) + xy_codes
    else:
        nz_dense = 1
        dense = True
        cell = xy_codes
    counts = np.bincount(cell, minlength=nz_dense * rx * ry).reshape(nz_dense, rx, ry)
    return counts, nz_structural, dense


# Module-level cache of the group-offset base vector: ``group_ci_counts``
# used to rebuild ``np.arange(n_sets)`` for every group, a measurable slice
# of small-group dispatch.  One read-only arange per dtype is grown
# geometrically and sliced per call instead.
_ARANGE_CACHE: dict[str, np.ndarray] = {}


def offset_vector(n: int, dtype=np.int64) -> np.ndarray:
    """Read-only ``arange(n)`` served from a grow-only module cache."""
    dt = np.dtype(dtype)
    arange = _ARANGE_CACHE.get(dt.str)
    if arange is None or arange.shape[0] < n:
        arange = np.arange(max(n, 64), dtype=dt)
        arange.setflags(write=False)
        _ARANGE_CACHE[dt.str] = arange
    return arange[:n]


def group_ci_counts(
    xy_codes: np.ndarray,
    z_codes_per_set: Sequence[np.ndarray | None],
    nz_per_set: Sequence[int],
    rx: int,
    ry: int,
) -> np.ndarray:
    """All contingency tables of one endpoint group from a single bincount.

    This is the batched group kernel (module docstring): the ``gs`` sets of
    a group share the endpoints ``(x, y)``, so their per-sample cell codes
    differ only by the conditioning codes and a per-set offset.  Set ``k``
    occupies the code range ``[k * nz_max * rx * ry, (k + 1) * nz_max * rx *
    ry)`` where ``nz_max = max(nz_per_set)``; one ``np.bincount`` over the
    concatenated codes of all sets fills every table at once.

    Parameters
    ----------
    xy_codes:
        Per-sample endpoint cell codes ``x * ry + y`` (shared by the group).
    z_codes_per_set:
        Per-set *dense* mixed-radix conditioning codes: either a sequence
        of 1-D arrays (``None`` for the empty conditioning set) or a 2-D
        ``(n_sets, m)`` array (the vectorized group-encoding fast path).
        Every set must be dense — i.e. its structural ``nz`` is the actual
        first-axis size; the caller is responsible for routing compressed
        sets to the looped path.
    nz_per_set:
        Structural configuration count of each set.
    rx, ry:
        Endpoint arities.

    Returns
    -------
    A ``(n_sets, nz_max, rx, ry)`` integer stack; set ``k``'s table is the
    slice ``[k, :nz_per_set[k]]`` and is bit-identical to the table a
    per-set :func:`ci_counts` call would have built (rows beyond ``nz`` are
    zero padding).
    """
    n_sets = len(nz_per_set)
    if n_sets != len(z_codes_per_set):
        raise ValueError("z_codes_per_set and nz_per_set must have equal length")
    if n_sets == 0:
        raise ValueError("group must contain at least one conditioning set")
    nz_max = int(max(nz_per_set))
    xyr = rx * ry
    stride = nz_max * xyr
    if isinstance(z_codes_per_set, np.ndarray) and z_codes_per_set.ndim == 2:
        # Stacked codes: offset every row in three whole-group in-place
        # operations.  The 2-D form is *consumed* (mutated) — callers pass
        # a freshly built group encoding they no longer need.
        cells2d = z_codes_per_set
        cells2d *= xyr
        np.add(cells2d, xy_codes, out=cells2d, casting="unsafe")
        # The offset base vector comes from the module-level arange cache
        # instead of a per-call np.arange (the small multiply below stays —
        # it is n_sets elements, not n_sets * m).
        offsets = offset_vector(n_sets, cells2d.dtype) * cells2d.dtype.type(stride)
        cells2d += offsets[:, None]
        cells = cells2d.ravel()
    else:
        parts: list[np.ndarray] = []
        for k, z_codes in enumerate(z_codes_per_set):
            if z_codes is None:
                cell = xy_codes + k * stride
            else:
                cell = z_codes * xyr
                cell += xy_codes
                if k:
                    cell += k * stride
            parts.append(cell)
        cells = parts[0] if n_sets == 1 else np.concatenate(parts)
    counts = np.bincount(cells, minlength=n_sets * stride)
    return counts.reshape(n_sets, nz_max, rx, ry)


def fused_cell_counts(
    z2d: np.ndarray,
    xy_mat: np.ndarray | None,
    row_group: np.ndarray | None,
    scales: np.ndarray | None,
    offsets: np.ndarray | None,
    total_cells: int,
    gather_out: np.ndarray | None = None,
    use_native: bool = True,
    xy_runs: list[tuple[int, int, np.ndarray]] | None = None,
    add_out: np.ndarray | None = None,
) -> np.ndarray:
    """One histogram over the cell codes of many groups (the *megagroup*).

    Generalizes :func:`group_ci_counts` across groups with different
    endpoints: row ``r`` of ``z2d`` holds the dense conditioning codes of
    one (set, group) pair, and its global cell codes are::

        z2d[r, i] * scales[r] + xy_mat[row_group[r], i] + offsets[r]

    where ``scales[r]`` is the group's ``rx * ry``, ``xy_mat`` stacks the
    distinct endpoint encodings of the fused groups, and ``offsets[r]`` is
    the set's disjoint base in the flat output (assigned by the caller so
    each set owns exactly ``nz * rx * ry`` cells — no padding).  A single
    ``np.bincount`` (or the native one-pass loop, when available and
    ``use_native``) produces every table of every fused group at once;
    integer counts over disjoint ranges make the result bit-identical to
    per-set :func:`ci_counts` builds regardless of path or cell dtype.

    ``scales=None`` (which implies ``offsets=None``) means the caller
    already folded both into ``z2d`` — each row holds
    ``z * scale + offset`` (the fused engine memoizes *scaled* rows per
    ``(set, scale)``), so only the endpoint codes remain to be added
    before the histogram.  ``xy_runs`` — ``(start, stop, codes)`` slices
    of rows sharing one endpoint encoding — lets the NumPy path add the
    endpoint codes as one broadcast per run instead of gathering an
    ``n x m`` matrix; ``xy_mat``/``row_group`` (the gather form) are then
    only consulted by the native kernel and may be ``None`` when it is
    off.

    ``z2d`` is *consumed* (mutated) by the NumPy path; ``gather_out`` may
    supply a same-shape scratch buffer (the kernel arena's) for the
    endpoint gather.  All integer dtypes are accepted; the native path
    handles the int32/int64 pair the fused engine emits and falls back to
    NumPy otherwise.

    ``add_out`` (an ``intp`` buffer of ``z2d``'s shape, NumPy-path +
    ``xy_runs`` form only) receives the endpoint-add results instead of
    mutating ``z2d``: ``bincount`` requires ``intp`` codes and silently
    materialises a converted copy for anything narrower, so widening
    *during* the add folds that hidden allocation-plus-pass into work the
    kernel was doing anyway.  Identical sums, identical histogram.
    """
    if use_native and xy_mat is not None:
        from .native import native_fused_counts

        out = np.zeros(int(total_cells), dtype=np.int64)
        n_rows = z2d.shape[0]
        sc = scales if scales is not None else np.ones(n_rows, dtype=np.int64)
        off = offsets if offsets is not None else np.zeros(n_rows, dtype=np.int64)
        if native_fused_counts(z2d, xy_mat, row_group, sc, off, out):
            return out
    if scales is not None:
        z2d *= scales[:, None].astype(z2d.dtype, copy=False)
    if xy_runs is not None:
        if add_out is not None and offsets is None:
            for b, c, codes in xy_runs:
                np.add(z2d[b:c], codes, out=add_out[b:c])
            return np.bincount(add_out.reshape(-1), minlength=int(total_cells))
        for b, c, codes in xy_runs:
            block = z2d[b:c]
            np.add(block, codes, out=block, casting="unsafe")
    else:
        if gather_out is None:
            gather_out = np.empty(z2d.shape, dtype=xy_mat.dtype)
        np.take(xy_mat, row_group, axis=0, out=gather_out)
        np.add(z2d, gather_out, out=z2d, casting="unsafe")
    if offsets is not None:
        np.add(z2d, offsets[:, None], out=z2d, casting="unsafe")
    return np.bincount(z2d.reshape(-1), minlength=int(total_cells))


def marginal_tables(
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals ``(N[x,+,z], N[+,y,z], N[+,+,z])`` of a ``(nz, rx, ry)``
    table, in the paper's ``N_{x+z}, N_{+yz}, N_{++z}`` notation."""
    n_xz = counts.sum(axis=2)  # (nz, rx)
    n_yz = counts.sum(axis=1)  # (nz, ry)
    n_z = n_xz.sum(axis=1)  # (nz,)
    return n_xz, n_yz, n_z
