"""Vectorised contingency-table construction.

Generating the contingency table is the dominant step of every CI test
(Sec. IV-A of the paper): for ``I(X, Y | Z1..Zd)`` each of the ``m`` samples
selects one cell of an ``(n_z_configs, |X|, |Y|)`` table.  The C++ original
walks the samples in a tight loop; :func:`ci_counts` encodes the cell index
of every sample with mixed-radix arithmetic and counts with a single
``np.bincount``.

When the structural number of Z configurations greatly exceeds the sample
count, Z codes are first compressed through ``np.unique`` so the dense table
stays bounded by ``m * |X| * |Y|`` cells regardless of depth.

The column kernel
-----------------
:func:`column_counts` fills many *dense* tables at once, straight from the
variable-major column matrix — the paper's cache-friendly storage (iii)
with the cell codes built on the fly (iv) instead of stored.  Row ``r`` of
a wave names its ``k = d + 2`` columns (conditioning variables first, then
``x``, then ``y``), their place values and a disjoint histogram base::

    cell = offset_r + sum_j col[v_j][i] * stride_j

with ``stride_j = prod(rz[l] for l > j) * rx * ry`` for the conditioning
variables, ``ry`` for ``x`` and ``1`` for ``y`` — the same integer as
``z * (rx * ry) + x * ry + y + offset``, so every table is bit-identical to
a per-set :func:`ci_counts` build.  The native backend
(:mod:`repro.citests.native`) makes one pass over the ``k`` columns per
row; the NumPy fallback gathers one column position for every row at a
time and runs one ``bincount`` per wave.  Compressed-Z sets have
data-dependent first-axis sizes and go through :func:`ci_counts` instead.

:func:`wave_marginals` then gives every cell of such a histogram its
marginals ``N_x+z``, ``N_+yz``, ``N_++z`` in one integer pass (native, or
NumPy segment sums as the fallback), so the scoring pass that follows does
only float work.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import add, itemgetter

import numpy as np

__all__ = [
    "code_dtype",
    "encode_columns",
    "contingency_table",
    "ci_counts",
    "column_counts",
    "wave_marginals",
    "marginal_tables",
    "n_configurations",
    "table_key",
    "table_key_vars",
    "table_keys",
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


def table_key(x: int, y: int, s: tuple[int, ...]) -> tuple:
    """``("t", v0, v1, ..., x, y)``: the key naming the table of ``I(x, y |
    s)`` — conditioning variables first, endpoints last, the table's axis
    order.  The stats cache stores tables under it, and the fused planner
    reads a kernel row's columns from it (everything after the head)."""
    return ("t",) + s + (x, y)


#: The variables ``s + (x, y)`` of a table key (everything after its head).
table_key_vars = itemgetter(slice(1, None))


def table_keys(sets: Sequence[tuple[int, ...]], pairs: Sequence[tuple[int, int]]) -> list[tuple]:
    """:func:`table_key` of every ``(set, (x, y))`` pair, in order."""
    return list(map(add, map(add, repeat(("t",)), sets), pairs))


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
) -> tuple[np.ndarray, int, bool]:
    """Counts ``N[z, x, y]`` for one CI test.

    This is the per-set table construction shared by the looped CI testers,
    the compressed-Z sets of the fused kernel and the stats cache's looped
    front door: every path produces byte-identical tables because they run
    this exact code (or, for dense sets, :func:`column_counts`, which
    counts the same integers).

    ``xy_codes`` (``x * ry + y`` per sample) may be supplied to skip
    re-encoding the endpoints — the looped group path's reuse hook.

    Returns ``(counts, nz_structural, dense)`` where ``dense`` reports
    whether the first axis covers every structural Z configuration (i.e.
    compression did **not** kick in).
    """
    m = x_col.shape[0]
    nz_structural = n_configurations(rz)
    if xy_codes is None:
        xy_codes = x_col.astype(np.int64) * ry + y_col
    if rz:
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


def column_counts(
    cols: np.ndarray,
    ptr: np.ndarray,
    vars_: np.ndarray,
    strides: np.ndarray,
    offsets: np.ndarray,
    total: int,
    code_dtype: np.dtype,
    arena=None,
    use_native: bool = True,
    col_max: np.ndarray | None = None,
) -> np.ndarray:
    """One ``total``-cell histogram holding many dense tables (module
    docstring, "The column kernel").

    ``cols`` is the ``(n_vars, m)`` variable-major column matrix.  Row
    ``r`` owns the entries ``ptr[r]:ptr[r + 1]`` (at least one) of
    ``vars_`` and ``strides`` and the histogram base ``offsets[r]``; all
    four plan arrays are int64.  Its cells are
    ``offsets[r] + sum_j cols[vars_[j]] * strides[j]``, where a row's
    strides are mixed-radix place values — the last is 1 and each is a
    multiple of the next — because the NumPy path runs Horner's scheme
    on their ratios.

    ``code_dtype`` is the accumulator: on the native path it must hold
    every cell index (``int32`` or ``int64``), on the NumPy path every
    row-local code ``cell - offsets[r]`` (any integer dtype — the narrower,
    the less memory traffic).  ``arena`` (a
    :class:`~repro.citests.arena.KernelArena`) supplies the scratch: the
    native path's histogram (its ``"hist"`` slot, so the returned array is
    only valid until that slot is taken again — callers copy out what they
    keep) and the NumPy path's code buffers, whose histogram is
    ``np.bincount``'s own output.  ``use_native`` allows the native loop
    when a backend is available and handles ``cols.dtype``; ``col_max``
    (``cols.max(axis=1)`` as int64, kept by the caller per column matrix)
    spares the native plan check its per-wave column scan.
    """
    if arena is None:
        from .arena import KernelArena

        arena = KernelArena()
    if use_native:
        from .native import native_column_counts

        out = arena.take("hist", (int(total),), np.int64)
        out.fill(0)
        if native_column_counts(cols, ptr, vars_, strides, offsets, out, code_dtype, col_max):
            return out
    n, m = offsets.shape[0], cols.shape[1]
    k = np.diff(ptr)
    # Rows in non-increasing column count: at position j the rows that
    # still have a column form a prefix, so every step is one gather and
    # two in-place ops over a leading block.  The histogram does not
    # depend on row order (each row carries its own base).
    order = np.argsort(-k, kind="stable")
    starts = ptr[:-1][order]
    ks = k[order]
    acc = arena.take("acc", (n, m), code_dtype)
    gather = arena.take("gather", (n, m), cols.dtype)
    for j in range(int(ks[0])):
        c = int(np.count_nonzero(ks > j))
        at = starts[:c] + j
        block = acc[:c]
        if j:
            # Horner step: shift the code so far by this column's radix
            # (its predecessor's place value over its own).
            radix = strides[at - 1] // strides[at]
            np.multiply(block, radix.astype(code_dtype)[:, None], out=block)
        np.take(cols, vars_[at], axis=0, out=gather[:c], mode="clip")
        if j:
            np.add(block, gather[:c], out=block, casting="unsafe")
        else:
            np.copyto(block, gather[:c], casting="unsafe")
    # ``bincount`` counts ``intp`` codes (anything narrower is converted in
    # a hidden copy), so the widening happens here, with the row bases.
    codes = arena.take("codes", (n, m), np.intp)
    np.add(acc, offsets[order][:, None], out=codes)
    return np.bincount(codes.reshape(-1), minlength=int(total))


def wave_marginals(
    counts: np.ndarray,
    geo: np.ndarray,
    off: np.ndarray,
    out,
    use_native: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell ``(obs, N_x+z, N_+yz, N_++z)`` and per-set non-empty
    z-slice counts of a wave histogram.

    Set ``r`` owns the ``rx * ry * nz`` cells of ``counts`` (int64) from
    ``off[r]``, where ``geo[r] = (rx, ry, nz)`` (both int64); the sets (at
    least one) sit back to back from cell 0, in ``off`` order.  Every cell gets its own count and its
    three marginals as float64: sums of integer counts, exact in any
    order, so the native pass (:func:`repro.citests.native.
    native_wave_marginals`) and the NumPy fallback below agree value for
    value.  ``out(key, dtype)`` supplies each cell-sized array (arena
    scratch in the fused tester).  ``use_native`` allows the native pass
    when a backend is available; its geometry is validated first, so a
    malformed one raises ``ValueError`` instead of reaching the C loop.
    """
    n = off.shape[0]
    obs = out("obs", np.float64)
    n_xz = out("nxz", np.float64)
    n_yz = out("nyz", np.float64)
    n_z = out("nz", np.float64)
    if use_native and counts.dtype == np.int64:
        from .native import native_wave_marginals

        nonempty = np.empty(n, dtype=np.int64)
        if native_wave_marginals(counts, geo, off, obs, n_xz, n_yz, n_z, nonempty):
            return obs, n_xz, n_yz, n_z, nonempty
    rx, ry, nz = geo[:, 0], geo[:, 1], geo[:, 2]
    span = rx * ry * nz
    # The set of every cell (ones at set starts, summed), and the cell's
    # position in its own table (a running count reset to zero at every
    # set start).
    job = out("job", np.intp)
    job.fill(0)
    job[off[1:]] = 1
    np.cumsum(job, out=job)
    loc = out("loc", np.intp)
    loc.fill(1)
    loc[0] = 0
    loc[off[1:]] = 1 - span[:-1]
    np.cumsum(loc, out=loc)
    # Cell coordinates: y, and the position inside its z-slice.
    y = out("y", np.intp)
    np.remainder(loc, np.take(ry, job, out=y, mode="clip"), out=y)
    zpos = out("zpos", np.intp)
    np.remainder(loc, np.take(rx * ry, job, out=zpos, mode="clip"), out=zpos)
    # Dense 1-based marginal ids: an (x, z) row starts where y == 0, a
    # z-slice where its position is 0; a (y, z) column is slice and y.
    first = out("first", np.bool_)
    xz = job
    np.cumsum(np.equal(y, 0, out=first), out=xz)
    zid = loc
    np.cumsum(np.equal(zpos, 0, out=first), out=zid)
    yz = zpos
    np.multiply(zid, int(ry.max()), out=yz)
    yz += y
    np.copyto(obs, counts)
    slice_tot = np.bincount(zid, weights=obs)
    np.take(np.bincount(xz, weights=obs), xz, out=n_xz, mode="clip")
    np.take(np.bincount(yz, weights=obs), yz, out=n_yz, mode="clip")
    np.take(slice_tot, zid, out=n_z, mode="clip")
    zbase = np.zeros(n, dtype=np.intp)
    np.cumsum(nz[:-1], out=zbase[1:])
    nonempty = np.add.reduceat(slice_tot[1:] > 0, zbase, dtype=np.int64)
    return obs, n_xz, n_yz, n_z, nonempty


def marginal_tables(
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals ``(N[x,+,z], N[+,y,z], N[+,+,z])`` of a ``(nz, rx, ry)``
    table, in the paper's ``N_{x+z}, N_{+yz}, N_{++z}`` notation."""
    n_xz = counts.sum(axis=2)  # (nz, rx)
    n_yz = counts.sum(axis=1)  # (nz, ry)
    n_z = n_xz.sum(axis=1)  # (nz,)
    return n_xz, n_yz, n_z
