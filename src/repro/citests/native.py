"""Optional native backend for the one-pass column kernel and the wave
marginals.

The fused kernel (:func:`repro.citests.contingency.column_counts`) fills
every contingency table of a wave straight from the variable-major column
matrix.  Row ``r`` of a wave names its ``k = d + 2`` columns ``v_j`` (the
conditioning variables, then ``x``, then ``y``) with place values
``stride_j`` and a disjoint histogram base ``off``; the native loop makes
one pass over those columns per row::

    out[off + sum_j col[v_j][i] * stride_j] += 1

No cell-code matrix is materialised: columns are read as stored (1 or 2
bytes per sample), summed in a small stack block that stays in L1, and
scattered into the histogram.  Counting is pure integer arithmetic over
the same integers the NumPy path builds, so the histogram is
*bit-identical* either way.

The scoring pass then needs every cell's marginals ``N_x+z``, ``N_+yz``
and ``N_++z`` (:func:`repro.citests.contingency.wave_marginals`).  The
native ``wave_marginals`` walks each table's z-slices once and writes
them, plus the cell's own count, as float64 — sums of integer counts,
exact in any order, so they equal the NumPy fallback's segment sums value
for value — and counts each set's non-empty z-slices.  Its only scratch
is the output itself (a slice's ``y`` sums accumulate in the slice's
first row), so no buffer is sized by an arity.

The backend is a small C file (the two kernels, instantiated per column
and accumulator dtype) compiled on demand with the system C compiler
(``$CC``/``cc``/``gcc``/``clang``) into a per-user cached shared object
and loaded through ``ctypes``; compilation happens at most once per
machine (the cache file is keyed by a source hash).  Without a compiler
the module stays in the pure-NumPy state.  The C loops check nothing:
every entry point validates its plan first and raises ``ValueError`` for
one that would reach outside its arrays.

``REPRO_NATIVE`` environment variable:

* ``0``/``false``/``off``/``no`` — disable the native path entirely (the
  CI leg that runs the NumPy fallback end to end);
* anything else, or unset — use the C backend when it compiles.

Every entry point degrades gracefully: a failed probe or compile leaves
the module in the pure-NumPy state, never raises at import.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = ["native_kind", "native_available", "native_column_counts", "native_wave_marginals"]

_ENV = os.environ.get("REPRO_NATIVE", "").strip().lower()
_DISABLED = _ENV in ("0", "false", "off", "no")

_C_SOURCE = """
#include <stdint.h>

#define BLOCK 1024

#define COLUMN_COUNTS(NAME, T, A)                                           \\
void NAME(const T *cols, int64_t m, int64_t n, const int64_t *ptr,          \\
          const int64_t *vars, const int64_t *strides, const int64_t *offs, \\
          int64_t *out)                                                     \\
{                                                                           \\
    A acc[BLOCK];                                                           \\
    for (int64_t r = 0; r < n; ++r) {                                       \\
        int64_t b = ptr[r], e = ptr[r + 1];                                 \\
        for (int64_t i0 = 0; i0 < m; i0 += BLOCK) {                         \\
            int64_t len = m - i0 < BLOCK ? m - i0 : BLOCK;                  \\
            const T *c = cols + vars[b] * m + i0;                           \\
            A s = (A)strides[b], o = (A)offs[r];                            \\
            for (int64_t i = 0; i < len; ++i)                               \\
                acc[i] = o + (A)c[i] * s;                                   \\
            for (int64_t j = b + 1; j < e; ++j) {                           \\
                c = cols + vars[j] * m + i0;                                \\
                s = (A)strides[j];                                          \\
                for (int64_t i = 0; i < len; ++i)                           \\
                    acc[i] += (A)c[i] * s;                                  \\
            }                                                               \\
            for (int64_t i = 0; i < len; ++i)                               \\
                out[acc[i]] += 1;                                           \\
        }                                                                   \\
    }                                                                       \\
}

COLUMN_COUNTS(column_counts_u8_i32, uint8_t, int32_t)
COLUMN_COUNTS(column_counts_u8_i64, uint8_t, int64_t)
COLUMN_COUNTS(column_counts_u16_i32, uint16_t, int32_t)
COLUMN_COUNTS(column_counts_u16_i64, uint16_t, int64_t)

/* Set r is the (nz, rx, ry) table at hist[off[r]:]; geo holds (rx, ry, nz)
   per set.  Each z-slice's y sums accumulate in the slice's first row of
   nyz before being copied down, so no scratch is sized by an arity. */
void wave_marginals(const int64_t *hist, int64_t n, const int64_t *geo,
                    const int64_t *off, double *obs, double *nxz, double *nyz,
                    double *nz, int64_t *nonempty)
{
    for (int64_t r = 0; r < n; ++r) {
        int64_t rx = geo[3 * r], ry = geo[3 * r + 1], zs = geo[3 * r + 2];
        int64_t w = rx * ry, s = off[r], filled = 0;
        for (int64_t z = 0; z < zs; ++z, s += w) {
            double *col = nyz + s, tot = 0.0;
            for (int64_t y = 0; y < ry; ++y)
                col[y] = 0.0;
            for (int64_t x = 0, c = s; x < rx; ++x, c += ry) {
                double row = 0.0;
                for (int64_t y = 0; y < ry; ++y) {
                    double v = (double)hist[c + y];
                    obs[c + y] = v;
                    row += v;
                    col[y] += v;
                }
                for (int64_t y = 0; y < ry; ++y)
                    nxz[c + y] = row;
                tot += row;
            }
            for (int64_t c = s + ry; c < s + w; c += ry)
                for (int64_t y = 0; y < ry; ++y)
                    nyz[c + y] = col[y];
            for (int64_t c = s; c < s + w; ++c)
                nz[c] = tot;
            filled += tot > 0.0;
        }
        nonempty[r] = filled;
    }
}
"""

#: ctypes handles: ``{(column dtype, accumulator dtype): column_counts fn}``
#: plus ``"marginals"``.  Arguments go in as raw addresses (``c_void_p``);
#: the checks in front of each call stand in for per-argument ``ndpointer``
#: conversion.
_C_LIB: dict | None = None


def _find_compiler() -> str | None:
    import shutil

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _probe_cext() -> bool:
    global _C_LIB
    cc = _find_compiler()
    if cc is None:
        return False
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:12]
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    so_path = os.path.join(tempfile.gettempdir(), f"repro_native_{digest}_{uid}.so")
    try:
        if not os.path.exists(so_path):
            src_path = so_path[:-3] + ".c"
            with open(src_path, "w", encoding="ascii") as fh:
                fh.write(_C_SOURCE)
            tmp_so = so_path + f".tmp{os.getpid()}"
            subprocess.run(
                [cc, "-O3", "-shared", "-fPIC", "-o", tmp_so, src_path],
                check=True,
                capture_output=True,
                timeout=60,
            )
            os.replace(tmp_so, so_path)  # atomic vs concurrent compilers
        import ctypes

        lib = ctypes.CDLL(so_path)
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fns: dict = {}
        for col, col_dt in (("u8", np.uint8), ("u16", np.uint16)):
            for acc, acc_dt in (("i32", np.int32), ("i64", np.int64)):
                fn = getattr(lib, f"column_counts_{col}_{acc}")
                fn.restype = None
                fn.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, ptr]
                fns[np.dtype(col_dt), np.dtype(acc_dt)] = fn
        fn = lib.wave_marginals
        fn.restype = None
        fn.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
        fns["marginals"] = fn
        _C_LIB = fns
        return True
    except Exception:  # repro: ignore[REPRO006] - compile/link probe: failure means "no backend"
        return False


_BACKEND: str | None = None if _DISABLED or not _probe_cext() else "cext"

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #
def native_kind() -> str | None:
    """``"cext"`` or ``None`` (pure NumPy)."""
    return _BACKEND


def native_available() -> bool:
    return _BACKEND is not None


def native_column_counts(
    cols: np.ndarray,
    ptr: np.ndarray,
    vars_: np.ndarray,
    strides: np.ndarray,
    offsets: np.ndarray,
    out: np.ndarray,
    code_dtype: np.dtype,
    col_max: np.ndarray | None = None,
) -> bool:
    """Accumulate the wave histogram into ``out`` (int64, pre-zeroed).

    ``cols`` is the C-contiguous ``(n_vars, m)`` column matrix; row ``r``
    of the wave owns the entries ``ptr[r]:ptr[r + 1]`` (at least one) of
    ``vars_`` and ``strides`` (all int64).  Cell indices are summed in
    ``code_dtype`` (``int32`` or ``int64``; it must hold every index).
    ``col_max`` is ``cols.max(axis=1)`` as int64 when the caller keeps it
    (one scan per column matrix instead of one per wave); it is computed
    here otherwise.  Returns ``False`` when no backend is available or
    the dtypes are not handled (``cols`` beyond ``uint16``) — the caller
    then runs the NumPy path.  Raises ``ValueError`` for a plan the C loop
    would run outside its arrays with: the loop itself checks nothing.
    """
    if _BACKEND is None:
        return False
    fn = _C_LIB.get((cols.dtype, np.dtype(code_dtype)))
    if fn is None or cols.ndim != 2 or not cols.flags.c_contiguous:
        return False
    if col_max is None:
        col_max = cols.max(axis=1, initial=0).astype(np.int64)
    _check_plan(cols, ptr, vars_, strides, offsets, out, np.dtype(code_dtype), col_max)
    fn(
        cols.ctypes.data, cols.shape[1], offsets.shape[0], ptr.ctypes.data,
        vars_.ctypes.data, strides.ctypes.data, offsets.ctypes.data, out.ctypes.data,
    )
    return True


def _check_int64(*arrays: np.ndarray) -> None:
    for a in arrays:
        if a.dtype != _I64 or a.ndim != 1 or not a.flags.c_contiguous:
            raise ValueError("kernel plan arrays must be 1-D C-contiguous int64")


def _check_plan(cols, ptr, vars_, strides, offsets, out, code_dtype, col_max) -> None:
    """Every row has a column, names columns of ``cols`` and addresses
    cells of ``out`` that ``code_dtype`` can index."""
    _check_int64(ptr, vars_, strides, offsets, out)
    n = offsets.shape[0]
    if ptr.shape != (n + 1,) or vars_.shape != strides.shape:
        raise ValueError("malformed kernel plan: array shapes disagree")
    if col_max.shape != (cols.shape[0],):
        raise ValueError("malformed kernel plan: column maxima do not match the matrix")
    if n == 0:
        return
    if ptr[0] != 0 or ptr[-1] != vars_.shape[0] or (np.diff(ptr) < 1).any():
        raise ValueError("malformed kernel plan: row pointers")
    if vars_.min() < 0 or vars_.max() >= cols.shape[0]:
        raise ValueError("kernel plan names a column outside the matrix")
    if strides.min() < 0 or offsets.min() < 0:
        raise ValueError("kernel plan has a negative place value or base")
    top = np.add.reduceat(strides * col_max[vars_], ptr[:-1])
    top = int((top + offsets).max())
    if top >= out.shape[0] or top > np.iinfo(code_dtype).max:
        raise ValueError("kernel plan addresses cells outside the histogram")


def native_wave_marginals(
    counts: np.ndarray,
    geo: np.ndarray,
    off: np.ndarray,
    obs: np.ndarray,
    n_xz: np.ndarray,
    n_yz: np.ndarray,
    n_z: np.ndarray,
    nonempty: np.ndarray,
) -> bool:
    """Fill every cell's ``obs``, ``n_xz``, ``n_yz``, ``n_z`` (float64) and
    every set's ``nonempty`` z-slice count (int64) from a wave histogram.

    Set ``r`` is the ``(nz, rx, ry)`` table at ``counts[off[r]:]`` with
    ``geo[r] = (rx, ry, nz)``.  Returns ``False`` when no backend is
    available (the caller then runs the NumPy path); raises
    ``ValueError`` for a geometry that would reach outside the histogram
    or the outputs, before the C loop runs.
    """
    if _BACKEND is None:
        return False
    _check_int64(counts, off, nonempty)
    total, n = counts.shape[0], off.shape[0]
    if geo.dtype != _I64 or geo.shape != (n, 3) or not geo.flags.c_contiguous:
        raise ValueError("malformed wave geometry: expected (n, 3) C-contiguous int64")
    if nonempty.shape != (n,):
        raise ValueError("malformed wave geometry: one slice count per set")
    for a in (obs, n_xz, n_yz, n_z):
        if a.dtype != _F64 or a.shape != (total,) or not a.flags.c_contiguous:
            raise ValueError("wave marginal outputs must be float64 cells of the histogram")
    if n:
        # Staged so no product can wrap: each factor, then each partial
        # product, is at most ``total`` before the next multiply.
        if geo.min() < 1 or geo.max() > total or off.min() < 0:
            raise ValueError("wave geometry outside the histogram")
        width = geo[:, 0] * geo[:, 1]
        if width.max() > total or int((off + width * geo[:, 2]).max()) > total:
            raise ValueError("wave geometry outside the histogram")
    _C_LIB["marginals"](
        counts.ctypes.data, n, geo.ctypes.data, off.ctypes.data, obs.ctypes.data,
        n_xz.ctypes.data, n_yz.ctypes.data, n_z.ctypes.data, nonempty.ctypes.data,
    )
    return True
