"""Optional native backend for the one-pass column kernel.

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

The backend is a ~30-line C file compiled on demand with the system C
compiler (``$CC``/``cc``/``gcc``/``clang``) into a per-user cached shared
object and loaded through ``ctypes``; compilation happens at most once per
machine (the cache file is keyed by a source hash).  Without a compiler
the module stays in the pure-NumPy state.

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

__all__ = ["native_kind", "native_available", "native_column_counts"]

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
"""

_C_LIB = None  # ctypes handles: {(column dtype, accumulator dtype): fn}


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

        from numpy.ctypeslib import ndpointer

        lib = ctypes.CDLL(so_path)
        i64p = ndpointer(np.int64, flags="C_CONTIGUOUS")
        fns = {}
        for col, col_dt in (("u8", np.uint8), ("u16", np.uint16)):
            for acc, acc_dt in (("i32", np.int32), ("i64", np.int64)):
                fn = getattr(lib, f"column_counts_{col}_{acc}")
                fn.restype = None
                fn.argtypes = [
                    ndpointer(col_dt, ndim=2, flags="C_CONTIGUOUS"),
                    ctypes.c_int64, ctypes.c_int64, i64p, i64p, i64p, i64p, i64p,
                ]
                fns[np.dtype(col_dt), np.dtype(acc_dt)] = fn
        _C_LIB = fns
        return True
    except Exception:  # repro: ignore[REPRO006] - compile/link probe: failure means "no backend"
        return False


_BACKEND: str | None = None if _DISABLED or not _probe_cext() else "cext"


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
) -> bool:
    """Accumulate the wave histogram into ``out`` (int64, pre-zeroed).

    ``cols`` is the C-contiguous ``(n_vars, m)`` column matrix; row ``r``
    of the wave owns the entries ``ptr[r]:ptr[r + 1]`` (at least one) of
    ``vars_`` and ``strides`` (all int64).  Cell indices are summed in
    ``code_dtype`` (``int32`` or ``int64``; it must hold every index).
    Returns ``False`` when no backend is available or the dtypes are not
    handled (``cols`` beyond ``uint16``) — the caller then runs the NumPy
    path.  Raises ``ValueError`` for a plan the C loop would run outside
    its arrays with: the loop itself checks nothing.
    """
    if _BACKEND is None:
        return False
    fn = _C_LIB.get((cols.dtype, np.dtype(code_dtype)))
    if fn is None or not cols.flags.c_contiguous:
        return False
    _check_plan(cols, ptr, vars_, strides, offsets, out, np.dtype(code_dtype))
    fn(cols, cols.shape[1], offsets.shape[0], ptr, vars_, strides, offsets, out)
    return True


def _check_plan(cols, ptr, vars_, strides, offsets, out, code_dtype) -> None:
    """Every row has a column, names columns of ``cols`` and addresses
    cells of ``out`` that ``code_dtype`` can index."""
    n = offsets.shape[0]
    if ptr.shape != (n + 1,) or vars_.shape != strides.shape or vars_.ndim != 1:
        raise ValueError("malformed kernel plan: array shapes disagree")
    if n == 0:
        return
    if ptr[0] != 0 or ptr[-1] != vars_.shape[0] or (np.diff(ptr) < 1).any():
        raise ValueError("malformed kernel plan: row pointers")
    if vars_.min() < 0 or vars_.max() >= cols.shape[0]:
        raise ValueError("kernel plan names a column outside the matrix")
    if strides.min() < 0 or offsets.min() < 0:
        raise ValueError("kernel plan has a negative place value or base")
    top = np.add.reduceat(strides * cols.max(axis=1).astype(np.int64)[vars_], ptr[:-1])
    top = int((top + offsets).max())
    if top >= out.shape[0] or top > np.iinfo(code_dtype).max:
        raise ValueError("kernel plan addresses cells outside the histogram")
