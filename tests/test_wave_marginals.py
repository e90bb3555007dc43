"""Wave marginals and the conditioning-set stream.

* :func:`repro.citests.contingency.wave_marginals` — the native pass and
  the NumPy fallback give every cell the same count and marginals
  ``N_x+z``, ``N_+yz``, ``N_++z`` and every set the same non-empty
  z-slice count, equal to a per-table reference (a hypothesis property
  over mixed geometries: one-cell tables, arities above 64, empty
  z-slices); a malformed geometry is refused before the C loop runs;
* the fused tester on uint8 and uint16 columns (arities above 64, one-cell
  tables), both statistics and both ``dof_adjust`` rules: native and
  NumPy scoring are bit-identical to the looped oracle;
* :meth:`repro.core.edges.EdgeTask.next_group` — random widths, partial
  commits, side boundaries, depths 0-4 and progress jumps (backwards and
  forwards) always stream the sets ``conditioning_set(r)`` unranks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citests.chisquare import ChiSquareTest
from repro.citests.contingency import marginal_tables, wave_marginals
from repro.citests.gsquare import GSquareTest
from repro.citests.native import native_available, native_wave_marginals
from repro.core.edges import EdgeTask
from repro.datasets.dataset import DiscreteDataset

PATHS = [False, True] if native_available() else [False]


def _fresh(total):
    """An ``out(key, dtype)`` that hands out fresh cell arrays."""
    return lambda _key, dtype: np.empty(total, dtype)


@st.composite
def wave_case(draw):
    arity = st.one_of(st.integers(1, 4), st.integers(65, 90))
    geo = []
    for _ in range(draw(st.integers(1, 6))):
        rx, ry = draw(arity), draw(arity)
        nz = draw(st.integers(1, max(1, 600 // (rx * ry))))
        geo.append((rx, ry, nz))
    spans = [rx * ry * nz for rx, ry, nz in geo]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    counts = rng.integers(0, 4, sum(spans)).astype(np.int64)
    # Sparse tables: most cells empty, and some z-slices wholly empty.
    counts[rng.random(counts.size) < draw(st.floats(0.0, 1.0))] = 0
    off = np.zeros(len(geo), dtype=np.int64)
    np.cumsum(spans[:-1], out=off[1:])
    for r, (rx, ry, nz) in enumerate(geo):
        for z in range(nz):
            if rng.random() < 0.3:
                base = int(off[r]) + z * rx * ry
                counts[base : base + rx * ry] = 0
    return np.array(geo, dtype=np.int64).reshape(-1, 3), off, counts


@given(wave_case())
@settings(max_examples=120, deadline=None)
def test_wave_marginals_native_equals_numpy(case):
    geo, off, counts = case
    total = counts.shape[0]
    got = {
        native: wave_marginals(counts, geo, off, _fresh(total), use_native=native)
        for native in PATHS
    }
    # Per-table reference: each table's marginals broadcast to its cells.
    want = [np.empty(total) for _ in range(4)]
    nonempty = []
    for (rx, ry, nz), o in zip(geo.tolist(), off.tolist(), strict=True):
        table = counts[o : o + rx * ry * nz].reshape(nz, rx, ry)
        n_xz, n_yz, n_z = marginal_tables(table)
        shape = table.shape
        for arr, val in zip(
            want,
            (table, n_xz[:, :, None], n_yz[:, None, :], n_z[:, None, None]),
            strict=True,
        ):
            arr[o : o + table.size] = np.broadcast_to(val, shape).reshape(-1)
        nonempty.append(int(np.count_nonzero(n_z)))
    for obs, n_xz, n_yz, n_z, ne in got.values():
        for arr, ref in zip((obs, n_xz, n_yz, n_z), want, strict=True):
            assert arr.dtype == np.float64
            assert np.array_equal(arr, ref)
        assert ne.tolist() == nonempty


@pytest.mark.skipif(not native_available(), reason="no native backend")
def test_malformed_geometry_rejected_before_the_loop():
    counts = np.arange(12, dtype=np.int64)
    geo = np.array([[2, 3, 2]], dtype=np.int64)
    off = np.zeros(1, dtype=np.int64)
    outs = [np.full(12, -7.0) for _ in range(4)]
    nonempty = np.full(1, -7, dtype=np.int64)
    assert native_wave_marginals(counts, geo, off, *outs, nonempty)
    assert nonempty.tolist() == [2]
    bad = [
        (np.array([[2, 3, 3]], dtype=np.int64), off),  # 18 cells of 12
        (geo, np.array([1], dtype=np.int64)),  # 1 + 12 past the end
        (geo, np.array([-1], dtype=np.int64)),  # negative base
        (np.array([[0, 3, 2]], dtype=np.int64), off),  # empty axis
        (np.array([[2, 3, 2]], dtype=np.int32), off),  # not int64
        (np.array([2, 3, 2], dtype=np.int64), off),  # not (n, 3)
        (np.array([[1 << 40, 1 << 40, 1]], dtype=np.int64), off),  # wraps
    ]
    for g, o in bad:
        outs = [np.full(12, -7.0) for _ in range(4)]
        nonempty = np.full(1, -7, dtype=np.int64)
        with pytest.raises(ValueError):
            native_wave_marginals(counts, g, o, *outs, nonempty)
        with pytest.raises(ValueError):
            wave_marginals(counts, g, o, lambda _k, _dt, outs=iter(outs): next(outs))
        # The C loop never ran: every output keeps its sentinel.
        assert all((a == -7.0).all() for a in outs)
        assert nonempty.tolist() == [-7]
    with pytest.raises(ValueError):  # output shorter than the histogram
        native_wave_marginals(counts, geo, off, *[np.empty(11)] * 4, np.empty(1, np.int64))


@st.composite
def wide_case(draw):
    n_vars = draw(st.integers(4, 6))
    arities = [draw(st.integers(1, 4)) for _ in range(n_vars)]
    if draw(st.booleans()):
        # Arities above 64 (and one above 255: uint16 columns).
        arities[0] = draw(st.integers(65, 80))
        if draw(st.booleans()):
            arities[1] = draw(st.integers(256, 270))
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = np.column_stack([rng.integers(0, a, m) for a in arities])
    ds = DiscreteDataset.from_rows(rows, arities=arities)
    items = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.integers(0, n_vars - 1))
        y = draw(st.integers(0, n_vars - 1).filter(lambda v, x=x: v != x))
        pool = [v for v in range(n_vars) if v not in (x, y)]
        sets = [
            tuple(sorted(draw(st.permutations(pool))[: draw(st.integers(0, 2))]))
            for _ in range(draw(st.integers(1, 4)))
        ]
        items.append((x, y, sets))
    return ds, items


@given(wide_case(), st.sampled_from([GSquareTest, ChiSquareTest]),
       st.sampled_from(["structural", "slices"]))
@settings(max_examples=60, deadline=None)
def test_fused_scoring_native_equals_numpy_and_oracle(case, cls, dof_adjust):
    ds, items = case
    oracle = cls(ds, dof_adjust=dof_adjust, batch_groups=False).test_groups(items)
    for native in PATHS:
        tester = cls(ds, dof_adjust=dof_adjust)
        tester.use_native = native
        got = tester.test_groups(items)
        assert [[tuple(r) for r in g] for g in got] == [[tuple(r) for r in g] for g in oracle]


@st.composite
def stream_case(draw):
    depth = draw(st.integers(0, 4))
    side1 = tuple(range(2, 2 + draw(st.integers(0, 7))))
    side2 = tuple(range(20, 20 + draw(st.integers(0, 7))))
    steps = draw(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(0, 12), st.integers(-3, 3)),
            min_size=1,
            max_size=25,
        )
    )
    return EdgeTask(0, 1, side1=side1, side2=side2, depth=depth), steps


@given(stream_case())
@settings(max_examples=200, deadline=None)
def test_next_group_streams_the_unranked_sets(case):
    # Each step fetches a window, commits part of it, and sometimes moves
    # progress by hand (backwards or forwards, possibly across the side
    # boundary): the stream is always the unranked sequence.
    task, steps = case
    total = task.total_tests
    for width, done, jump in steps:
        want = [task.conditioning_set(r) for r in range(task.progress, min(task.progress + width, total))]
        assert task.next_group(width) == want
        task.advance(min(done, len(want)))
        if jump and total:
            task.progress = min(max(task.progress + jump * 2, 0), total)
