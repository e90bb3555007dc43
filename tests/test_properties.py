"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citests.contingency import contingency_table, encode_columns
from repro.core.combinadic import rank_combination, unrank_combination
from repro.core.edges import EdgeTask
from repro.datasets.dataset import DiscreteDataset
from repro.graphs.dag import dag_to_cpdag, is_acyclic
from repro.graphs.separation import DSeparationOracle
from repro.graphs.undirected import UndirectedGraph
from repro.networks.generators import random_dag


# ---------------------------------------------------------------------- #
# combinadics
# ---------------------------------------------------------------------- #
@given(st.integers(0, 12), st.integers(0, 6), st.data())
def test_unrank_rank_bijection(p, q, data):
    total = comb(p, q)
    if total == 0:
        return
    r = data.draw(st.integers(0, total - 1))
    combo = unrank_combination(p, q, r)
    assert len(combo) == q
    assert all(0 <= c < p for c in combo)
    assert list(combo) == sorted(set(combo))
    assert rank_combination(p, combo) == r


@given(st.integers(1, 10), st.integers(1, 5))
def test_unrank_is_monotone_in_rank(p, q):
    total = comb(p, q)
    if total < 2:
        return
    previous = None
    for r in range(total):
        combo = unrank_combination(p, q, r)
        if previous is not None:
            assert combo > previous  # lexicographic order
        previous = combo


# ---------------------------------------------------------------------- #
# edge tasks
# ---------------------------------------------------------------------- #
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(1, 3),
    st.integers(1, 8),
)
@settings(max_examples=60)
def test_edge_task_groups_partition_all_sets(p1, p2, depth, gs):
    side1 = tuple(range(2, 2 + p1))
    side2 = tuple(range(20, 20 + p2))
    task = EdgeTask(0, 1, side1, side2, depth)
    collected = []
    while not task.done:
        group = task.next_group(gs)
        task.advance(len(group))
        collected.extend(group)
    expected = [tuple(side1[i] for i in c) for c in combinations(range(p1), depth)]
    expected += [tuple(side2[i] for i in c) for c in combinations(range(p2), depth)]
    assert collected == expected
    assert len(collected) == task.total_tests


# ---------------------------------------------------------------------- #
# dataset encoding / contingency counts
# ---------------------------------------------------------------------- #
@st.composite
def discrete_rows(draw):
    n_vars = draw(st.integers(2, 5))
    arities = [draw(st.integers(2, 4)) for _ in range(n_vars)]
    m = draw(st.integers(1, 60))
    rows = [[draw(st.integers(0, a - 1)) for a in arities] for _ in range(m)]
    return np.array(rows, dtype=np.int64), arities


@given(discrete_rows())
@settings(max_examples=40)
def test_layout_roundtrip_property(data):
    rows, arities = data
    vm = DiscreteDataset.from_rows(rows, arities=arities, layout="variable-major")
    sm = DiscreteDataset.from_rows(rows, arities=arities, layout="sample-major")
    np.testing.assert_array_equal(vm.as_rows(), sm.as_rows())
    for i in range(len(arities)):
        np.testing.assert_array_equal(vm.column(i), sm.column(i))


@given(discrete_rows(), st.data())
@settings(max_examples=40, deadline=None)
def test_layouts_identical_through_batched_kernel(data, draw):
    """Sample-major and variable-major layouts produce bit-identical
    results through the batched group kernel (and both equal the looped
    reference)."""
    from repro.citests.gsquare import GSquareTest

    rows, arities = data
    n_vars = len(arities)
    x = draw.draw(st.integers(0, n_vars - 1))
    y = draw.draw(st.integers(0, n_vars - 1).filter(lambda v: v != x))
    pool = [v for v in range(n_vars) if v not in (x, y)]
    sets = []
    for _ in range(draw.draw(st.integers(2, 5))):
        size = draw.draw(st.integers(0, len(pool)))
        subset = draw.draw(st.permutations(pool))[:size] if pool else []
        sets.append(tuple(sorted(subset)))

    outcomes = []
    for layout in ("variable-major", "sample-major"):
        ds = DiscreteDataset.from_rows(rows, arities=arities, layout=layout)
        for batch in (True, False):
            tester = GSquareTest(ds, batch_groups=batch)
            res = tester.test_group(x, y, sets)
            outcomes.append([(r.statistic, r.dof, r.p_value, r.independent) for r in res])
    reference = outcomes[0]
    for other in outcomes[1:]:
        assert other == reference  # bitwise equality across layouts and paths


@given(discrete_rows())
@settings(max_examples=40)
def test_encode_columns_injective(data):
    rows, arities = data
    ds = DiscreteDataset.from_rows(rows, arities=arities)
    cols = ds.columns(range(len(arities)))
    codes, n_cfg = encode_columns(cols, list(arities))
    assert codes.max(initial=0) < n_cfg
    # Decoding by repeated divmod must reproduce the original columns.
    decoded = np.zeros_like(rows)
    rem = codes.copy()
    for j in range(len(arities) - 1, -1, -1):
        decoded[:, j] = rem % arities[j]
        rem //= arities[j]
    np.testing.assert_array_equal(decoded, rows)


@given(discrete_rows())
@settings(max_examples=30)
def test_contingency_total_is_sample_count(data):
    rows, arities = data
    ds = DiscreteDataset.from_rows(rows, arities=arities)
    x, y = 0, 1
    zs = list(range(2, len(arities)))
    counts, _ = contingency_table(
        ds.column(x),
        ds.column(y),
        ds.columns(zs),
        arities[x],
        arities[y],
        [arities[z] for z in zs],
    )
    assert counts.sum() == ds.n_samples


# ---------------------------------------------------------------------- #
# graphs
# ---------------------------------------------------------------------- #
@given(st.integers(2, 10), st.data())
@settings(max_examples=40)
def test_random_dag_properties(n, data):
    max_edges = n * (n - 1) // 2
    e = data.draw(st.integers(0, min(max_edges, 3 * n)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    edges = random_dag(n, e, rng=seed, max_parents=None)
    assert len(edges) == e
    assert is_acyclic(n, edges)


@given(st.integers(2, 9), st.data())
@settings(max_examples=30)
def test_dseparation_symmetry_property(n, data):
    e = data.draw(st.integers(0, min(n * (n - 1) // 2, 2 * n)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    edges = random_dag(n, e, rng=seed, max_parents=None)
    oracle = DSeparationOracle(n, edges)
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    if x == y:
        return
    pool = [v for v in range(n) if v not in (x, y)]
    z = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)) if pool else st.just(set()))
    assert oracle.query(x, y, z) == oracle.query(y, x, z)


@given(st.integers(2, 9), st.data())
@settings(max_examples=30)
def test_cpdag_skeleton_preserved_property(n, data):
    e = data.draw(st.integers(0, min(n * (n - 1) // 2, 2 * n)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    edges = random_dag(n, e, rng=seed, max_parents=None)
    cpdag = dag_to_cpdag(n, edges)
    assert cpdag.skeleton_edges() == {(min(u, v), max(u, v)) for u, v in edges}
    # Directed CPDAG edges agree with the DAG's orientation.
    for u, v in cpdag.directed_edges():
        assert (u, v) in edges


@given(st.integers(1, 8))
def test_complete_graph_edge_count(n):
    g = UndirectedGraph.complete(n)
    assert g.n_edges == n * (n - 1) // 2
    assert len(list(g.edges())) == g.n_edges


# ---------------------------------------------------------------------- #
# end-to-end: oracle PC-stable recovers the CPDAG, any gs / grouping
# ---------------------------------------------------------------------- #
@given(st.integers(4, 9), st.data())
@settings(max_examples=25, deadline=None)
def test_oracle_pc_recovers_cpdag_property(n, data):
    from repro.citests.oracle import OracleCITest
    from repro.core.orientation import orient_skeleton
    from repro.core.skeleton import learn_skeleton

    e = data.draw(st.integers(0, min(n * (n - 1) // 2, 2 * n)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    gs = data.draw(st.sampled_from([1, 2, 4, 7]))
    grouped = data.draw(st.booleans())
    edges = random_dag(n, e, rng=seed, max_parents=None)
    tester = OracleCITest(n, edges)
    graph, sepsets, _ = learn_skeleton(tester, n, gs=gs, group_endpoints=grouped)
    cpdag = orient_skeleton(graph, sepsets)
    assert cpdag == dag_to_cpdag(n, edges)
